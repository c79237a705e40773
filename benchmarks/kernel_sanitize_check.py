#!/usr/bin/env python3
"""ASan/UBSan regression harness for the compiled span kernel.

Builds ``_spankernel.c`` with ``-fsanitize=address,undefined
-fno-sanitize-recover=all`` (``REPRO_SPAN_KERNEL_SANITIZE=1``), loads it
into a child interpreter with the sanitizer runtimes preloaded and real
``malloc`` in use, and drives it through:

1. the PR 9 backlog-migration overflow stressor (heavily skewed Bernoulli
   weights push one queue's backlog through repeated grow/migrate cycles —
   the workload that exposed the unchecked writeback overflow), and
2. an array-vs-reference differential sweep across RADS configs, wide
   ones (256 and 512 queues, one with arrivals on queue 255) included,
   asserting bit-identical reports so the instrumented build is proven to
   be the same kernel, not just a crash-free one, and
3. a streamed Zipf run whose chunk plans the kernel draws itself, with
   uneven chunks, a warmup boundary inside a chunk and one
   checkpoint/resume, against the reference engine, and
4. a 2-queue Bernoulli process feeding an 8-queue buffer, monolithic and
   streamed, against the reference engine (the kernel draws over the
   buffer's queues, so it must run python's plan, not read past the
   process's two weights), and
5. the fabric entry: a 64-port ``random`` switch in 1- and 7-slot windows
   (flush windows included) and a 256-port ``islip`` switch, whose request
   bitsets span four words, each against the reference engine's python
   fabric.

Any out-of-bounds access or UB in the C source aborts the child with a
sanitizer report, which this parent surfaces verbatim.

Usage::

    python benchmarks/kernel_sanitize_check.py            # skip if no toolchain
    python benchmarks/kernel_sanitize_check.py --require  # CI: missing toolchain fails

Exit codes: 0 clean (or skipped without ``--require``), 1 sanitizer
finding or differential mismatch, 2 missing toolchain with ``--require``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: The child workload.  Runs under ASan+UBSan with the sanitized kernel
#: loaded; any memory error aborts before the prints.
_CHILD = r"""
import os
import sys
import tempfile

from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.kernel import load_kernel
from repro.sim.streaming import resume_stream
from repro.traffic.arbiters import RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals, ZipfArrivals

if load_kernel() is None:
    print("SANITIZED KERNEL FAILED TO LOAD", file=sys.stderr)
    sys.exit(3)

def make_sim(weights=None, num_queues=8, granularity=64, seed=31):
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=num_queues,
                                    granularity=granularity)),
        BernoulliArrivals(num_queues, load=1.0, seed=seed, weights=weights),
        RandomArbiter(num_queues, seed=seed + 1, load=0.05))

# 1. PR 9 backlog-migration overflow stressor: one queue absorbs almost the
# whole load, forcing repeated backlog grow/migrate cycles through the
# kernel writeback path that used to overflow.
skew = [500, 1, 1, 1, 1, 1, 1, 1]
stream = make_sim(weights=skew).run_stream(4000, engine="array",
                                           chunk_slots=200)
reference = make_sim(weights=skew).run_stream(4000, engine="reference",
                                              chunk_slots=200)
if stream != reference:
    print("DIFFERENTIAL MISMATCH: backlog-migration stressor", file=sys.stderr)
    sys.exit(4)
print("stressor ok")

# 2. Differential sweep: uniform and mildly skewed loads across shapes,
# up to wide machines whose queue ids no longer fit a byte (the 256-queue
# shape sends a tenth of its arrivals to queue 255).
for num_queues, granularity, seed, weights in (
        (4, 32, 7, None),
        (8, 64, 11, None),
        (16, 128, 13, None),
        (8, 64, 17, [8, 4, 2, 1, 1, 2, 4, 8]),
        (256, 8, 19, [1] * 255 + [28]),
        (512, 4, 23, None),
):
    registry = MetricsRegistry()
    with using_metrics(registry):
        got = make_sim(weights, num_queues, granularity, seed).run(
            3000, engine="array")
    want = make_sim(weights, num_queues, granularity, seed).run(
        3000, engine="reference")
    if got != want:
        print(f"DIFFERENTIAL MISMATCH: q={num_queues} g={granularity} "
              f"seed={seed}", file=sys.stderr)
        sys.exit(4)
    if not registry.counter("engine.array.kernel_spans"):
        print(f"KERNEL NOT REACHED: q={num_queues} g={granularity} "
              f"seed={seed}", file=sys.stderr)
        sys.exit(4)
print("differential ok")

# 3. Streamed Zipf run, plans drawn by the kernel: 1300-slot chunks over
# 7000 slots, the warmup boundary at 2000 inside the second chunk, and a
# checkpoint at 4000 whose mark leaves a 100-slot span the kernel declines.
def zipf_sim():
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=32, granularity=8)),
        ZipfArrivals(32, exponent=1.2, load=0.9, seed=29),
        RandomArbiter(32, seed=30, load=0.95))

geometry = dict(chunk_slots=1300, warmup_slots=2000)
want = zipf_sim().run_stream(7000, engine="reference", **geometry)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "stream.ckpt.json")
    registry = MetricsRegistry()
    with using_metrics(registry):
        got = zipf_sim().run_stream(7000, engine="array",
                                    checkpoint_every=4000,
                                    checkpoint_path=path, **geometry)
    resumed = resume_stream(path)
if got != want or resumed != want:
    print("DIFFERENTIAL MISMATCH: streamed zipf", file=sys.stderr)
    sys.exit(4)
if not registry.counter("engine.array.kernel_plan_slots"):
    print("KERNEL NOT REACHED: no streamed plan drawn by the kernel",
          file=sys.stderr)
    sys.exit(4)
print("streamed ok")

# 4. Fewer process queues than buffer queues, monolithic and streamed.
def narrow_sim():
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=8)),
        BernoulliArrivals(2, load=0.9, seed=37),
        RandomArbiter(8, seed=38, load=0.95))

for label, run in (
        ("monolithic", lambda sim, engine: sim.run(3000, engine=engine)),
        ("streamed", lambda sim, engine: sim.run_stream(
            3000, engine=engine, chunk_slots=700, warmup_slots=1000)),
):
    registry = MetricsRegistry()
    with using_metrics(registry):
        got = run(narrow_sim(), "array")
    if got != run(narrow_sim(), "reference"):
        print(f"DIFFERENTIAL MISMATCH: 2-queue process, {label}",
              file=sys.stderr)
        sys.exit(4)
    if not registry.counter("engine.array.kernel_spans"):
        print(f"KERNEL NOT REACHED: 2-queue process, {label}",
              file=sys.stderr)
        sys.exit(4)
print("narrow process ok")

# 5. The fabric entry: every window, its stats and the arbiter state
# afterwards against the python fabric.
import dataclasses

from repro.switch import get_switch_scenario
from repro.switch.model import FabricStream

def fabric_run(scenario, engine, chunk_slots):
    stream = FabricStream(scenario, chunk_slots=chunk_slots, engine=engine)
    windows = list(stream.chunks())
    fabric = stream.fabric
    state = (fabric._rng.getstate() if hasattr(fabric, "_rng")
             else getattr(fabric, "_grant", None))
    return windows, stream.stats, state

for ports, policy, traffic, slots, chunks in (
        (64, "random", "incast", 60, (1, 7)),
        (256, "islip", "uniform", 40, (None,)),
):
    scenario = dataclasses.replace(
        get_switch_scenario(traffic).with_overrides(num_ports=ports,
                                                    num_slots=slots),
        fabric={"type": policy, "params": {}})
    for chunk in chunks:
        registry = MetricsRegistry()
        with using_metrics(registry):
            got = fabric_run(scenario, "array", chunk)
        if got != fabric_run(scenario, "reference", chunk):
            print(f"DIFFERENTIAL MISMATCH: fabric {ports} ports {policy} "
                  f"chunk {chunk}", file=sys.stderr)
            sys.exit(4)
        if (registry.counter("switch.fabric.kernel_slots")
                != got[1].total_slots or not got[1].flush_slots):
            print(f"KERNEL NOT REACHED: fabric {ports} ports {policy} "
                  f"chunk {chunk}", file=sys.stderr)
            sys.exit(4)
print("fabric ok")
print("SANITIZE CHECK PASSED")
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 2) instead of skipping when the "
                             "sanitizer toolchain is unavailable")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    from repro.sim.kernel import _compiler, sanitizer_preload

    def skip(reason: str) -> int:
        if args.require:
            print(f"error: {reason}", file=sys.stderr)
            return 2
        print(f"skip: {reason}")
        return 0

    if _compiler() is None:
        return skip("no C compiler on PATH")
    preload = sanitizer_preload()
    if preload is None:
        return skip("sanitizer runtime libraries not found "
                    "(cc -print-file-name=libasan.so)")

    env = dict(os.environ)
    with tempfile.TemporaryDirectory(prefix="repro-sanitize-") as cache:
        env.update({
            "REPRO_SPAN_KERNEL_SANITIZE": "1",
            # Fresh cache: always exercise the sanitized compile itself.
            "XDG_CACHE_HOME": cache,
            "LD_PRELOAD": preload,
            # pymalloc arenas carry no ASan redzones; route Python object
            # allocation through intercepted malloc so overflows on
            # Python-owned buffers are caught too.
            "PYTHONMALLOC": "malloc",
            # CPython leaks-by-design at interpreter exit; leak checking
            # would drown real findings.
            "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=1",
            "UBSAN_OPTIONS": "print_stacktrace=1",
            "PYTHONPATH": str(SRC) + (
                os.pathsep + env["PYTHONPATH"]
                if env.get("PYTHONPATH") else ""),
        })
        proc = subprocess.run([sys.executable, "-c", _CHILD], env=env)
    if proc.returncode == 0:
        print("kernel sanitize check passed")
        return 0
    if proc.returncode == 3 and not args.require:
        # The sanitized .so compiled but would not load in this
        # environment (e.g. static-only sanitizer runtimes).
        print("skip: sanitized kernel did not load")
        return 0
    print(f"error: sanitize child exited {proc.returncode}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
