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
   fabric, and
6. the CFDS entry, each against the reference engine: renaming on and off
   with a group capacity that drops blocks, non-strict DRAM without the
   ORR (bank conflicts serialise), the ``random`` and ``longest_queue``
   arbiters, a streamed run in 200- and 700-slot chunks with a mid-run
   checkpoint, and an 8-port CFDS switch in 250-slot fabric windows,
   whose ingress plans the fabric entry draws (it exits 4 if it drew
   none) and whose ``int32`` rows the CFDS entry runs as its plans, and
7. the arbiters and plans the two span entries share, each against the
   reference engine, monolithic and streamed (warmup boundary inside a
   chunk, one checkpoint resumed): RADS with ``longest_queue`` and with no
   arbiter, and CFDS on a Bernoulli plan the kernel draws.

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

# 6. The CFDS entry: reports, group occupancy and drops against the
# reference engine.
from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.core.ongoing_register import OngoingRequestsRegister
from repro.switch import SwitchModel
from repro.traffic.arbiters import LongestQueueArbiter
from repro.traffic.arrivals import BurstyArrivals

def cfds_sim(arbiter="random", renaming=True, group_cap=None, no_orr=False):
    buffer = CFDSPacketBuffer(
        CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                   num_banks=32, strict=False),
        use_renaming=renaming, group_capacity_cells=group_cap)
    if no_orr:
        buffer.scheduler.ongoing = OngoingRequestsRegister(0)
    return ClosedLoopSimulation(
        buffer, BurstyArrivals(8, mean_burst_cells=16, load=0.95, seed=41),
        RandomArbiter(8, load=0.7, seed=42) if arbiter == "random"
        else LongestQueueArbiter(8))

def cfds_outcome(sim, report):
    return (report, sim.buffer.dram_group_occupancy(),
            sim.buffer.dropped_cells)

def cfds_check(label, run, want_drops=False, want_conflicts=False):
    registry = MetricsRegistry()
    with using_metrics(registry):
        got = run("array")
    want = run("reference")
    if got != want:
        print(f"DIFFERENTIAL MISMATCH: cfds {label}", file=sys.stderr)
        sys.exit(4)
    if (not registry.counter("engine.array.kernel_spans")
            or (want_drops and not got[2])
            or (want_conflicts and not got[0].buffer_result.bank_conflicts)):
        print(f"KERNEL NOT REACHED: cfds {label}", file=sys.stderr)
        sys.exit(4)
    return registry

for label, knobs, drops, conflicts in (
        ("renaming, dropping groups", dict(group_cap=40), True, False),
        ("static, dropping groups", dict(renaming=False, group_cap=40),
         True, False),
        ("no ORR, bank conflicts", dict(no_orr=True), False, True),
        ("longest_queue", dict(arbiter="longest_queue"), False, False),
):
    def run(engine, knobs=knobs):
        sim = cfds_sim(**knobs)
        return cfds_outcome(sim, sim.run(3000, engine=engine))
    cfds_check(label, run, drops, conflicts)

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "cfds.ckpt.json")
    for chunk in (200, 700):
        def run(engine, chunk=chunk):
            sim = cfds_sim(group_cap=40)
            return cfds_outcome(sim, sim.run_stream(
                3000, engine=engine, chunk_slots=chunk, warmup_slots=500,
                checkpoint_every=1400, checkpoint_path=path))
        cfds_check(f"streamed, {chunk}-slot chunks", run, True)
        if resume_stream(path) != run("reference")[0]:
            print(f"DIFFERENTIAL MISMATCH: cfds resumed, {chunk}-slot "
                  f"chunks", file=sys.stderr)
            sys.exit(4)

switch = get_switch_scenario("uniform").with_overrides(num_slots=600)
switch = dataclasses.replace(switch, ports=({
    "scheme": "cfds",
    "buffer": {"dram_access_slots": 8, "granularity": 2, "num_banks": 32},
    "arbiter": {"type": "longest_queue", "params": {}}},))

def switch_run(engine):
    # The report names its engine; the fabric and the ports must agree.
    report = SwitchModel(switch).run(engine=engine, chunk_slots=250)
    return report.fabric, report.ports, None

# The fabric kernel draws the ingress plans and hands its int32 rows to the
# ports' CFDS entry as their explicit plans.
if not cfds_check("8-port switch, 250-slot windows", switch_run).counter(
        "switch.fabric.kernel_plan_slots"):
    print("KERNEL NOT REACHED: switch ingress plans", file=sys.stderr)
    sys.exit(4)
print("cfds ok")

# 7. The shared arbiters and plans: every shape must reach the kernel, and
# the CFDS one must have its plan drawn there.
def rads_shape(arbiter, seed):
    return lambda: ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=16, granularity=8)),
        BernoulliArrivals(16, load=0.9, seed=seed), arbiter)

shapes = (
    ("rads longest_queue", rads_shape(LongestQueueArbiter(16), 43)),
    ("rads no arbiter", rads_shape(None, 44)),
    ("cfds bernoulli plan", lambda: ClosedLoopSimulation(
        CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                    granularity=2, num_banks=32,
                                    strict=False),
                         group_capacity_cells=48),
        BernoulliArrivals(8, load=0.9, seed=45),
        RandomArbiter(8, load=0.7, seed=46))),
)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "shared.ckpt.json")
    for label, make in shapes:
        for mode in ("monolithic", "streamed"):
            def run(engine, mode=mode, make=make):
                if mode == "monolithic":
                    return make().run(3000, engine=engine)
                return make().run_stream(
                    3000, engine=engine, chunk_slots=700, warmup_slots=1000,
                    checkpoint_every=1500, checkpoint_path=path)
            want = run("reference")
            registry = MetricsRegistry()
            with using_metrics(registry):
                got = run("array")
            if got != want or (mode == "streamed"
                               and resume_stream(path) != want):
                print(f"DIFFERENTIAL MISMATCH: {label}, {mode}",
                      file=sys.stderr)
                sys.exit(4)
            if (not registry.counter("engine.array.kernel_spans")
                    or (label.startswith("cfds")
                        and not registry.counter(
                            "engine.array.kernel_plan_slots"))):
                print(f"KERNEL NOT REACHED: {label}, {mode}",
                      file=sys.stderr)
                sys.exit(4)
print("shared arbiters and plans ok")
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
