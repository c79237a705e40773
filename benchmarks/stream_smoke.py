"""CI streaming smoke: bounded peak RSS, kernel-drawn plans and a
checkpoint/resume round-trip.

The streaming path's whole reason to exist is that a run's peak memory is a
function of the *chunk size*, never the *horizon*.  This script drives a
long streamed run (1M slots in CI), with metrics on, and fails if:

* peak RSS exceeds a horizon-independent bound (``--rss-limit-mb``, default
  512 — an interpreter plus a chunk's arrival plan is comfortably under
  100 MB, so a regression that materialises an O(slots) structure on the
  streaming path trips this immediately);
* the span kernel loads but did not draw the arrivals of every main slot
  itself (``engine.array.kernel_plan_slots``), so a change that sends
  streamed plans back to python fails here;
* a run checkpointed mid-way and resumed in a *fresh process state* does not
  reproduce the uninterrupted run's report bit for bit.

Run it directly (CI does) or via pytest::

    python benchmarks/stream_smoke.py --slots 1000000
"""

import argparse
import json
import os
import resource
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

DEFAULT_SLOTS = 1_000_000
DEFAULT_CHUNK = 65_536
DEFAULT_RSS_LIMIT_MB = 512
ENGINE = "array"


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover
        return usage / (1024 * 1024)
    return usage / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slots", type=int, default=DEFAULT_SLOTS)
    parser.add_argument("--chunk-slots", type=int, default=DEFAULT_CHUNK)
    parser.add_argument("--warmup", type=int, default=50_000)
    parser.add_argument("--rss-limit-mb", type=float,
                        default=DEFAULT_RSS_LIMIT_MB)
    args = parser.parse_args(argv)

    from repro.bench.suite import stream_scenario
    from repro.obs.metrics import using_metrics
    from repro.sim.kernel import load_kernel
    from repro.sim.streaming import StreamingSimulation, resume_stream

    scenario = stream_scenario(num_slots=args.slots)

    started = time.perf_counter()
    with using_metrics() as registry:
        baseline = scenario.run_stream(engine=ENGINE,
                                       chunk_slots=args.chunk_slots,
                                       warmup_slots=args.warmup)
    elapsed = time.perf_counter() - started
    rss = peak_rss_mb()
    kslots = args.slots / elapsed / 1e3
    print(f"streamed {args.slots} slots ({ENGINE} engine, chunk "
          f"{args.chunk_slots}, warmup {args.warmup}) in {elapsed:.2f} s "
          f"({kslots:.0f} kslots/s), peak RSS {rss:.0f} MiB")
    if rss > args.rss_limit_mb:
        print(f"FAIL: peak RSS {rss:.0f} MiB exceeds the "
              f"{args.rss_limit_mb:.0f} MiB bound — something on the "
              "streaming path is O(slots)", file=sys.stderr)
        return 1
    drawn = registry.counter("engine.array.kernel_plan_slots")
    if load_kernel() is not None:
        print(f"span kernel drew {drawn} of {args.slots} main slots' "
              "arrivals")
        if drawn != args.slots:
            print("FAIL: streamed arrival plans did not all reach the span "
                  "kernel (engine.array.kernel_plan_slots "
                  f"{drawn} != {args.slots})", file=sys.stderr)
            return 1
    else:
        print("span kernel unavailable: arrival plans drawn in python")

    # Checkpoint/resume round-trip: run 40% of the horizon, snapshot,
    # abandon the session, resume from the file, and compare reports.
    with tempfile.TemporaryDirectory() as tmpdir:
        path = os.path.join(tmpdir, "smoke.ckpt.json")
        session = StreamingSimulation(
            scenario.build_simulation(), args.slots, engine=ENGINE,
            chunk_slots=args.chunk_slots, warmup_slots=args.warmup)
        stop_at = args.slots * 2 // 5
        session.advance_to(stop_at)
        session.save_checkpoint(path)
        size_kb = os.path.getsize(path) / 1024
        resumed = resume_stream(path)
    identical = (resumed.throughput == baseline.throughput
                 and resumed.latency == baseline.latency
                 and resumed.buffer_result == baseline.buffer_result)
    print(f"checkpoint at slot {stop_at} ({size_kb:.0f} KiB), resumed run "
          f"{'matches' if identical else 'DIVERGES FROM'} the uninterrupted "
          "run")
    if not identical:
        print("FAIL: resumed report is not bit-identical", file=sys.stderr)
        print(json.dumps({"baseline": baseline.summary(),
                          "resumed": resumed.summary()}, indent=2,
                         default=str), file=sys.stderr)
        return 1
    print("ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
