"""Benchmark: the two simulation engines against each other.

The reference loop rebuilds the arbiter's backlog view from the buffer
objects every slot, so its cost grows with the queue count (the rebuild is
O(Q) per slot).  The array engine replaces the per-slot object machinery
altogether — cells become bare integers in per-queue deques, lists and
heaps, and RADS spans run on the compiled span kernel where it builds.  The
benchmark times the reference loop, the array engine and the array engine
with the kernel switched off (its scalar python loop, which serves hosts
without a C compiler, traced runs, custom policies and short spans) on a
registered scenario and on a wide 128-queue configuration.  It asserts
that all three stay bit-identical — the array engine is an optimisation,
never a different simulator — and that the scalar loop alone clears the
9x bar over the reference loop on the wide stressor, so the floor bounds
the python loop whether or not the kernel builds.
"""

import time

import pytest

from repro.analysis.report import format_table
from repro.bench import wide_scenario
from repro.sim import kernel
from repro.workloads import get_scenario

SCENARIO = "uniform-bernoulli"
WIDE_SLOTS = 6000

#: Required advantage of the array engine's scalar loop (kernel off) over
#: the reference loop on the wide stressor: the original bar of 5x over the
#: retired batched loop, which was 1.8x faster than the reference loop here.
ARRAY_SPEEDUP_FLOOR = 9.0

ENGINES = ("reference", "array")


@pytest.mark.parametrize("engine", ENGINES)
def test_registered_scenario_loop(benchmark, engine):
    scenario = get_scenario(SCENARIO)
    report = benchmark(scenario.run, engine=engine)
    assert report.zero_miss


@pytest.mark.parametrize("engine", ENGINES)
def test_wide_queue_loop(benchmark, engine):
    scenario = wide_scenario(num_slots=WIDE_SLOTS)
    report = benchmark(scenario.run, engine=engine)
    assert report.zero_miss


def _best_of(scenario, engine, rounds=3):
    best = None
    report = None
    for _ in range(rounds):
        started = time.perf_counter()
        report = scenario.run(engine=engine)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return report, best


def _best_of_scalar(scenario, rounds=3):
    """``_best_of`` for the array engine with the span kernel switched off,
    so every span runs on the array core's scalar loop."""
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(kernel, "_kernel", None)
        patcher.setattr(kernel, "_kernel_tried", True)
        return _best_of(scenario, "array", rounds)


def test_engines_identical_and_array_faster(echo):
    """Identity check plus a human-readable speedup table (not timed by
    pytest-benchmark: the equality assertions are the point)."""
    rows = []
    wide_speedup = None
    for scenario in (get_scenario(SCENARIO), wide_scenario(num_slots=WIDE_SLOTS)):
        timings = {}
        reports = {}
        for engine in ENGINES:
            reports[engine], timings[engine] = _best_of(scenario, engine)
        reports["scalar"], timings["scalar"] = _best_of_scalar(scenario)
        baseline = reports["reference"]
        for leg in ("array", "scalar"):
            assert reports[leg].throughput == baseline.throughput, leg
            assert reports[leg].latency == baseline.latency, leg
            assert reports[leg].buffer_result == baseline.buffer_result, leg
        speedup = timings["reference"] / timings["scalar"]
        if scenario.name == "wide-bernoulli":
            wide_speedup = speedup
        rows.append([scenario.name, scenario.num_slots,
                     scenario.num_slots / timings["reference"] / 1e3,
                     scenario.num_slots / timings["scalar"] / 1e3,
                     scenario.num_slots / timings["array"] / 1e3,
                     speedup,
                     timings["scalar"] / timings["array"]])
    echo(format_table(
        ["scenario", "slots", "reference kslots/s", "array (no kernel) kslots/s",
         "array kslots/s", "no kernel/reference", "array/no kernel"],
        rows, title="Workload loop — array engine vs reference"))
    assert wide_speedup is not None
    assert wide_speedup >= ARRAY_SPEEDUP_FLOOR, (
        f"the array engine's scalar loop is only {wide_speedup:.2f}x the "
        f"reference loop on the wide stressor (floor: {ARRAY_SPEEDUP_FLOOR}x)")
