"""Benchmark: the two simulation engines against each other.

The reference loop rebuilds the arbiter's backlog view from the buffer
objects every slot, so its cost grows with the queue count (the rebuild is
O(Q) per slot).  The array engine replaces the per-slot object machinery
altogether: cells become bare integers in per-queue deques, lists and
heaps, and the compiled span kernel runs every slot (a host without a C
compiler runs the reference loop under both names).  The benchmark times
both engines on a registered scenario and on a wide 128-queue
configuration, and asserts that they stay bit-identical — the array engine
is an optimisation, never a different simulator.  The speedup itself is
gated by ``python -m repro bench``'s
``wide-128-speedup-array-over-reference`` ratio.
"""

import time

import pytest

from repro.analysis.report import format_table
from repro.bench import wide_scenario
from repro.workloads import get_scenario

SCENARIO = "uniform-bernoulli"
WIDE_SLOTS = 6000

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


def test_engines_identical_and_array_faster(echo):
    """Identity check plus a human-readable speedup table (not timed by
    pytest-benchmark: the equality assertions are the point)."""
    rows = []
    for scenario in (get_scenario(SCENARIO), wide_scenario(num_slots=WIDE_SLOTS)):
        timings = {}
        reports = {}
        for engine in ENGINES:
            reports[engine], timings[engine] = _best_of(scenario, engine)
        baseline = reports["reference"]
        assert reports["array"].throughput == baseline.throughput
        assert reports["array"].latency == baseline.latency
        assert reports["array"].buffer_result == baseline.buffer_result
        rows.append([scenario.name, scenario.num_slots,
                     scenario.num_slots / timings["reference"] / 1e3,
                     scenario.num_slots / timings["array"] / 1e3,
                     timings["reference"] / timings["array"]])
    echo(format_table(
        ["scenario", "slots", "reference kslots/s", "array kslots/s",
         "array/reference"],
        rows, title="Workload loop — array engine vs reference"))
