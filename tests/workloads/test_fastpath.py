"""Acceptance tests: the array engine is bit-identical to the reference
per-slot loop, and recorded traces replay deterministically across variants."""

import pytest

from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import TraceArbiter
from repro.traffic.arrivals import TraceArrivals
from repro.workloads import all_scenarios, load_trace, save_trace
from repro.workloads.registry import scenario_names


@pytest.mark.parametrize("name", scenario_names())
def test_array_identical_to_reference(name):
    """The headline acceptance criterion: every statistic the report carries
    (throughput counters, the full latency histogram, the buffer-side result
    and the recorded trace) matches exactly between the two engines."""
    scenario = next(s for s in all_scenarios() if s.name == name)
    fast = scenario.run(engine="array", record_trace=True)
    oracle = scenario.run(engine="reference", record_trace=True)
    assert fast.throughput == oracle.throughput
    assert fast.latency == oracle.latency
    assert fast.buffer_result == oracle.buffer_result
    assert fast.trace.events == oracle.trace.events


@pytest.mark.parametrize("format", ["binary", "ndjson"])
def test_recorded_trace_replays_identically(tmp_path, format):
    """Record once, save, load, replay: the replayed run reproduces the
    original statistics exactly (the trace pins both sides of the slot)."""
    scenario = next(s for s in all_scenarios() if s.name == "bursty-trains")
    original = scenario.run(record_trace=True)
    path = tmp_path / f"capture.{format}"
    save_trace(original.trace, path, format=format,
               metadata={"scenario": scenario.name})
    trace, metadata = load_trace(path)
    assert metadata["scenario"] == scenario.name

    replay = ClosedLoopSimulation(scenario.build_buffer(),
                                  TraceArrivals(trace.arrivals()),
                                  TraceArbiter(trace.requests()))
    report = replay.run(len(trace))
    assert report.throughput == original.throughput
    assert report.latency == original.latency
    assert report.buffer_result == original.buffer_result


def test_recorded_trace_replays_across_buffer_variants(tmp_path):
    """A trace captured on the RADS buffer drives the CFDS buffer (same queue
    count): arrivals and requests are identical, only the buffer differs."""
    scenario = next(s for s in all_scenarios() if s.name == "bursty-trains")
    original = scenario.run(record_trace=True)
    path = tmp_path / "capture.rtrc"
    save_trace(original.trace, path)
    trace, _metadata = load_trace(path)

    cfds = next(s for s in all_scenarios() if s.name == "markov-onoff")
    replay = ClosedLoopSimulation(cfds.build_buffer(),
                                  TraceArrivals(trace.arrivals()),
                                  TraceArbiter(trace.requests()))
    report = replay.run(len(trace))
    # Same offered traffic; the CFDS buffer must still lose nothing.
    assert report.throughput.arrivals == original.throughput.arrivals
    assert report.throughput.drops == 0
    assert report.zero_miss
