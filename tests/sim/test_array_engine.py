"""Acceptance tests: the struct-of-arrays engine is bit-identical to the
reference loop on every registered scenario and every edge mode."""

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.errors import ConfigurationError, StaleSimulationError
from repro.mma.mdqf import MDQF
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import OldestCellArbiter, RandomArbiter, TraceArbiter
from repro.traffic.arrivals import (
    BernoulliArrivals,
    BurstyArrivals,
    HotspotArrivals,
    TraceArrivals,
)
from repro.workloads import all_scenarios
from repro.workloads.registry import scenario_names


def assert_reports_identical(left, right):
    assert left.throughput == right.throughput
    assert left.latency == right.latency
    assert left.buffer_result == right.buffer_result


def run_both(make_sim, num_slots, drain=True):
    """Run a freshly built simulation on the reference loop and the array
    engine and return both reports."""
    reference = make_sim().run(num_slots, drain=drain, engine="reference")
    array = make_sim().run(num_slots, drain=drain, engine="array")
    return reference, array


# --------------------------------------------------------------------- #
# The registered suite (10 scenarios spanning both schemes, every arbiter
# family and every stochastic arrival process).
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", scenario_names())
def test_array_engine_identical_on_registered_scenarios(name):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference", record_trace=True)
    array = scenario.run(engine="array", record_trace=True)
    assert_reports_identical(reference, array)
    assert reference.trace.events == array.trace.events


@pytest.mark.parametrize("name", scenario_names())
def test_array_engine_identical_without_drain(name):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference", num_slots=600)
    array = scenario.run(engine="array", num_slots=600)
    assert_reports_identical(reference, array)


# --------------------------------------------------------------------- #
# Edge modes: drain-only, fill-only, zero slots, replay.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("scheme", ["rads", "cfds"])
def test_fill_only_run(scheme):
    """No arbiter: the buffer only fills; both engines agree."""
    def make_sim():
        buffer = _build_buffer(scheme)
        return ClosedLoopSimulation(
            buffer, BernoulliArrivals(8, load=0.9, seed=21), None)

    reference, array = run_both(make_sim, 800)
    assert_reports_identical(reference, array)
    assert reference.throughput.arrivals > 0
    assert reference.throughput.departures == 0


@pytest.mark.parametrize("scheme", ["rads", "cfds"])
def test_drain_only_run(scheme):
    """No arrivals: idle slots only; both engines agree."""
    def make_sim():
        buffer = _build_buffer(scheme)
        return ClosedLoopSimulation(buffer, None, OldestCellArbiter(8))

    reference, array = run_both(make_sim, 500)
    assert_reports_identical(reference, array)
    assert reference.throughput.arrivals == 0


@pytest.mark.parametrize("scheme", ["rads", "cfds"])
@pytest.mark.parametrize("num_slots", [0, 1])
def test_degenerate_slot_counts(scheme, num_slots):
    def make_sim():
        buffer = _build_buffer(scheme)
        return ClosedLoopSimulation(
            buffer, BernoulliArrivals(8, load=0.5, seed=3), RandomArbiter(8, seed=4))

    reference, array = run_both(make_sim, num_slots)
    assert_reports_identical(reference, array)


def test_trace_replay_cross_engine():
    """A trace recorded on the array engine replays bit-identically through
    the reference loop, and vice versa."""
    scenario = next(s for s in all_scenarios() if s.name == "bursty-trains")
    recorded = scenario.run(engine="array", record_trace=True)

    def replay(engine):
        trace = recorded.trace
        sim = ClosedLoopSimulation(scenario.build_buffer(),
                                   TraceArrivals(trace.arrivals()),
                                   TraceArbiter(trace.requests()))
        return sim.run(len(trace), engine=engine)

    replay_reference = replay("reference")
    replay_array = replay("array")
    assert_reports_identical(replay_reference, replay_array)
    assert replay_reference.throughput == recorded.throughput
    assert replay_reference.latency == recorded.latency


# --------------------------------------------------------------------- #
# Paths off the specialised fast lanes: custom MMA, lossy configurations.
# --------------------------------------------------------------------- #

def test_custom_head_mma_uses_generic_path():
    """A non-ECQF head MMA falls back to invoking the policy object with the
    object model's exact views — still bit-identical."""
    def make_sim(mma=None):
        config = RADSConfig(num_queues=6, granularity=3, strict=False)
        buffer = RADSPacketBuffer(config, head_mma=MDQF())
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(6, mean_burst_cells=10, load=0.9, seed=5),
            RandomArbiter(6, load=0.8, seed=6))

    reference, array = run_both(make_sim, 1500)
    assert_reports_identical(reference, array)


def test_rads_nonstrict_dram_overflow_drops():
    """A tiny non-strict DRAM forces the eviction-drop path; drop accounting
    must match exactly."""
    def make_sim():
        config = RADSConfig(num_queues=4, granularity=4, strict=False,
                            dram_cells=16)
        buffer = RADSPacketBuffer(config)
        return ClosedLoopSimulation(
            buffer, BernoulliArrivals(4, load=1.0, seed=9),
            RandomArbiter(4, load=0.2, seed=10))

    reference, array = run_both(make_sim, 1200)
    assert_reports_identical(reference, array)
    assert reference.throughput.drops > 0


def test_cfds_static_groups_without_renaming():
    """Renaming disabled with finite bank groups exercises the static
    placement path (including group-full drops)."""
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=False,
                                  group_capacity_cells=8)
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(8, mean_burst_cells=20, load=0.95, seed=11),
            RandomArbiter(8, load=0.3, seed=12))

    reference, array = run_both(make_sim, 1500)
    assert_reports_identical(reference, array)
    assert reference.throughput.drops > 0


def test_cfds_renaming_with_group_capacity():
    """Renaming enabled with finite groups: the array core's own renaming
    state makes identical placement decisions."""
    def make_sim():
        config = CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=True,
                                  group_capacity_cells=64)
        return ClosedLoopSimulation(
            buffer, BurstyArrivals(8, mean_burst_cells=20, load=0.95, seed=13),
            RandomArbiter(8, load=0.5, seed=14))

    reference, array = run_both(make_sim, 1500)
    assert_reports_identical(reference, array)


@pytest.mark.parametrize("use_renaming,occupancy,drops", [
    (False, [190, 192, 0, 0, 0, 0, 0, 0], 1584),
    (True, [192, 192, 192, 138, 192, 192, 192, 192], 484),
])
def test_cfds_buffer_introspection_after_run(use_renaming, occupancy, drops):
    """``dram_group_occupancy()`` and ``dram_utilisation()`` answer for an
    array run exactly as for a reference run: the array core keeps its own
    placement state but shares the group-occupancy list these methods
    read (the renaming ablation's setup, shortened)."""
    def run(engine):
        config = CFDSConfig(num_queues=16, dram_access_slots=8, granularity=2,
                            num_banks=32, strict=False)
        buffer = CFDSPacketBuffer(config, use_renaming=use_renaming,
                                  group_capacity_cells=192)
        report = ClosedLoopSimulation(
            buffer,
            HotspotArrivals(16, hot_queues=[0, 1], hot_fraction=0.9,
                            load=0.95, seed=17),
            RandomArbiter(16, load=0.30, seed=18),
        ).run(3000, engine=engine)
        return (buffer.dram_group_occupancy(), buffer.dram_utilisation(),
                report.throughput.drops)

    reference = run("reference")
    assert reference == (occupancy, sum(occupancy) / (192 * 8), drops)
    assert run("array") == reference


def _lossy_sim(scheme):
    """A lossy machine per scheme: RADS with a 40-cell DRAM, and the static
    CFDS setup of the introspection test above."""
    if scheme == "rads":
        buffer = RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4,
                                             strict=False, dram_cells=40))
        return ClosedLoopSimulation(buffer,
                                    BernoulliArrivals(8, load=0.95, seed=1),
                                    RandomArbiter(8, load=0.3, seed=2))
    config = CFDSConfig(num_queues=16, dram_access_slots=8, granularity=2,
                        num_banks=32, strict=False)
    buffer = CFDSPacketBuffer(config, use_renaming=False,
                              group_capacity_cells=192)
    return ClosedLoopSimulation(
        buffer,
        HotspotArrivals(16, hot_queues=[0, 1], hot_fraction=0.9, load=0.95,
                        seed=17),
        RandomArbiter(16, load=0.30, seed=18))


@pytest.mark.parametrize("scheme,kernel_on", [
    ("rads", True), ("rads", False), ("cfds", False)])
def test_dropped_cells_cover_the_whole_array_run(scheme, kernel_on,
                                                 monkeypatch):
    """``dropped_cells`` reads the same after an array run as after a
    reference run, monolithic and streamed: cumulative over the whole run,
    warmup and kernel spans included, while ``throughput.drops`` counts
    from the warmup boundary."""
    from repro.obs.metrics import MetricsRegistry, using_metrics
    from repro.sim import kernel

    if not kernel_on:
        monkeypatch.setattr(kernel, "_kernel", None)
        monkeypatch.setattr(kernel, "_kernel_tried", True)
    runs = {
        "monolithic": lambda sim, engine: sim.run(2000, engine=engine),
        "streamed": lambda sim, engine: sim.run_stream(
            2000, engine=engine, chunk_slots=700, warmup_slots=900),
    }
    for mode, run in runs.items():
        sims = {engine: _lossy_sim(scheme)
                for engine in ("reference", "array")}
        registry = MetricsRegistry()
        with using_metrics(registry):
            reports = {engine: run(sim, engine)
                       for engine, sim in sims.items()}
        dropped = {engine: sim.buffer.dropped_cells
                   for engine, sim in sims.items()}
        assert dropped["array"] == dropped["reference"] > 0, mode
        assert (reports["array"].throughput.drops
                == reports["reference"].throughput.drops), mode
        if mode == "streamed":
            assert reports["array"].throughput.drops < dropped["array"]
        if scheme == "rads" and kernel_on and kernel.load_kernel():
            assert registry.counter("engine.array.kernel_spans"), mode


# --------------------------------------------------------------------- #
# Engine selection plumbing.
# --------------------------------------------------------------------- #

def test_unknown_engine_rejected():
    sim = ClosedLoopSimulation(_build_buffer("rads"))
    with pytest.raises(ConfigurationError, match="unknown engine"):
        sim.run(10, engine="warp")


def test_array_engine_requires_fresh_buffer():
    buffer = _build_buffer("rads")
    buffer.step(None, None)
    sim = ClosedLoopSimulation(buffer)
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(10, engine="array")


@pytest.mark.parametrize("scheme", ["rads", "cfds"])
def test_array_engine_rejects_second_run(scheme):
    """The engine never steps the buffer, so a second run on the same
    simulation must be rejected by the accumulated-stats guard (it would
    double-count throughput and replay stale scheduler state)."""
    sim = ClosedLoopSimulation(_build_buffer(scheme),
                               BernoulliArrivals(8, load=0.5, seed=3),
                               RandomArbiter(8, seed=4))
    sim.run(200, engine="array")
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(200, engine="array")


def test_array_engine_rejects_unknown_buffer_types():
    class NotABuffer:
        slot = 0

    sim = ClosedLoopSimulation(NotABuffer())
    with pytest.raises(ConfigurationError, match="array engine supports"):
        sim.run(10, engine="array")


def test_negative_slots_rejected():
    sim = ClosedLoopSimulation(_build_buffer("rads"))
    with pytest.raises(ConfigurationError, match="non-negative"):
        sim.run(-1, engine="array")


def _build_buffer(scheme):
    if scheme == "rads":
        return RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4))
    return CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                       granularity=2, num_banks=32))
