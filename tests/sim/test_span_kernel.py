"""Acceptance tests of the compiled span kernel under ``engine="array"``.

Every case runs once, on the span kernel (when it builds), and holds its
report bit-identical to the reference engine's.  The route without the
kernel, where the array engine hands the whole run to the reference engine
and counts its slots as ``engine.array.fallback.unavailable``, is tested
once per entry point: here for CFDS and for a streamed RADS run,
monolithic RADS in ``tests/sim/test_kernel_abi.py``, the switch in
``tests/switch/test_fabric_kernel.py``.
``benchmarks/kernel_sanitize_check.py`` runs this module against the
kernel's ASan/UBSan build.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import (
    ArbiterContractError,
    BufferOverflowError,
    CacheMissError,
    ConfigurationError,
    StaleSimulationError,
    ValidationError,
)
from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.mma.mdqf import MDQF
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel as span_kernel
from repro.sim.array_engine import build_array_core, window_plan
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import StreamingSimulation, resume_stream
from repro.workloads.registry import get_scenario
from repro.traffic.arbiters import (
    IntermittentArbiter,
    LongestQueueArbiter,
    OldestCellArbiter,
    RandomArbiter,
    RoundRobinAdversary,
    StridedAdversary,
    TraceArbiter,
)
from repro.traffic.arrivals import (
    BernoulliArrivals,
    HotspotArrivals,
    MarkovOnOffArrivals,
    TraceArrivals,
    ZipfArrivals,
)
from repro.workloads import all_scenarios
from repro.workloads.registry import scenario_names

needs_kernel = pytest.mark.skipif(
    span_kernel.load_kernel() is None,
    reason="no C compiler: the span kernel never runs")


def _disable_kernel(patcher):
    patcher.setattr(span_kernel, "_kernel", None)
    patcher.setattr(span_kernel, "_kernel_tried", True)


def assert_reports_identical(left, right):
    assert left.throughput == right.throughput
    assert left.latency == right.latency
    assert left.buffer_result == right.buffer_result


def _build_buffer(scheme, **overrides):
    if scheme == "rads":
        return RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4,
                                           **overrides))
    return CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                       granularity=2, num_banks=32,
                                       **overrides))


def run_both(make_sim, num_slots, drain=True):
    """The reference loop's report and the array engine's."""
    reference = make_sim().run(num_slots, drain=drain, engine="reference")
    array = make_sim().run(num_slots, drain=drain, engine="array")
    return reference, array


# --------------------------------------------------------------------- #
# The registered suite, every span on the kernel.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", scenario_names())
def test_numpy_identical_on_registered_scenarios(name):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference")
    array, registry = _observed(lambda: scenario.run(engine="array"))
    assert_reports_identical(reference, array)
    _assert_kernel_ran(registry)


@pytest.mark.parametrize("name", scenario_names())
def test_numpy_identical_without_drain(name):
    scenario = next(s for s in all_scenarios() if s.name == name)

    def run(engine):
        return scenario.build_simulation().run(600, drain=False,
                                               engine=engine)

    reference = run("reference")
    array, registry = _observed(lambda: run("array"))
    assert_reports_identical(reference, array)
    assert array.throughput.slots == 600
    _assert_kernel_ran(registry)


def test_numpy_identical_with_trace_recorded():
    """A traced run runs on the kernel, which returns each main slot's
    arrival and request: bit-identical to the reference, trace included."""
    scenario = next(s for s in all_scenarios()
                    if s.name == "uniform-bernoulli")
    reference = scenario.run(engine="reference", record_trace=True)
    array, registry = _observed(
        lambda: scenario.run(engine="array", record_trace=True))
    assert_reports_identical(reference, array)
    assert reference.trace.events == array.trace.events
    assert len(array.trace.events) == scenario.num_slots
    if span_kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_slots") == \
            array.throughput.slots


# --------------------------------------------------------------------- #
# Edge modes: fill-only, drain-only, zero/one slot, lossy, strict overflow.
# --------------------------------------------------------------------- #

def test_fill_only_run():
    """No arbiter: the buffer only fills; both engines agree."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), BernoulliArrivals(8, load=0.9, seed=21),
            None)

    reference, array = run_both(make_sim, 800)
    assert_reports_identical(reference, array)
    assert array.throughput.arrivals > 0
    assert array.throughput.departures == 0


def test_drain_only_run():
    """No arrivals: idle request slots only; both engines agree."""
    def make_sim():
        return ClosedLoopSimulation(_build_buffer("rads"), None,
                                    OldestCellArbiter(8))

    reference, array = run_both(make_sim, 500)
    assert_reports_identical(reference, array)
    assert array.throughput.arrivals == 0


@pytest.mark.parametrize("num_slots", [0, 1])
def test_degenerate_slot_counts(num_slots):
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), BernoulliArrivals(8, load=0.5, seed=3),
            RandomArbiter(8, seed=4))

    reference, array = run_both(make_sim, num_slots)
    assert_reports_identical(reference, array)


@pytest.mark.parametrize("drain", [True, False])
def test_lossy_run_counts_identical_drops(drain):
    """strict=False with a bounded DRAM: overflow blocks are clamped to
    the remaining room and the loss is counted, never raised — identically
    on both engines."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads", dram_cells=8, strict=False),
            BernoulliArrivals(8, load=1.0, seed=11),
            RandomArbiter(8, seed=12, load=0.3))

    reference, array = run_both(make_sim, 1200, drain=drain)
    assert_reports_identical(reference, array)
    assert array.throughput.drops > 0


def _strict_overflow_sim():
    """A strict RADS machine whose 3-cell tail SRAM overflows."""
    return ClosedLoopSimulation(
        _build_buffer("rads", tail_sram_cells=3, strict=True),
        BernoulliArrivals(8, load=1.0, seed=11),
        RandomArbiter(8, seed=12, load=0.3))


def test_strict_overflow_raises_identically():
    """A strict-mode overflow aborts the kernel, which raises the same
    exception the reference loop raises from its abort record."""
    with pytest.raises(BufferOverflowError) as reference_exc:
        _strict_overflow_sim().run(1200, engine="reference")
    with pytest.raises(BufferOverflowError) as array_exc:
        _strict_overflow_sim().run(1200, engine="array")
    assert str(array_exc.value) == str(reference_exc.value)


def _cfds_sim():
    """An 8-queue CFDS machine under Bernoulli traffic and RandomArbiter."""
    return ClosedLoopSimulation(
        _build_buffer("cfds"), BernoulliArrivals(8, load=0.8, seed=5),
        RandomArbiter(8, seed=6))


def test_cfds_main_and_drain_spans_run_on_the_kernel():
    """CFDS's 900-slot main span and its 50-slot drain both run on the
    kernel's CFDS entry, with no fallback: the report matches the
    reference loop's."""
    reference = _cfds_sim().run(900, engine="reference")
    array, registry = _observed(lambda: _cfds_sim().run(900, engine="array"))
    assert_reports_identical(reference, array)
    if span_kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_slots") == \
            array.throughput.slots
        assert registry.counter("engine.array.kernel_spans") == 2
        assert _fallbacks(registry) == {}


def test_cfds_without_the_kernel_runs_on_the_reference_engine(monkeypatch):
    """With the kernel unloaded, the whole CFDS run goes to the reference
    engine and counts every slot as ``unavailable``: the report matches
    the reference loop's, and no kernel span runs."""
    _disable_kernel(monkeypatch)
    reference = _cfds_sim().run(900, engine="reference")
    array, registry = _observed(lambda: _cfds_sim().run(900, engine="array"))
    assert_reports_identical(reference, array)
    assert registry.counter("engine.array.kernel_spans") == 0
    assert _fallbacks(registry) == {"unavailable": array.throughput.slots}


# --------------------------------------------------------------------- #
# Selection plumbing and failure modes.
# --------------------------------------------------------------------- #

def test_numpy_engine_requires_fresh_buffer():
    buffer = _build_buffer("rads")
    buffer.step(None, None)
    sim = ClosedLoopSimulation(buffer)
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(10, engine="array")


def test_numpy_engine_rejects_second_run():
    sim = ClosedLoopSimulation(_build_buffer("rads"),
                               BernoulliArrivals(8, load=0.5, seed=3),
                               RandomArbiter(8, seed=4))
    sim.run(200, engine="array")
    with pytest.raises(StaleSimulationError, match="freshly built"):
        sim.run(200, engine="array")


def test_unknown_engine_error_lists_both_engines():
    sim = ClosedLoopSimulation(_build_buffer("rads"))
    with pytest.raises(ConfigurationError,
                       match=r"^unknown engine 'warp' \(known: reference, "
                             r"array\)$"):
        sim.run(10, engine="warp")


# --------------------------------------------------------------------- #
# Wide machines: past 254 queues (ids that no longer fit a byte, 255
# included), the kernel still runs.
# --------------------------------------------------------------------- #

#: Queue counts around the one-byte boundary and past it: 255 and 256 add
#: ids 254 and 255, so no queue id may travel through a byte.
WIDE_QUEUES = (255, 256, 300, 512)


def _wide_weights(num_queues):
    """Popularity that sends much of the load to queue 255 (when it
    exists) and to the queues around and above it."""
    return [8.0 if q >= 250 else 1.0 for q in range(num_queues)]


def _wide_sim(num_queues, arrivals, seed=41):
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=num_queues, granularity=4)),
        arrivals, RandomArbiter(num_queues, seed=seed, load=0.95))


def _assert_plan_reaches_wide_queues(plan, num_queues):
    """The workload really targets the wide queue ids under test."""
    queues = {a for a in plan if a is not None}
    assert num_queues - 1 in queues
    if num_queues > 255:
        assert 255 in queues
    if num_queues > 256:
        assert any(q > 255 for q in queues)


def _observed(run):
    registry = MetricsRegistry()
    with using_metrics(registry):
        report = run()
    return report, registry


def _timer_count(registry, name):
    return registry.snapshot()["timers"].get(name, {}).get("count", 0)


def _assert_timed_per_call(registry):
    """Each kernel call, completed or aborted, records its native and its
    handoff time once."""
    calls = (registry.counter("engine.array.kernel_spans")
             + registry.counter("engine.array.kernel_aborts"))
    assert _timer_count(registry, "engine.array.kernel_native_s") == calls
    assert _timer_count(registry, "engine.array.kernel_handoff_s") == calls


def _assert_kernel_ran(registry):
    """The array run took the span kernel for every slot (when a compiler
    builds it), so a silent fallback cannot pass for a kernel run."""
    assert registry.counter("engine.array.kernel_aborts") == 0
    _assert_timed_per_call(registry)
    if span_kernel._compiler() is not None:
        assert registry.counter("engine.array.kernel_spans") > 0
        assert registry.counter("engine.array.kernel_slots") == \
            registry.counter("engine.array.span_slots")


@pytest.mark.parametrize("num_queues", WIDE_QUEUES)
def test_wide_monolithic_deferred_plan(num_queues):
    """A weighted Bernoulli plan the kernel draws itself (deferred), then
    the drain window as a span of its own."""
    def make_sim():
        return _wide_sim(num_queues, BernoulliArrivals(
            num_queues, load=0.9, seed=7,
            weights=_wide_weights(num_queues)))

    _assert_plan_reaches_wide_queues(
        make_sim().arrivals.arrivals(3000), num_queues)
    baseline = make_sim().run(3000, engine="reference")
    array, registry = _observed(lambda: make_sim().run(3000, engine="array"))
    assert_reports_identical(baseline, array)
    _assert_kernel_ran(registry)


@pytest.mark.parametrize("num_queues", WIDE_QUEUES)
def test_wide_explicit_markov_plan(num_queues):
    """A non-Bernoulli plan drawn in python and handed to the kernel as an
    explicit plan."""
    def make_sim():
        return _wide_sim(num_queues, MarkovOnOffArrivals(
            num_queues, mean_on_slots=20.0, mean_off_slots=60.0, seed=9))

    _assert_plan_reaches_wide_queues(
        make_sim().arrivals.arrivals(2400), num_queues)
    baseline = make_sim().run(2400, engine="reference")
    array, registry = _observed(lambda: make_sim().run(2400, engine="array"))
    assert_reports_identical(baseline, array)
    _assert_kernel_ran(registry)


@pytest.mark.parametrize("num_queues", WIDE_QUEUES)
def test_wide_stream_with_warmup_and_resume(num_queues, tmp_path):
    """Streamed wide run: the warmup and checkpoint marks cut the 700-slot
    chunks unevenly, and resuming from the last checkpoint reproduces the
    uninterrupted report."""
    def make_sim():
        return _wide_sim(num_queues, BernoulliArrivals(
            num_queues, load=0.9, seed=13,
            weights=_wide_weights(num_queues)))

    geometry = dict(chunk_slots=700, warmup_slots=450)
    path = tmp_path / "wide.ckpt.json"
    baseline = make_sim().run_stream(4100, engine="reference", **geometry)
    array, registry = _observed(lambda: make_sim().run_stream(
        4100, engine="array", checkpoint_every=1500, checkpoint_path=path,
        **geometry))
    assert_reports_identical(baseline, array)
    _assert_kernel_ran(registry)
    resumed, registry = _observed(lambda: resume_stream(path))
    assert_reports_identical(baseline, resumed)
    _assert_kernel_ran(registry)


#: RADS shapes with large blocks under an arbiter that requests in one slot
#: in twenty, as (queues, granularity, seed, weights, chunk_slots): every
#: queue's backlog grows and moves to DRAM a block at a time, uniform and
#: skewed, and, streamed in 200-slot chunks, one hot queue makes the tail
#: MMA push far more cells into DRAM per chunk than the chunk has slots
#: (the kernel's out buffers must be sized for backlog migration, not just
#: arrivals).
BLOCK_SHAPES = {
    "q4-b32": (4, 32, 7, None, None),
    "q8-b64": (8, 64, 11, None, None),
    "q16-b128": (16, 128, 13, None, None),
    "q8-b64-skewed": (8, 64, 17, [8, 4, 2, 1, 1, 2, 4, 8], None),
    "q8-b64-hot-queue-streamed": (8, 64, 31, [500] + [1] * 7, 200),
}


@needs_kernel
@pytest.mark.parametrize("shape", sorted(BLOCK_SHAPES))
def test_large_blocks_under_a_slow_arbiter(shape):
    num_queues, granularity, seed, weights, chunk_slots = BLOCK_SHAPES[shape]
    reference = _assert_edge_case(lambda: _edge_sim(
        num_queues, weights, granularity=granularity, seed=seed, load=1.0,
        request_load=0.05), num_slots=4000, chunk_slots=chunk_slots)
    assert reference.throughput.arrivals > 3000


# --------------------------------------------------------------------- #
# The kernel's incremental forms at their edges: the guided Bernoulli
# draw, RandomArbiter's bitset of backlogged queues, the in-order head
# SRAM.
# --------------------------------------------------------------------- #

def _edge_sim(num_queues, weights=None, arrivals=None, granularity=4,
              seed=61, load=0.9, request_load=0.95):
    """RADS under RandomArbiter (requesting in ``request_load`` of the
    slots), fed a Bernoulli process the kernel draws (``weights``, uniform
    by default) or ``arrivals``."""
    if arrivals is None:
        arrivals = BernoulliArrivals(num_queues, load=load, seed=seed,
                                     weights=weights)
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=num_queues,
                                    granularity=granularity)),
        arrivals, RandomArbiter(num_queues, load=request_load,
                                seed=seed + 1))


def _assert_edge_case(make_sim, num_slots=3000, chunk_slots=None):
    """The kernel's report equals the reference's, every span on the
    kernel, the arrival plan drawn there; returns the reference report.
    With ``chunk_slots`` both runs stream in chunks of that size."""
    def run(engine):
        if chunk_slots is None:
            return make_sim().run(num_slots, engine=engine)
        return make_sim().run_stream(num_slots, engine=engine,
                                     chunk_slots=chunk_slots)

    reference = run("reference")
    array, registry = _observed(lambda: run("array"))
    assert_reports_identical(reference, array)
    _assert_kernel_ran(registry)
    assert registry.counter("engine.array.kernel_spans") > 0
    assert registry.counter("engine.array.kernel_plan_slots") == num_slots
    return reference


#: Weight vectors the guided draw must search exactly like python's
#: bisect: zero weights at both ends (empty buckets at the edges), all
#: weight on the last queue (every bucket's search starts at the end), a
#: last queue lighter than a bucket (the last bucket's search ends there).
EDGE_WEIGHTS = {
    "zeros-at-both-ends": [0.0, 0.0, 3.0, 1.0, 0.5, 2.0, 1.0, 0.0, 0.0],
    "all-on-the-last-queue": [0.0] * 15 + [1.0],
    "light-last-queue": [1.0] * 7 + [0.05],
}


@needs_kernel
@pytest.mark.parametrize("name", sorted(EDGE_WEIGHTS))
def test_edge_guided_draw_weights(name):
    weights = EDGE_WEIGHTS[name]
    reference = _assert_edge_case(lambda: _edge_sim(len(weights), weights))
    assert reference.throughput.arrivals > 0


#: Queue counts at the bitset's word boundaries and the guide's bucket
#: boundaries (one queue: a single bucket; 63, 64, 65: one word, one word
#: full, two words; 130: three words and 256 buckets for 130 queues).
EDGE_QUEUES = (1, 63, 64, 65, 130)


@needs_kernel
@pytest.mark.parametrize("num_queues", EDGE_QUEUES)
def test_edge_queue_counts_under_random_arbiter(num_queues):
    _assert_edge_case(lambda: _edge_sim(num_queues))


@needs_kernel
def test_edge_zipf_at_512_queues():
    _assert_edge_case(lambda: _edge_sim(512, arrivals=ZipfArrivals(
        512, exponent=1.2, load=0.9, seed=63), granularity=8))


@needs_kernel
def test_edge_growth_within_one_span():
    """The arbiter requests in a fifth of the slots while cells arrive in
    nine tenths: through one 3000-slot span every queue's backlog grows, so
    its FIFOs outgrow their first allocation several times over (the
    kernel's out-of-line growth path, amid the inline pushes), and the
    delays pass the histogram's first 1024 bins."""
    reference = _assert_edge_case(
        lambda: _edge_sim(8, seed=71, request_load=0.2))
    throughput = reference.throughput
    # more than 8 * 64 cells still held: past 64 a queue, its arrival
    # slots' FIFO has doubled from 8 at least four times
    assert (throughput.arrivals - throughput.departures
            - throughput.drops) > 8 * 64
    assert reference.latency.maximum > 1024


@needs_kernel
def test_edge_weight_made_negative_after_construction():
    """A weight made negative after construction leaves the cumulative
    weights non-monotone: no guide holds, so every draw searches the whole
    range on python's own probe sequence."""
    def make_sim():
        sim = _edge_sim(12)
        sim.arrivals.weights[5] = -0.75
        return sim

    _assert_edge_case(make_sim)


def _assert_non_finite_weight_raises(value):
    """A weight made ``value`` after construction makes the total not
    finite: every engine, monolithic or streamed, raises ``choices()``'s
    error at the first arrival, with the generator where the reference
    leaves it."""
    def make_sim():
        sim = _edge_sim(12, seed=1)
        sim.arrivals.weights[4] = value
        return sim

    states = set()
    for engine in ("reference", "array"):
        for streamed in (False, True):
            sim = make_sim()
            with pytest.raises(ValueError,
                               match="^Total of weights must be finite$"):
                if streamed:
                    sim.run_stream(3000, engine=engine, chunk_slots=700)
                else:
                    sim.run(3000, engine=engine)
            states.add(sim.arrivals._rng.getstate())
    assert len(states) == 1


@needs_kernel
def test_edge_infinite_weight():
    """No guide holds for an infinite weight, and no plan either: the
    kernel never draws one, and every path raises as the reference's
    per-slot draw does."""
    _assert_non_finite_weight_raises(float("inf"))


@needs_kernel
def test_edge_nan_weight():
    _assert_non_finite_weight_raises(float("nan"))


@needs_kernel
def test_edge_cut_through_cell_overtakes_a_block_in_flight(late_landings):
    """An arrival that finds its queue's cells all fetched cuts through to
    the head SRAM while the block holding them is still in flight; the
    block then lands behind it, and the kernel moves its cells back past
    the cut-through cell."""
    _assert_edge_case(lambda: _edge_sim(8, seed=3))
    assert any("cell" in held for held in late_landings)


#: Where the generators enter the first span: a fresh key, one word in,
#: each side of the first temper chunk (32 words), the last word, and a
#: spent key, which the first draw twists.
MT_ENTRY_POSITIONS = (0, 1, 31, 32, 33, 623, 624)

#: The spans of one stream: short ones inside a chunk, one (slots 50-59)
#: inside the arbiter's off phase, so its generator is loaded and stored
#: without a draw, and long ones that cross several twists.
MT_SPANS = (1, 2, 5, 29, 13, 10, 20, 700, 3, 1500)


def _entered_at(rng, position):
    """``rng`` with its own key, at ``position``."""
    version, state, gauss = rng.getstate()
    rng.setstate((version, state[:624] + (position,), gauss))


@needs_kernel
@pytest.mark.parametrize("position", MT_ENTRY_POSITIONS)
def test_edge_generators_enter_spans_anywhere_in_a_block(position):
    """RandomArbiter (behind an on/off gate) over a kernel-drawn Bernoulli
    plan: after every span both generators stand where the reference
    engine leaves them, and the reports agree."""
    def make_sim():
        sim = ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4)),
            BernoulliArrivals(8, load=0.9, seed=71),
            IntermittentArbiter(RandomArbiter(8, load=0.95, seed=72),
                                on_slots=50, off_slots=30))
        _entered_at(sim.arrivals._rng, position)
        _entered_at(sim.arbiter.inner._rng, position)
        return sim

    def states(sim):
        return sim.arrivals._rng.getstate(), sim.arbiter.inner._rng.getstate()

    total = sum(MT_SPANS)
    streams = {engine: StreamingSimulation(make_sim(), total, engine=engine)
               for engine in ("reference", "array")}
    registry = MetricsRegistry()
    stop = 0
    with using_metrics(registry):
        for span in MT_SPANS:
            before = states(streams["array"].sim)
            stop += span
            for stream in streams.values():
                stream.advance_to(stop)
            after = states(streams["array"].sim)
            assert after == states(streams["reference"].sim)
            if stop == 60:
                assert after[1] == before[1]
        reports = {engine: stream.finish()
                   for engine, stream in streams.items()}
    assert_reports_identical(reports["reference"], reports["array"])
    assert registry.counter("engine.array.kernel_spans") > len(MT_SPANS)
    assert registry.counter("engine.array.kernel_plan_slots") == total


# --------------------------------------------------------------------- #
# Streamed runs: the kernel draws each chunk's Bernoulli plan.
# --------------------------------------------------------------------- #

#: Stock Bernoulli processes whose streamed plans the kernel draws: uniform
#: at OC-768's 128 queues, Zipf and hotspot.
STREAM_PROCESSES = {
    "bernoulli-q128": (128, lambda: BernoulliArrivals(128, load=0.9,
                                                      seed=51)),
    "zipf": (16, lambda: ZipfArrivals(16, exponent=1.2, load=0.9, seed=52)),
    "hotspot": (16, lambda: HotspotArrivals(16, hot_queues=[3, 11],
                                            hot_fraction=0.8, load=0.9,
                                            seed=53)),
}

STREAM_SLOTS = 4000

#: Chunkings of a 4000-slot stream, each with a warmup boundary inside a
#: chunk and one checkpoint mark: short chunks; uneven chunks whose warmup
#: split leaves a 50-slot span; one 65,536-slot chunk cut by the warmup
#: boundary and the mark.
STREAM_GEOMETRIES = {
    "short-chunks": dict(chunk_slots=150, warmup_slots=1000,
                         checkpoint_every=2000),
    "uneven": dict(chunk_slots=1300, warmup_slots=1250,
                   checkpoint_every=2450),
    "chunk-65536": dict(chunk_slots=65536, warmup_slots=1700,
                        checkpoint_every=3000),
}


def _spy_batch_draws(patcher):
    """Record the size of every ``BernoulliArrivals.arrivals`` call: the
    plans drawn in python."""
    calls = []
    stock = BernoulliArrivals.arrivals

    def arrivals(self, num_slots):
        calls.append(num_slots)
        return stock(self, num_slots)

    patcher.setattr(BernoulliArrivals, "arrivals", arrivals)
    return calls


def _streamed_plan_draws(process, geometry, patcher, tmp_path):
    """A streamed stock Bernoulli run that matches the reference engine,
    uninterrupted and resumed from its mid-run checkpoint; returns the
    array run's registry and the slots python's ``arrivals()`` drew in
    it."""
    num_queues, make_arrivals = STREAM_PROCESSES[process]
    path = tmp_path / "stream.ckpt.json"

    def run(engine):
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=num_queues,
                                        granularity=8)),
            make_arrivals(), RandomArbiter(num_queues, seed=54, load=0.95),
        ).run_stream(STREAM_SLOTS, engine=engine, checkpoint_path=path,
                     **STREAM_GEOMETRIES[geometry])

    reference = run("reference")
    calls = _spy_batch_draws(patcher)
    array, registry = _observed(lambda: run("array"))
    python_drawn = sum(calls)
    resumed = resume_stream(path)
    assert_reports_identical(reference, array)
    assert_reports_identical(reference, resumed)
    return registry, python_drawn


@pytest.mark.parametrize("geometry", sorted(STREAM_GEOMETRIES))
@pytest.mark.parametrize("process", sorted(STREAM_PROCESSES))
def test_streamed_kernel_drawn_plans_identical(process, geometry,
                                               monkeypatch, tmp_path):
    """Every main slot's arrival is drawn once, by the kernel, in spans of
    any length."""
    registry, python_drawn = _streamed_plan_draws(process, geometry,
                                                  monkeypatch, tmp_path)
    drawn = registry.counter("engine.array.kernel_plan_slots")
    if span_kernel.load_kernel() is not None:
        assert drawn == STREAM_SLOTS
    assert python_drawn == STREAM_SLOTS - drawn


def test_streamed_plans_without_the_kernel_are_drawn_once_in_python(
        monkeypatch, tmp_path):
    """With the kernel unloaded, the streamed run goes to the reference
    engine, warmup, checkpoint and resume included: python's
    ``arrivals()`` draws every main slot once, and no kernel span runs."""
    _disable_kernel(monkeypatch)
    registry, python_drawn = _streamed_plan_draws("zipf", "uneven",
                                                  monkeypatch, tmp_path)
    assert registry.counter("engine.array.kernel_spans") == 0
    assert registry.counter("engine.array.fallback.unavailable") > 0
    assert registry.counter("engine.array.kernel_plan_slots") == 0
    assert python_drawn == STREAM_SLOTS


def _mismatched_sim(process_queues):
    """A uniform Bernoulli process over ``process_queues`` queues feeding an
    8-queue RADS buffer."""
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=8)),
        BernoulliArrivals(process_queues, load=0.9, seed=61),
        RandomArbiter(8, seed=62, load=0.95))


def _run_mode(make_sim, mode, engine):
    if mode == "monolithic":
        return make_sim().run(3000, engine=engine)
    return make_sim().run_stream(3000, engine=engine, chunk_slots=700,
                                 warmup_slots=1000)


@pytest.mark.parametrize("mode", ["monolithic", "streamed"])
def test_process_with_fewer_queues_than_the_buffer(mode):
    """The kernel draws over the buffer's queues, so a process over fewer
    keeps python's plan, which the kernel runs as an explicit plan; the
    report matches the reference engine."""
    reference = _run_mode(lambda: _mismatched_sim(2), mode, "reference")
    array, registry = _observed(
        lambda: _run_mode(lambda: _mismatched_sim(2), mode, "array"))
    assert_reports_identical(reference, array)
    assert registry.counter("engine.array.kernel_plan_slots") == 0
    _assert_kernel_ran(registry)


@pytest.mark.parametrize("mode", ["monolithic", "streamed"])
def test_process_with_more_queues_than_the_buffer_raises(mode):
    """An arrival on a queue the buffer lacks raises the reference engine's
    error; the kernel neither draws the plan nor maps it onto the buffer's
    queues."""
    with pytest.raises(ValidationError) as reference:
        _run_mode(lambda: _mismatched_sim(16), mode, "reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(ValidationError) as array:
        _run_mode(lambda: _mismatched_sim(16), mode, "array")
    assert str(array.value) == str(reference.value)
    assert registry.counter("engine.array.kernel_plan_slots") == 0
    assert registry.counter("engine.array.kernel_spans") == 0


# --------------------------------------------------------------------- #
# Why a run missed the kernel: engine.array.fallback.<reason>.
# --------------------------------------------------------------------- #

def _fallbacks(registry):
    prefix = "engine.array.fallback."
    return {name[len(prefix):]: value
            for name, value in registry.counters().items()
            if name.startswith(prefix)}


@pytest.mark.parametrize("reason", ["policy", "traced", "short_span",
                                    "wide_queues", "unavailable"])
def test_fallback_reason_counts_every_slot(reason, monkeypatch):
    """One config per reason a run once missed the kernel.  A run the
    kernel cannot take (a custom arbiter, too many queues, no kernel) goes
    wholly to the reference engine, and the counter holds all its slots; a
    traced run and one of short spans now run wholly on the kernel."""
    if reason == "wide_queues":
        monkeypatch.setattr(span_kernel, "MAX_KERNEL_QUEUES", 4)
    if reason == "unavailable":
        _disable_kernel(monkeypatch)
    arbiter = (_LongestQueue(8) if reason == "policy"
               else RandomArbiter(8, seed=4))
    # Short spans: 100 main slots and a 32-slot drain (B=4).
    short = reason == "short_span"

    def make_sim():
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=8,
                                        granularity=4 if short else 32)),
            BernoulliArrivals(8, load=0.5, seed=3),
            arbiter, record_trace=reason == "traced")

    num_slots = 100 if short else 600
    reference = make_sim().run(num_slots, engine="reference")
    report, registry = _observed(lambda: make_sim().run(num_slots,
                                                        engine="array"))
    assert_reports_identical(reference, report)
    if reason in ("traced", "short_span"):
        if span_kernel.load_kernel() is not None:
            assert _fallbacks(registry) == {}
            assert registry.counter("engine.array.kernel_slots") == \
                report.throughput.slots
        return
    assert _fallbacks(registry) == {reason: report.throughput.slots}
    assert registry.counter("engine.array.span_slots") == 0
    assert registry.counter("engine.array.kernel_spans") == 0


def _shared_rng_sim():
    """Arrivals drawn from the arbiter's own RNG object."""
    arrivals = BernoulliArrivals(8, load=0.5, seed=3)
    arbiter = RandomArbiter(8, seed=4)
    arbiter._rng = arrivals._rng
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=32)),
        arrivals, arbiter)


def test_fallback_reason_shared_rng():
    """An arrival process sharing the arbiter's RNG object sends the whole
    run to the reference engine as ``shared_rng``: the reference engine
    interleaves the two draws slot by slot, which a plan drawn ahead of its
    span cannot.  The report equals a monolithic reference run's."""
    reference = _shared_rng_sim().run(600, engine="reference")
    array, registry = _observed(lambda: _shared_rng_sim().run(
        600, engine="array"))
    assert_reports_identical(reference, array)
    assert _fallbacks(registry) == {"shared_rng": array.throughput.slots}
    assert registry.counter("engine.array.spans") == 0
    assert registry.counter("engine.array.kernel_spans") == 0


def test_fallback_reason_shared_rng_streamed():
    """Streamed, a shared RNG sends every chunk to the reference engine as
    ``shared_rng``, the warmup boundary inside a chunk included: the report
    equals the reference engine's run in the same chunks (each chunk's
    plan drawn before the chunk's arbiter draws, which only matches a
    monolithic run when the two RNGs are separate)."""
    geometry = dict(chunk_slots=400, warmup_slots=1000)
    reference = _shared_rng_sim().run_stream(2000, engine="reference",
                                             **geometry)
    array, registry = _observed(lambda: _shared_rng_sim().run_stream(
        2000, engine="array", **geometry))
    assert_reports_identical(reference, array)
    # Every slot, the warmup's included (the report measures from it).
    assert _fallbacks(registry) == {
        "shared_rng": array.throughput.slots + geometry["warmup_slots"]}
    assert registry.counter("engine.array.kernel_spans") == 0


def _abort_codes(registry):
    prefix = "engine.array.kernel_aborts."
    return {name[len(prefix):]: value
            for name, value in registry.counters().items()
            if name.startswith(prefix)}


def test_fallback_reason_abort():
    """A strict-mode overflow aborts the kernel span, which raises the
    reference engine's exception from its abort record: one abort, under
    the kernel's ``overflow`` code, no fallback and no replay."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")
    with pytest.raises(BufferOverflowError) as reference:
        _strict_overflow_sim().run(1200, engine="reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(BufferOverflowError) as array:
        _strict_overflow_sim().run(1200, engine="array")
    assert str(array.value) == str(reference.value)
    assert _fallbacks(registry) == {}
    assert registry.counter("engine.array.kernel_aborts") == 1
    assert _abort_codes(registry) == {"overflow": 1}
    _assert_timed_per_call(registry)


def test_aborted_span_leaves_the_core_unchanged():
    """A span the kernel aborts writes nothing back: after one span that
    succeeded, a strict tail overflow raises, and the simulation and its
    core (the arrays, the image, the scalars, and the arbiter's and the
    kernel-drawn plan's generators) pickle to the same bytes as before the
    span."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")
    sim = _strict_overflow_sim()
    core = build_array_core(sim)
    core.run_span(window_plan(sim, core, 0, 20), 20)
    plan = window_plan(sim, core, 20, 1000)
    before = pickle.dumps((sim, core))
    with pytest.raises(BufferOverflowError, match="tail SRAM"):
        core.run_span(plan, 1000)
    assert pickle.dumps((sim, core)) == before


def test_fallback_reason_no_lookahead():
    """No buffer config yields an empty lookahead (it is at least one
    slot), so no fallback reason names it: a core patched to an empty
    lookahead still goes to the kernel, whose shape check rejects the span
    as ``arg``, with the core untouched."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")
    sim = ClosedLoopSimulation(
        _build_buffer("rads"), BernoulliArrivals(8, load=0.5, seed=3),
        RandomArbiter(8, seed=4))
    core = build_array_core(sim)
    core.la_len = 0
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(ConfigurationError,
                                                match="rejected"):
        core.run_span(sim.arrivals.arrivals(1000), 1000)
    assert core.slot == 0
    assert registry.counter("engine.array.kernel_spans") == 0
    assert _abort_codes(registry) == {"arg": 1}
    assert _fallbacks(registry) == {}


#: One leg per Mersenne Twister key a span entry resumes: the scheme, and
#: the generator whose position the patched marshal hands over as -1.
CORRUPT_KEYS = {
    "rads-arbiter": ("rads", lambda sim: sim.arbiter._rng),
    "rads-bernoulli": ("rads", lambda sim: sim.arrivals._rng),
    "cfds-arbiter": ("cfds", lambda sim: sim.arbiter._rng),
}


@pytest.mark.parametrize("leg", sorted(CORRUPT_KEYS))
def test_mt_position_out_of_range_aborts(leg, monkeypatch):
    """A generator position outside [0, 624] would make the kernel read
    before the key (``key[-1]`` at -1): every entry rejects it as ``arg``
    before drawing, leaving the generator untouched."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")
    scheme, generator = CORRUPT_KEYS[leg]
    sim = ClosedLoopSimulation(
        _build_buffer(scheme), BernoulliArrivals(8, load=0.8, seed=5),
        RandomArbiter(8, seed=6))
    target = generator(sim)
    before = target.getstate()
    stock = span_kernel._rng_image

    def corrupted(rng):
        state, key, meta = stock(rng)
        if rng is target:
            meta[0] = -1
        return state, key, meta

    monkeypatch.setattr(span_kernel, "_rng_image", corrupted)
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(ConfigurationError,
                                                match="rejected"):
        sim.run(900, engine="array")
    assert _abort_codes(registry) == {"arg": 1}
    assert target.getstate() == before


class _LongestQueue(LongestQueueArbiter):
    """A subclass: it may override ``next_request``, so the kernel declines
    it."""


def _rads_sim(arbiter, arrivals=None, head_mma=None, record_trace=False,
              **config):
    """An 8-queue RADS machine (B=4) fed Bernoulli traffic, or
    ``arrivals``."""
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4, **config),
                         head_mma=head_mma),
        arrivals or BernoulliArrivals(8, load=0.9, seed=71), arbiter,
        record_trace=record_trace)


#: A trace arbiter's pattern: every third queue, round and round.
TRACE_PATTERN = [q % 8 for q in range(0, 900, 3)] * 3

#: A machine for each stock policy the RADS entry runs beyond the
#: registered scenarios' (RandomArbiter, OldestCellArbiter, the round-robin
#: adversary): LongestQueueArbiter over the buffer's queues, no arbiter, the
#: strided adversary, a trace arbiter, an on/off gate over RandomArbiter and
#: over LongestQueueArbiter, MDQF, and a traced run.
RADS_POLICIES = {
    "longest_queue": lambda: _rads_sim(LongestQueueArbiter(8)),
    "none": lambda: _rads_sim(None),
    "strided": lambda: _rads_sim(StridedAdversary(8, stride=3, burst=2)),
    "trace": lambda: _rads_sim(TraceArbiter(TRACE_PATTERN)),
    "intermittent-random": lambda: _rads_sim(IntermittentArbiter(
        RandomArbiter(8, load=0.9, seed=52), 40, 25)),
    "intermittent-longest": lambda: _rads_sim(IntermittentArbiter(
        LongestQueueArbiter(8), 7, 3)),
    "mdqf": lambda: _rads_sim(RandomArbiter(8, load=0.8, seed=53),
                              BernoulliArrivals(8, load=0.7, seed=71),
                              head_mma=MDQF()),
    "traced": lambda: _rads_sim(RoundRobinAdversary(8), record_trace=True),
}


@pytest.mark.parametrize("mode", ["monolithic", "streamed", "1-slot-spans"])
@pytest.mark.parametrize("policy", sorted(RADS_POLICIES))
def test_rads_runs_every_stock_policy(policy, mode, tmp_path):
    """Monolithic, streamed in uneven chunks with the warmup boundary
    inside one and a checkpoint resumed, and streamed a slot at a time,
    every slot runs on the kernel, no run counts ``policy``, and the report
    and the recorded trace equal the reference engine's."""
    path = tmp_path / "rads.ckpt.json"

    def run(engine):
        sim = RADS_POLICIES[policy]()
        if mode == "monolithic":
            return sim.run(3000, engine=engine)
        if mode == "1-slot-spans":
            return sim.run_stream(600, engine=engine, chunk_slots=1)
        return sim.run_stream(3000, engine=engine, chunk_slots=700,
                              warmup_slots=1000, checkpoint_every=1500,
                              checkpoint_path=path)

    reference = run("reference")
    array, registry = _observed(lambda: run("array"))
    assert_reports_identical(reference, array)
    assert (array.trace and array.trace.events) == \
        (reference.trace and reference.trace.events)
    assert "policy" not in _fallbacks(registry)
    _assert_kernel_ran(registry)
    if mode == "streamed":
        resumed, registry = _observed(lambda: resume_stream(path))
        assert_reports_identical(reference, resumed)
        assert "policy" not in _fallbacks(registry)
        _assert_kernel_ran(registry)


@pytest.mark.parametrize("arbiter", ["subclass", "fewer-queues"])
def test_rads_longest_queue_variants_count_policy(arbiter):
    """A ``LongestQueueArbiter`` subclass, or one over fewer queues than the
    buffer has, sends the whole run to the reference engine as
    ``policy``."""
    def make_sim():
        return _rads_sim(_LongestQueue(8) if arbiter == "subclass"
                         else LongestQueueArbiter(7))

    reference = make_sim().run(600, engine="reference")
    array, registry = _observed(lambda: make_sim().run(600, engine="array"))
    assert_reports_identical(reference, array)
    assert _fallbacks(registry) == {"policy": array.throughput.slots}
    assert registry.counter("engine.array.kernel_spans") == 0


def _plan_entry_sim(entry):
    """RADS fed a trace whose arrival at slot 300 is ``entry``."""
    return _rads_sim(RandomArbiter(8, seed=2), TraceArrivals(
        [q % 8 for q in range(300)] + [entry] + [None] * 99))


#: Raise sites of the RADS entry besides the strict tail overflow
#: (:func:`test_fallback_reason_abort`), each with the reference's
#: exception and message and the kernel's abort code: explicit plan entries
#: past the last queue (unchecked, the kernel would write out of bounds),
#: at -1, the kernel's no-arrival code (not an idle slot, nor an index from
#: the end of a per-queue list), and past ``int32`` (not ``array``'s
#: conversion error); a trace entry naming no queue; 40 cells a queue, then
#: a round robin a one-slot lookahead cannot keep up with; a 20-cell DRAM.
RADS_RAISE_SITES = {
    "plan-no-queue": (
        lambda: _plan_entry_sim(8), ValidationError,
        r"^arrival 8 at slot 300 names no queue: an arrival must be None or "
        r"an int in \[0, 8\)$", "plan"),
    "plan-no-arrival-code": (lambda: _plan_entry_sim(-1), ValidationError,
                             "^arrival -1 at slot 300", "plan"),
    "plan-past-int32": (lambda: _plan_entry_sim(2 ** 40), ValidationError,
                        f"^arrival {2 ** 40} at slot 300", "plan"),
    "arbiter": (lambda: _rads_sim(TraceArbiter([None] * 200 + [-1])),
                ArbiterContractError, None, "arbiter"),
    "head-miss": (lambda: _rads_sim(
        TraceArbiter([None] * 320 + TRACE_PATTERN),
        TraceArrivals([q % 8 for q in range(320)]), lookahead=1),
        CacheMissError, None, "miss"),
    "dram": (lambda: _rads_sim(RandomArbiter(8, load=0.2, seed=56),
                               dram_cells=20),
             BufferOverflowError, None, "overflow"),
}


@needs_kernel
@pytest.mark.parametrize("site", sorted(RADS_RAISE_SITES))
def test_abort_raises_the_reference_error(site):
    """The kernel aborts the span at the site, and python raises the
    reference engine's exception from the abort record."""
    make_sim, error, message, code = RADS_RAISE_SITES[site]
    with pytest.raises(error, match=message) as reference:
        make_sim().run(1200, engine="reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(error) as array:
        make_sim().run(1200, engine="array")
    assert str(array.value) == str(reference.value)
    assert _abort_codes(registry) == {code: 1}
    assert _fallbacks(registry) == {}
    assert registry.counter("engine.array.kernel_spans") == 0


# --------------------------------------------------------------------- #
# Span-kernel hardening (review regressions).
# --------------------------------------------------------------------- #

def test_checkpoint_after_kernel_span_is_numpy_free(tmp_path):
    """A checkpoint written after kernel-backed spans resumes to the
    uninterrupted report, and numpy is no dependency: ``import repro`` plus
    a kernel span leaves it unloaded."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never ran")
    scenario = get_scenario("uniform-bernoulli")
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="array", chunk_slots=500)

    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="array",
                                  chunk_slots=500)
    session.advance_to(1000)
    path = tmp_path / "kernel.ckpt.json"
    session.save_checkpoint(path)
    resumed = resume_stream(path)
    assert_reports_identical(resumed, uninterrupted)

    code = "\n".join([
        "import sys",
        "import repro",
        "from repro.obs.metrics import MetricsRegistry, using_metrics",
        "from repro.workloads.registry import get_scenario",
        "registry = MetricsRegistry()",
        "with using_metrics(registry):",
        "    get_scenario('uniform-bernoulli').run(engine='array')",
        "assert registry.counter('engine.array.kernel_spans') > 0",
        "assert 'numpy' not in sys.modules, 'numpy was imported'",
    ])
    src = Path(span_kernel.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr


def test_each_kernel_result_is_released_once(monkeypatch):
    """The kernel owns its result buffer: every successful call hands one
    back and python releases it exactly once; an aborted call returns none
    to release."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")
    released = []
    release = span_kernel._release

    def counting_release(result):
        released.append(result)
        release(result)

    monkeypatch.setattr(span_kernel, "_release", counting_release)

    def make_sim(**overrides):
        return ClosedLoopSimulation(
            _build_buffer("rads", **overrides),
            BernoulliArrivals(8, load=1.0, seed=11),
            RandomArbiter(8, seed=12, load=0.3))

    _, registry = _observed(lambda: make_sim().run_stream(
        3000, engine="array", chunk_slots=500))
    spans = registry.counter("engine.array.kernel_spans")
    assert spans > 1
    assert len(released) == spans

    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(BufferOverflowError):
        make_sim(tail_sram_cells=3, strict=True).run(1200, engine="array")
    assert registry.counter("engine.array.kernel_aborts") > 0
    assert len(released) == spans


def test_kernel_cache_is_private(monkeypatch, tmp_path):
    """The compiled-kernel cache lives under the user's private cache dir
    (XDG_CACHE_HOME honoured), never a world-shared temp directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    path = span_kernel._cache_path()
    assert str(path).startswith(str(tmp_path / "xdg"))
    assert path.parent == tmp_path / "xdg" / "repro" / "spankernel"


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX-only check")
def test_kernel_trust_rejects_loose_permissions(tmp_path):
    private = tmp_path / "private.so"
    private.write_bytes(b"")
    os.chmod(private, 0o700)
    assert span_kernel._trusted(private)

    loose = tmp_path / "loose.so"
    loose.write_bytes(b"")
    os.chmod(loose, 0o770)  # group-writable: plantable by a co-member
    assert not span_kernel._trusted(loose)

    link = tmp_path / "link.so"
    link.symlink_to(private)
    assert not span_kernel._trusted(link)  # symlinks are never followed

    os.chmod(tmp_path, 0o700)
    assert span_kernel._trusted(tmp_path, want_dir=True)
    assert not span_kernel._trusted(tmp_path)  # wrong type for a .so
    assert not span_kernel._trusted(tmp_path / "absent.so")


@pytest.mark.skipif(not hasattr(os, "getuid"), reason="POSIX-only check")
def test_load_kernel_refuses_untrusted_cache(monkeypatch, tmp_path):
    """A pre-planted group-writable .so at the cache path is never CDLLed:
    load_kernel() must skip it and report the kernel unavailable."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    planted = span_kernel._cache_path()
    planted.parent.mkdir(parents=True)
    planted.write_bytes(b"not a real shared object")
    os.chmod(planted, 0o770)
    monkeypatch.setattr(span_kernel, "_kernel", None)
    monkeypatch.setattr(span_kernel, "_kernel_tried", False)
    assert span_kernel.load_kernel() is None
