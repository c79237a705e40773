"""Acceptance tests of the compiled span kernel under ``engine="array"``.

Most cases run twice, through the ``kernel_mode`` fixture: with the span
kernel (when it builds — without a compiler that leg re-runs the scalar
loop) and with it switched off, so the array core's scalar python loop
runs every span.  Either way the report must be bit-identical to the
reference loop, or, where the reference loop is too slow (the wide
machines), to the kernel-off array run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import (
    BufferOverflowError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel as span_kernel
from repro.sim.array_engine import build_array_core
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import StreamingSimulation, resume_stream
from repro.workloads.registry import get_scenario
from repro.traffic.arbiters import OldestCellArbiter, RandomArbiter
from repro.traffic.arrivals import (
    BernoulliArrivals,
    HotspotArrivals,
    MarkovOnOffArrivals,
    TraceArrivals,
    ZipfArrivals,
)
from repro.workloads import all_scenarios
from repro.workloads.registry import scenario_names

#: Both execution tiers of the RADS core: the compiled span kernel (when it
#: loads — without a compiler this leg just re-runs the scalar loop) and the
#: scalar python loop (kernel force-disabled).
KERNEL_MODES = ("kernel", "no-kernel")


def _disable_kernel(patcher):
    patcher.setattr(span_kernel, "_kernel", None)
    patcher.setattr(span_kernel, "_kernel_tried", True)


@pytest.fixture(params=KERNEL_MODES)
def kernel_mode(request, monkeypatch):
    if request.param == "no-kernel":
        _disable_kernel(monkeypatch)
    return request.param


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


def without_kernel(monkeypatch, run):
    """``run()`` with the span kernel switched off: the array core's scalar
    loop runs every span."""
    with monkeypatch.context() as patcher:
        _disable_kernel(patcher)
        return run()


# --------------------------------------------------------------------- #
# The registered suite, through both kernel modes.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", scenario_names())
def test_numpy_identical_on_registered_scenarios(name, kernel_mode):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference")
    array = scenario.run(engine="array")
    assert_reports_identical(reference, array)


@pytest.mark.parametrize("name", scenario_names())
def test_numpy_identical_without_drain(name, kernel_mode):
    scenario = next(s for s in all_scenarios() if s.name == name)
    reference = scenario.run(engine="reference", num_slots=600)
    array = scenario.run(engine="array", num_slots=600)
    assert_reports_identical(reference, array)


def test_numpy_identical_with_trace_recorded():
    """A traced run cannot use the kernel (the trace needs per-slot
    events) — the scalar loop must still be bit-identical, trace
    included."""
    scenario = next(s for s in all_scenarios()
                    if s.name == "uniform-bernoulli")
    reference = scenario.run(engine="reference", record_trace=True)
    array = scenario.run(engine="array", record_trace=True)
    assert_reports_identical(reference, array)
    assert reference.trace.events == array.trace.events


# --------------------------------------------------------------------- #
# Edge modes: fill-only, drain-only, zero/one slot, lossy, no drain.
# --------------------------------------------------------------------- #

def test_fill_only_run(kernel_mode):
    """No arbiter: the buffer only fills; both engines agree."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), BernoulliArrivals(8, load=0.9, seed=21),
            None)

    reference, array = run_both(make_sim, 800)
    assert_reports_identical(reference, array)
    assert array.throughput.arrivals > 0
    assert array.throughput.departures == 0


def test_drain_only_run(kernel_mode):
    """No arrivals: idle request slots only; both engines agree."""
    def make_sim():
        return ClosedLoopSimulation(_build_buffer("rads"), None,
                                    OldestCellArbiter(8))

    reference, array = run_both(make_sim, 500)
    assert_reports_identical(reference, array)
    assert array.throughput.arrivals == 0


@pytest.mark.parametrize("num_slots", [0, 1])
def test_degenerate_slot_counts(num_slots, kernel_mode):
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), BernoulliArrivals(8, load=0.5, seed=3),
            RandomArbiter(8, seed=4))

    reference, array = run_both(make_sim, num_slots)
    assert_reports_identical(reference, array)


@pytest.mark.parametrize("drain", [True, False])
def test_lossy_run_counts_identical_drops(drain, kernel_mode):
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


def test_strict_overflow_raises_identically(kernel_mode):
    """A strict-mode overflow aborts the kernel; the python replay must
    surface the same exception the reference loop raises."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads", tail_sram_cells=3, strict=True),
            BernoulliArrivals(8, load=1.0, seed=11),
            RandomArbiter(8, seed=12, load=0.3))

    with pytest.raises(BufferOverflowError) as reference_exc:
        make_sim().run(1200, engine="reference")
    with pytest.raises(BufferOverflowError) as array_exc:
        make_sim().run(1200, engine="array")
    assert str(array_exc.value) == str(reference_exc.value)


def test_cfds_falls_back_to_array_core(kernel_mode):
    """CFDS's 900-slot main span runs on the kernel's CFDS entry (with the
    kill switch: on the array core's python loop), and its 50-slot drain
    falls back to the python loop in both modes; either way the report
    matches the reference loop."""
    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("cfds"), BernoulliArrivals(8, load=0.8, seed=5),
            RandomArbiter(8, seed=6))

    reference = make_sim().run(900, engine="reference")
    array, registry = _observed(lambda: make_sim().run(900, engine="array"))
    assert_reports_identical(reference, array)
    drain = array.throughput.slots - 900
    if kernel_mode == "kernel" and span_kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_slots") == 900
        assert _fallbacks(registry) == {"short_span": drain}
    else:
        assert registry.counter("engine.array.kernel_spans") == 0
        assert _fallbacks(registry) == {"unavailable": 900,
                                        "short_span": drain}


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


def test_kernel_kill_switch(monkeypatch):
    monkeypatch.setenv(span_kernel.KERNEL_ENV, "0")
    assert not span_kernel.kernel_enabled()
    monkeypatch.setenv(span_kernel.KERNEL_ENV, "off")
    assert not span_kernel.kernel_enabled()
    monkeypatch.delenv(span_kernel.KERNEL_ENV)
    assert span_kernel.kernel_enabled()


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


def _baseline(kernel_mode, monkeypatch, run):
    """The report an array run must match: in the kernel leg the same run
    with the kernel off, in the kill-switch leg the reference loop.
    ``run(engine)`` performs the run."""
    if kernel_mode == "kernel":
        return without_kernel(monkeypatch, lambda: run("array"))
    return run("reference")


def _timer_count(registry, name):
    return registry.snapshot()["timers"].get(name, {}).get("count", 0)


def _assert_timed_per_call(registry):
    """Each kernel call, completed or aborted, records its native and its
    handoff time once."""
    calls = (registry.counter("engine.array.kernel_spans")
             + registry.counter("engine.array.kernel_aborts"))
    assert _timer_count(registry, "engine.array.kernel_native_s") == calls
    assert _timer_count(registry, "engine.array.kernel_handoff_s") == calls


def _assert_kernel_ran(registry, kernel_mode):
    """The array run took the span kernel (with the kill switch: did not),
    so a silent scalar fallback cannot pass for a kernel run."""
    spans = registry.counter("engine.array.kernel_spans")
    assert registry.counter("engine.array.kernel_aborts") == 0
    _assert_timed_per_call(registry)
    if kernel_mode == "no-kernel":
        assert spans == 0
        assert registry.counter("engine.array.fallback.unavailable") > 0
    elif span_kernel.kernel_enabled() and span_kernel._compiler() is not None:
        assert spans > 0


@pytest.mark.parametrize("num_queues", WIDE_QUEUES)
def test_wide_monolithic_deferred_plan(num_queues, kernel_mode, monkeypatch):
    """A weighted Bernoulli plan the kernel draws itself (deferred), then
    the drain window as a span of its own."""
    def make_sim():
        return _wide_sim(num_queues, BernoulliArrivals(
            num_queues, load=0.9, seed=7,
            weights=_wide_weights(num_queues)))

    _assert_plan_reaches_wide_queues(
        make_sim().arrivals.arrivals(3000), num_queues)
    baseline = _baseline(kernel_mode, monkeypatch,
                         lambda engine: make_sim().run(3000, engine=engine))
    array, registry = _observed(lambda: make_sim().run(3000, engine="array"))
    assert_reports_identical(baseline, array)
    _assert_kernel_ran(registry, kernel_mode)


@pytest.mark.parametrize("num_queues", WIDE_QUEUES)
def test_wide_explicit_markov_plan(num_queues, kernel_mode, monkeypatch):
    """A non-Bernoulli plan drawn in python and handed to the kernel as an
    explicit plan."""
    def make_sim():
        return _wide_sim(num_queues, MarkovOnOffArrivals(
            num_queues, mean_on_slots=20.0, mean_off_slots=60.0, seed=9))

    _assert_plan_reaches_wide_queues(
        make_sim().arrivals.arrivals(2400), num_queues)
    baseline = _baseline(kernel_mode, monkeypatch,
                         lambda engine: make_sim().run(2400, engine=engine))
    array, registry = _observed(lambda: make_sim().run(2400, engine="array"))
    assert_reports_identical(baseline, array)
    _assert_kernel_ran(registry, kernel_mode)


@pytest.mark.parametrize("num_queues", WIDE_QUEUES)
def test_wide_stream_with_warmup_and_resume(num_queues, kernel_mode,
                                            monkeypatch, tmp_path):
    """Streamed wide run: the warmup and checkpoint marks cut the 700-slot
    chunks unevenly (some below the kernel's minimum span), and resuming
    from the last checkpoint reproduces the uninterrupted report."""
    def make_sim():
        return _wide_sim(num_queues, BernoulliArrivals(
            num_queues, load=0.9, seed=13,
            weights=_wide_weights(num_queues)))

    geometry = dict(chunk_slots=700, warmup_slots=450)
    path = tmp_path / "wide.ckpt.json"
    baseline = _baseline(kernel_mode, monkeypatch,
                         lambda engine: make_sim().run_stream(
                             4100, engine=engine, **geometry))
    array, registry = _observed(lambda: make_sim().run_stream(
        4100, engine="array", checkpoint_every=1500, checkpoint_path=path,
        **geometry))
    assert_reports_identical(baseline, array)
    _assert_kernel_ran(registry, kernel_mode)
    resumed, registry = _observed(lambda: resume_stream(path))
    assert_reports_identical(baseline, resumed)
    _assert_kernel_ran(registry, kernel_mode)


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
#: chunk and one checkpoint mark, and the main slots whose plan the kernel
#: draws: every span below MIN_KERNEL_SLOTS; uneven chunks whose warmup
#: split leaves a 50-slot span; one 65,536-slot chunk cut by the warmup
#: boundary and the mark.
STREAM_GEOMETRIES = {
    "short-chunks": (dict(chunk_slots=150, warmup_slots=1000,
                          checkpoint_every=2000), 0),
    "uneven": (dict(chunk_slots=1300, warmup_slots=1250,
                    checkpoint_every=2450), STREAM_SLOTS - 50),
    "chunk-65536": (dict(chunk_slots=65536, warmup_slots=1700,
                         checkpoint_every=3000), STREAM_SLOTS),
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


@pytest.mark.parametrize("geometry", sorted(STREAM_GEOMETRIES))
@pytest.mark.parametrize("process", sorted(STREAM_PROCESSES))
def test_streamed_kernel_drawn_plans_identical(process, geometry,
                                               kernel_mode, monkeypatch,
                                               tmp_path):
    """A streamed stock Bernoulli run matches the reference engine and the
    kernel-off array run, uninterrupted and resumed from its mid-run
    checkpoint; every main slot's arrival is drawn once, by the kernel or
    by one python ``arrivals()`` call for a span the kernel declines."""
    num_queues, make_arrivals = STREAM_PROCESSES[process]
    geometry, kernel_drawn = STREAM_GEOMETRIES[geometry]
    path = tmp_path / "stream.ckpt.json"

    def run(engine):
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=num_queues,
                                        granularity=8)),
            make_arrivals(), RandomArbiter(num_queues, seed=54, load=0.95),
        ).run_stream(STREAM_SLOTS, engine=engine, checkpoint_path=path,
                     **geometry)

    reference = run("reference")
    scalar = without_kernel(monkeypatch, lambda: run("array"))
    with monkeypatch.context() as patcher:
        calls = _spy_batch_draws(patcher)
        array, registry = _observed(lambda: run("array"))
        python_drawn = sum(calls)
        resumed = resume_stream(path)
    assert_reports_identical(reference, array)
    assert_reports_identical(scalar, array)
    assert_reports_identical(reference, resumed)
    drawn = registry.counter("engine.array.kernel_plan_slots")
    if kernel_mode == "kernel" and span_kernel.load_kernel() is not None:
        assert drawn == kernel_drawn
    else:
        assert drawn == 0
    assert python_drawn == STREAM_SLOTS - drawn


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
def test_process_with_fewer_queues_than_the_buffer(mode, kernel_mode):
    """The kernel draws over the buffer's queues, so a process over fewer
    keeps python's plan, which the kernel runs as an explicit plan; the
    report matches the reference engine."""
    reference = _run_mode(lambda: _mismatched_sim(2), mode, "reference")
    array, registry = _observed(
        lambda: _run_mode(lambda: _mismatched_sim(2), mode, "array"))
    assert_reports_identical(reference, array)
    assert registry.counter("engine.array.kernel_plan_slots") == 0
    _assert_kernel_ran(registry, kernel_mode)


@pytest.mark.parametrize("mode", ["monolithic", "streamed"])
def test_process_with_more_queues_than_the_buffer_raises(mode, kernel_mode):
    """An arrival on a queue the buffer lacks raises the reference engine's
    error; the kernel neither draws the plan nor maps it onto the buffer's
    queues."""
    with pytest.raises(KeyError) as reference:
        _run_mode(lambda: _mismatched_sim(16), mode, "reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(KeyError) as array:
        _run_mode(lambda: _mismatched_sim(16), mode, "array")
    assert array.value.args == reference.value.args
    assert registry.counter("engine.array.kernel_plan_slots") == 0
    assert registry.counter("engine.array.kernel_spans") == 0


# --------------------------------------------------------------------- #
# Why a span missed the kernel: engine.array.fallback.<reason>.
# --------------------------------------------------------------------- #

def _fallbacks(registry):
    prefix = "engine.array.fallback."
    return {name[len(prefix):]: value
            for name, value in registry.counters().items()
            if name.startswith(prefix)}


@pytest.mark.parametrize("reason", ["policy", "traced", "short_span",
                                    "wide_queues", "unavailable"])
def test_fallback_reason_counts_every_slot(reason, monkeypatch):
    """One config per static reason: every span of the run misses the
    kernel for that reason alone, and the counter holds all its slots."""
    if reason == "wide_queues":
        monkeypatch.setattr(span_kernel, "MAX_KERNEL_QUEUES", 4)
    if reason == "unavailable":
        monkeypatch.setattr(span_kernel, "_kernel", None)
        monkeypatch.setattr(span_kernel, "_kernel_tried", True)
    arbiter = (OldestCellArbiter(8) if reason == "policy"
               else RandomArbiter(8, seed=4))
    # Short spans: 100 main slots and a 32-slot drain (B=4).  Otherwise
    # B=32, whose 312-slot drain window is no short span of its own.
    short = reason == "short_span"
    sim = ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8,
                                    granularity=4 if short else 32)),
        BernoulliArrivals(8, load=0.5, seed=3),
        arbiter, record_trace=reason == "traced")
    num_slots = 100 if short else 600
    report, registry = _observed(lambda: sim.run(num_slots, engine="array"))
    assert _fallbacks(registry) == {reason: report.throughput.slots}
    assert registry.counter("engine.array.span_slots") == \
        report.throughput.slots
    assert registry.counter("engine.array.kernel_spans") == 0


def test_fallback_reason_shared_rng(monkeypatch):
    """An arrival process sharing the arbiter's RNG cannot have its plan
    drawn by the kernel: the main span draws it in python first (then runs
    on the kernel with it), exactly as the scalar loop orders the draws.
    (The reference loop interleaves the two processes' draws, so with one
    shared RNG only the array core's two loops are comparable.)"""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")

    def make_sim():
        arrivals = BernoulliArrivals(8, load=0.5, seed=3)
        arbiter = RandomArbiter(8, seed=4)
        arbiter._rng = arrivals._rng
        # B=32: the drain window is long enough for the kernel too.
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=8, granularity=32)),
            arrivals, arbiter)

    scalar = without_kernel(monkeypatch,
                            lambda: make_sim().run(600, engine="array"))
    array, registry = _observed(lambda: make_sim().run(600, engine="array"))
    assert_reports_identical(scalar, array)
    assert _fallbacks(registry) == {"shared_rng": 600}
    assert registry.counter("engine.array.kernel_spans") == 2


class _PythonWindows(BernoulliArrivals):
    """Serves every streamed window from python, as all processes did
    before the kernel drew streamed plans (overriding ``arrivals_slice``
    turns the kernel draw away)."""

    def arrivals_slice(self, start_slot, num_slots):
        return super().arrivals_slice(start_slot, num_slots)


def test_fallback_reason_shared_rng_streamed(monkeypatch):
    """Streamed, the shared RNG keeps each chunk's plan drawn in python
    ahead of the chunk's arbiter draws, whole even when the warmup
    boundary splits the chunk: the report equals the kernel-off run and
    the run whose windows are python's."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")

    def make_sim(process=BernoulliArrivals):
        arrivals = process(8, load=0.5, seed=3)
        arbiter = RandomArbiter(8, seed=4)
        arbiter._rng = arrivals._rng
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=8, granularity=32)),
            arrivals, arbiter)

    geometry = dict(chunk_slots=400, warmup_slots=1000)
    windows = make_sim(_PythonWindows).run_stream(2000, engine="array",
                                                  **geometry)
    scalar = without_kernel(monkeypatch, lambda: make_sim().run_stream(
        2000, engine="array", **geometry))
    array, registry = _observed(lambda: make_sim().run_stream(
        2000, engine="array", **geometry))
    assert_reports_identical(windows, array)
    assert_reports_identical(scalar, array)
    # Every chunk; the split one (800-1200) was drawn at the split and runs
    # its two parts on explicit plans.
    assert _fallbacks(registry) == {"shared_rng": 2000}
    assert registry.counter("engine.array.kernel_plan_slots") == 0
    assert registry.counter("engine.array.kernel_spans") == 7


def _abort_codes(registry):
    prefix = "engine.array.kernel_aborts."
    return {name[len(prefix):]: value
            for name, value in registry.counters().items()
            if name.startswith(prefix)}


def test_fallback_reason_abort():
    """A strict-mode overflow aborts every kernel attempt; the python loop
    then raises, and only the abort reason is recorded, every abort under
    the kernel's ``strict`` code."""
    if span_kernel.load_kernel() is None:
        pytest.skip("no C compiler: the span kernel never runs")
    sim = ClosedLoopSimulation(
        _build_buffer("rads", tail_sram_cells=3, strict=True),
        BernoulliArrivals(8, load=1.0, seed=11),
        RandomArbiter(8, seed=12, load=0.3))
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(BufferOverflowError):
        sim.run(1200, engine="array")
    assert set(_fallbacks(registry)) == {"abort"}
    aborts = registry.counter("engine.array.kernel_aborts")
    assert aborts > 0
    assert _abort_codes(registry) == {"strict": aborts}
    _assert_timed_per_call(registry)


def test_fallback_reason_no_lookahead():
    """No buffer config yields an empty lookahead (it is at least one
    slot), so the kernel's defensive gate is pinned on a patched core."""
    sim = ClosedLoopSimulation(
        _build_buffer("rads"), BernoulliArrivals(8, load=0.5, seed=3),
        RandomArbiter(8, seed=4))
    core = build_array_core(sim)
    assert core._kernel_miss(1000) in (None, "unavailable")
    core.la_len = 0
    assert core._kernel_miss(1000) == "no_lookahead"


# --------------------------------------------------------------------- #
# Span-kernel hardening (review regressions).
# --------------------------------------------------------------------- #

def test_streamed_backlog_migration_identical(kernel_mode):
    """Streamed chunks over a machine with a large migrating backlog: a
    rarely-granting arbiter and one hot queue make the tail MMA push far
    more cells into DRAM per chunk than the chunk has slots (the kernel's
    out buffers must be sized for backlog migration, not just arrivals)."""
    def make_sim():
        return ClosedLoopSimulation(
            RADSPacketBuffer(RADSConfig(num_queues=8, granularity=64)),
            BernoulliArrivals(8, load=1.0, seed=31,
                              weights=[500, 1, 1, 1, 1, 1, 1, 1]),
            RandomArbiter(8, seed=32, load=0.05))

    reference = make_sim().run_stream(4000, engine="reference",
                                      chunk_slots=200)
    array = make_sim().run_stream(4000, engine="array", chunk_slots=200)
    assert_reports_identical(reference, array)
    assert array.throughput.arrivals > 3000


def test_plan_entry_naming_no_queue_aborts_the_kernel(kernel_mode,
                                                      monkeypatch):
    """An explicit plan entry past the last queue makes the kernel abort
    before it indexes any per-queue state (unchecked, it would write out
    of bounds); the python replay then fails exactly as the scalar loop
    and the reference engine do."""
    pattern = [q % 8 for q in range(300)] + [8] + [None] * 99

    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), TraceArrivals(pattern),
            RandomArbiter(8, seed=2))

    with pytest.raises(KeyError) as reference:
        make_sim().run(400, engine="reference")
    with pytest.raises(KeyError) as scalar:
        without_kernel(monkeypatch,
                       lambda: make_sim().run(400, engine="array"))
    assert scalar.value.args == reference.value.args == (8,)
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(KeyError) as array:
        make_sim().run(400, engine="array")
    assert array.value.args == (8,)
    if kernel_mode == "kernel" and span_kernel.load_kernel() is not None:
        aborts = registry.counter("engine.array.kernel_aborts")
        assert aborts > 0
        assert _abort_codes(registry) == {"arg": aborts}
    assert registry.counter("engine.array.kernel_spans") == 0


@pytest.mark.parametrize("entry", [-1, 2 ** 40],
                         ids=["no-arrival-code", "past-int32"])
def test_plan_entry_the_kernel_cannot_encode_raises(entry, kernel_mode):
    """An explicit plan entry of -1, the kernel's no-arrival code, is not
    read as an idle slot, and one past ``int32`` does not stop the plan's
    conversion with ``array``'s error: the kernel aborts on the first and
    declines the second, and the scalar loop raises the reference engine's
    error (for -1, rather than indexing from the end of its per-queue
    lists)."""
    pattern = [q % 8 for q in range(300)] + [entry] + [None] * 99

    def make_sim():
        return ClosedLoopSimulation(
            _build_buffer("rads"), TraceArrivals(pattern),
            RandomArbiter(8, seed=2))

    with pytest.raises(KeyError) as reference:
        make_sim().run(400, engine="reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(KeyError) as array:
        make_sim().run(400, engine="array")
    assert array.value.args == reference.value.args == (entry,)
    assert registry.counter("engine.array.kernel_spans") == 0


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
