"""Acceptance tests of the span kernel's CFDS entry (``cfds_run_span``).

A CFDS span runs on the kernel when ``_CFDSCore._kernel_miss`` passes, and
on the core's python loop (the oracle) otherwise or when the kernel aborts.
Every case here holds a kernel run against the reference engine or against
the python loop: reports, ``dram_group_occupancy()``,
``dram_utilisation()``, ``dropped_cells`` and the arbiter's RNG state, and,
span by span, the core's whole state.
"""

import dataclasses

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.core.ongoing_register import OngoingRequestsRegister
from repro.errors import (
    BankConflictError,
    BufferOverflowError,
    CacheMissError,
    ConfigurationError,
)
from repro.mma.ecqf import ECQF
from repro.mma.mdqf import MDQF
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.sim import kernel as span_kernel
from repro.sim.array_engine import build_array_core, window_plan
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import resume_stream
from repro.traffic.arbiters import (
    LongestQueueArbiter,
    OldestCellArbiter,
    RandomArbiter,
)
from repro.traffic.arrivals import BurstyArrivals, TraceArrivals
from repro.workloads.registry import get_scenario, scenario_names

needs_kernel = pytest.mark.skipif(
    span_kernel.load_kernel() is None,
    reason="no C compiler: the span kernel never runs")

CFDS_SCENARIOS = [name for name in scenario_names()
                  if get_scenario(name).scheme == "cfds"]


def _disable_kernel(patcher):
    patcher.setattr(span_kernel, "_kernel", None)
    patcher.setattr(span_kernel, "_kernel_tried", True)


class _Arbiter(LongestQueueArbiter):
    """A subclass: it may override ``next_request``, so the kernel declines
    it."""


def _arbiter(kind, num_queues):
    if kind == "random":
        return RandomArbiter(num_queues, load=0.7, seed=6)
    if kind == "longest_queue":
        return LongestQueueArbiter(num_queues)
    if kind == "longest_queue-subclass":
        return _Arbiter(num_queues)
    if kind == "longest_queue-fewer-queues":
        return LongestQueueArbiter(num_queues - 1)
    if kind == "oldest_cell":
        return OldestCellArbiter(num_queues)
    assert kind is None
    return None


def make_sim(arbiter="random", granularity=2, renaming=True, group_cap=None,
             fallback=True, head_mma=None, patch=None, num_queues=8,
             load=0.95, arrivals=None, record_trace=False, **config):
    """An 8-queue CFDS machine (B=8, 32 banks) fed bursty traffic.

    ``patch`` bends the buffer's scheduler where no config reaches:
    ``no_orr`` drops the Ongoing Requests Register, so banks are reissued
    while busy; ``bus`` widens the address-bus gap past one issue period.
    """
    buffer = CFDSPacketBuffer(
        CFDSConfig(num_queues=num_queues, dram_access_slots=8,
                   granularity=granularity, num_banks=32, **config),
        use_renaming=renaming, group_capacity_cells=group_cap,
        head_mma=head_mma or ECQF(fallback_to_most_deficit=fallback))
    if patch == "no_orr":
        buffer.scheduler.ongoing = OngoingRequestsRegister(0)
    elif patch == "bus":
        buffer.scheduler.dram.timing = dataclasses.replace(
            buffer.scheduler.dram.timing, address_bus_slots=3)
    if arrivals is None:
        arrivals = BurstyArrivals(num_queues, mean_burst_cells=16, load=load,
                                  seed=5)
    return ClosedLoopSimulation(buffer, arrivals,
                                _arbiter(arbiter, num_queues),
                                record_trace=record_trace)


def outcome(sim, report):
    """Everything a kernel run must reproduce."""
    rng = getattr(sim.arbiter, "_rng", None)
    buffer = sim.buffer
    return (report.throughput, report.latency, report.buffer_result,
            buffer.dram_group_occupancy(), buffer.dram_utilisation(),
            buffer.dropped_cells, rng.getstate() if rng else None)


def observed(run):
    registry = MetricsRegistry()
    with using_metrics(registry):
        result = run()
    return result, registry


def run_engine(engine, num_slots=1500, **knobs):
    sim = make_sim(**knobs)
    return outcome(sim, sim.run(num_slots, engine=engine))


def assert_kernel_ran(registry):
    """At least one span took the kernel (when it loads), none aborted."""
    assert registry.counter("engine.array.kernel_aborts") == 0
    if span_kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_spans") >= 1


def assert_kernel_equals_reference(num_slots=1500, **knobs):
    reference = run_engine("reference", num_slots, **knobs)
    array, registry = observed(lambda: run_engine("array", num_slots,
                                                  **knobs))
    assert array == reference
    assert_kernel_ran(registry)
    return array


# --------------------------------------------------------------------- #
# Kernel runs against the reference engine.
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("name", CFDS_SCENARIOS)
def test_registered_cfds_scenarios(name):
    """Every registered CFDS scenario; those whose arbiter the kernel runs
    take it, the adversaries stay on the python loop as ``policy``."""
    scenario = get_scenario(name)

    def run(engine):
        sim = scenario.build_simulation()
        return outcome(sim, sim.run(scenario.num_slots, engine=engine))

    reference = run("reference")
    array, registry = observed(lambda: run("array"))
    assert array == reference
    if scenario.arbiter["type"] in ("random", "longest_queue"):
        assert_kernel_ran(registry)
    else:
        assert registry.counter("engine.array.kernel_spans") == 0
        assert registry.counter("engine.array.fallback.policy") > 0


@pytest.mark.parametrize("renaming", [True, False], ids=["renaming",
                                                         "static"])
@pytest.mark.parametrize("group_cap", [None, 40], ids=["unbounded",
                                                       "dropping"])
def test_renaming_and_group_capacity(renaming, group_cap):
    """Renaming on and off, with unbounded groups and with a capacity that
    drops blocks (renaming exhaustion or a full static group)."""
    array = assert_kernel_equals_reference(
        arbiter="random", renaming=renaming, group_cap=group_cap,
        strict=False)
    dropped = array[5]
    assert (dropped > 0) == (group_cap is not None)


def test_bounded_nonstrict_dram_serialises_bank_conflicts():
    """Without the ORR a bank is reissued while busy: non-strict DRAM
    counts the conflict and starts the access when the bank frees."""
    array = assert_kernel_equals_reference(
        patch="no_orr", strict=False, dram_cells=4000)
    assert array[2].bank_conflicts > 0


@pytest.mark.parametrize("arbiter", ["random", "longest_queue", None])
def test_arbiters(arbiter):
    array = assert_kernel_equals_reference(arbiter=arbiter)
    if arbiter is None:
        assert array[0].departures == 0


@pytest.mark.parametrize("fallback", [True, False],
                         ids=["ecqf-fallback", "ecqf-plain"])
def test_ecqf_with_and_without_its_fallback(fallback):
    assert_kernel_equals_reference(arbiter="longest_queue",
                                   fallback=fallback, load=0.7)


@pytest.mark.parametrize("granularity", [1, 2, 4, 8])
def test_granularities(granularity):
    """b = 1 to B; non-strict, so b = B's Requests Register (which strict
    sizing caps at 3 entries) may grow."""
    assert_kernel_equals_reference(granularity=granularity, strict=False)


def test_metrics_on_and_off_agree():
    """Observability never changes a kernel run."""
    plain = run_engine("array", arbiter="longest_queue")
    metered, registry = observed(lambda: run_engine(
        "array", arbiter="longest_queue"))
    assert plain == metered
    assert_kernel_ran(registry)


# --------------------------------------------------------------------- #
# Streamed chunks and checkpoints across the two paths.
# --------------------------------------------------------------------- #

STREAM_SLOTS = 2000
STREAM_KNOBS = dict(arbiter="random", group_cap=48, strict=False)


@pytest.fixture(scope="module")
def stream_reference():
    sim = make_sim(**STREAM_KNOBS)
    return outcome(sim, sim.run_stream(STREAM_SLOTS, engine="reference",
                                       chunk_slots=500, warmup_slots=450))


@pytest.mark.parametrize("chunk_slots", [1, 191, 192, 700])
@pytest.mark.parametrize("first", ["kernel", "python"])
def test_streamed_chunks_resume_on_the_other_path(chunk_slots, first,
                                                  stream_reference,
                                                  monkeypatch, tmp_path):
    """A streamed run (warmup inside a chunk, two checkpoints) matches the
    reference; its last checkpoint, resumed on the other path, does too."""
    path = tmp_path / "cfds.ckpt.json"

    def run():
        sim = make_sim(**STREAM_KNOBS)
        report = sim.run_stream(STREAM_SLOTS, engine="array",
                                chunk_slots=chunk_slots, warmup_slots=450,
                                checkpoint_every=800, checkpoint_path=path)
        return outcome(sim, report)

    with monkeypatch.context() as patcher:
        if first == "python":
            _disable_kernel(patcher)
        streamed, registry = observed(run)
    assert streamed == stream_reference
    kernel_spans = registry.counter("engine.array.kernel_spans")
    if first == "python" or chunk_slots < span_kernel.MIN_KERNEL_SLOTS:
        assert kernel_spans == 0
    elif span_kernel.load_kernel() is not None:
        assert kernel_spans > 0
    with monkeypatch.context() as patcher:
        if first == "kernel":
            _disable_kernel(patcher)
        resumed = resume_stream(path)
    # The resumed simulation is rebuilt from the checkpoint, so only the
    # report is compared.
    assert (resumed.throughput, resumed.latency, resumed.buffer_result) \
        == stream_reference[:3]


# --------------------------------------------------------------------- #
# Span by span: the kernel core's whole state equals the python core's.
# --------------------------------------------------------------------- #

def core_state(core):
    """The core's state with layout-only differences folded away
    (compacted cursor lists; heaps hold the same keys in any valid
    order)."""
    state = dict(vars(core))
    del state["sim"], state["buffer"], state["req_head"], state["arr_base"]
    nq = core.num_queues
    state["req_slots"] = [core.req_slots[q][core.req_head[q]:]
                          for q in range(nq)]
    state["arr_slots"] = [
        core.arr_slots[q][core.delivered[q] - core.arr_base[q]:]
        for q in range(nq)]
    state["crit_heap"] = sorted(core.crit_heap)
    state["sram_heap"] = [sorted(heap) for heap in core.sram_heap]
    for name in ("tail_fifo", "dram_fifo", "block_locations"):
        state[name] = [list(fifo) for fifo in state[name]]
    if core.names is not None:
        state["names"] = [[list(entry) for entry in entries]
                          for entries in core.names]
    rng = getattr(core.sim.arbiter, "_rng", None)
    state["rng"] = rng.getstate() if rng else None
    return state


def step_both(knobs, spans, monkeypatch):
    """Run the same spans on a kernel core and on a python core; assert
    their states agree after every span (or that both raise alike)."""
    sims = [make_sim(**knobs), make_sim(**knobs)]
    cores = [build_array_core(sim) for sim in sims]
    start = 0
    for num_slots in spans:
        plans = [window_plan(sim, core, start, num_slots)
                 for sim, core in zip(sims, cores)]
        errors = []
        for index, (core, plan) in enumerate(zip(cores, plans)):
            with monkeypatch.context() as patcher:
                if index:
                    _disable_kernel(patcher)
                try:
                    core.run_span(plan, num_slots)
                    errors.append(None)
                except Exception as exc:  # compared below
                    errors.append((type(exc), str(exc)))
        assert errors[0] == errors[1]
        assert core_state(cores[0]) == core_state(cores[1])
        if errors[0] is not None:
            return errors[0]
        start += num_slots
    for core in cores:
        core.finish()
    assert core_state(cores[0]) == core_state(cores[1])
    return None


SPANS = [192, 700, 191, 1, 300, 250]


@pytest.mark.parametrize("knobs", [
    dict(arbiter="random", group_cap=40, strict=False),
    dict(arbiter="longest_queue", renaming=False, group_cap=40,
         strict=False),
    dict(arbiter=None, granularity=4),
    dict(arbiter="random", patch="no_orr", strict=False, granularity=1),
    dict(arbiter="longest_queue", granularity=8, fallback=False,
         lookahead=1, latency=0, strict=False),
], ids=["renaming-dropping", "static-dropping", "fill-only",
        "bank-conflicts", "head-misses"])
def test_state_equal_after_every_span(knobs, monkeypatch):
    assert step_both(knobs, SPANS, monkeypatch) is None


# --------------------------------------------------------------------- #
# Every raise site: the kernel aborts, writes nothing back, and the python
# replay raises the reference's error.
# --------------------------------------------------------------------- #

#: One machine per raise site of the python loop, with the kernel's abort
#: code for it.
RAISE_SITES = {
    "sram": (dict(head_sram_cells=20, arbiter="longest_queue"),
             BufferOverflowError, "strict"),
    "dram": (dict(dram_cells=30), BufferOverflowError, "strict"),
    "requests-register": (dict(rr_capacity=1, arbiter="longest_queue"),
                          BufferOverflowError, "strict"),
    "tail": (dict(granularity=4, tail_sram_cells=10),
             BufferOverflowError, "strict"),
    "address-bus": (dict(patch="bus"), ConfigurationError, "strict"),
    "bank-conflict": (dict(patch="no_orr"), BankConflictError, "strict"),
    "head-miss": (dict(lookahead=1, latency=0), CacheMissError, "strict"),
    "no-queue": (dict(arrivals=TraceArrivals([3] * 400 + [8])), KeyError,
                 "arg"),
}


@needs_kernel
@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_error_parity_at_each_raise_site(site, monkeypatch):
    knobs, error, code = RAISE_SITES[site]
    with pytest.raises(error) as reference:
        make_sim(**knobs).run(1500, engine="reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(error) as array:
        make_sim(**knobs).run(1500, engine="array")
    assert str(array.value) == str(reference.value)
    assert registry.counter("engine.array.kernel_spans") == 0
    assert registry.counter(f"engine.array.kernel_aborts.{code}") == 1
    assert registry.counter("engine.array.fallback.abort") == 1500
    # Nothing written back: the aborted core's state after the python
    # replay equals a python-only core's.
    assert step_both(knobs, [1500], monkeypatch) == (type(array.value),
                                                     str(array.value))


@needs_kernel
@pytest.mark.parametrize("site", ["tail", "head-miss"])
def test_lax_misses_run_natively(site):
    """Non-strict tail and head misses are recorded, not raised, and the
    kernel runs them."""
    knobs = dict(RAISE_SITES[site][0], strict=False)
    array = assert_kernel_equals_reference(**knobs)
    assert array[2].misses
    assert array[0].drops == 0


# --------------------------------------------------------------------- #
# Why a span missed the kernel, counted once per span.
# --------------------------------------------------------------------- #

def _fallbacks(registry):
    prefix = "engine.array.fallback."
    return {name[len(prefix):]: value
            for name, value in registry.counters().items()
            if name.startswith(prefix)}


#: Each case's reason and machine.  A 200-slot lookahead makes the drain
#: window a span the kernel would take too, except for ``short_span``.
FALLBACKS = {
    "policy-mdqf": ("policy", dict(head_mma=MDQF())),
    "policy-oldest-cell": ("policy", dict(arbiter="oldest_cell")),
    "policy-subclass": ("policy", dict(arbiter="longest_queue-subclass")),
    "policy-queue-count": ("policy",
                           dict(arbiter="longest_queue-fewer-queues")),
    "traced": ("traced", dict(record_trace=True)),
    "short_span": ("short_span", {}),
    "wide_queues": ("wide_queues", {}),
    "unavailable": ("unavailable", {}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_reason_counts_every_span_once(case, monkeypatch):
    """Every span of the run misses the kernel for one reason, and the
    counter holds exactly the slots of all spans."""
    reason, knobs = FALLBACKS[case]
    if reason == "wide_queues":
        monkeypatch.setattr(span_kernel, "MAX_KERNEL_QUEUES", 4)
    if reason == "unavailable":
        _disable_kernel(monkeypatch)
    num_slots = 100 if reason == "short_span" else 600
    if reason != "short_span":
        knobs = dict(knobs, lookahead=200)
    reference = run_engine("reference", num_slots, **knobs)
    array, registry = observed(lambda: run_engine("array", num_slots,
                                                  **knobs))
    assert array == reference
    assert registry.counter("engine.array.spans") == 2
    assert _fallbacks(registry) == {
        reason: registry.counter("engine.array.span_slots")}
    assert registry.counter("engine.array.kernel_spans") == 0


@needs_kernel
def test_fallback_reason_abort():
    """A span the kernel aborts counts under ``abort`` only, its native and
    handoff time once, and is released nothing."""
    released = []
    release = span_kernel._release

    def counting_release(result):
        released.append(result)
        release(result)

    knobs = RAISE_SITES["requests-register"][0]
    registry = MetricsRegistry()
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setattr(span_kernel, "_release", counting_release)
        with using_metrics(registry), pytest.raises(BufferOverflowError):
            make_sim(**knobs).run(600, engine="array")
        assert not released
        run_engine("array", 600)
        assert len(released) == 1
    assert _fallbacks(registry) == {"abort": 600}
    timers = registry.snapshot()["timers"]
    for name in ("kernel_native_s", "kernel_handoff_s"):
        assert timers[f"engine.array.{name}"]["count"] == 1
