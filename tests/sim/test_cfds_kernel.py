"""Acceptance tests of the span kernel's CFDS entry (``cfds_run_span``).

Every span of a CFDS array run runs on the kernel when
:func:`~repro.sim.array_engine.kernel_miss` passes; otherwise the whole
run goes to the reference engine (the oracle), and a span the kernel
aborts raises the reference's exception.  Every case here holds a kernel
run against the reference engine: reports, ``dram_group_occupancy()``,
``dram_utilisation()``, ``dropped_cells`` and the arbiter's RNG state, and,
span by span, the outcome so far.
"""

import copy

import dataclasses
import pickle

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.core.ongoing_register import OngoingRequestsRegister
from repro.errors import (
    ArbiterContractError,
    BankConflictError,
    BufferOverflowError,
    CacheMissError,
    CheckpointError,
    ConfigurationError,
    ValidationError,
)
from repro.mma.ecqf import ECQF
from repro.mma.mdqf import MDQF
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.sim import kernel as span_kernel
from repro.sim.array_engine import build_array_core, window_plan
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import resume_stream
from repro.traffic.arbiters import (
    IntermittentArbiter,
    LongestQueueArbiter,
    OldestCellArbiter,
    RandomArbiter,
    RoundRobinAdversary,
    TraceArbiter,
)
from repro.traffic.arrivals import (
    BernoulliArrivals,
    BurstyArrivals,
    TraceArrivals,
    ZipfArrivals,
)
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


#: A trace arbiter's pattern: every third queue, round and round.
TRACE_PATTERN = [q % 8 for q in range(0, 900, 3)] * 3


def _arbiter(kind, num_queues):
    if kind == "random":
        return RandomArbiter(num_queues, load=0.7, seed=6)
    if kind == "slow_random":
        return RandomArbiter(num_queues, load=0.2, seed=6)
    if kind == "longest_queue":
        return LongestQueueArbiter(num_queues)
    if kind == "longest_queue-subclass":
        return _Arbiter(num_queues)
    if kind == "longest_queue-fewer-queues":
        return LongestQueueArbiter(num_queues - 1)
    if kind == "oldest_cell":
        return OldestCellArbiter(num_queues)
    if kind == "round_robin":
        return RoundRobinAdversary(num_queues, start_queue=3)
    if kind == "trace":
        return TraceArbiter(TRACE_PATTERN)
    if kind == "trace-naming-no-queue":
        return TraceArbiter([None] * 200 + [-1])
    if kind == "intermittent-random":
        return IntermittentArbiter(
            RandomArbiter(num_queues, load=0.9, seed=52), 40, 25)
    if kind == "intermittent-longest_queue":
        return IntermittentArbiter(LongestQueueArbiter(num_queues), 7, 3)
    assert kind is None
    return None


#: Weight vectors the guided draw must search exactly like python's
#: bisect: zero weights at both ends (empty buckets at the edges), all
#: weight on the last queue (every bucket's search starts at the end), a
#: last queue lighter than a bucket (the last bucket's search ends there).
EDGE_WEIGHTS = {
    "zeros-at-both-ends": [0.0, 0.0, 3.0, 1.0, 0.5, 2.0, 1.0, 0.0, 0.0],
    "all-on-the-last-queue": [0.0] * 8 + [1.0],
    "light-last-queue": [1.0] * 7 + [0.05],
}

#: Stock Bernoulli processes, by ``make_sim``'s ``arrivals`` name: the
#: kernel draws their plans itself.
DRAWN = {
    "bernoulli": lambda num_queues, load: BernoulliArrivals(
        num_queues, load=load, seed=5),
    "zipf": lambda num_queues, load: ZipfArrivals(
        num_queues, exponent=1.2, load=load, seed=5),
}


def make_sim(arbiter="random", granularity=2, renaming=True, group_cap=None,
             fallback=True, head_mma=None, patch=None, num_queues=8,
             load=0.95, arrivals=None, record_trace=False, **config):
    """An 8-queue CFDS machine (B=8, 32 banks) fed bursty traffic, or the
    process ``arrivals`` names in :data:`DRAWN`, or a Bernoulli process
    over the weights it names in :data:`EDGE_WEIGHTS`, or ``arrivals``
    itself.

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
    elif isinstance(arrivals, str):
        arrivals = (DRAWN[arrivals](num_queues, load) if arrivals in DRAWN
                    else BernoulliArrivals(num_queues, load=load, seed=5,
                                           weights=EDGE_WEIGHTS[arrivals]))
    return ClosedLoopSimulation(buffer, arrivals,
                                _arbiter(arbiter, num_queues),
                                record_trace=record_trace)


def outcome(sim, report):
    """Everything a kernel run must reproduce, the trace of a traced run
    included."""
    rng = getattr(sim.arbiter, "_rng", None)
    buffer = sim.buffer
    return (report.throughput, report.latency, report.buffer_result,
            buffer.dram_group_occupancy(), buffer.dram_utilisation(),
            buffer.dropped_cells, rng.getstate() if rng else None,
            report.trace and report.trace.events)


def observed(run):
    registry = MetricsRegistry()
    with using_metrics(registry):
        result = run()
    return result, registry


def run_engine(engine, num_slots=1500, **knobs):
    sim = make_sim(**knobs)
    return outcome(sim, sim.run(num_slots, engine=engine))


def assert_kernel_ran(registry):
    """Every span took the kernel (when it loads), none aborted."""
    assert registry.counter("engine.array.kernel_aborts") == 0
    if span_kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_spans") >= 1
        assert registry.counter("engine.array.kernel_slots") == \
            registry.counter("engine.array.span_slots")


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
    """Every registered CFDS scenario, the adversaries included, runs every
    slot on the kernel."""
    scenario = get_scenario(name)

    def run(engine):
        sim = scenario.build_simulation()
        return outcome(sim, sim.run(scenario.num_slots, engine=engine))

    reference = run("reference")
    array, registry = observed(lambda: run("array"))
    assert array == reference
    assert_kernel_ran(registry)


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


@pytest.mark.parametrize("arbiter", [
    "random", "longest_queue", None, "round_robin", "trace",
    "intermittent-random", "intermittent-longest_queue"])
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
STREAM_KNOBS = dict(arbiter="random", group_cap=48, strict=False,
                    record_trace=True)


def _stream_reference(knobs, warmup_slots):
    sim = make_sim(**knobs)
    return outcome(sim, sim.run_stream(STREAM_SLOTS, engine="reference",
                                       chunk_slots=500,
                                       warmup_slots=warmup_slots))


@pytest.fixture(scope="module")
def stream_reference():
    return _stream_reference(STREAM_KNOBS, 450)


@pytest.fixture(scope="module")
def stream_reference_of():
    return _stream_reference


@pytest.mark.parametrize("chunk_slots", [1, 191, 192, 700])
@pytest.mark.parametrize("first", ["kernel", "python"])
def test_streamed_chunks_resume_on_the_other_path(chunk_slots, first,
                                                  stream_reference,
                                                  monkeypatch, tmp_path):
    """A streamed run (warmup inside a chunk, two checkpoints) matches the
    reference, on the kernel and, with the kernel unloaded ("python"), on
    the reference engine.  A checkpoint of a kernel run cannot resume
    without the kernel (a typed error); one of a run the kernel did not
    take resumes on the reference engine, kernel or not."""
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
    if first == "python":
        assert kernel_spans == 0
        assert registry.counter("engine.array.fallback.unavailable") > 0
    elif span_kernel.load_kernel() is not None:
        assert kernel_spans > 0
        assert_kernel_ran(registry)
        with monkeypatch.context() as patcher:
            _disable_kernel(patcher)
            with pytest.raises(CheckpointError, match="unavailable"):
                resume_stream(path)
    resumed = resume_stream(path)
    # The resumed simulation is rebuilt from the checkpoint, so only the
    # report is compared.
    assert (resumed.throughput, resumed.latency, resumed.buffer_result) \
        == stream_reference[:3]



# --------------------------------------------------------------------- #
# Stock Bernoulli plans the kernel draws.
# --------------------------------------------------------------------- #

def _spy_batch_draws(patcher):
    """Record the size of every ``BernoulliArrivals.arrivals`` call (Zipf
    inherits it): the plans drawn in python."""
    calls = []
    stock = BernoulliArrivals.arrivals

    def arrivals(self, num_slots):
        calls.append(num_slots)
        return stock(self, num_slots)

    patcher.setattr(BernoulliArrivals, "arrivals", arrivals)
    return calls


@pytest.mark.parametrize("process", sorted(DRAWN))
def test_kernel_draws_stock_bernoulli_plans(process, monkeypatch):
    """A stock Bernoulli or Zipf process hands the CFDS entry its RNG
    state, and the kernel draws the main span's plan: the outcome equals
    the reference engine's, and python draws no plan."""
    reference = run_engine("reference", arrivals=process)
    with monkeypatch.context() as patcher:
        calls = _spy_batch_draws(patcher)
        array, registry = observed(lambda: run_engine("array",
                                                      arrivals=process))
    assert array == reference
    assert_kernel_ran(registry)
    drawn = registry.counter("engine.array.kernel_plan_slots")
    assert drawn == (1500 if span_kernel.load_kernel() is not None else 0)
    assert sum(calls) == 1500 - drawn


@pytest.mark.parametrize("process", sorted(DRAWN))
def test_streamed_kernel_drawn_plans(process, stream_reference_of,
                                     monkeypatch, tmp_path):
    """Streamed in 700-slot chunks with the warmup boundary at 600, and
    resumed from the checkpoint at 1400: the kernel draws every slot's
    plan, and the reports equal the reference engine's."""
    path = tmp_path / "cfds.ckpt.json"
    knobs = dict(arrivals=process, group_cap=48, strict=False)

    def run():
        sim = make_sim(**knobs)
        report = sim.run_stream(STREAM_SLOTS, engine="array",
                                chunk_slots=700, warmup_slots=600,
                                checkpoint_every=1400, checkpoint_path=path)
        return outcome(sim, report)

    reference = stream_reference_of(knobs, warmup_slots=600)
    with monkeypatch.context() as patcher:
        calls = _spy_batch_draws(patcher)
        streamed, registry = observed(run)
    resumed = resume_stream(path)
    assert streamed == reference
    assert (resumed.throughput, resumed.latency, resumed.buffer_result) \
        == reference[:3]
    assert_kernel_ran(registry)
    drawn = registry.counter("engine.array.kernel_plan_slots")
    assert drawn == (STREAM_SLOTS if span_kernel.load_kernel() is not None
                     else 0)
    assert sum(calls) == STREAM_SLOTS - drawn


def test_shared_rng_plan_is_drawn_in_python():
    """A process sharing the arbiter's RNG object sends the whole run to
    the reference engine as ``shared_rng`` (the reference interleaves the
    two draws slot by slot; a plan drawn ahead of its span would not): the
    outcome equals a monolithic reference run's."""
    def make():
        sim = make_sim(arrivals="bernoulli", lookahead=200)
        sim.arrivals._rng = sim.arbiter._rng
        return sim

    sim = make()
    reference = outcome(sim, sim.run(600, engine="reference"))
    sim = make()
    array, registry = observed(lambda: outcome(sim, sim.run(
        600, engine="array")))
    assert array == reference
    assert _fallbacks(registry) == {"shared_rng": array[0].slots}
    assert registry.counter("engine.array.kernel_spans") == 0


# --------------------------------------------------------------------- #
# The shared incremental forms at their edges, on the CFDS entry: the
# guided Bernoulli draw, RandomArbiter's bitset, the in-order head SRAM.
# --------------------------------------------------------------------- #

def assert_kernel_draws_like_reference(num_slots, **knobs):
    """:func:`assert_kernel_equals_reference` on a plan the kernel draws
    for every main slot; returns the reference's outcome."""
    reference = run_engine("reference", num_slots, **knobs)
    array, registry = observed(lambda: run_engine("array", num_slots,
                                                  **knobs))
    assert array == reference
    assert_kernel_ran(registry)
    assert registry.counter("engine.array.kernel_plan_slots") == num_slots
    return reference


@needs_kernel
@pytest.mark.parametrize("num_queues", (1, 63, 64, 65, 130))
def test_edge_queue_counts_under_random_arbiter(num_queues):
    """Queue counts at the bitset's word boundaries and the guide's bucket
    boundaries."""
    assert_kernel_draws_like_reference(2000, num_queues=num_queues,
                                       arrivals="bernoulli", strict=False)


@needs_kernel
@pytest.mark.parametrize("name", sorted(EDGE_WEIGHTS))
def test_edge_guided_draw_weights(name):
    assert_kernel_draws_like_reference(
        2000, num_queues=len(EDGE_WEIGHTS[name]), arrivals=name,
        strict=False)


@needs_kernel
def test_edge_growth_within_one_span():
    """The arbiter requests in a fifth of the slots while cells arrive in
    nine tenths: through one 3000-slot span every queue's backlog grows, so
    its FIFOs and block locations outgrow their first allocation several
    times over, and the delays pass the histogram's first 1024 bins."""
    throughput, latency = assert_kernel_draws_like_reference(
        3000, arbiter="slow_random", arrivals="bernoulli", load=0.9,
        strict=False)[:2]
    assert (throughput.arrivals - throughput.departures
            - throughput.drops) > 8 * 64
    assert latency.maximum > 1024


@needs_kernel
def test_edge_blocks_land_out_of_order(late_landings):
    """A block read from DRAM lands after later cells of its queue, which
    the MMA fetched from the tail by cut-through while the read waited in
    the Requests Register or was in flight.  The kernel moves the read's
    cells back past them."""
    assert_kernel_equals_reference(3000, arbiter="longest_queue")
    assert any("block" in held for held in late_landings)


# --------------------------------------------------------------------- #
# Span by span: the kernel core's outcome so far equals the reference's.
# --------------------------------------------------------------------- #

def _outcome_so_far(sim, core=None):
    """The outcome of a copy of ``sim`` and its array core (the reference
    engine's without one) closed without a drain, where the run stands."""
    sim, core = copy.deepcopy((sim, core))
    return outcome(sim, core.finish(drain=False) if core is not None
                   else sim._run_reference(0, drain=False))


def step_both(knobs, spans):
    """Run the same spans on a kernel core and on the reference engine;
    assert their outcomes agree after every span (or that both raise
    alike), and after the drain."""
    sims = [make_sim(**knobs), make_sim(**knobs)]
    core = build_array_core(sims[0])
    reference = sims[1]
    start = 0
    for num_slots in spans:
        errors = []
        for run in (
                lambda: core.run_span(
                    window_plan(sims[0], core, start, num_slots), num_slots),
                lambda: reference._run_slots(
                    num_slots, start_slot=start,
                    plan=window_plan(reference, None, start, num_slots))):
            try:
                run()
                errors.append(None)
            except Exception as exc:  # compared below
                errors.append((type(exc), str(exc)))
        assert errors[0] == errors[1]
        if errors[0] is not None:
            return errors[0]
        start += num_slots
        assert _outcome_so_far(sims[0], core) == _outcome_so_far(reference)
    array = outcome(sims[0], core.finish())
    assert array == outcome(reference, reference._run_reference(0, True))
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
    dict(arbiter="random", arrivals="bernoulli", group_cap=40, strict=False),
], ids=["renaming-dropping", "static-dropping", "fill-only",
        "bank-conflicts", "head-misses", "bernoulli-drawn"])
def test_state_equal_after_every_span(knobs):
    assert step_both(knobs, SPANS) is None


# --------------------------------------------------------------------- #
# Every raise site: the kernel aborts, writes nothing back, and raises the
# reference's error from its abort record.
# --------------------------------------------------------------------- #

#: One machine per raise site of the reference engine, with the kernel's
#: abort code for it.
RAISE_SITES = {
    "sram": (dict(head_sram_cells=20, arbiter="longest_queue"),
             BufferOverflowError, "overflow"),
    "dram": (dict(dram_cells=30), BufferOverflowError, "overflow"),
    "requests-register": (dict(rr_capacity=1, arbiter="longest_queue"),
                          BufferOverflowError, "overflow"),
    "tail": (dict(granularity=4, tail_sram_cells=10),
             BufferOverflowError, "overflow"),
    "address-bus": (dict(patch="bus"), ConfigurationError, "bus"),
    "bank-conflict": (dict(patch="no_orr"), BankConflictError, "conflict"),
    "head-miss": (dict(lookahead=1, latency=0), CacheMissError, "miss"),
    "no-queue": (dict(arrivals=TraceArrivals([3] * 400 + [8])),
                 ValidationError, "plan"),
    "trace-no-queue": (dict(arbiter="trace-naming-no-queue"),
                       ArbiterContractError, "arbiter"),
}


@needs_kernel
@pytest.mark.parametrize("site", sorted(RAISE_SITES))
def test_error_parity_at_each_raise_site(site):
    knobs, error, code = RAISE_SITES[site]
    with pytest.raises(error) as reference:
        make_sim(**knobs).run(1500, engine="reference")
    registry = MetricsRegistry()
    with using_metrics(registry), pytest.raises(error) as array:
        make_sim(**knobs).run(1500, engine="array")
    assert str(array.value) == str(reference.value)
    assert registry.counter("engine.array.kernel_spans") == 0
    assert registry.counter(f"engine.array.kernel_aborts.{code}") == 1
    assert _fallbacks(registry) == {}
    # Uneven spans raise alike, at the same span, after equal outcomes.
    assert step_both(knobs, SPANS) == (type(array.value), str(array.value))


#: Two raise sites and the slots of a first span that succeeds before the
#: span that raises.
ABORTED_AFTER = {"head-miss": 3, "requests-register": 10}


@needs_kernel
@pytest.mark.parametrize("site", sorted(ABORTED_AFTER))
def test_aborted_span_leaves_the_core_unchanged(site):
    """A span the kernel aborts writes nothing back: after one span that
    succeeded, the raising span leaves the simulation and its core (the
    arrays, the image, the scalars, the shared group occupancy and the
    arbiter's generator) pickling to the same bytes as before it."""
    knobs, error, _code = RAISE_SITES[site]
    sim = make_sim(**knobs)
    core = build_array_core(sim)
    first = ABORTED_AFTER[site]
    core.run_span(window_plan(sim, core, 0, first), first)
    plan = window_plan(sim, core, first, 1000)
    before = pickle.dumps((sim, core))
    with pytest.raises(error):
        core.run_span(plan, 1000)
    assert pickle.dumps((sim, core)) == before


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


#: Each case's reason and machine (a 200-slot lookahead).  A run the
#: kernel cannot take goes wholly to the reference engine; the cases whose
#: reason is ``None`` once missed the kernel (MDQF, the oldest-cell arbiter,
#: a traced run, a short span) and now run on it.
FALLBACKS = {
    "policy-mdqf": (None, dict(head_mma=MDQF())),
    "policy-oldest-cell": (None, dict(arbiter="oldest_cell")),
    "policy-subclass": ("policy", dict(arbiter="longest_queue-subclass")),
    "policy-queue-count": ("policy",
                           dict(arbiter="longest_queue-fewer-queues")),
    "traced": (None, dict(record_trace=True)),
    "short_span": (None, {}),
    "wide_queues": ("wide_queues", {}),
    "unavailable": ("unavailable", {}),
}


@pytest.mark.parametrize("case", sorted(FALLBACKS))
def test_fallback_reason_counts_every_span_once(case, monkeypatch):
    """A run the kernel cannot take counts all its slots, once, under its
    reason, and runs no span on the array core; every other run runs every
    span on the kernel and counts no fallback."""
    reason, knobs = FALLBACKS[case]
    if reason == "wide_queues":
        monkeypatch.setattr(span_kernel, "MAX_KERNEL_QUEUES", 4)
    if reason == "unavailable":
        _disable_kernel(monkeypatch)
    num_slots = 100 if case == "short_span" else 600
    if case != "short_span":
        knobs = dict(knobs, lookahead=200)
    reference = run_engine("reference", num_slots, **knobs)
    array, registry = observed(lambda: run_engine("array", num_slots,
                                                  **knobs))
    assert array == reference
    if reason is None:
        assert _fallbacks(registry) == {}
        assert registry.counter("engine.array.spans") == 2
        assert_kernel_ran(registry)
        return
    assert registry.counter("engine.array.spans") == 0
    assert _fallbacks(registry) == {reason: array[0].slots}
    assert registry.counter("engine.array.kernel_spans") == 0


@needs_kernel
def test_fallback_reason_abort():
    """A span the kernel aborts counts no fallback, its abort, and its
    native and handoff time once, and is released nothing."""
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
        assert len(released) == 2
    assert _fallbacks(registry) == {}
    assert registry.counter("engine.array.kernel_aborts.overflow") == 1
    timers = registry.snapshot()["timers"]
    for name in ("kernel_native_s", "kernel_handoff_s"):
        assert timers[f"engine.array.{name}"]["count"] == 1
