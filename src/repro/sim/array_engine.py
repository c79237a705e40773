"""Struct-of-arrays simulation core — ``engine="array"``, the default.

The object model (``RADSPacketBuffer``/``CFDSPacketBuffer`` driven by
:class:`~repro.sim.engine.ClosedLoopSimulation`) allocates a ``Cell``
dataclass per arrival, keeps every FIFO as a deque of cell objects and every
SRAM as a heap of ``(seqno, id, cell)`` tuples, and walks half a dozen
attribute chains per slot.  This module keeps the *same machine* as flat
integer state, held once, in the compiled span kernel's own encoding
(:mod:`repro.sim.kernel`), which runs every slot of it:

* a cell is identified by its ``(queue, seqno)`` pair; per-queue seqnos are
  dense, so a queue's cells in flight are its arrival slots in seqno order
  — no cell objects exist at all;
* per-queue counts (backlog, seqnos, occupancies, MMA counters) and the
  lookahead and latency shift registers (``-1`` = empty) are
  ``array('q')``s;
* the FIFO contents, the head SRAMs and every other variable-length part
  of the machine are one image (``image``) that only the kernel reads: it
  takes the image at the start of a span and hands the next one back;
* the latency histogram is a plain dict of ints, folded into
  :class:`~repro.sim.stats.LatencyStats` once, after the run.

Policy decisions are never approximated; the kernel runs the stock
policies in *algebraically identical* incremental forms:

* **ECQF** — the O(lookahead) walk ("first queue whose bookkeeping occupancy
  would go negative") always selects the queue whose ``(counter+1)``-th
  outstanding request entered the pipeline earliest.  The kernel keeps each
  queue's request entry slots and pending count (``req_count``), and tracks
  that *critical entry slot* per queue (``crit_cache``) in a lazily
  invalidated min-heap, so a selection is an O(1) amortised heap peek
  instead of a 400-entry walk.
* **MDQF** — the same pending counts make its deficit scan O(Q).
* **ThresholdTailMMA** — an occupancy max-scan, skipped while no queue
  holds a block.
* **RandomArbiter** — the per-slot "list the backlogged queues" rebuild is
  replaced by a bitset the kernel derives from ``backlog`` at the start of
  a span and updates as backlogs leave and reach zero; ``choice()``'s
  index picks the k-th set bit, which is the list's k-th entry, so the
  RNG draw sequence and the request stream are bit-identical.
* **BernoulliArrivals** — ``choices()``' bisect over the cumulative
  weights starts from a guide: the kernel splits the 53-bit draw into as
  many buckets as the next power of two of the queue count and searches
  only the range a bucket can reach (``docs/architecture.md`` gives the
  argument).
* **Head SRAM** — python's per-queue heap of ``(seqno, id, cell)`` is an
  ascending run of seqnos read by cursor: a landing cell moves back past
  any larger seqno, which only a cell that overtook a block in flight
  (cut-through, or a CFDS block landing out of order) has.

For CFDS, the issue-period machinery — the DRAM scheduler subsystem
(Requests Register with its oldest-ready select, Ongoing Requests Register,
banked-DRAM timing), queue renaming and the block-cyclic bank mapping — is
flat state of the core too, configured once from the buffer's objects; the
kernel makes the object model's decisions in the object model's order,
errors included.  The resulting
:class:`~repro.sim.engine.SimulationReport` (throughput, latency
histogram, buffer statistics) is asserted bit-identical to the reference
loop for every registered scenario by ``tests/sim/test_array_engine.py``
and by the differential fuzzer.

**Routing, once per run.**  :func:`kernel_miss` decides whether the kernel
can run a simulation: stock head MMA (ECQF or MDQF) and threshold tail MMA,
a stock arbiter over exactly the buffer's queues
(:func:`~repro.sim.kernel.span_arbiter`), an arrival process with an RNG of
its own, at most ``MAX_KERNEL_QUEUES`` queues and a loaded kernel.  A run
it cannot take goes wholly to the
reference engine, and with metrics on its slots are counted as
``engine.array.fallback.<reason>``.  A span the kernel aborts raises the
reference engine's exception from the kernel's abort record.  The arrival
plan of a stock Bernoulli process (Zipf and hotspot included) is deferred
so the kernel draws it natively: the whole horizon of a monolithic run,
each chunk of a streamed one, on either core.

The engine consumes a *freshly built* buffer: it reads the configuration and
the sizes of the issue-period machinery off the buffer object once and keeps
all state in its own arrays, so the buffer instance itself is not stepped
(a CFDS core shares only its group-occupancy array, which it puts in place
of the buffer's list, so ``dram_group_occupancy()`` reads it).  Running an
already-run (or hand-stepped) simulation on the array engine raises
:class:`~repro.errors.StaleSimulationError`, whatever would have run it.

**Chunked execution.**  The engine state lives in a core object
(:func:`build_array_core`) whose :meth:`~_ArrayCoreBase.run_span` method
simulates any number of slots and can be called repeatedly — that is what
the streaming path (:mod:`repro.sim.streaming`) uses to run arbitrarily
long horizons on bounded memory and to checkpoint mid-run: a core holds
only plain data (ints, lists, dicts, and ``array('q')``s in the kernel's
encoding, the image included) plus references to the simulation and
buffer objects, so pickling the core captures the complete machine state,
and no kernel need be loaded to pickle or unpickle it.  The streaming
driver takes each chunk's plan from
:func:`window_plan`, and :func:`run_array`, the monolithic convenience
wrapper (one main span, one drain span, one report), takes its whole
horizon's plan from it.

:func:`resolve_engine` is the one place engine names are checked: the
retired names ``numpy`` and ``batched`` run ``array`` and ``reference``.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from math import inf
from typing import List, Optional

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.mma.ecqf import ECQF
from repro.mma.mdqf import MDQF
from repro.mma.tail_mma import ThresholdTailMMA
from repro.obs.metrics import get_metrics
from repro.sim import kernel
from repro.traffic.arbiters import IntermittentArbiter
from repro.traffic.arrivals import BernoulliArrivals
from repro.types import MissRecord, SimulationResult

#: Engine names accepted by ``ClosedLoopSimulation.run(engine=...)``: the
#: object-model oracle and this module's core.
ENGINES = ("reference", "array")

#: The engine every entry point runs when none is named.
DEFAULT_ENGINE = "array"

#: Retired engine names and the engine that now runs in their place:
#: ``numpy`` was this core plus the span kernel, ``batched`` was an
#: object-model loop (any buffer, already-stepped simulations).
_RETIRED_ENGINES = {"numpy": "array", "batched": "reference"}


def resolve_engine(engine: str) -> str:
    """The engine that runs for ``engine``: a retired name maps to its
    replacement, and any other unknown name raises
    :class:`~repro.errors.ConfigurationError`."""
    if isinstance(engine, str):
        engine = _RETIRED_ENGINES.get(engine, engine)
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r} (known: {', '.join(ENGINES)})")
    return engine


def kernel_miss(sim) -> Optional[str]:
    """Why the span kernel cannot run ``sim`` — the ``<reason>`` of the
    ``engine.array.fallback.<reason>`` counter its run's slots go to — or
    ``None`` when it can: stock ECQF or MDQF and threshold tail MMA (exact
    types: a subclass may override the policy), an arbiter
    :func:`~repro.sim.kernel.span_arbiter` takes, an arrival process that
    does not draw from the arbiter's RNG object (``shared_rng``), at most
    ``MAX_KERNEL_QUEUES`` queues and a loaded kernel.

    The reference engine interleaves a shared RNG's draws slot by slot, the
    process's before the arbiter's; the array core draws a window's plan
    before any of the window's arbiter draws, so its report would differ.
    """
    buffer = sim.buffer
    num_queues = buffer.config.num_queues
    tail_mma = buffer.tail.mma
    if not (type(buffer.head.mma) in (ECQF, MDQF)
            and type(tail_mma) is ThresholdTailMMA
            and tail_mma.granularity == buffer.config.granularity
            and kernel.span_arbiter(sim.arbiter, num_queues) is not None):
        return "policy"
    arbiter = sim.arbiter
    if type(arbiter) is IntermittentArbiter:
        arbiter = arbiter.inner
    rng = getattr(arbiter, "_rng", None)
    if rng is not None and getattr(sim.arrivals, "_rng", None) is rng:
        return "shared_rng"
    if num_queues > kernel.MAX_KERNEL_QUEUES:
        return "wide_queues"
    if kernel.load_kernel() is None:
        return "unavailable"
    return None


def count_fallback(reason: str, num_slots: int) -> None:
    """Count ``num_slots`` slots of a run the array engine handed to the
    reference engine (``engine.array.fallback.<reason>``)."""
    obs = get_metrics()
    if obs is not None and num_slots:
        obs.inc(f"engine.array.fallback.{reason}", num_slots)


def run_array(sim, num_slots: int, drain: bool = True):
    """Run ``sim`` for ``num_slots`` slots on the struct-of-arrays core.

    Args:
        sim: a :class:`~repro.sim.engine.ClosedLoopSimulation` whose buffer
            has not been stepped yet (``buffer.slot == 0``).
        num_slots: slots to simulate before the optional drain.
        drain: run the buffer's drain window after the main loop, exactly as
            :meth:`ClosedLoopSimulation.run` does.

    Returns:
        The same :class:`~repro.sim.engine.SimulationReport` the reference
        engine produces, bit for bit — from the reference engine itself when
        :func:`kernel_miss` names a reason.
    """
    if num_slots < 0:
        raise ConfigurationError("num_slots must be non-negative")
    core, reason = route_core(sim)
    if core is None:
        report = sim._run_reference(num_slots, drain)
        count_fallback(reason, report.throughput.slots)
        return report
    plan = (window_plan(sim, core, 0, num_slots)
            if sim.arrivals is not None else None)
    core.run_span(plan, num_slots)
    return core.finish(drain=drain)


def _check_fresh(sim) -> None:
    """Raise unless ``sim`` is freshly built on a RADS or CFDS buffer."""
    from repro.core.buffer import CFDSPacketBuffer
    from repro.rads.buffer import RADSPacketBuffer

    buffer = sim.buffer
    # The engine keeps per-cell state in its own arrays and never steps the
    # buffer object, so ``buffer.slot`` alone cannot detect a previous array
    # run — ``throughput.slots`` (set by every run that simulated anything)
    # catches that case.
    if buffer.slot != 0 or sim.throughput.slots != 0:
        raise StaleSimulationError(
            "the array engine replays a run from slot 0 and requires a "
            "freshly built simulation (build a new buffer for every run)")
    if not isinstance(buffer, (RADSPacketBuffer, CFDSPacketBuffer)):
        raise ConfigurationError(
            "the array engine supports RADSPacketBuffer and "
            f"CFDSPacketBuffer, got {type(buffer).__name__}")


def route_core(sim):
    """``(core, None)`` with the array core for ``sim`` when the span
    kernel can run it, else ``(None, reason)`` with the :func:`kernel_miss`
    reason its run goes to the reference engine; a stale simulation raises
    either way (:func:`build_array_core`)."""
    _check_fresh(sim)
    reason = kernel_miss(sim)
    return (build_array_core(sim) if reason is None else None), reason


def build_array_core(sim):
    """Build the struct-of-arrays core for ``sim``'s buffer scheme.

    Raises :class:`~repro.errors.StaleSimulationError` unless the simulation
    is freshly built (the array engine replays a run from slot 0 on its own
    state arrays, so a pre-stepped buffer or an already-run simulation would
    silently produce a wrong report).
    """
    from repro.rads.buffer import RADSPacketBuffer

    _check_fresh(sim)
    obs = get_metrics()
    if obs is not None:
        obs.inc("engine.array.cores_built")
    if isinstance(sim.buffer, RADSPacketBuffer):
        return _RADSCore(sim, sim.buffer)
    return _CFDSCore(sim, sim.buffer)


def resume_core(core) -> None:
    """Check that a core restored from a checkpoint can run on the span
    kernel: :class:`~repro.errors.CheckpointError` when it cannot
    (:func:`kernel_miss`)."""
    reason = kernel_miss(core.sim)
    if reason is not None:
        raise CheckpointError(
            f"the checkpoint's array core cannot run on the span kernel "
            f"({reason}); rerun it on engine='reference'")


class _DeferredPlan:
    """A window of a stock Bernoulli arrival plan that has not been drawn
    yet.

    An array core gets one for the whole horizon of a monolithic run and one
    per chunk of a streamed run, and the switch's fabric stage one per
    ingress and window, so the compiled span kernel can draw the plan
    natively (same words, same doubles) and write the consumed RNG state
    back.
    """

    __slots__ = ("proc", "num_slots", "cum_weights", "total")

    def __init__(self, proc, num_slots: int, cum_weights: List[float]) -> None:
        self.proc = proc
        self.num_slots = num_slots
        self.cum_weights = cum_weights
        self.total = cum_weights[-1] + 0.0

    def __len__(self) -> int:
        return self.num_slots

    def bern(self):
        """The kernel's ``bern`` argument: the process RNG, the load gate's
        integer threshold and the cumulative weights."""
        return (self.proc._rng, kernel.gate_threshold(self.proc.load),
                self.cum_weights, self.total)


def deferred_plan(proc, num_queues: int,
                  num_slots: int) -> Optional[_DeferredPlan]:
    """``proc``'s next ``num_slots`` arrivals over ``num_queues`` queues
    as a :class:`_DeferredPlan` the span kernel can draw, or ``None`` when
    the kernel cannot draw them.

    The kernel reproduces the stock batch draw of ``BernoulliArrivals``,
    so the process must be one (Zipf and hotspot are) that overrides
    neither ``arrivals`` nor ``arrivals_slice`` and serves every window
    from ``arrivals`` (``slot_invariant``).  Its weights must cover exactly
    the ``num_queues`` the kernel searches: a process with fewer or more
    is drawn in python (one with more raises the reference engine's error
    at its first arrival past the buffer's queues).  And their total must
    be positive and finite: ``choices()`` reports any other on the first
    arrival, in python.
    The switch's fabric stage asks the same of every ingress, over its
    egress ports.
    """
    cls = type(proc)
    if (isinstance(proc, BernoulliArrivals) and proc.slot_invariant
            and cls.arrivals is BernoulliArrivals.arrivals
            and cls.arrivals_slice is BernoulliArrivals.arrivals_slice
            and len(proc.weights) == num_queues):
        cum_weights = list(accumulate(proc.weights))
        if 0.0 < cum_weights[-1] < inf:
            return _DeferredPlan(proc, num_slots, cum_weights)
    return None


def row_plan(row: array) -> List[Optional[int]]:
    """An ``int32`` row plan (``-1`` = no arrival, as the switch's fabric
    stage hands its ports) as the reference engine reads a plan."""
    return [None if a == -1 else a for a in row]


def window_plan(sim, core, start_slot: int, num_slots: int):
    """The arrival plan of the window ``[start_slot, start_slot +
    num_slots)``: a monolithic run's whole horizon or one streamed chunk.

    Deferred (:func:`deferred_plan`) for an array core (``core`` is
    ``None`` on the reference engine) when the span kernel can draw the
    plan over the buffer's queues.  Otherwise the plan is the process's
    own window
    (:meth:`~repro.traffic.arrivals.ArrivalProcess.arrivals_slice`), or all
    ``None`` without an arrival process.
    """
    proc = sim.arrivals
    if proc is None:
        return [None] * num_slots
    if core is not None:
        plan = deferred_plan(proc, core.num_queues, num_slots)
        if plan is not None:
            return plan
    window = proc.arrivals_slice(start_slot, num_slots)
    return window if isinstance(window, list) else list(window)


def split_plan(plan, cut: int):
    """``plan``'s first ``cut`` slots and the rest (a warmup boundary inside
    a chunk); a deferred plan splits into two deferred parts."""
    if isinstance(plan, _DeferredPlan):
        return (_DeferredPlan(plan.proc, cut, plan.cum_weights),
                _DeferredPlan(plan.proc, plan.num_slots - cut,
                              plan.cum_weights))
    return plan[:cut], plan[cut:]


# --------------------------------------------------------------------- #
# Shared core scaffolding
# --------------------------------------------------------------------- #

class _ArrayCoreBase:
    """State shared by the RADS and CFDS struct-of-arrays cores.

    The machine lives here once, in the span kernel's encoding: fixed-shape
    state as ``array('q')``s and scalars, the rest as the kernel's image
    (``image``, built by :func:`~repro.sim.kernel.empty_image` and replaced
    by the one each span returns), which no python code reads.  A core
    holds *only plain data* (ints, lists, dicts and those arrays) plus
    references to the simulation and buffer objects, so pickling a core
    (together with its simulation, in one payload) captures the complete
    machine state for checkpoint/resume.  Each subclass's ``scheme`` names
    the kernel entry that runs it (:func:`~repro.sim.kernel.run_span_kernel`).
    """

    def __init__(self, sim, buffer) -> None:
        self.sim = sim
        self.buffer = buffer
        config = buffer.config
        num_queues = self.num_queues = config.num_queues
        self.granularity = config.granularity
        self.strict = config.strict
        self.tail_cap = config.effective_tail_sram_cells
        self.la_len = config.effective_lookahead
        head_mma = buffer.head.mma
        self.ecqf_fallback = (type(head_mma) is ECQF
                              and head_mma.fallback_to_most_deficit)

        self.slot = 0                  # next slot to simulate
        self.main_slots = 0            # arrival/request slots executed so far
        self.finished = False
        zeros = array("q", bytes(8 * num_queues))
        self.backlog = zeros[:]
        self.next_seqno = zeros[:]
        self.delivered = zeros[:]
        self.counters = zeros[:]
        self.req_count = zeros[:]      # requests pending in the pipeline
        self.tail_occ = zeros[:]
        self.dram_occ = zeros[:]
        # ECQF's critical entry slot per queue (``CRIT_INF`` = none) and
        # the lookahead ring (``-1`` = no request).
        self.crit_cache = array("q", [kernel.CRIT_INF]) * num_queues
        self.la_ring = array("q", [-1]) * self.la_len
        self.la_pos = 0
        self.tail_total = 0
        self.dram_total = 0
        self.sram_total = 0
        self.negatives = 0             # queues with a negative counter
        self.crit_len = 0              # critical-heap keys in the image

        self.arrivals_count = 0
        self.departures = 0
        self.idle_requests = 0
        self.cells_in = 0
        self.cells_out = 0
        self.dram_reads = 0
        self.dram_writes = 0
        self.dropped = 0
        self.max_tail = 0
        self.max_head = 0
        self.head_misses: List[MissRecord] = []
        self.tail_misses: List[None] = []
        self.hist = {}
        self.drained: List[int] = []

    # ------------------------------------------------------------------ #
    def reset_measurement(self) -> None:
        """Zero the *measurement* counters at a warmup boundary.

        The machine state (queues, pipelines, RNG-facing structures) is
        untouched — only what feeds ``ThroughputStats`` and the latency
        histogram restarts, matching the reference loop's warmup semantics
        (engineering counters in the buffer result keep covering the whole
        run).  The buffer's ``dropped_cells``, which covers the whole run
        as the object model's does, takes the warmup's drops first.
        """
        self.buffer._dropped_cells += self.dropped
        self.arrivals_count = 0
        self.departures = 0
        self.idle_requests = 0
        self.dropped = 0
        self.hist = {}

    def _check_not_finished(self) -> None:
        if self.finished:
            raise StaleSimulationError(
                "this array core already produced its report; build a new "
                "simulation for another run")

    def run_span(self, plan, num_slots: int, main: bool = True) -> None:
        """Simulate ``num_slots`` slots starting at ``self.slot`` on the
        span kernel.

        ``plan`` is the arrival plan for exactly this window (``None`` for a
        drain-only span, a :class:`_DeferredPlan` for a window of a stock
        Bernoulli process, which the kernel draws, an ``Optional[int]`` list
        or an ``int32`` row); ``main=False`` runs drain slots (no arrivals,
        no requests, departures recorded for final-slot stamping).  A span
        the kernel aborts raises the reference engine's exception and
        leaves the core, the simulation and their generators as they were.
        """
        self._check_not_finished()
        obs = get_metrics()
        if obs is not None:
            obs.inc("engine.array.spans")
            obs.inc("engine.array.span_slots", num_slots)
        if num_slots <= 0:
            return
        bern = None
        if not main:
            plan = None
        elif isinstance(plan, _DeferredPlan):
            bern, plan = plan.bern(), None
        if plan is not None and len(plan) < num_slots:
            raise ConfigurationError(
                f"the arrival plan covers {len(plan)} slots, but the span "
                f"runs {num_slots}")
        if not kernel.run_span_kernel(self, plan, num_slots, main=main,
                                      bern=bern):
            raise ConfigurationError(
                "the span kernel is not loaded; run on engine='reference'")

    def finish(self, drain: bool = True):
        """Run the drain window (if requested) and assemble the report.

        Mirrors ``ClosedLoopSimulation.run``'s epilogue: fold the flat
        counters into the simulation's stats objects, stamp drain-window
        departures with the final slot, and attach the buffer-side result.
        """
        from repro.sim.engine import SimulationReport

        self._check_not_finished()
        if drain:
            self.run_span(None, self._drain_slots(), main=False)
        self.finished = True
        sim = self.sim
        final_slot = self.slot
        throughput = sim.throughput
        throughput.arrivals += self.arrivals_count
        throughput.departures += self.departures + len(self.drained)
        throughput.idle_request_slots += self.idle_requests
        latency = sim.latency
        latency.record_delays(self.hist.keys(), self.hist.values())
        # Cells served during the drain window are stamped with the final
        # slot, exactly as the object model's ``drain()`` epilogue does.
        latency.record_delays(array("q", map(final_slot.__sub__,
                                             self.drained)))
        throughput.slots = final_slot
        throughput.drops = self.dropped
        self.buffer._dropped_cells += self.dropped
        return SimulationReport(throughput=throughput, latency=latency,
                                buffer_result=self._result(final_slot),
                                trace=sim.trace)


# --------------------------------------------------------------------- #
# RADS
# --------------------------------------------------------------------- #

class _RADSCore(_ArrayCoreBase):
    """Struct-of-arrays machine for :class:`~repro.rads.buffer.RADSPacketBuffer`:
    the shared state plus the blocks in flight from DRAM to the head SRAM
    (``pending_len`` of them, in the image), run by the kernel's
    ``rads_run_span``."""

    scheme = "rads"

    def __init__(self, sim, buffer) -> None:
        super().__init__(sim, buffer)
        self.dram_cap = buffer.dram.capacity_cells
        self.sram_cap = buffer.head.sram.capacity_cells
        self.pending_len = 0
        self.image = kernel.empty_image(self.num_queues)

    def _drain_slots(self) -> int:
        return self.la_len + self.granularity

    def _result(self, final_slot: int) -> SimulationResult:
        return SimulationResult(
            slots_simulated=final_slot,
            cells_in=self.cells_in,
            cells_out=self.cells_out,
            dram_reads=self.dram_reads,
            dram_writes=self.dram_writes,
            misses=self.head_misses + self.tail_misses,
            max_head_sram_occupancy=self.max_head,
            max_tail_sram_occupancy=self.max_tail,
        )


# --------------------------------------------------------------------- #
# CFDS
# --------------------------------------------------------------------- #

class _CFDSCore(_ArrayCoreBase):
    """Struct-of-arrays machine for :class:`~repro.core.buffer.CFDSPacketBuffer`.

    The issue-period machinery is the core's own state, configured once
    from the buffer's objects at construction and never stepped through
    them (they keep their initial state, apart from the group occupancy,
    which is shared — see below).  Beside the shared state it keeps, in the
    kernel's encoding:

    * the latency register ``lat_ring`` (``-1`` = no request);
    * the Ongoing Requests Register's lock count per bank (``locks``), the
      banked DRAM's busy-until slot per bank, the conflict count, the last
      issue slot (``kernel.NO_SLOT`` = none), the earliest finish among
      the transfers in flight (``kernel.CRIT_INF`` = none), the largest
      request-to-data delay seen and the Requests Register's peak;
    * queue renaming's (Section 6) in-use flags per physical queue (empty
      without renaming), each physical queue's write count and the group
      occupancy;
    * in the image: the Requests Register, the transfers in flight, the
      ORR ring of the banks issued in each of the last ``orr_len``
      periods, the renaming registers and free names, and each logical
      queue's block locations in DRAM.

    The group-occupancy array takes the place of the renaming table's (or,
    without renaming, the buffer's) list, so
    :meth:`~repro.core.buffer.CFDSPacketBuffer.dram_group_occupancy` and
    ``dram_utilisation()`` answer for an array run.
    """

    scheme = "cfds"

    def __init__(self, sim, buffer) -> None:
        super().__init__(sim, buffer)
        config = buffer.config
        self.dram_cap = config.dram_cells
        self.sram_cap = buffer.head.sram.capacity_cells
        self.lat_len = config.effective_latency
        self.dram_access_slots = config.dram_access_slots
        self.lat_ring = array("q", [-1]) * self.lat_len
        self.lat_pos = 0

        scheduler = buffer.scheduler
        timing = scheduler.dram.timing
        mapping = buffer.mapping
        self.rr_cap = scheduler.request_register.capacity
        self.issues = scheduler.issues_per_period
        self.ras = timing.random_access_slots
        self.bus_slots = timing.address_bus_slots
        self.dram_strict = scheduler.dram.strict
        self.num_groups = mapping.num_groups
        self.banks_per_group = mapping.banks_per_group
        self.rr_peak = 0
        self.orr_len = scheduler.ongoing.length
        self.orr_pos = 0
        banks = array("q", bytes(8 * timing.num_banks))
        self.locks = banks[:]
        self.busy_until = banks[:]
        self.conflicts = 0
        self.last_issue = kernel.NO_SLOT
        self.flight_next = kernel.CRIT_INF
        self.max_delay = 0

        renaming = buffer.renaming
        self.renaming = renaming is not None
        self.write_count = array("q", bytes(8 * mapping.num_queues))
        table = buffer if renaming is None else renaming
        self.group_occ = table._group_occupancy = array(
            "q", table._group_occupancy)
        if renaming is None:
            self.group_cap = buffer.group_capacity_cells
            self.in_use = array("q")
            free_names = None
        else:
            self.group_cap = renaming.group_capacity_cells
            self.in_use = array("q", bytes(8 * renaming.num_physical))
            free_names = [renaming._free_by_group[group]
                          for group in range(self.num_groups)]
        self.image = kernel.empty_image(self.num_queues, self.orr_len,
                                        free_names)

    def _drain_slots(self) -> int:
        return (self.la_len + self.lat_len + self.dram_access_slots
                + self.granularity)

    #: Kernel fields the core holds in another form, derived from state
    #: every version-4 snapshot has: ``pending_len`` (RADS's blocks in
    #: flight) is 0, as a CFDS fetch waits in the Requests Register.
    num_banks = property(lambda self: len(self.locks))
    num_physical = property(lambda self: len(self.write_count))
    pending_len = property(lambda self: 0, lambda self, value: None)

    def _result(self, final_slot: int) -> SimulationResult:
        return SimulationResult(
            slots_simulated=final_slot,
            cells_in=self.cells_in,
            cells_out=self.cells_out,
            dram_reads=self.dram_reads,
            dram_writes=self.dram_writes,
            misses=self.head_misses + self.tail_misses,
            max_head_sram_occupancy=self.max_head,
            max_tail_sram_occupancy=self.max_tail,
            max_request_register_occupancy=self.rr_peak,
            max_reorder_delay_slots=self.max_delay,
            bank_conflicts=self.conflicts,
        )
