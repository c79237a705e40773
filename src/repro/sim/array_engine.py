"""Struct-of-arrays simulation core — ``engine="array"``, the default.

The object model (``RADSPacketBuffer``/``CFDSPacketBuffer`` driven by
:class:`~repro.sim.engine.ClosedLoopSimulation`) allocates a ``Cell``
dataclass per arrival, keeps every FIFO as a deque of cell objects and every
SRAM as a heap of ``(seqno, id, cell)`` tuples, and walks half a dozen
attribute chains per slot.  That per-slot object traffic is what dominates
long closed-loop runs.  This module re-implements the *same machine* on flat
integer state:

* a cell is identified by its ``(queue, seqno)`` pair; per-queue seqnos are
  dense, so the cell's ``arrival_slot`` lives in a compacting cursor list
  indexed by seqno — no cell objects exist at all;
* the tail-SRAM and DRAM per-queue FIFOs are :class:`collections.deque`
  queues of seqnos; occupancies are flat ``int`` lists updated in the loop;
* the head SRAM is a per-queue min-heap of bare seqnos (out-of-order block
  delivery in CFDS still yields in-order service);
* the lookahead and latency shift registers are preallocated lists with a
  rotating cursor;
* the latency histogram is accumulated as a plain dict of ints and folded
  into :class:`~repro.sim.stats.LatencyStats` once, after the loop.

Policy decisions are never approximated.  Custom MMA or arbiter objects are
invoked with exactly the views the object model hands them; for the stock
policies the engine substitutes *algebraically identical* incremental forms:

* **ECQF** — the O(lookahead) walk ("first queue whose bookkeeping occupancy
  would go negative") always selects the queue whose ``(counter+1)``-th
  outstanding request entered the pipeline earliest.  The engine keeps each
  queue's request entry-slots in a cursor list and tracks that *critical
  entry slot* per queue in a lazily invalidated min-heap.  The tracked value
  only changes when a request enters the pipeline or the queue's counter is
  credited — a request leaving the pipeline moves the counter and the cursor
  together, cancelling out — so maintenance is O(log Q) per event and a
  selection is an O(1) amortised heap peek instead of a 400-entry walk.
* **ThresholdTailMMA** — inlined occupancy max-scan, skipped entirely while
  the tail SRAM holds less than one block.
* **RandomArbiter** — the per-slot "list the backlogged queues" rebuild is
  replaced by an incrementally maintained sorted list (the engine already
  knows every backlog transition); the RNG draw sequence is unchanged, so the
  request stream is bit-identical.

For CFDS, the issue-period machinery — the DRAM scheduler subsystem
(Requests Register with its oldest-ready select, Ongoing Requests Register,
banked-DRAM timing), queue renaming and the block-cyclic bank mapping — is
re-implemented on the core's own flat state too, configured once from the
buffer's objects; it makes the object model's decisions in the object
model's order, errors included.  The resulting
:class:`~repro.sim.engine.SimulationReport`
(throughput, latency histogram, buffer statistics) is asserted bit-identical
to the reference loop for every registered scenario by
``tests/sim/test_array_engine.py``.

**The compiled span kernel.**  Each core hands a span to its entry in the
C kernel of :mod:`repro.sim.kernel` when ``_kernel_miss`` passes (stock
ECQF and threshold tail MMA, no arbiter, ``RandomArbiter`` or
``LongestQueueArbiter``, ``num_queues`` up to ``MAX_KERNEL_QUEUES``, an
untraced run, at least ``MIN_KERNEL_SLOTS`` slots, a loaded kernel); every
other span — and every span the kernel aborts — runs on the core's scalar
python loop on the same state, the oracle the kernel mirrors statement for
statement.  Both entries share the kernel's SRAM/MMA half, so both run the
same arbiters and plans, and one routing method, ``_kernel_route``, sends
either core's spans there.  With metrics enabled, the slots of a span that
misses the kernel are counted as ``engine.array.fallback.<reason>``.  The
arrival plan of a stock Bernoulli process (Zipf and hotspot included) is
deferred so the kernel draws it natively: the whole horizon of a
monolithic run, each chunk of a streamed one, on either core.

The engine consumes a *freshly built* buffer: it reads the configuration and
the sizes of the issue-period machinery off the buffer object once and keeps
all state in its own arrays, so the buffer instance itself is not stepped
(a CFDS core shares only its group-occupancy list, which the buffer's
``dram_group_occupancy()`` reads).  Running an
already-run (or hand-stepped) simulation on the array engine raises
:class:`~repro.errors.StaleSimulationError`.

**Chunked execution.**  The engine state lives in a core object
(:func:`build_array_core`) whose :meth:`run_span` method simulates any
number of slots and can be called repeatedly — that is what the streaming
path (:mod:`repro.sim.streaming`) uses to run arbitrarily long horizons on
bounded memory and to checkpoint mid-run: a core holds only plain data
(lists, deques, dicts, ints) plus references to the simulation and buffer
objects, so pickling the core captures the complete machine state.  The
streaming driver takes each chunk's plan from :func:`window_plan`, and
:func:`run_array`, the monolithic convenience wrapper (one main span, one
drain span, one report), takes its whole horizon's plan from it.

:func:`resolve_engine` is the one place engine names are checked: the
retired names ``numpy`` and ``batched`` run ``array`` and ``reference``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from heapq import heappop, heappush
from itertools import accumulate
from typing import List, Optional

from repro.errors import (
    ArbiterContractError,
    BankConflictError,
    BufferOverflowError,
    CacheMissError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.mma.ecqf import ECQF
from repro.mma.tail_mma import ThresholdTailMMA
from repro.obs.metrics import get_metrics
from repro.sim import kernel
from repro.traffic.arbiters import RandomArbiter
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

#: "No critical entry" marker in the per-queue critical-slot cache.
_INF = float("inf")

#: Compaction threshold of the cursor lists (amortised O(1): at least half
#: of the storage is reclaimed whenever a deletion is triggered).
_COMPACT = 8192


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


def run_array(sim, num_slots: int, drain: bool = True):
    """Run ``sim`` for ``num_slots`` slots on the struct-of-arrays core.

    Args:
        sim: a :class:`~repro.sim.engine.ClosedLoopSimulation` whose buffer
            has not been stepped yet (``buffer.slot == 0``).
        num_slots: slots to simulate before the optional drain.
        drain: run the buffer's drain window after the main loop, exactly as
            :meth:`ClosedLoopSimulation.run` does.

    Returns:
        The same :class:`~repro.sim.engine.SimulationReport` the object-model
        loops produce, bit for bit.
    """
    if num_slots < 0:
        raise ConfigurationError("num_slots must be non-negative")
    core = build_array_core(sim)
    plan = (window_plan(sim, core, 0, num_slots)
            if sim.arrivals is not None else None)
    core.run_span(plan, num_slots)
    return core.finish(drain=drain)


def build_array_core(sim):
    """Build the struct-of-arrays core for ``sim``'s buffer scheme.

    Raises :class:`~repro.errors.StaleSimulationError` unless the simulation
    is freshly built (the array engine replays a run from slot 0 on its own
    state arrays, so a pre-stepped buffer or an already-run simulation would
    silently produce a wrong report).
    """
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
    obs = get_metrics()
    if obs is not None:
        obs.inc("engine.array.cores_built")
    if isinstance(buffer, RADSPacketBuffer):
        return _RADSCore(sim, buffer)
    if isinstance(buffer, CFDSPacketBuffer):
        return _CFDSCore(sim, buffer)
    raise ConfigurationError(
        "the array engine supports RADSPacketBuffer and CFDSPacketBuffer, "
        f"got {type(buffer).__name__}")


class _DeferredPlan:
    """A window of a stock Bernoulli arrival plan that has not been drawn
    yet.

    An array core gets one for the whole horizon of a monolithic run and one
    per chunk of a streamed run, so the compiled span kernel can draw the
    plan natively (same words, same doubles) and write the consumed RNG
    state back; a span that runs in python calls :meth:`materialize`, which
    advances the process RNG exactly as the ``arrivals()`` call would have
    at this point.
    """

    __slots__ = ("proc", "num_slots", "cum_weights", "total")

    def __init__(self, proc, num_slots: int, cum_weights: List[float]) -> None:
        self.proc = proc
        self.num_slots = num_slots
        self.cum_weights = cum_weights
        self.total = cum_weights[-1] + 0.0

    def __len__(self) -> int:
        return self.num_slots

    def shares_rng(self, sim) -> bool:
        """True when the process draws from the arbiter's RNG object, whose
        draws for a span must then follow the plan's."""
        return self.proc._rng is getattr(sim.arbiter, "_rng", None)

    def bern(self):
        """The kernel's ``bern`` argument: the process RNG, the load gate's
        integer threshold and the cumulative weights."""
        return (self.proc._rng, kernel.gate_threshold(self.proc.load),
                self.cum_weights, self.total)

    def materialize(self) -> List[Optional[int]]:
        return self.proc.arrivals(self.num_slots)


def window_plan(sim, core, start_slot: int, num_slots: int):
    """The arrival plan of the window ``[start_slot, start_slot +
    num_slots)``: a monolithic run's whole horizon or one streamed chunk.

    Deferred (a :class:`_DeferredPlan`) for an array core (``core`` is
    ``None`` on the reference engine) when the span kernel can draw the
    plan.  The kernel reproduces the stock batch
    draw of ``BernoulliArrivals``, so the process must be one (Zipf and
    hotspot are) that overrides neither ``arrivals`` nor ``arrivals_slice``
    and serves every window from ``arrivals`` (``slot_invariant``).  Its
    weights must cover exactly the buffer's queues, because the kernel
    searches the buffer's ``num_queues`` of them: a process with fewer
    queues runs on python's plan, and one with more raises the reference
    engine's error.  And they must not sum to zero, which ``choices()``
    reports on the first arrival, in python.  Otherwise the plan is the
    process's own window
    (:meth:`~repro.traffic.arrivals.ArrivalProcess.arrivals_slice`), or all
    ``None`` without an arrival process.
    """
    proc = sim.arrivals
    if proc is None:
        return [None] * num_slots
    cls = type(proc)
    if (core is not None and isinstance(proc, BernoulliArrivals)
            and proc.slot_invariant
            and cls.arrivals is BernoulliArrivals.arrivals
            and cls.arrivals_slice is BernoulliArrivals.arrivals_slice
            and len(proc.weights) == core.num_queues):
        cum_weights = list(accumulate(proc.weights))
        if cum_weights[-1] > 0.0:
            return _DeferredPlan(proc, num_slots, cum_weights)
    window = proc.arrivals_slice(start_slot, num_slots)
    return window if isinstance(window, list) else list(window)


def split_plan(core, plan, cut: int):
    """``plan``'s first ``cut`` slots and the rest (a warmup boundary inside
    a chunk).

    A deferred plan splits into two deferred parts, unless its process
    shares the arbiter's RNG: then the whole window is drawn here, before
    the arbiter draws for either part, as for an undeferred chunk, and each
    part the kernel would otherwise have drawn is counted as
    ``engine.array.fallback.shared_rng`` (a part it declines is counted
    under its own reason when it runs).
    """
    if isinstance(plan, _DeferredPlan):
        if not plan.shares_rng(core.sim):
            return (_DeferredPlan(plan.proc, cut, plan.cum_weights),
                    _DeferredPlan(plan.proc, plan.num_slots - cut,
                                  plan.cum_weights))
        obs = get_metrics()
        if obs is not None:
            drawn = sum(part for part in (cut, plan.num_slots - cut)
                        if core._kernel_miss(part) is None)
            if drawn:
                obs.inc("engine.array.fallback.shared_rng", drawn)
        plan = plan.materialize()
    return plan[:cut], plan[cut:]


def _pop_block(fifo: deque, count: int, out: List[int]) -> None:
    """Move up to ``count`` cells from the head of ``fifo`` to ``out`` (the
    block-transfer path: one call per DRAM access, not one per cell)."""
    if count >= len(fifo):
        out.extend(fifo)
        fifo.clear()
    else:
        popleft = fifo.popleft
        for _ in range(count):
            out.append(popleft())


# --------------------------------------------------------------------- #
# Incremental ECQF
# --------------------------------------------------------------------- #

def _ecqf_select(counters: List[int], negatives: int, req_count: List[int],
                 crit_heap: List, crit_cache: List, fallback: bool
                 ) -> Optional[int]:
    """ECQF's selection from the incrementally maintained critical view.

    Identical, case by case, to :meth:`repro.mma.ecqf.ECQF.select`:

    * any queue with a negative bookkeeping counter wins (lowest counter,
      then lowest index) — the walk's early-negative branch;
    * otherwise the walk marks a queue critical at its ``(counter+1)``-th
      pending request, so the winner is the queue whose critical request
      entered the pipeline earliest — the top of the lazy min-heap (entry
      slots are unique, so there are no ties to break);
    * otherwise the most-deficit fallback: largest ``pending - counter``
      among queues with pending requests (ties to the lowest index), only if
      that deficit is positive.
    """
    if negatives:
        best_queue = -1
        best_counter = 0
        for queue, counter in enumerate(counters):
            if counter < 0 and (best_queue < 0 or counter < best_counter):
                best_counter = counter
                best_queue = queue
        return best_queue
    while crit_heap:
        entered, queue = crit_heap[0]
        if crit_cache[queue] == entered:
            return queue
        heappop(crit_heap)
    if not fallback:
        return None
    best_queue = -1
    best_deficit = 0
    queue = 0
    for counter, pending in zip(counters, req_count):
        if pending:
            deficit = pending - counter
            if best_queue < 0 or deficit > best_deficit:
                best_deficit = deficit
                best_queue = queue
        queue += 1
    if best_queue < 0 or best_deficit <= 0:
        return None
    return best_queue


# --------------------------------------------------------------------- #
# Shared core scaffolding
# --------------------------------------------------------------------- #

class _ArrayCoreBase:
    """State shared by the RADS and CFDS struct-of-arrays cores.

    A core holds *only plain data* (lists, deques, dicts, ints) plus
    references to the simulation and buffer objects — policy callables and
    RNG method handles are re-derived at the top of every :meth:`run_span`,
    never stored — so pickling a core (together with its simulation, in one
    payload) captures the complete machine state for checkpoint/resume.
    """

    def __init__(self, sim, buffer) -> None:
        self.sim = sim
        self.buffer = buffer
        config = buffer.config
        self.num_queues = config.num_queues
        self.granularity = config.granularity
        self.strict = config.strict
        self.tail_cap = config.effective_tail_sram_cells
        self.la_len = config.effective_lookahead
        tail_mma = buffer.tail.mma
        head_mma = buffer.head.mma
        # Exact-type checks: a subclass may override the policy, in which
        # case the generic (object-invoking) path is used instead.
        self.fast_tail = (type(tail_mma) is ThresholdTailMMA
                          and tail_mma.granularity == self.granularity)
        self.fast_ecqf = type(head_mma) is ECQF
        self.ecqf_fallback = (self.fast_ecqf
                              and head_mma.fallback_to_most_deficit)
        self.fast_random = type(sim.arbiter) is RandomArbiter
        self.eligible: List[int] = []  # ascending queues with backlog > 0

        num_queues = self.num_queues
        self.slot = 0                  # next slot to simulate
        self.main_slots = 0            # arrival/request slots executed so far
        self.finished = False
        self.backlog = [0] * num_queues
        self.next_seqno = [0] * num_queues
        self.delivered = [0] * num_queues
        self.arr_slots: List[List[int]] = [[] for _ in range(num_queues)]
        self.arr_base = [0] * num_queues
        self.tail_fifo = [deque() for _ in range(num_queues)]
        self.tail_occ = [0] * num_queues
        self.tail_total = 0
        self.dram_fifo = [deque() for _ in range(num_queues)]
        self.dram_occ = [0] * num_queues
        self.dram_total = 0
        self.sram_heap: List[List[int]] = [[] for _ in range(num_queues)]
        self.sram_total = 0
        self.counters = [0] * num_queues
        self.lookahead: List[Optional[int]] = [None] * self.la_len
        self.la_pos = 0
        # Incremental ECQF view (maintained only when the stock policy
        # runs): per-queue entry slots of the requests currently in the
        # pipeline (cursor lists), the per-queue pending count, the number
        # of queues with a negative counter, and the lazy heap of critical
        # entry slots.
        self.req_slots: List[List[int]] = [[] for _ in range(num_queues)]
        self.req_head = [0] * num_queues
        self.req_count = [0] * num_queues
        self.negatives = 0
        self.crit_cache: List = [_INF] * num_queues
        self.crit_heap: List = []

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

    def _kernel_miss(self, num_slots: int) -> Optional[str]:
        """Why a span of ``num_slots`` cannot run on the span kernel — the
        ``<reason>`` of its ``engine.array.fallback.<reason>`` counter — or
        ``None`` when it can: stock ECQF and threshold tail MMA, an arbiter
        :func:`~repro.sim.kernel.span_arbiter` takes, at most
        ``MAX_KERNEL_QUEUES`` queues, an untraced run, at least
        ``MIN_KERNEL_SLOTS`` slots and a loaded kernel."""
        if not (self.fast_ecqf and self.fast_tail and kernel.span_arbiter(
                self.sim.arbiter, self.num_queues) is not None):
            return "policy"
        if self.num_queues > kernel.MAX_KERNEL_QUEUES:
            return "wide_queues"
        if self.sim.trace is not None:
            return "traced"
        if num_slots < kernel.MIN_KERNEL_SLOTS:
            return "short_span"
        if kernel.load_kernel() is None:
            return "unavailable"
        return None

    def _kernel_route(self, plan, num_slots: int, main: bool):
        """Run the span on the core's kernel entry (:meth:`_run_kernel`)
        when it can, and count it: ``(True, None)`` when the kernel ran it,
        else ``(False, plan)`` with the plan the python loop runs — a
        deferred plan drawn.

        A deferred plan is drawn by the kernel, unless its process shares
        the arbiter's RNG object: the python loop consumes the plan's words
        strictly first, so they are drawn here, before the kernel runs the
        span on the explicit plan, and counted as ``shared_rng``.  A kernel
        call that draws the plan and aborts leaves the RNG untouched, and
        the explicit plan would abort the same way, so the python loop
        replays the span straight away.
        """
        self._check_not_finished()
        obs = get_metrics()
        if obs is not None:
            obs.inc("engine.array.spans")
            obs.inc("engine.array.span_slots", num_slots)
        if num_slots > 0:
            miss = self._kernel_miss(num_slots)
            if miss is not None:
                if obs is not None:
                    obs.inc(f"engine.array.fallback.{miss}", num_slots)
            elif (isinstance(plan, _DeferredPlan)
                    and not plan.shares_rng(self.sim)):
                if self._run_kernel(None, num_slots, main, plan.bern()):
                    return True, None
            else:
                if isinstance(plan, _DeferredPlan):
                    if obs is not None:
                        obs.inc("engine.array.fallback.shared_rng",
                                num_slots)
                    plan = plan.materialize()
                if ((plan is None or len(plan) >= num_slots)
                        and self._run_kernel(plan, num_slots, main, None)):
                    return True, None
        if isinstance(plan, _DeferredPlan):
            plan = plan.materialize()
        return False, plan

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
        for delay, count in self.hist.items():
            latency.record_delay(delay, count)
        # Cells served during the drain window are stamped with the final
        # slot, exactly as the object model's ``drain()`` epilogue does.
        for arrival_slot in self.drained:
            latency.record_delay(final_slot - arrival_slot)
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
    """Struct-of-arrays machine for :class:`~repro.rads.buffer.RADSPacketBuffer`.

    A span runs on the compiled span kernel (:mod:`repro.sim.kernel`) when
    :meth:`_kernel_miss` passes and the kernel completes it, and on the
    scalar loop of :meth:`run_span` otherwise.  Both mutate the same state,
    so kernel and python spans mix freely (chunks, drains, checkpoints).
    """

    def __init__(self, sim, buffer) -> None:
        super().__init__(sim, buffer)
        self.dram_cap = buffer.dram.capacity_cells
        self.sram_cap = buffer.head.sram.capacity_cells
        self.pending = deque()  # (finish_slot, queue, [seqnos]) DRAM->SRAM

    def _drain_slots(self) -> int:
        return self.la_len + self.granularity

    def _run_kernel(self, plan, num_slots: int, main: bool, bern) -> bool:
        return kernel.run_span_kernel(self, plan, num_slots, main=main,
                                      bern=bern)

    def run_span(self, plan, num_slots: int, main: bool = True) -> None:
        """Simulate ``num_slots`` slots starting at ``self.slot``.

        ``plan`` is the arrival plan for exactly this window (``None`` for a
        drain-only span, a :class:`_DeferredPlan` for a window of a stock
        Bernoulli process); ``main=False`` runs drain slots (no arrivals, no
        requests, departures recorded for final-slot stamping).  The span
        runs on the kernel when :meth:`_kernel_route` can put it there, and
        on the loop below otherwise.
        """
        ran, plan = self._kernel_route(plan, num_slots, main)
        if ran:
            return
        buffer = self.buffer
        sim = self.sim
        num_queues = self.num_queues
        granularity = self.granularity
        strict = self.strict
        tail_cap = self.tail_cap
        dram_cap = self.dram_cap
        sram_cap = self.sram_cap
        la_len = self.la_len
        tail_select = buffer.tail.mma.select
        head_select = buffer.head.mma.select
        fast_tail = self.fast_tail
        fast_ecqf = self.fast_ecqf
        ecqf_fallback = self.ecqf_fallback

        arbiter = sim.arbiter
        fast_random = self.fast_random
        if main and fast_random:
            # RandomArbiter, verbatim: one uniform draw for the load gate,
            # one choice() over the ascending backlogged-queue list
            # (maintained incrementally below).
            arb_random = arbiter._rng.random
            arb_randbelow = arbiter._rng._randbelow
            arb_load = arbiter.load
            eligible = self.eligible
            next_request = None
        else:
            next_request = (arbiter.next_request
                            if main and arbiter is not None else None)
            eligible = self.eligible
        trace_events = (sim.trace.events
                        if main and sim.trace is not None else None)

        # Flat per-queue state (see the class docstrings for the layout).
        backlog = self.backlog
        next_seqno = self.next_seqno
        delivered = self.delivered
        arr_slots = self.arr_slots
        arr_base = self.arr_base
        tail_fifo = self.tail_fifo
        tail_occ = self.tail_occ
        tail_total = self.tail_total
        dram_fifo = self.dram_fifo
        dram_occ = self.dram_occ
        dram_total = self.dram_total
        sram_heap = self.sram_heap
        sram_total = self.sram_total
        counters = self.counters
        lookahead = self.lookahead
        la_pos = self.la_pos
        pending = self.pending
        req_slots = self.req_slots
        req_head = self.req_head
        req_count = self.req_count
        negatives = self.negatives
        crit_cache = self.crit_cache
        crit_heap = self.crit_heap

        arrivals_count = self.arrivals_count
        departures = self.departures
        idle_requests = self.idle_requests
        cells_in = self.cells_in
        cells_out = self.cells_out
        dram_reads = self.dram_reads
        dram_writes = self.dram_writes
        dropped = self.dropped
        max_tail = self.max_tail
        max_head = self.max_head
        head_misses = self.head_misses
        tail_misses = self.tail_misses
        hist = self.hist
        drained = self.drained

        start = self.slot
        for slot in range(start, start + num_slots):
            if main:
                arrival = plan[slot - start] if plan is not None else None
                if fast_random:
                    if arb_random() >= arb_load or not eligible:
                        request = None
                    else:
                        request = eligible[arb_randbelow(len(eligible))]
                elif next_request is not None:
                    request = next_request(slot, backlog)
                    if request is not None:
                        if type(request) is int and 0 <= request < num_queues:
                            if backlog[request] <= 0:
                                request = None
                        else:
                            raise ArbiterContractError(request, num_queues,
                                                       slot)
                else:
                    request = None
                if trace_events is not None:
                    trace_events.append((arrival, request))
            else:
                arrival = None
                request = None

            # -- arrival: assign the seqno; cut through to the head SRAM
            #    when the queue's whole backlog lives on-chip, else enqueue
            #    for the tail.
            tail_seqno = -1
            if arrival is not None:
                if not 0 <= arrival < num_queues:
                    # The reference buffer's queue-keyed seqno table raises
                    # this for a queue it lacks; the engines raise alike.
                    raise KeyError(  # repro-lint: disable=error-taxonomy
                        arrival)
                seqno = next_seqno[arrival]
                next_seqno[arrival] = seqno + 1
                arr_slots[arrival].append(slot)
                if (dram_occ[arrival] == 0 and tail_occ[arrival] == 0
                        and len(sram_heap[arrival]) < granularity):
                    sram_total += 1
                    if sram_cap is not None and sram_total > sram_cap:
                        raise BufferOverflowError("SRAM", sram_cap, sram_total)
                    heappush(sram_heap[arrival], seqno)
                    count = counters[arrival] + 1
                    counters[arrival] = count
                    if fast_ecqf:
                        if count == 0:
                            negatives -= 1
                        if 0 <= count < req_count[arrival]:
                            entered = req_slots[arrival][req_head[arrival] + count]
                            crit_cache[arrival] = entered
                            heappush(crit_heap, (entered, arrival))
                        else:
                            crit_cache[arrival] = _INF
                else:
                    tail_seqno = seqno

            # -- tail subsystem (t-SRAM accept + threshold MMA eviction).
            if tail_seqno >= 0:
                if tail_total + 1 > tail_cap:
                    tail_misses.append(None)
                    if strict:
                        raise BufferOverflowError("tail SRAM", tail_cap,
                                                  tail_total + 1)
                else:
                    tail_fifo[arrival].append(tail_seqno)
                    tail_occ[arrival] += 1
                    tail_total += 1
                    cells_in += 1
            if slot % granularity == 0:
                if fast_tail:
                    selection = None
                    if tail_total >= granularity:
                        best_occ = granularity - 1
                        for queue, occ in enumerate(tail_occ):
                            if occ > best_occ:
                                best_occ = occ
                                selection = queue
                else:
                    selection = tail_select(tail_occ)
                if selection is not None:
                    block: List[int] = []
                    _pop_block(tail_fifo[selection], granularity, block)
                    evicted = len(block)
                    tail_occ[selection] -= evicted
                    tail_total -= evicted
                    if block:
                        stored = evicted
                        if dram_cap is not None and not strict:
                            room = dram_cap - dram_total
                            if room < stored:
                                keep = room if room > 0 else 0
                                dropped += stored - keep
                                del block[keep:]
                                stored = keep
                        if stored:
                            fifo = dram_fifo[selection]
                            for seq in block:
                                if dram_cap is not None and dram_total >= dram_cap:
                                    raise BufferOverflowError("DRAM", dram_cap,
                                                              dram_total + 1)
                                fifo.append(seq)
                                dram_total += 1
                            dram_occ[selection] += stored
                        dram_writes += 1
            if tail_total > max_tail:
                max_tail = tail_total

            # -- head subsystem: lookahead shift, transfer landings, ECQF,
            #    serve.
            if la_len:
                leaving = lookahead[la_pos]
                lookahead[la_pos] = request
                la_pos += 1
                if la_pos == la_len:
                    la_pos = 0
            else:
                leaving = request
            if fast_ecqf:
                if request is not None:
                    req_slots[request].append(slot)
                    count = req_count[request]
                    req_count[request] = count + 1
                    if counters[request] == count:
                        # The request just appended is the critical one.
                        crit_cache[request] = slot
                        heappush(crit_heap, (slot, request))
                if leaving is not None:
                    # Counter and pipeline head advance together, so the
                    # critical entry slot is unchanged — unless the counter
                    # goes negative.
                    count = counters[leaving] - 1
                    counters[leaving] = count
                    if count == -1:
                        negatives += 1
                        crit_cache[leaving] = _INF
                    head = req_head[leaving] + 1
                    pipeline = req_slots[leaving]
                    if head == len(pipeline):
                        pipeline.clear()
                        head = 0
                    elif head >= _COMPACT and head * 2 >= len(pipeline):
                        del pipeline[:head]
                        head = 0
                    req_head[leaving] = head
                    req_count[leaving] -= 1
            elif leaving is not None:
                counters[leaving] -= 1
            while pending and pending[0][0] <= slot:
                _, landing_queue, seqs = pending.popleft()
                heap = sram_heap[landing_queue]
                for seq in seqs:
                    sram_total += 1
                    if sram_cap is not None and sram_total > sram_cap:
                        raise BufferOverflowError("SRAM", sram_cap, sram_total)
                    heappush(heap, seq)
            if slot % granularity == 0:
                if fast_ecqf:
                    selection = _ecqf_select(counters, negatives, req_count,
                                             crit_heap, crit_cache,
                                             ecqf_fallback)
                else:
                    contents = (lookahead[la_pos:] + lookahead[:la_pos]
                                if la_len else [])
                    selection = head_select(list(counters), contents)
                if selection is not None:
                    seqs = []
                    if dram_occ[selection]:
                        _pop_block(dram_fifo[selection], granularity, seqs)
                        got = len(seqs)
                        dram_occ[selection] -= got
                        dram_total -= got
                    else:
                        got = 0
                    if got < granularity:
                        # Cut-through: the rest of the block never reached
                        # DRAM.
                        _pop_block(tail_fifo[selection], granularity - got, seqs)
                        extra = len(seqs) - got
                        tail_occ[selection] -= extra
                        tail_total -= extra
                    if seqs:
                        count = counters[selection] + len(seqs)
                        counters[selection] = count
                        if fast_ecqf:
                            if count >= 0 and count - len(seqs) < 0:
                                negatives -= 1
                            if 0 <= count < req_count[selection]:
                                entered = req_slots[selection][
                                    req_head[selection] + count]
                                crit_cache[selection] = entered
                                heappush(crit_heap, (entered, selection))
                            else:
                                crit_cache[selection] = _INF
                        pending.append((slot + granularity, selection, seqs))
                        dram_reads += 1
            if leaving is not None:
                expected = delivered[leaving]
                heap = sram_heap[leaving]
                if heap and heap[0] == expected:
                    heappop(heap)
                    sram_total -= 1
                elif tail_occ[leaving] and tail_fifo[leaving][0] == expected:
                    # Tail bypass: the in-order cell never left the tail SRAM.
                    tail_fifo[leaving].popleft()
                    tail_occ[leaving] -= 1
                    tail_total -= 1
                else:
                    head_misses.append(MissRecord(queue=leaving, slot=slot))
                    if strict:
                        raise CacheMissError(leaving, slot)
                    expected = None
                if expected is not None:
                    delivered[leaving] = expected + 1
                    cells_out += 1
                    store = arr_slots[leaving]
                    head = expected - arr_base[leaving]
                    arrival_slot = store[head]
                    if head >= _COMPACT - 1 and (head + 1) * 2 >= len(store):
                        del store[:head + 1]
                        arr_base[leaving] = expected + 1
                    if main:
                        departures += 1
                        delay = slot + 1 - arrival_slot
                        hist[delay] = hist.get(delay, 0) + 1
                    else:
                        drained.append(arrival_slot)
            if sram_total > max_head:
                max_head = sram_total

            if main:
                if arrival is not None:
                    arrivals_count += 1
                    count = backlog[arrival] + 1
                    backlog[arrival] = count
                    if fast_random and count == 1:
                        insort(eligible, arrival)
                if request is None:
                    idle_requests += 1
                else:
                    count = backlog[request] - 1
                    backlog[request] = count
                    if fast_random and count == 0:
                        del eligible[bisect_left(eligible, request)]

        # Write the loop-local scalars back (the container state mutated in
        # place and needs no copy-back).
        self.slot = start + num_slots
        if main:
            self.main_slots += num_slots
        self.tail_total = tail_total
        self.dram_total = dram_total
        self.sram_total = sram_total
        self.la_pos = la_pos
        self.negatives = negatives
        self.arrivals_count = arrivals_count
        self.departures = departures
        self.idle_requests = idle_requests
        self.cells_in = cells_in
        self.cells_out = cells_out
        self.dram_reads = dram_reads
        self.dram_writes = dram_writes
        self.dropped = dropped
        self.max_tail = max_tail
        self.max_head = max_head

    # ------------------------------------------------------------------ #
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

def _allocate_name(free_names: List[List[int]], group_occ: List[int],
                   group_cap: Optional[int], cells: int) -> int:
    """A free physical queue name from the group with the fewest cells
    among those with a free name and room for ``cells``, ties to the lowest
    group (:meth:`~repro.core.renaming.RenamingTable._allocate_physical`),
    or -1 when there is none (the object model's ``RenamingError``)."""
    best = -1
    best_occ = 0
    for group, names in enumerate(free_names):
        if names:
            occ = group_occ[group]
            if ((group_cap is None or group_cap - occ >= cells)
                    and (best < 0 or occ < best_occ)):
                best = group
                best_occ = occ
    return free_names[best].pop() if best >= 0 else -1


class _CFDSCore(_ArrayCoreBase):
    """Struct-of-arrays machine for :class:`~repro.core.buffer.CFDSPacketBuffer`.

    The issue-period machinery is the core's own flat state, configured once
    from the buffer's objects at construction and never stepped through
    them (they keep their initial state, apart from the group-occupancy
    list, which is shared — see below):

    * the Requests Register ``rr``: ``(bank, issue_slot, landing_queue,
      seqs)`` entries in age order (``seqs`` is ``None`` for a write), and
      its peak occupancy;
    * the Ongoing Requests Register: a lock count per bank plus ``orr``, a
      ring of the banks issued in each of the last ``orr_size`` periods;
    * the banked DRAM: per-bank busy-until slots, the conflict count and
      the last issue slot;
    * the transfers in flight, ``(finish_slot, rr_entry)`` in issue order,
      the earliest finish among them and the largest request-to-data delay
      seen;
    * queue renaming (Section 6): per logical queue a deque of ``[physical,
      cells]`` entries, the free physical names of each group as stacks,
      in-use flags, and the group occupancy;
    * each logical queue's ``(physical, block_index)`` locations in DRAM
      and each physical queue's write count.

    The group-occupancy list *is* the renaming table's (or, without
    renaming, the buffer's), so :meth:`~repro.core.buffer.CFDSPacketBuffer.\
dram_group_occupancy` and ``dram_utilisation()`` answer for an array run.
    """

    def __init__(self, sim, buffer) -> None:
        super().__init__(sim, buffer)
        config = buffer.config
        self.dram_cap = config.dram_cells
        self.sram_cap = buffer.head.sram.capacity_cells
        self.lat_len = config.effective_latency
        self.dram_access_slots = config.dram_access_slots
        self.latency_reg: List[Optional[int]] = [None] * self.lat_len
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
        self.rr: List[tuple] = []
        self.rr_peak = 0
        self.orr: List[tuple] = [()] * scheduler.ongoing.length
        self.orr_pos = 0
        self.locks = [0] * timing.num_banks
        self.busy_until = [0] * timing.num_banks
        self.conflicts = 0
        self.last_issue: Optional[int] = None
        self.in_flight: List[tuple] = []
        self.flight_next = _INF
        self.max_delay = 0

        renaming = buffer.renaming
        self.block_locations = [deque() for _ in range(self.num_queues)]
        self.write_count = [0] * mapping.num_queues
        if renaming is None:
            self.group_cap = buffer.group_capacity_cells
            self.group_occ = buffer._group_occupancy
            self.names = None
            self.free_names = None
            self.in_use = None
        else:
            self.group_cap = renaming.group_capacity_cells
            self.group_occ = renaming._group_occupancy
            self.names = [deque() for _ in range(self.num_queues)]
            self.free_names = [list(renaming._free_by_group[group])
                               for group in range(self.num_groups)]
            self.in_use = [False] * renaming.num_physical

    def _drain_slots(self) -> int:
        return (self.la_len + self.lat_len + self.dram_access_slots
                + self.granularity)

    def _run_kernel(self, plan, num_slots: int, main: bool, bern) -> bool:
        return kernel.run_cfds_span_kernel(self, plan, num_slots, main=main,
                                           bern=bern)

    def run_span(self, plan, num_slots: int, main: bool = True) -> None:
        """Simulate ``num_slots`` slots starting at ``self.slot``, on the
        span kernel when :meth:`_kernel_route` can put it there, else on
        the loop below; see :meth:`_RADSCore.run_span`."""
        ran, plan = self._kernel_route(plan, num_slots, main)
        if ran:
            return
        buffer = self.buffer
        sim = self.sim
        num_queues = self.num_queues
        granularity = self.granularity  # the reduced granularity b
        strict = self.strict
        tail_cap = self.tail_cap
        dram_cap = self.dram_cap
        sram_cap = self.sram_cap
        la_len = self.la_len
        lat_len = self.lat_len
        tail_select = buffer.tail.mma.select
        head_select = buffer.head.mma.select
        fast_tail = self.fast_tail
        fast_ecqf = self.fast_ecqf
        ecqf_fallback = self.ecqf_fallback

        # Issue-period machinery (see the class docstring).
        rr = self.rr
        rr_cap = self.rr_cap
        rr_peak = self.rr_peak
        issues = self.issues
        orr = self.orr
        orr_len = len(orr)
        orr_pos = self.orr_pos
        locks = self.locks
        busy_until = self.busy_until
        ras = self.ras
        bus_slots = self.bus_slots
        dram_strict = self.dram_strict
        conflicts = self.conflicts
        last_issue = self.last_issue
        in_flight = self.in_flight
        flight_next = self.flight_next
        max_delay = self.max_delay
        num_groups = self.num_groups
        banks_per_group = self.banks_per_group
        group_cap = self.group_cap
        group_occ = self.group_occ
        names = self.names
        free_names = self.free_names
        in_use = self.in_use
        block_locations = self.block_locations
        write_count = self.write_count

        arbiter = sim.arbiter
        fast_random = self.fast_random
        if main and fast_random:
            arb_random = arbiter._rng.random
            arb_randbelow = arbiter._rng._randbelow
            arb_load = arbiter.load
            eligible = self.eligible
            next_request = None
        else:
            next_request = (arbiter.next_request
                            if main and arbiter is not None else None)
            eligible = self.eligible
        trace_events = (sim.trace.events
                        if main and sim.trace is not None else None)

        backlog = self.backlog
        next_seqno = self.next_seqno
        delivered = self.delivered
        arr_slots = self.arr_slots
        arr_base = self.arr_base
        tail_fifo = self.tail_fifo
        tail_occ = self.tail_occ
        tail_total = self.tail_total
        dram_fifo = self.dram_fifo
        dram_occ = self.dram_occ
        dram_total = self.dram_total
        sram_heap = self.sram_heap
        sram_total = self.sram_total
        counters = self.counters
        lookahead = self.lookahead
        la_pos = self.la_pos
        latency_reg = self.latency_reg
        lat_pos = self.lat_pos
        req_slots = self.req_slots
        req_head = self.req_head
        req_count = self.req_count
        negatives = self.negatives
        crit_cache = self.crit_cache
        crit_heap = self.crit_heap

        arrivals_count = self.arrivals_count
        departures = self.departures
        idle_requests = self.idle_requests
        cells_in = self.cells_in
        cells_out = self.cells_out
        dram_reads = self.dram_reads
        dram_writes = self.dram_writes
        dropped = self.dropped
        max_tail = self.max_tail
        max_head = self.max_head
        head_misses = self.head_misses
        tail_misses = self.tail_misses
        hist = self.hist
        drained = self.drained

        start = self.slot
        for slot in range(start, start + num_slots):
            if main:
                arrival = plan[slot - start] if plan is not None else None
                if fast_random:
                    if arb_random() >= arb_load or not eligible:
                        request = None
                    else:
                        request = eligible[arb_randbelow(len(eligible))]
                elif next_request is not None:
                    request = next_request(slot, backlog)
                    if request is not None:
                        if type(request) is int and 0 <= request < num_queues:
                            if backlog[request] <= 0:
                                request = None
                        else:
                            raise ArbiterContractError(request, num_queues,
                                                       slot)
                else:
                    request = None
                if trace_events is not None:
                    trace_events.append((arrival, request))
            else:
                arrival = None
                request = None
            period = slot % granularity == 0

            # -- arrival with cut-through routing.
            tail_seqno = -1
            if arrival is not None:
                if not 0 <= arrival < num_queues:
                    # The reference buffer's queue-keyed seqno table raises
                    # this for a queue it lacks; the engines raise alike.
                    raise KeyError(  # repro-lint: disable=error-taxonomy
                        arrival)
                seqno = next_seqno[arrival]
                next_seqno[arrival] = seqno + 1
                arr_slots[arrival].append(slot)
                if (dram_occ[arrival] == 0 and tail_occ[arrival] == 0
                        and len(sram_heap[arrival]) < granularity):
                    sram_total += 1
                    if sram_cap is not None and sram_total > sram_cap:
                        raise BufferOverflowError("SRAM", sram_cap, sram_total)
                    heappush(sram_heap[arrival], seqno)
                    count = counters[arrival] + 1
                    counters[arrival] = count
                    if fast_ecqf:
                        if count == 0:
                            negatives -= 1
                        if 0 <= count < req_count[arrival]:
                            entered = req_slots[arrival][req_head[arrival] + count]
                            crit_cache[arrival] = entered
                            heappush(crit_heap, (entered, arrival))
                        else:
                            crit_cache[arrival] = _INF
                else:
                    tail_seqno = seqno

            # -- tail subsystem: accept + threshold MMA eviction through the
            #    Requests Register.
            if tail_seqno >= 0:
                if tail_total + 1 > tail_cap:
                    tail_misses.append(None)
                    if strict:
                        raise BufferOverflowError("tail SRAM", tail_cap,
                                                  tail_total + 1)
                else:
                    tail_fifo[arrival].append(tail_seqno)
                    tail_occ[arrival] += 1
                    tail_total += 1
                    cells_in += 1
            if period:
                if fast_tail:
                    selection = None
                    if tail_total >= granularity:
                        best_occ = granularity - 1
                        for queue, occ in enumerate(tail_occ):
                            if occ > best_occ:
                                best_occ = occ
                                selection = queue
                else:
                    selection = tail_select(tail_occ)
                if selection is not None:
                    block: List[int] = []
                    _pop_block(tail_fifo[selection], granularity, block)
                    evicted = len(block)
                    tail_occ[selection] -= evicted
                    tail_total -= evicted
                    if block:
                        # Place the block: through the renaming register's
                        # tail entry (a new physical queue when its group is
                        # full), or in the queue's own group without
                        # renaming.  -1: no room, the block is dropped.
                        if names is not None:
                            entries = names[selection]
                            physical = -1
                            if entries:
                                entry = entries[-1]
                                physical = entry[0]
                                if (group_cap is not None
                                        and group_occ[physical % num_groups]
                                        + evicted > group_cap):
                                    physical = -1
                            if physical < 0:
                                physical = _allocate_name(
                                    free_names, group_occ, group_cap, evicted)
                                if physical >= 0:
                                    in_use[physical] = True
                                    entry = [physical, 0]
                                    entries.append(entry)
                            if physical >= 0:
                                entry[1] += evicted
                                group_occ[physical % num_groups] += evicted
                        else:
                            physical = selection
                            group = physical % num_groups
                            if (group_cap is not None
                                    and group_occ[group] + evicted > group_cap):
                                physical = -1
                            else:
                                group_occ[group] += evicted
                        if physical < 0:
                            dropped += evicted
                        else:
                            index = write_count[physical]
                            write_count[physical] = index + 1
                            fifo = dram_fifo[selection]
                            for seq in block:
                                if dram_cap is not None and dram_total >= dram_cap:
                                    raise BufferOverflowError("DRAM", dram_cap,
                                                              dram_total + 1)
                                fifo.append(seq)
                                dram_total += 1
                            dram_occ[selection] += evicted
                            block_locations[selection].append((physical, index))
                            if rr_cap is not None and len(rr) >= rr_cap:
                                raise BufferOverflowError(
                                    "Requests Register", rr_cap, len(rr) + 1)
                            rr.append(((physical % num_groups) * banks_per_group
                                       + index % banks_per_group,
                                       slot, -1, None))
                            if len(rr) > rr_peak:
                                rr_peak = len(rr)
                            dram_writes += 1
            if tail_total > max_tail:
                max_tail = tail_total

            # -- head subsystem: lookahead -> latency register -> MMA -> DSS
            #    tick -> serve (same phasing as CFDSHeadBuffer.step).
            if la_len:
                leaving = lookahead[la_pos]
                lookahead[la_pos] = request
                la_pos += 1
                if la_pos == la_len:
                    la_pos = 0
            else:
                leaving = request
            if lat_len:
                due = latency_reg[lat_pos]
                latency_reg[lat_pos] = leaving
                lat_pos += 1
                if lat_pos == lat_len:
                    lat_pos = 0
            else:
                due = leaving
            if fast_ecqf:
                if request is not None:
                    req_slots[request].append(slot)
                    count = req_count[request]
                    req_count[request] = count + 1
                    if counters[request] == count:
                        crit_cache[request] = slot
                        heappush(crit_heap, (slot, request))
                if due is not None:
                    count = counters[due] - 1
                    counters[due] = count
                    if count == -1:
                        negatives += 1
                        crit_cache[due] = _INF
                    head = req_head[due] + 1
                    pipeline = req_slots[due]
                    if head == len(pipeline):
                        pipeline.clear()
                        head = 0
                    elif head >= _COMPACT and head * 2 >= len(pipeline):
                        del pipeline[:head]
                        head = 0
                    req_head[due] = head
                    req_count[due] -= 1
            elif due is not None:
                counters[due] -= 1
            if period:
                if fast_ecqf:
                    selection = _ecqf_select(counters, negatives, req_count,
                                             crit_heap, crit_cache,
                                             ecqf_fallback)
                else:
                    # The MMA reasons over every promised-but-unserved
                    # request in service order: latency register first, then
                    # the lookahead.
                    pending_view = (latency_reg[lat_pos:] + latency_reg[:lat_pos]
                                    if lat_len else [])
                    if la_len:
                        pending_view = (pending_view + lookahead[la_pos:]
                                        + lookahead[:la_pos])
                    selection = head_select(list(counters), pending_view)
                if selection is not None:
                    seqs: List[int] = []
                    if dram_occ[selection] > 0:
                        _pop_block(dram_fifo[selection], granularity, seqs)
                        got = len(seqs)
                        dram_occ[selection] -= got
                        dram_total -= got
                        physical, index = block_locations[selection].popleft()
                        if names is not None:
                            # Debit the renaming register's head entries;
                            # a drained physical queue returns to its
                            # group's free names.
                            entries = names[selection]
                            remaining = got
                            while remaining:
                                entry = entries[0]
                                name = entry[0]
                                count = entry[1]
                                take = count if count < remaining else remaining
                                group_occ[name % num_groups] -= take
                                remaining -= take
                                if count == take:
                                    entries.popleft()
                                    if in_use[name]:
                                        in_use[name] = False
                                        free_names[name % num_groups].append(
                                            name)
                                else:
                                    entry[1] = count - take
                        else:
                            group_occ[physical % num_groups] -= got
                        bank = ((physical % num_groups) * banks_per_group
                                + index % banks_per_group)
                    else:
                        _pop_block(tail_fifo[selection], granularity, seqs)
                        got = len(seqs)
                        tail_occ[selection] -= got
                        tail_total -= got
                        bank = -1
                    if seqs:
                        count = counters[selection] + got
                        counters[selection] = count
                        if fast_ecqf:
                            if count >= 0 and count - got < 0:
                                negatives -= 1
                            if 0 <= count < req_count[selection]:
                                entered = req_slots[selection][
                                    req_head[selection] + count]
                                crit_cache[selection] = entered
                                heappush(crit_heap, (entered, selection))
                            else:
                                crit_cache[selection] = _INF
                        if bank < 0:
                            # Cut-through: available to the head SRAM
                            # immediately.
                            heap = sram_heap[selection]
                            for seq in seqs:
                                sram_total += 1
                                if sram_cap is not None and sram_total > sram_cap:
                                    raise BufferOverflowError("SRAM", sram_cap,
                                                              sram_total)
                                heappush(heap, seq)
                        else:
                            if rr_cap is not None and len(rr) >= rr_cap:
                                raise BufferOverflowError(
                                    "Requests Register", rr_cap, len(rr) + 1)
                            rr.append((bank, slot, selection, seqs))
                            if len(rr) > rr_peak:
                                rr_peak = len(rr)
                            dram_reads += 1

            # -- DSS tick (DRAMSchedulerSubsystem.tick): collect the
            #    transfers that completed, issue on a period boundary, then
            #    land the completed reads in the head SRAM.
            landed = None
            if flight_next <= slot:
                landed = []
                still = []
                flight_next = _INF
                for transfer in in_flight:
                    finish = transfer[0]
                    if finish <= slot:
                        delay = finish - transfer[1][1]
                        if delay > max_delay:
                            max_delay = delay
                        if transfer[1][3] is not None:
                            landed.append(transfer[1])
                    else:
                        still.append(transfer)
                        if finish < flight_next:
                            flight_next = finish
                in_flight[:] = still
            if period:
                # The DSA: up to ``issues`` oldest entries whose bank is
                # neither locked by the ORR nor issued this period.
                issued = ()
                if rr:
                    issued = []
                    position = 0
                    while position < len(rr):
                        entry = rr[position]
                        bank = entry[0]
                        if locks[bank] or bank in issued:
                            position += 1
                            continue
                        del rr[position]
                        # BankedDRAM.start_access.
                        if (last_issue is not None
                                and slot - last_issue < bus_slots
                                and slot != last_issue):
                            raise ConfigurationError(
                                f"address bus violation: accesses at slots "
                                f"{last_issue} and {slot} are closer than "
                                f"{bus_slots} slots")
                        busy = busy_until[bank]
                        if slot < busy:
                            conflicts += 1
                            if dram_strict:
                                raise BankConflictError(bank, slot, busy)
                            finish = busy + ras
                        else:
                            finish = slot + ras
                        busy_until[bank] = finish
                        last_issue = slot
                        in_flight.append((finish, entry))
                        if finish < flight_next:
                            flight_next = finish
                        issued.append(bank)
                        if len(issued) == issues:
                            break
                    issued = tuple(issued)
                if orr_len:
                    for bank in orr[orr_pos]:
                        locks[bank] -= 1
                    orr[orr_pos] = issued
                    for bank in issued:
                        locks[bank] += 1
                    orr_pos += 1
                    if orr_pos == orr_len:
                        orr_pos = 0
            if landed:
                for entry in landed:
                    heap = sram_heap[entry[2]]
                    for seq in entry[3]:
                        sram_total += 1
                        if sram_cap is not None and sram_total > sram_cap:
                            raise BufferOverflowError("SRAM", sram_cap,
                                                      sram_total)
                        heappush(heap, seq)

            if due is not None:
                expected = delivered[due]
                heap = sram_heap[due]
                if heap and heap[0] == expected:
                    heappop(heap)
                    sram_total -= 1
                elif tail_occ[due] and tail_fifo[due][0] == expected:
                    tail_fifo[due].popleft()
                    tail_occ[due] -= 1
                    tail_total -= 1
                else:
                    head_misses.append(MissRecord(queue=due, slot=slot))
                    if strict:
                        raise CacheMissError(due, slot)
                    expected = None
                if expected is not None:
                    delivered[due] = expected + 1
                    cells_out += 1
                    store = arr_slots[due]
                    head = expected - arr_base[due]
                    arrival_slot = store[head]
                    if head >= _COMPACT - 1 and (head + 1) * 2 >= len(store):
                        del store[:head + 1]
                        arr_base[due] = expected + 1
                    if main:
                        departures += 1
                        delay = slot + 1 - arrival_slot
                        hist[delay] = hist.get(delay, 0) + 1
                    else:
                        drained.append(arrival_slot)
            if sram_total > max_head:
                max_head = sram_total

            if main:
                if arrival is not None:
                    arrivals_count += 1
                    count = backlog[arrival] + 1
                    backlog[arrival] = count
                    if fast_random and count == 1:
                        insort(eligible, arrival)
                if request is None:
                    idle_requests += 1
                else:
                    count = backlog[request] - 1
                    backlog[request] = count
                    if fast_random and count == 0:
                        del eligible[bisect_left(eligible, request)]

        self.slot = start + num_slots
        if main:
            self.main_slots += num_slots
        self.tail_total = tail_total
        self.dram_total = dram_total
        self.sram_total = sram_total
        self.la_pos = la_pos
        self.lat_pos = lat_pos
        self.negatives = negatives
        self.rr_peak = rr_peak
        self.orr_pos = orr_pos
        self.conflicts = conflicts
        self.last_issue = last_issue
        self.flight_next = flight_next
        self.max_delay = max_delay
        self.arrivals_count = arrivals_count
        self.departures = departures
        self.idle_requests = idle_requests
        self.cells_in = cells_in
        self.cells_out = cells_out
        self.dram_reads = dram_reads
        self.dram_writes = dram_writes
        self.dropped = dropped
        self.max_tail = max_tail
        self.max_head = max_head

    # ------------------------------------------------------------------ #
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
