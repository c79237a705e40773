"""Numpy-batched simulation core — the ``engine="numpy"`` fast path.

The struct-of-arrays engine (:mod:`repro.sim.array_engine`) already removed
the per-cell object traffic; what dominates its profile on long closed-loop
runs is the *RNG-facing* per-slot work — two method calls into
``random.Random`` per slot for the arbiter's load gate and ``_randbelow``
draw, plus the arrival process's own per-slot draws.  This module batches
exactly that:

* **Arbiter draws are precomputed per span.**  ``random.Random`` is a
  Mersenne Twister; its 624-word state converts losslessly to
  ``numpy.random.MT19937``, whose ``random_raw`` emits the identical 32-bit
  word stream in bulk.  ``random() < load`` is decided for *every word
  position at once* with one vectorized integer compare (``random()``
  returns ``comb / 2**53`` with ``comb`` assembled from two words, and
  ``load * 2**53`` is exact — a float in [0, 1] only has its exponent
  shifted — so ``comb < ceil(load * 2**53)`` is the bit-exact gate).
  ``_randbelow(m)`` for ``m ≤ 255`` reads the top ``m.bit_length()`` bits of
  one word per try, so the whole rejection chain decodes from a
  precomputed top-byte table.  The slot loop then consumes plain ``bytes``
  — no RNG calls, no object boxing — and the number of words actually
  consumed is written back to the ``Random`` instance afterwards, leaving
  the RNG state bit-identical to the scalar run's.
* **Arrival plans are vectorized.**  ``BernoulliArrivals`` consumes one
  gate draw per slot plus one ``choices()`` draw per arrival; the gate
  outcomes decode in one vectorized compare, the pair-consumption parse is
  a tight byte scan, and the weighted choice is one ``searchsorted`` over
  the same cumulative-weight list (clamped exactly like the scalar
  ``bisect``).  The process RNG is advanced by exactly the words the
  scalar loop would have consumed.
* **Measurement is deferred.**  Latency samples accumulate in a flat list
  folded through ``collections.Counter`` once per span; arrivals and idle
  request slots are recovered by counting the plan, not per slot; the
  tail-MMA max-scan is gated on an incrementally maintained count of
  queues at/above one block (the scan fires iff that count is non-zero —
  algebraically the same selection).

The core subclasses the array engine's RADS core, so the machine state
layout, checkpoint pickling, drain window, warmup discard and report
assembly are all shared.  Each span goes to the compiled span kernel
(:mod:`repro.sim.kernel`) when its own test passes — stock policies, a
non-empty lookahead, ``num_queues`` up to ``MAX_KERNEL_QUEUES`` (65536), an
untraced run, at least ``MIN_KERNEL_SLOTS`` slots and a loaded kernel.
Otherwise a main span runs the fused loop described above, whose limit
is narrower: ``num_queues <= 254`` (its top-byte decode and ``bytes``
plan).  Every span neither covers — short drain spans, custom
policies/arbiters, traced runs, zero-length lookahead, machines past 254
queues without the kernel, or numpy missing at resume time — runs on the
inherited scalar loop, which keeps resumed checkpoints and CFDS exact:
**CFDS falls back to the array core per span** (the issue-period
machinery is borrowed from the buffer object and is not vectorized yet).
With metrics enabled, the slots of a span that misses the kernel are
counted as ``engine.numpy.fallback.<reason>``.

Bit-identity of the resulting reports against the reference loop is
asserted by ``tests/sim/test_numpy_engine.py`` and the cross-engine
differential fuzzer.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import Counter
from heapq import heappop, heappush
from itertools import accumulate
from typing import List, Optional

try:  # The numpy extra is optional: gate, never hard-fail at import.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

from repro.errors import (
    BufferOverflowError,
    CacheMissError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.obs.metrics import get_metrics
from repro.sim.array_engine import (
    _COMPACT,
    _INF,
    _RADSCore,
    _arrival_plan,
    _ecqf_select,
    build_array_core,
)
from repro.traffic.arrivals import BernoulliArrivals
from repro.types import MissRecord

#: True when the optional numpy dependency is importable.
NUMPY_AVAILABLE = _np is not None

#: 2**53 — ``Random.random()`` returns ``comb / 2**53``.
_F53 = 9007199254740992

#: Words generated per stream refill (and per mid-slot extension).
_RAW_CHUNK = 16384

#: Unconsumed words guaranteed at every slot top (2 gate words + slack for
#: the rejection chain; the chain re-checks against the true end anyway).
_MARGIN = 80

#: "No pending landing" sentinel (compares greater than any slot).
_NEVER = 1 << 62

#: Plan byte meaning "no arrival this slot" (queues are 0..253).
_NO_ARRIVAL = 255

if NUMPY_AVAILABLE:
    _U5 = _np.uint64(5)
    _U6 = _np.uint64(6)
    _U24 = _np.uint64(24)
    _U26 = _np.uint64(26)


def require_numpy(feature: str = 'engine="numpy"') -> None:
    """Raise :class:`~repro.errors.ConfigurationError` naming the extra
    when numpy is unavailable (mirrors the PyYAML gating of spec files)."""
    if _np is None:
        raise ConfigurationError(
            f"{feature} requires the optional numpy dependency; install it "
            "with `pip install repro-packet-buffers[numpy]` (or `pip "
            "install numpy`), or use one of the pure-python engines: "
            "reference, batched, array")


# --------------------------------------------------------------------- #
# Mersenne Twister stream sync
# --------------------------------------------------------------------- #

def _bitgen_from(state):
    """A ``numpy.random.MT19937`` positioned exactly at ``state`` (a
    ``random.Random.getstate()`` tuple) — both sides are the reference
    32-bit Mersenne Twister, so the raw word streams coincide."""
    internal = state[1]
    bg = _np.random.MT19937()
    bg.state = {"bit_generator": "MT19937",
                "state": {"key": _np.array(internal[:624], dtype=_np.uint32),
                          "pos": internal[624]}}
    return bg


def _writeback(rng, start_state, consumed: int) -> None:
    """Advance ``rng`` to exactly ``consumed`` 32-bit words past
    ``start_state`` — the state the scalar loop would have left behind
    (``random()``/``getrandbits`` do not touch the gauss cache, which is
    preserved verbatim)."""
    bg = _bitgen_from(start_state)
    if consumed:
        bg.random_raw(consumed)
    inner = bg.state["state"]
    rng.setstate((3, tuple(int(k) for k in inner["key"]) + (int(inner["pos"]),),
                  start_state[2]))


def _gate_threshold(load: float) -> int:
    # ``load * 2**53`` is exact for any float in [0, 1] (the mantissa is
    # only shifted), so ``u < load  <=>  comb < ceil(load * 2**53)`` with
    # ``comb`` the 53-bit integer behind ``random()``.
    return math.ceil(load * float(_F53))


# --------------------------------------------------------------------- #
# Vectorized arrival plans
# --------------------------------------------------------------------- #

def _plan_bernoulli(proc, num_slots: int):
    """``BernoulliArrivals.arrivals(num_slots)``, vectorized and bit-exact.

    Returns the plan as ``bytes`` (255 = no arrival) when every queue id
    fits a byte, a plain ``Optional[int]`` list otherwise, or ``None`` to
    defer to the scalar path (degenerate all-zero weights).
    """
    cum_weights = list(accumulate(proc.weights))
    total = cum_weights[-1] + 0.0
    if total <= 0.0:
        return None
    rng = proc._rng
    state = rng.getstate()
    bg = _bitgen_from(state)
    tint = _np.uint64(_gate_threshold(proc.load))
    # Pair space: every draw is two words; a slot consumes the gate draw
    # plus, when it passes, one choice draw — at most two pairs per slot.
    w = bg.random_raw(4 * num_slots + 2)
    comb = (w >> _U5) << _U26
    comb[:-1] |= w[1:] >> _U6
    comb = comb[::2][:2 * num_slots + 1]          # draw k uses words 2k, 2k+1
    passed = (comb < tint).tobytes()
    gates: List[int] = []
    gapp = gates.append
    j = 0
    for _ in range(num_slots):
        if passed[j]:
            gapp(j)
            j += 2
        else:
            j += 1
    _writeback(rng, state, 2 * j)
    wide = proc.num_queues > 254
    if not gates:
        return [None] * num_slots if wide else b"\xff" * num_slots
    g = _np.array(gates, dtype=_np.int64)
    # random.choices inline: queue = bisect(cum_weights, u * total, 0, hi).
    u = comb[g + 1].astype(_np.float64) * (1.0 / _F53)
    hi = proc.num_queues - 1
    idx = _np.searchsorted(_np.array(cum_weights[:hi], dtype=_np.float64),
                           u * total, side="right")
    # The k-th passing gate sits k pairs past its slot index.
    slots = g - _np.arange(len(gates), dtype=_np.int64)
    if wide:
        out: List[Optional[int]] = [None] * num_slots
        for s, q in zip(slots.tolist(), idx.tolist()):
            out[s] = q
        return out
    plan = _np.full(num_slots, _NO_ARRIVAL, dtype=_np.uint8)
    plan[slots] = idx.astype(_np.uint8)
    return plan.tobytes()


class _DeferredPlan:
    """A Bernoulli arrival plan that has not been drawn yet.

    Monolithic runs hand this to :meth:`_NumpyRADSCore.run_span` so the
    compiled span kernel can draw the plan natively (same words, same
    doubles); any path that needs the materialized plan calls
    :meth:`materialize`, which advances the process RNG exactly as the
    scalar ``arrivals()`` call would have at this point.
    """

    __slots__ = ("proc", "num_slots", "tint", "cum_weights", "total")

    def __init__(self, proc, num_slots: int) -> None:
        self.proc = proc
        self.num_slots = num_slots
        self.cum_weights = list(accumulate(proc.weights))
        self.total = self.cum_weights[-1] + 0.0
        self.tint = _gate_threshold(proc.load)

    def materialize(self):
        return _plan_bernoulli(self.proc, self.num_slots)


def _numpy_plan(sim, num_slots: int):
    """The arrival plan for a monolithic numpy run: left for the span
    kernel to draw (a :class:`_DeferredPlan`, vectorized if a python loop
    needs it) when the process is (a subclass of) ``BernoulliArrivals``
    running the stock batched method, the scalar plan otherwise."""
    if sim.arrivals is None:
        return None
    proc = sim.arrivals
    if (_np is not None and num_slots > 0 and isinstance(proc, BernoulliArrivals)
            and type(proc).arrivals is BernoulliArrivals.arrivals):
        deferred = _DeferredPlan(proc, num_slots)
        if deferred.total > 0.0:
            return deferred
    return _arrival_plan(sim, num_slots)


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #

def run_numpy(sim, num_slots: int, drain: bool = True):
    """Run ``sim`` on the numpy core — same contract as ``run_array``."""
    if num_slots < 0:
        raise ConfigurationError("num_slots must be non-negative")
    core = build_numpy_core(sim)
    if isinstance(core, _NumpyRADSCore):
        plan = _numpy_plan(sim, num_slots)
    else:
        # CFDS (and any other fallback core) runs the scalar span loop,
        # which consumes Optional[int] plans, never plan bytes.
        plan = _arrival_plan(sim, num_slots)
    if (drain and isinstance(core, _NumpyRADSCore)
            and core.run_fused(plan, num_slots)):
        return core.finish(drain=False)
    core.run_span(plan, num_slots)
    return core.finish(drain=drain)


def build_numpy_core(sim):
    """Build the numpy core for ``sim``'s buffer scheme.

    RADS gets the fused core below; CFDS falls back to the array core
    (span-compatible, so streaming/checkpoints behave identically).
    Raises :class:`~repro.errors.ConfigurationError` when numpy is missing
    and :class:`~repro.errors.StaleSimulationError` for a stepped sim.
    """
    from repro.rads.buffer import RADSPacketBuffer

    require_numpy()
    buffer = sim.buffer
    if not isinstance(buffer, RADSPacketBuffer):
        return build_array_core(sim)
    if buffer.slot != 0 or sim.throughput.slots != 0:
        raise StaleSimulationError(
            "the numpy engine replays a run from slot 0 and requires a "
            "freshly built simulation (build a new buffer for every run)")
    obs = get_metrics()
    if obs is not None:
        obs.inc("engine.numpy.cores_built")
    return _NumpyRADSCore(sim, buffer)


# --------------------------------------------------------------------- #
# The fused RADS core
# --------------------------------------------------------------------- #

class _NumpyRADSCore(_RADSCore):
    """RADS core whose main spans run the span kernel or the fused
    precomputed-stream loop.

    State layout, drain, finish and reporting are inherited; any span
    neither fast path can cover bit-exactly is delegated to the scalar
    loop on the *same* state, so mixing kernel, fused and scalar spans
    (checkpoints, drains, no-numpy resume) is seamless.
    """

    def __init__(self, sim, buffer) -> None:
        super().__init__(sim, buffer)
        self._fusable = (self.fast_random and self.fast_ecqf
                         and self.fast_tail and self.num_queues <= 254
                         and self.la_len > 0)
        # 8 - m.bit_length(): the top-byte shift of _randbelow(m), m <= 254.
        self._bl8 = [0] + [8 - m.bit_length()
                           for m in range(1, self.num_queues + 1)]

    # ------------------------------------------------------------------ #
    def _kernel_miss(self, num_slots: int) -> Optional[str]:
        """Why a span of ``num_slots`` cannot run on the span kernel — the
        ``<reason>`` of its ``engine.numpy.fallback.<reason>`` counter — or
        ``None`` when it can.  This is the kernel's own test: unlike the
        fused loop, it takes any ``num_queues`` up to
        ``MAX_KERNEL_QUEUES``."""
        from repro.sim.kernel import (
            MAX_KERNEL_QUEUES,
            MIN_KERNEL_SLOTS,
            load_kernel,
        )

        if not (self.fast_random and self.fast_ecqf and self.fast_tail):
            return "policy"
        if self.la_len <= 0:
            return "no_lookahead"
        if self.num_queues > MAX_KERNEL_QUEUES:
            return "wide_queues"
        if self.sim.trace is not None:
            return "traced"
        if num_slots < MIN_KERNEL_SLOTS:
            return "short_span"
        if _np is None or load_kernel() is None:
            return "unavailable"
        return None

    def _materialized(self, plan, num_slots: int):
        """``plan`` with a deferred Bernoulli plan drawn in python."""
        if isinstance(plan, _DeferredPlan):
            plan = plan.materialize()
            if plan is None:  # pragma: no cover - deferred only when total>0
                return _arrival_plan(self.sim, num_slots)
        return plan

    def _scalar_plan(self, plan, num_slots: int):
        """Normalize ``plan`` for the inherited scalar loop, which consumes
        ``Optional[int]`` entries (never plan bytes or deferred plans)."""
        plan = self._materialized(plan, num_slots)
        if isinstance(plan, (bytes, bytearray)):
            return [None if b == _NO_ARRIVAL else b for b in plan]
        return plan

    def run_fused(self, plan, num_slots: int) -> bool:
        """Run the main window *and* the drain window in one kernel call.

        The drain window's length (``la_len + granularity``) is known up
        front, so the monolithic ``run_numpy`` path can hand both to the
        kernel at once and pay a single state marshal instead of two.
        ``True`` means both windows ran — the caller finishes with
        ``drain=False``; ``False`` leaves the core (and any deferred
        plan's RNG) untouched.  A declined call records no fallback: the
        caller then runs each window through :meth:`run_span`, which
        decides, and counts, each one itself.
        """
        if num_slots <= 0 or self._kernel_miss(num_slots) is not None:
            return False
        from repro.sim.kernel import run_span_kernel

        self._check_not_finished()
        drain_slots = self._drain_slots()
        done = False
        if isinstance(plan, _DeferredPlan):
            proc = plan.proc
            if (plan.num_slots == num_slots
                    and proc._rng is not self.sim.arbiter._rng):
                done = run_span_kernel(
                    self, None, num_slots, main=True,
                    bern=(proc._rng, plan.tint, plan.cum_weights,
                          plan.total),
                    drain_slots=drain_slots)
        elif plan is None or len(plan) >= num_slots:
            done = run_span_kernel(self, plan, num_slots, main=True,
                                   drain_slots=drain_slots)
        if done:
            obs = get_metrics()
            if obs is not None:
                # Counted as the two spans the unfused path would run.
                obs.inc("engine.numpy.spans", 2)
                obs.inc("engine.numpy.span_slots", num_slots + drain_slots)
        return done

    def run_span(self, plan, num_slots: int, main: bool = True) -> None:
        if num_slots <= 0:
            return super().run_span(self._scalar_plan(plan, num_slots),
                                    num_slots, main)
        self._check_not_finished()
        obs = get_metrics()
        if obs is not None:
            obs.inc("engine.numpy.spans")
            obs.inc("engine.numpy.span_slots", num_slots)
        miss = self._kernel_miss(num_slots)
        if miss is not None:
            if obs is not None:
                obs.inc(f"engine.numpy.fallback.{miss}", num_slots)
        else:
            from repro.sim.kernel import run_span_kernel

            if isinstance(plan, _DeferredPlan):
                # Let the kernel draw the Bernoulli plan natively (the
                # arrival process must not share the arbiter's RNG object —
                # the scalar loop consumes the plan's words strictly first).
                proc = plan.proc
                if proc._rng is self.sim.arbiter._rng:
                    if obs is not None:
                        obs.inc("engine.numpy.fallback.shared_rng",
                                num_slots)
                elif (plan.num_slots == num_slots
                        and run_span_kernel(
                            self, None, num_slots, main=True,
                            bern=(proc._rng, plan.tint, plan.cum_weights,
                                  plan.total))):
                    return None
                plan = self._materialized(plan, num_slots)
            if ((plan is None or len(plan) >= num_slots)
                    and run_span_kernel(self, plan, num_slots, main=main)):
                return None
        if not (main and self._fusable and self.sim.trace is None
                and _np is not None):
            return super().run_span(self._scalar_plan(plan, num_slots),
                                    num_slots, main)
        plan = self._materialized(plan, num_slots)
        if isinstance(plan, (bytes, bytearray)):
            aplan = plan
        elif plan is None:
            aplan = b"\xff" * num_slots
        else:
            aplan = bytes(_NO_ARRIVAL if a is None else a for a in plan)
        if len(aplan) < num_slots:
            return super().run_span(self._scalar_plan(plan, num_slots),
                                    num_slots, main)

        granularity = self.granularity
        strict = self.strict
        tail_cap = self.tail_cap
        dram_cap = self.dram_cap
        sram_cap = self.sram_cap
        la_len = self.la_len
        ecqf_fallback = self.ecqf_fallback

        arbiter = self.sim.arbiter
        rng = arbiter._rng
        eligible = self.eligible
        bl8 = self._bl8

        # -- precomputed arbiter stream ---------------------------------
        start_state = rng.getstate()
        bg = _bitgen_from(start_state)
        tint = _np.uint64(_gate_threshold(arbiter.load))

        def _decode(warr):
            comb = (warr >> _U5) << _U26
            comb[:-1] |= warr[1:] >> _U6
            return ((comb < tint).tobytes(),
                    (warr >> _U24).astype(_np.uint8).tobytes())

        first = min(4 * num_slots + _MARGIN, 1 << 18)
        w = bg.random_raw(first)
        G, WB = _decode(w)
        p = 0
        consumed = 0
        lim = len(G) - _MARGIN
        hard = len(G) - 1

        # -- flat state (identical layout to the scalar loop) -----------
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

        delays: List[int] = []
        delays_append = delays.append
        grants = 0
        big_cnt = sum(1 for occ in tail_occ if occ >= granularity)
        next_land = pending[0][0] if pending else _NEVER
        g1 = granularity - 1
        start = self.slot
        # Policy countdown: fires (pc < 0 after decrement) on slots where
        # slot % granularity == 0, i.e. after (g - start % g) % g slots.
        pc = (granularity - start % granularity) % granularity
        error = None
        slot = start
        try:
            for slot, a in zip(range(start, start + num_slots), aplan):
                pol = False
                pc -= 1
                if pc < 0:
                    pc = g1
                    pol = True

                # -- arbiter: precomputed gate + rejection chain --------
                if p >= lim:
                    consumed += p
                    w = _np.concatenate([w[p:], bg.random_raw(_RAW_CHUNK)])
                    G, WB = _decode(w)
                    p = 0
                    lim = len(G) - _MARGIN
                    hard = len(G) - 1
                if G[p]:
                    m = len(eligible)
                    if m:
                        sh = bl8[m]
                        t = p + 2
                        r = WB[t] >> sh
                        while r >= m:
                            t += 1
                            if t >= hard:  # pragma: no cover - astronomically rare
                                w = _np.concatenate([w, bg.random_raw(_RAW_CHUNK)])
                                G, WB = _decode(w)
                                lim = len(G) - _MARGIN
                                hard = len(G) - 1
                            r = WB[t] >> sh
                        p = t + 1
                        request = eligible[r]
                    else:
                        request = None
                        p += 2
                else:
                    request = None
                    p += 2

                # -- arrival: cut through or enqueue for the tail -------
                if a != 255:
                    seqno = next_seqno[a]
                    next_seqno[a] = seqno + 1
                    arr_slots[a].append(slot)
                    if (dram_occ[a] == 0 and tail_occ[a] == 0
                            and len(sram_heap[a]) < granularity):
                        sram_total += 1
                        if sram_cap is not None and sram_total > sram_cap:
                            raise BufferOverflowError("SRAM", sram_cap,
                                                      sram_total)
                        heappush(sram_heap[a], seqno)
                        count = counters[a] + 1
                        counters[a] = count
                        if count == 0:
                            negatives -= 1
                        if 0 <= count < req_count[a]:
                            entered = req_slots[a][req_head[a] + count]
                            crit_cache[a] = entered
                            heappush(crit_heap, (entered, a))
                        else:
                            crit_cache[a] = _INF
                    elif tail_total >= tail_cap:
                        tail_misses.append(None)
                        if strict:
                            raise BufferOverflowError("tail SRAM", tail_cap,
                                                      tail_total + 1)
                    else:
                        tail_fifo[a].push(seqno)
                        occ = tail_occ[a] + 1
                        tail_occ[a] = occ
                        tail_total += 1
                        cells_in += 1
                        if occ == granularity:
                            big_cnt += 1
                        if not pol and tail_total > max_tail:
                            max_tail = tail_total

                # -- tail MMA (threshold scan, gated on the block count) -
                if pol:
                    if big_cnt:
                        selection = -1
                        best_occ = g1
                        for queue, occ in enumerate(tail_occ):
                            if occ > best_occ:
                                best_occ = occ
                                selection = queue
                        if selection >= 0:
                            block: List[int] = []
                            tail_fifo[selection].pop_block(granularity, block)
                            evicted = len(block)
                            occ_b = tail_occ[selection]
                            occ_a = occ_b - evicted
                            tail_occ[selection] = occ_a
                            tail_total -= evicted
                            if occ_b >= granularity and occ_a < granularity:
                                big_cnt -= 1
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
                                        if (dram_cap is not None
                                                and dram_total >= dram_cap):
                                            raise BufferOverflowError(
                                                "DRAM", dram_cap,
                                                dram_total + 1)
                                        fifo.push(seq)
                                        dram_total += 1
                                    dram_occ[selection] += stored
                                dram_writes += 1
                    if tail_total > max_tail:
                        max_tail = tail_total

                # -- head: lookahead shift, ECQF bookkeeping ------------
                leaving = lookahead[la_pos]
                lookahead[la_pos] = request
                la_pos += 1
                if la_pos == la_len:
                    la_pos = 0
                if request is not None:
                    req_slots[request].append(slot)
                    count = req_count[request]
                    req_count[request] = count + 1
                    if counters[request] == count:
                        crit_cache[request] = slot
                        heappush(crit_heap, (slot, request))
                if leaving is not None:
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

                # -- transfer landings ----------------------------------
                if next_land <= slot:
                    while pending and pending[0][0] <= slot:
                        _, landing_queue, seqs = pending.popleft()
                        heap = sram_heap[landing_queue]
                        for seq in seqs:
                            sram_total += 1
                            if sram_cap is not None and sram_total > sram_cap:
                                raise BufferOverflowError("SRAM", sram_cap,
                                                          sram_total)
                            heappush(heap, seq)
                    next_land = pending[0][0] if pending else _NEVER

                # -- ECQF select + replenish ----------------------------
                if pol:
                    selection = _ecqf_select(counters, negatives, req_count,
                                             crit_heap, crit_cache,
                                             ecqf_fallback)
                    if selection is not None:
                        seqs: List[int] = []
                        if dram_occ[selection]:
                            dram_fifo[selection].pop_block(granularity, seqs)
                            got = len(seqs)
                            dram_occ[selection] -= got
                            dram_total -= got
                        else:
                            got = 0
                        if got < granularity:
                            tail_fifo[selection].pop_block(granularity - got,
                                                           seqs)
                            extra = len(seqs) - got
                            if extra:
                                occ_b = tail_occ[selection]
                                occ_a = occ_b - extra
                                tail_occ[selection] = occ_a
                                tail_total -= extra
                                if (occ_b >= granularity
                                        and occ_a < granularity):
                                    big_cnt -= 1
                        if seqs:
                            count = counters[selection] + len(seqs)
                            counters[selection] = count
                            if count >= 0 and count - len(seqs) < 0:
                                negatives -= 1
                            if 0 <= count < req_count[selection]:
                                entered = req_slots[selection][
                                    req_head[selection] + count]
                                crit_cache[selection] = entered
                                heappush(crit_heap, (entered, selection))
                            else:
                                crit_cache[selection] = _INF
                            if not pending:
                                next_land = slot + granularity
                            pending.append((slot + granularity, selection,
                                            seqs))
                            dram_reads += 1

                # -- serve ----------------------------------------------
                if leaving is not None:
                    expected = delivered[leaving]
                    heap = sram_heap[leaving]
                    if heap and heap[0] == expected:
                        heappop(heap)
                        sram_total -= 1
                    elif (tail_occ[leaving]
                          and tail_fifo[leaving].peekleft() == expected):
                        # Tail bypass: the in-order cell never left the tail.
                        tail_fifo[leaving].popleft()
                        occ = tail_occ[leaving] - 1
                        tail_occ[leaving] = occ
                        tail_total -= 1
                        if occ == g1:
                            big_cnt -= 1
                    else:
                        head_misses.append(MissRecord(queue=leaving,
                                                      slot=slot))
                        if strict:
                            raise CacheMissError(leaving, slot)
                        expected = None
                    if expected is not None:
                        delivered[leaving] = expected + 1
                        cells_out += 1
                        store = arr_slots[leaving]
                        head = expected - arr_base[leaving]
                        arrival_slot = store[head]
                        if (head >= _COMPACT - 1
                                and (head + 1) * 2 >= len(store)):
                            del store[:head + 1]
                            arr_base[leaving] = expected + 1
                        delays_append(slot + 1 - arrival_slot)
                if sram_total > max_head:
                    max_head = sram_total

                # -- end of slot: backlog + eligible --------------------
                if a != 255:
                    count = backlog[a] + 1
                    backlog[a] = count
                    if count == 1:
                        insort(eligible, a)
                if request is not None:
                    grants += 1
                    count = backlog[request] - 1
                    backlog[request] = count
                    if count == 0:
                        del eligible[bisect_left(eligible, request)]
        except BaseException as exc:
            error = exc

        # -- epilogue (success and exception share the RNG/hist fold) ---
        _writeback(rng, start_state, consumed + p)
        if delays:
            for delay, count in Counter(delays).items():
                hist[delay] = hist.get(delay, 0) + count
        if error is not None:
            # The scalar loop loses its local counters on a raise (the
            # machine containers and the histogram keep their in-place
            # mutations) — reproduce exactly that state.
            raise error
        done = num_slots
        self.slot = start + done
        self.main_slots += done
        self.tail_total = tail_total
        self.dram_total = dram_total
        self.sram_total = sram_total
        self.la_pos = la_pos
        self.negatives = negatives
        self.arrivals_count += done - aplan.count(255, 0, done)
        self.departures += len(delays)
        self.idle_requests += done - grants
        self.cells_in = cells_in
        self.cells_out = cells_out
        self.dram_reads = dram_reads
        self.dram_writes = dram_writes
        self.dropped = dropped
        self.max_tail = max_tail
        self.max_head = max_head
