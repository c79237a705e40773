"""Per-slot cell arrival processes.

An arrival process answers one question per slot: "which queue (if any) does
the cell arriving this slot belong to?" — at most one cell can arrive per slot
because the write port of the buffer runs at the line rate.

All stochastic processes take an explicit seed so experiments and
property-based tests are reproducible.

The stochastic processes additionally override the generic :meth:`arrivals`
generator with a *batch* implementation: RNG method lookups are hoisted into
locals and a preallocated list is filled in one tight loop.  The batch form
draws from the RNG in exactly the same order as repeated
:meth:`next_arrival` calls, so the two are stream-identical (asserted by the
traffic test suite) — which is what lets the array engine and the
streaming path pre-generate arrival plans without perturbing any random
stream.
"""

from __future__ import annotations

import abc
import random
from bisect import bisect
from itertools import accumulate
from math import isfinite
from typing import Iterable, List, Optional, Sequence

from repro.errors import ValidationError

class ArrivalProcess(abc.ABC):
    """Interface of every arrival process."""

    #: True when :meth:`next_arrival` ignores its ``slot`` argument (the
    #: process is a pure function of its internal state, as every stochastic
    #: process here is).  Slot-invariant processes serve
    #: :meth:`arrivals_slice` straight from their batch fast path.
    slot_invariant = False

    @abc.abstractmethod
    def next_arrival(self, slot: int) -> Optional[int]:
        """Queue of the cell arriving at ``slot``, or ``None`` for an idle slot."""

    def arrivals(self, num_slots: int) -> Iterable[Optional[int]]:
        """Generate ``num_slots`` arrivals.

        Subclasses may return a list instead of a generator (the batch fast
        path); callers must treat the result as an opaque iterable.
        """
        return (self.next_arrival(slot) for slot in range(num_slots))

    def arrivals_slice(self, start_slot: int,
                       num_slots: int) -> Iterable[Optional[int]]:
        """Arrivals for the window ``[start_slot, start_slot + num_slots)``.

        This is the chunked-execution entry point: the streaming engine asks
        for consecutive windows in ascending order, and the concatenation of
        those windows must equal one ``arrivals(total)`` call (asserted by
        the traffic test suite).  Stateful stochastic processes satisfy that
        automatically — their RNG state carries across calls — while
        slot-indexed processes (:class:`DeterministicArrivals`,
        :class:`TraceArrivals`) override this with offset-aware slicing.
        """
        if self.slot_invariant or start_slot == 0:
            # start_slot == 0 also routes custom subclasses that override
            # only ``arrivals`` through their own batch path, preserving the
            # monolithic behaviour exactly.
            return self.arrivals(num_slots)
        return [self.next_arrival(slot)
                for slot in range(start_slot, start_slot + num_slots)]


class DeterministicArrivals(ArrivalProcess):
    """Replays a fixed per-slot pattern (cycling if shorter than the run)."""

    def __init__(self, pattern: Sequence[Optional[int]]) -> None:
        if not pattern:
            raise ValidationError("pattern must not be empty")
        self.pattern = list(pattern)

    def next_arrival(self, slot: int) -> Optional[int]:
        return self.pattern[slot % len(self.pattern)]

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        repeats = -(-num_slots // len(self.pattern))
        return (self.pattern * repeats)[:num_slots]

    def arrivals_slice(self, start_slot: int,
                       num_slots: int) -> List[Optional[int]]:
        period = len(self.pattern)
        offset = start_slot % period
        repeats = -(-(offset + num_slots) // period)
        return (self.pattern * repeats)[offset:offset + num_slots]


class RoundRobinArrivals(ArrivalProcess):
    """One cell per slot, cycling over all queues — the arrival-side analogue
    of the round-robin adversary (keeps every queue equally backlogged)."""

    slot_invariant = True

    def __init__(self, num_queues: int, load: float = 1.0, seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if not 0.0 <= load <= 1.0:
            raise ValidationError("load must be in [0, 1]")
        self.num_queues = num_queues
        self.load = load
        self._rng = random.Random(seed)
        self._next_queue = 0

    def next_arrival(self, slot: int) -> Optional[int]:
        if self.load < 1.0 and self._rng.random() >= self.load:
            return None
        queue = self._next_queue
        self._next_queue = (self._next_queue + 1) % self.num_queues
        return queue

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * num_slots
        num_queues = self.num_queues
        queue = self._next_queue
        if self.load < 1.0:
            rand = self._rng.random
            load = self.load
            for slot in range(num_slots):
                if rand() >= load:
                    continue
                out[slot] = queue
                queue = (queue + 1) % num_queues
        else:
            for slot in range(num_slots):
                out[slot] = queue
                queue = (queue + 1) % num_queues
        self._next_queue = queue
        return out


class BernoulliArrivals(ArrivalProcess):
    """Independent per-slot arrivals with configurable queue popularity.

    Args:
        num_queues: number of VOQs.
        load: probability that a cell arrives in a slot.
        weights: relative popularity of each queue (uniform by default).
        seed: RNG seed.
    """

    slot_invariant = True

    def __init__(self,
                 num_queues: int,
                 load: float = 1.0,
                 weights: Optional[Sequence[float]] = None,
                 seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if not 0.0 <= load <= 1.0:
            raise ValidationError("load must be in [0, 1]")
        if weights is not None and len(weights) != num_queues:
            raise ValidationError("weights must have one entry per queue")
        if weights is not None and any(w < 0 for w in weights):
            raise ValidationError("weights must be non-negative")
        if weights is not None and not all(isfinite(w) for w in weights):
            raise ValidationError("weights must be finite")
        self.num_queues = num_queues
        self.load = load
        self.weights = list(weights) if weights is not None else [1.0] * num_queues
        self._rng = random.Random(seed)
        self._queues = list(range(num_queues))

    def next_arrival(self, slot: int) -> Optional[int]:
        if self._rng.random() >= self.load:
            return None
        return self._rng.choices(self._queues, weights=self.weights, k=1)[0]

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * num_slots
        rand = self._rng.random
        load = self.load
        queues = self._queues
        cum_weights = list(accumulate(self.weights))
        total = cum_weights[-1] + 0.0
        if total <= 0.0 or not isfinite(total):
            # Degenerate weights (all zero, or made non-finite after
            # construction): defer to choices() so the error surfaces on
            # the first draw, exactly as in the per-slot path.
            choices = self._rng.choices
            weights = self.weights
            for slot in range(num_slots):
                if rand() < load:
                    out[slot] = choices(queues, weights=weights, k=1)[0]
            return out
        # Inline of random.choices(queues, cum_weights=..., k=1): one uniform
        # draw plus a bisect — the same RNG consumption as the per-slot path.
        pick = bisect
        hi = len(queues) - 1
        for slot in range(num_slots):
            if rand() < load:
                out[slot] = queues[pick(cum_weights, rand() * total, 0, hi)]
        return out


class HotspotArrivals(BernoulliArrivals):
    """Bernoulli arrivals where a fraction of the traffic targets a small set
    of hot queues — the skewed pattern that provokes DRAM fragmentation when
    renaming is disabled."""

    def __init__(self,
                 num_queues: int,
                 hot_queues: Sequence[int],
                 hot_fraction: float = 0.9,
                 load: float = 1.0,
                 seed: int = 0) -> None:
        if not hot_queues:
            raise ValidationError("hot_queues must not be empty")
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValidationError("hot_fraction must be in [0, 1]")
        if any(not 0 <= q < num_queues for q in hot_queues):
            raise ValidationError("hot queue index out of range")
        hot_set = set(hot_queues)
        cold_count = num_queues - len(hot_set)
        weights: List[float] = []
        for queue in range(num_queues):
            if queue in hot_set:
                weights.append(hot_fraction / len(hot_set))
            else:
                weights.append((1.0 - hot_fraction) / cold_count if cold_count else 0.0)
        super().__init__(num_queues, load=load, weights=weights, seed=seed)
        self.hot_queues = sorted(hot_set)
        self.hot_fraction = hot_fraction


class BurstyArrivals(ArrivalProcess):
    """Two-state (on/off) Markov-modulated arrivals per queue.

    While a queue is *on* it receives a cell in every slot in which it is the
    active burst owner; bursts have geometrically distributed lengths.  This
    mimics the packet trains produced by segmenting large packets and by TCP
    windows, and is the standard bursty stressor for buffer designs.
    """

    slot_invariant = True

    def __init__(self,
                 num_queues: int,
                 mean_burst_cells: float = 16.0,
                 load: float = 1.0,
                 seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if mean_burst_cells < 1.0:
            raise ValidationError("mean_burst_cells must be >= 1")
        if not 0.0 <= load <= 1.0:
            raise ValidationError("load must be in [0, 1]")
        self.num_queues = num_queues
        self.mean_burst_cells = mean_burst_cells
        self.load = load
        self._rng = random.Random(seed)
        self._current_queue: Optional[int] = None
        self._remaining_burst = 0

    def next_arrival(self, slot: int) -> Optional[int]:
        if self._rng.random() >= self.load:
            return None
        if self._remaining_burst <= 0:
            self._current_queue = self._rng.randrange(self.num_queues)
            # Geometric burst length with the requested mean (>= 1 cell).
            p = 1.0 / self.mean_burst_cells
            length = 1
            while self._rng.random() >= p:
                length += 1
            self._remaining_burst = length
        self._remaining_burst -= 1
        return self._current_queue

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * num_slots
        rand = self._rng.random
        randrange = self._rng.randrange
        load = self.load
        num_queues = self.num_queues
        p = 1.0 / self.mean_burst_cells
        queue = self._current_queue
        burst = self._remaining_burst
        for slot in range(num_slots):
            if rand() >= load:
                continue
            if burst <= 0:
                queue = randrange(num_queues)
                burst = 1
                while rand() >= p:
                    burst += 1
            burst -= 1
            out[slot] = queue
        self._current_queue = queue
        self._remaining_burst = burst
        return out


class MarkovOnOffArrivals(ArrivalProcess):
    """Markov-modulated on/off sources, one two-state chain per queue.

    Every queue independently alternates between an *on* and an *off* state
    with geometrically distributed sojourn times (``mean_on_slots`` and
    ``mean_off_slots``).  Each slot, every *on* queue offers a cell with
    probability ``peak_rate``; since the buffer accepts at most one cell per
    slot, one of the offering queues is chosen uniformly.  Superposing many
    on/off sources is the classic model for bursty aggregate traffic, and the
    on/off duty cycle sets the burstiness independently of the mean load.
    """

    slot_invariant = True

    def __init__(self,
                 num_queues: int,
                 mean_on_slots: float = 20.0,
                 mean_off_slots: float = 60.0,
                 peak_rate: float = 1.0,
                 seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if mean_on_slots < 1.0 or mean_off_slots < 1.0:
            raise ValidationError("mean sojourn times must be >= 1 slot")
        if not 0.0 < peak_rate <= 1.0:
            raise ValidationError("peak_rate must be in (0, 1]")
        self.num_queues = num_queues
        self.mean_on_slots = mean_on_slots
        self.mean_off_slots = mean_off_slots
        self.peak_rate = peak_rate
        self._p_off = 1.0 / mean_on_slots   # on -> off transition probability
        self._p_on = 1.0 / mean_off_slots   # off -> on transition probability
        self._rng = random.Random(seed)
        # Start each chain in its stationary distribution so short runs are
        # not biased by a cold start.
        p_stationary_on = mean_on_slots / (mean_on_slots + mean_off_slots)
        self._on = [self._rng.random() < p_stationary_on
                    for _ in range(num_queues)]

    def next_arrival(self, slot: int) -> Optional[int]:
        rng = self._rng
        offering: List[int] = []
        for queue in range(self.num_queues):
            if self._on[queue]:
                if rng.random() < self.peak_rate:
                    offering.append(queue)
                if rng.random() < self._p_off:
                    self._on[queue] = False
            elif rng.random() < self._p_on:
                self._on[queue] = True
        if not offering:
            return None
        if len(offering) == 1:
            return offering[0]
        return offering[rng.randrange(len(offering))]

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * num_slots
        rand = self._rng.random
        randrange = self._rng.randrange
        on = self._on
        peak_rate = self.peak_rate
        p_off = self._p_off
        p_on = self._p_on
        queue_range = range(self.num_queues)
        for slot in range(num_slots):
            offering: List[int] = []
            for queue in queue_range:
                if on[queue]:
                    if rand() < peak_rate:
                        offering.append(queue)
                    if rand() < p_off:
                        on[queue] = False
                elif rand() < p_on:
                    on[queue] = True
            if offering:
                if len(offering) == 1:
                    out[slot] = offering[0]
                else:
                    out[slot] = offering[randrange(len(offering))]
        return out


class ParetoBurstArrivals(ArrivalProcess):
    """Heavy-tailed (Pareto) burst and gap lengths — self-similar traffic.

    Alternates between a burst (back-to-back cells for one queue) and an idle
    gap, both with Pareto-distributed lengths.  With shape ``alpha`` in
    (1, 2) the burst lengths have finite mean but infinite variance, which is
    what makes superposed traffic long-range dependent (the Ethernet
    self-similarity result); the gap scale is derived from ``load`` so the
    long-run cell rate matches the requested utilisation.
    """

    slot_invariant = True

    def __init__(self,
                 num_queues: int,
                 alpha: float = 1.5,
                 min_burst_cells: int = 1,
                 load: float = 0.8,
                 seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if alpha <= 1.0:
            raise ValidationError("alpha must exceed 1 (finite mean)")
        if min_burst_cells < 1:
            raise ValidationError("min_burst_cells must be >= 1")
        if not 0.0 < load < 1.0:
            raise ValidationError("load must be in (0, 1)")
        self.num_queues = num_queues
        self.alpha = alpha
        self.min_burst_cells = min_burst_cells
        self.load = load
        # Pareto(alpha, xm) has mean alpha*xm/(alpha-1); pick the gap scale so
        # mean_burst / (mean_burst + mean_gap) == load.
        mean_burst = alpha * min_burst_cells / (alpha - 1.0)
        mean_gap = mean_burst * (1.0 - load) / load
        self._min_gap = max(mean_gap * (alpha - 1.0) / alpha, 1e-9)
        self._rng = random.Random(seed)
        self._current_queue = 0
        self._remaining_burst = 0
        self._remaining_gap = 0

    def _pareto(self, scale: float) -> float:
        # Inverse-CDF sampling: xm / U^(1/alpha).
        u = 1.0 - self._rng.random()  # in (0, 1]
        return scale / (u ** (1.0 / self.alpha))

    def next_arrival(self, slot: int) -> Optional[int]:
        if self._remaining_gap > 0:
            self._remaining_gap -= 1
            return None
        if self._remaining_burst <= 0:
            self._current_queue = self._rng.randrange(self.num_queues)
            self._remaining_burst = max(
                int(self._pareto(self.min_burst_cells)), 1)
        self._remaining_burst -= 1
        if self._remaining_burst == 0:
            # Schedule the idle gap that separates this burst from the next
            # (at least one slot, so bursts never merge).
            self._remaining_gap = max(
                int(round(self._pareto(self._min_gap))), 1)
        return self._current_queue

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        out: List[Optional[int]] = [None] * num_slots
        rand = self._rng.random
        randrange = self._rng.randrange
        inv_alpha = 1.0 / self.alpha
        min_burst = self.min_burst_cells
        min_gap = self._min_gap
        num_queues = self.num_queues
        queue = self._current_queue
        burst = self._remaining_burst
        gap = self._remaining_gap
        for slot in range(num_slots):
            if gap > 0:
                gap -= 1
                continue
            if burst <= 0:
                queue = randrange(num_queues)
                burst = max(int(min_burst / ((1.0 - rand()) ** inv_alpha)), 1)
            burst -= 1
            if burst == 0:
                gap = max(int(round(min_gap / ((1.0 - rand()) ** inv_alpha))), 1)
            out[slot] = queue
        self._current_queue = queue
        self._remaining_burst = burst
        self._remaining_gap = gap
        return out


class ZipfArrivals(BernoulliArrivals):
    """Bernoulli arrivals with Zipf-distributed queue popularity.

    Queue ``q`` receives traffic proportional to ``1 / (q+1)**exponent`` —
    the canonical model for flow popularity skew (a few elephants, a long
    tail of mice).  ``exponent=0`` degenerates to uniform Bernoulli traffic;
    larger exponents concentrate the load on the lowest-indexed queues.
    """

    def __init__(self,
                 num_queues: int,
                 exponent: float = 1.0,
                 load: float = 1.0,
                 seed: int = 0) -> None:
        if exponent < 0.0:
            raise ValidationError("exponent must be non-negative")
        weights = [1.0 / float(rank + 1) ** exponent for rank in range(num_queues)]
        super().__init__(num_queues, load=load, weights=weights, seed=seed)
        self.exponent = exponent


class TraceArrivals(ArrivalProcess):
    """Replays a recorded per-slot arrival sequence exactly once.

    Unlike :class:`DeterministicArrivals` this does *not* cycle: slots beyond
    the end of the recording are idle, which is the right semantics for
    replaying a captured trace against a different buffer variant.
    """

    def __init__(self, pattern: Sequence[Optional[int]]) -> None:
        self.pattern = list(pattern)

    def __len__(self) -> int:
        return len(self.pattern)

    def next_arrival(self, slot: int) -> Optional[int]:
        if 0 <= slot < len(self.pattern):
            return self.pattern[slot]
        return None

    def arrivals(self, num_slots: int) -> List[Optional[int]]:
        if num_slots <= len(self.pattern):
            return self.pattern[:num_slots]
        return self.pattern + [None] * (num_slots - len(self.pattern))

    def arrivals_slice(self, start_slot: int,
                       num_slots: int) -> List[Optional[int]]:
        end = start_slot + num_slots
        recorded = self.pattern[start_slot:end]
        return recorded + [None] * (num_slots - len(recorded))
