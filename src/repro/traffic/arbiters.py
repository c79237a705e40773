"""Per-slot request generators (models of the switch-fabric arbiter).

The head SRAM's dimensioning must hold for any request sequence the arbiter
can produce.  The generators here cover:

* the **round-robin adversary** — the pattern Section 3 singles out as the
  worst case for ECQF ("the scheduler requests goes through the queues in a
  round-robin manner removing one packet per queue"), which makes all SRAM
  queues drain at almost the same time;
* random and longest-queue arbiters for average-case studies;
* an oldest-cell (FIFO) arbiter used by the closed-loop examples.

Arbiters are given the per-queue backlog (cells present and not yet promised)
so they only issue admissible requests when driving a closed-loop buffer; for
the head-only worst-case studies the backlog is simply reported as unbounded.
"""

from __future__ import annotations

import abc
import random
from typing import List, Optional, Sequence

from repro.errors import ValidationError

class Arbiter(abc.ABC):
    """Interface of every request generator."""

    @abc.abstractmethod
    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        """Queue to request a cell from at ``slot``, or ``None`` to stay idle.

        ``backlog[q]`` is the number of cells of queue ``q`` the arbiter may
        still legally request.
        """


class RoundRobinAdversary(Arbiter):
    """The ECQF worst case: request one cell from each queue in turn.

    Queues with no backlog are skipped (so the pattern stays admissible in
    closed-loop use); with unbounded backlog the pattern is a strict
    round-robin, which drains every head-SRAM queue at the same rate.
    """

    def __init__(self, num_queues: int, start_queue: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        self.num_queues = num_queues
        self._next = start_queue % num_queues

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        for offset in range(self.num_queues):
            queue = (self._next + offset) % self.num_queues
            if backlog[queue] > 0:
                self._next = (queue + 1) % self.num_queues
                return queue
        return None


class RandomArbiter(Arbiter):
    """Requests a uniformly random backlogged queue, idling with probability
    ``1 - load``."""

    def __init__(self, num_queues: int, load: float = 1.0, seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if not 0.0 <= load <= 1.0:
            raise ValidationError("load must be in [0, 1]")
        self.num_queues = num_queues
        self.load = load
        self._rng = random.Random(seed)

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        if self._rng.random() >= self.load:
            return None
        eligible = [q for q in range(self.num_queues) if backlog[q] > 0]
        if not eligible:
            return None
        return self._rng.choice(eligible)


class LongestQueueArbiter(Arbiter):
    """Always serves the queue with the largest backlog (ties to the lowest
    index) — a common switch-scheduler approximation."""

    def __init__(self, num_queues: int) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        self.num_queues = num_queues

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        best_queue = None
        best_backlog = 0
        for queue in range(self.num_queues):
            if backlog[queue] > best_backlog:
                best_backlog = backlog[queue]
                best_queue = queue
        return best_queue


class OldestCellArbiter(Arbiter):
    """Work-conserving arbiter that serves queues in the order their backlog
    was created (approximated by smallest queue index among backlogged queues
    after rotating the start point each slot, which avoids starving high
    indices)."""

    def __init__(self, num_queues: int) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        self.num_queues = num_queues
        self._rotation = 0

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        for offset in range(self.num_queues):
            queue = (self._rotation + offset) % self.num_queues
            if backlog[queue] > 0:
                self._rotation = (self._rotation + 1) % self.num_queues
                return queue
        return None


class StridedAdversary(Arbiter):
    """Parameterised generalisation of the Section 5 round-robin adversary.

    Visits queues in arithmetic-progression order with a configurable
    ``stride``, issuing ``burst`` consecutive requests to each queue before
    moving on.  ``stride=1, burst=1`` is exactly
    :class:`RoundRobinAdversary`; a stride that is coprime with the queue
    count still touches every queue but in a permuted order (stressing any
    structure that assumes adjacent queues drain together), and ``burst > 1``
    interpolates between the round-robin worst case and single-queue
    hammering.  Queues with no backlog are skipped so the pattern stays
    admissible in closed-loop use.
    """

    def __init__(self,
                 num_queues: int,
                 stride: int = 1,
                 burst: int = 1,
                 start_queue: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if stride < 1:
            raise ValidationError("stride must be at least 1")
        if burst < 1:
            raise ValidationError("burst must be at least 1")
        self.num_queues = num_queues
        self.stride = stride
        self.burst = burst
        self._current = start_queue % num_queues
        self._issued_in_burst = 0

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        if self._issued_in_burst < self.burst and backlog[self._current] > 0:
            self._issued_in_burst += 1
            return self._current
        # Burst finished (or current queue empty): walk the stride sequence
        # to the next backlogged queue.  When ``stride`` is coprime with the
        # queue count this visits every queue; otherwise only the stride's
        # cycle is served — deliberately allowed, it is an adversary.
        for _ in range(self.num_queues):
            self._current = (self._current + self.stride) % self.num_queues
            if backlog[self._current] > 0:
                self._issued_in_burst = 1
                return self._current
        self._issued_in_burst = 0
        return None


class IntermittentArbiter(Arbiter):
    """Wraps another arbiter with deterministic on/off service phases.

    Models fabric backpressure: the inner arbiter runs normally for
    ``on_slots``, then the output is stalled for ``off_slots`` (no requests at
    all), letting the buffer's backlog build before service resumes in a rush.
    The resulting request train is a simple adversary for the head SRAM's
    drain behaviour that no memoryless arbiter can produce.
    """

    def __init__(self, inner: Arbiter, on_slots: int, off_slots: int) -> None:
        if on_slots < 1:
            raise ValidationError("on_slots must be at least 1")
        if off_slots < 0:
            raise ValidationError("off_slots must be non-negative")
        self.inner = inner
        self.on_slots = on_slots
        self.off_slots = off_slots

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        phase = slot % (self.on_slots + self.off_slots)
        if phase >= self.on_slots:
            return None
        return self.inner.next_request(slot, backlog)


class TraceArbiter(Arbiter):
    """Replays a recorded per-slot request sequence exactly once.

    Recorded requests that are no longer admissible against the buffer being
    replayed into (possible when replaying a trace captured on a different
    buffer variant) are skipped rather than raised, matching the admissibility
    filtering the simulation engine applies.  An entry that names no queue
    (not ``None`` or an ``int`` in range) is returned as it is, so the
    engines' contract check raises
    :class:`~repro.errors.ArbiterContractError` at its slot.
    """

    def __init__(self, pattern: Sequence[Optional[int]]) -> None:
        self.pattern: List[Optional[int]] = list(pattern)

    def __len__(self) -> int:
        return len(self.pattern)

    def next_request(self, slot: int, backlog: Sequence[int]) -> Optional[int]:
        if not 0 <= slot < len(self.pattern):
            return None
        request = self.pattern[slot]
        if (type(request) is int and 0 <= request < len(backlog)
                and backlog[request] <= 0):
            return None
        return request
