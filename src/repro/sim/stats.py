"""Statistics collectors for closed-loop simulations."""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Collection, Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ValidationError


@functools.lru_cache(maxsize=256)
def _exact_ratio(fraction: float) -> Tuple[int, int]:
    """``fraction`` snapped to the decimal the caller meant, as ``(p, q)``:
    computed once per fraction (``summary()`` asks for the same three)."""
    ratio = Fraction(fraction).limit_denominator(10 ** 12)
    return ratio.numerator, ratio.denominator


def _percentile_threshold(fraction: float, count: int) -> int:
    """Smallest cumulative count that reaches the ``fraction`` percentile.

    Computed in exact integer arithmetic: the naive ``fraction * count``
    float product misrounds once ``count`` approaches 2**53 (the product
    falls between representable doubles, so ``seen >= fraction * count``
    fires one histogram bin early or late).  The float is first snapped to
    the decimal the caller meant (``0.1`` is the double *nearest* 1/10, not
    1/10 itself) and the threshold is then ``ceil(count * p / q)`` on plain
    ints, which never rounds.
    """
    numerator, denominator = _exact_ratio(fraction)
    return -(-count * numerator // denominator)


class LatencyStats:
    """Tracks per-cell delay (slots between arrival and departure)."""

    def __init__(self) -> None:
        self._count = 0
        self._total = 0
        self._minimum: Optional[int] = None
        self._maximum: Optional[int] = None
        self._histogram: Dict[int, int] = {}

    @classmethod
    def from_histogram(cls, items: Iterable[Tuple[int, int]]) -> "LatencyStats":
        """Rebuild a collector from ``(delay, count)`` pairs.

        Inverse of :meth:`histogram_items`: a collector rebuilt from another's
        histogram compares equal to the original.  This is how the switch
        layer reconstitutes per-port latency distributions from cacheable
        results before merging them.
        """
        stats = cls()
        for delay, count in items:
            stats.record_delay(delay, count)
        return stats

    def histogram_items(self) -> Tuple[Tuple[int, int], ...]:
        """The delay histogram as sorted ``(delay, count)`` pairs — the
        JSON-serialisable carrier of the full distribution."""
        return tuple(sorted(self._histogram.items()))

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        """Fold ``other``'s observations into this collector (in place).

        Merging port-level collectors yields exactly the collector a single
        simulation of all ports would have produced, so switch-level
        percentiles are computed over the true combined distribution rather
        than averaged per-port percentiles.
        """
        for delay, count in other.histogram_items():
            self.record_delay(delay, count)
        return self

    def record(self, arrival_slot: int, departure_slot: int) -> None:
        delay = departure_slot - arrival_slot
        if delay < 0:
            raise ValidationError("departure cannot precede arrival")
        self.record_delay(delay)

    def record_delay(self, delay: int, count: int = 1) -> None:
        """Record ``count`` cells that experienced ``delay`` slots.

        The batch form is how the array engine folds its flat histogram into
        the collector at the end of a run; the observable state is identical
        to ``count`` individual :meth:`record` calls.
        """
        if delay < 0:
            raise ValidationError("delay cannot be negative")
        if count <= 0:
            raise ValidationError("count must be positive")
        self._count += count
        self._total += delay * count
        if self._minimum is None or delay < self._minimum:
            self._minimum = delay
        if self._maximum is None or delay > self._maximum:
            self._maximum = delay
        self._histogram[delay] = self._histogram.get(delay, 0) + count

    def record_delays(self, delays: Collection[int],
                      counts: Optional[Collection[int]] = None) -> None:
        """Fold ``counts[i]`` cells of ``delays[i]`` slots each at once, or
        one cell of each delay when ``counts`` is ``None``.

        The collector ends as after ``record_delay(delay, count)`` for each
        pair in order: the same count, total, minimum and maximum, and the
        histogram's keys inserted in the same order.  The first pair that
        :meth:`record_delay` would reject raises its ``ValidationError``
        before anything is recorded.  Both arguments are read more than
        once and never copied.  The array engine folds its flat histograms
        and drained cells, and the fabric kernel its wait pairs, through
        this.
        """
        if counts is not None and len(counts) != len(delays):
            raise ValidationError("delays and counts must pair up")
        if not len(delays):
            return
        if counts is None:
            if min(delays) < 0:
                raise ValidationError("delay cannot be negative")
            self._count += len(delays)
            self._total += sum(delays)
            counts = repeat(1)
        else:
            if min(delays) < 0 or min(counts) <= 0:
                for delay, count in zip(delays, counts):
                    if delay < 0:
                        raise ValidationError("delay cannot be negative")
                    if count <= 0:
                        raise ValidationError("count must be positive")
            self._count += sum(counts)
            self._total += sum(map(operator.mul, delays, counts))
        lowest, highest = min(delays), max(delays)
        if self._minimum is None or lowest < self._minimum:
            self._minimum = lowest
        if self._maximum is None or highest > self._maximum:
            self._maximum = highest
        histogram = self._histogram
        seen = histogram.get
        for delay, count in zip(delays, counts):
            histogram[delay] = seen(delay, 0) + count

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def minimum(self) -> int:
        return self._minimum if self._minimum is not None else 0

    @property
    def maximum(self) -> int:
        return self._maximum if self._maximum is not None else 0

    def percentile(self, fraction: float) -> int:
        """Delay value at the given percentile (0 < fraction <= 1).

        On an empty collector the result is defined to be ``0`` — see
        :meth:`percentiles`.
        """
        return self.percentiles((fraction,))[0]

    def percentiles(self, fractions: Sequence[float]) -> Tuple[int, ...]:
        """Delay values at several percentiles, computed in one sorted pass.

        ``summary()`` asks for p50/p95/p99 together; sorting the histogram
        once and sweeping it cumulatively answers any number of fractions for
        the cost of one, instead of one sort per percentile.  Results are
        returned in the order the fractions were given.

        **Empty collector:** with no recorded delays every requested
        percentile is defined to be ``0`` (an ``int``, consistent with
        :attr:`minimum`/:attr:`maximum` and with ``mean == 0.0``), never an
        arbitrary artefact of the sweep.  Callers that must distinguish "no
        samples" from "all delays were zero" should check :attr:`count`.
        """
        for fraction in fractions:
            if not 0.0 < fraction <= 1.0:
                raise ValidationError("fraction must be in (0, 1]")
        if not self._histogram:
            return tuple(0 for _ in fractions)
        # Sweep the sorted histogram once, answering the fractions in
        # ascending-threshold order.  Thresholds are integer-exact
        # (:func:`_percentile_threshold` — the float product ``fraction *
        # count`` misrounds near 2**53), and every threshold lands in
        # ``[1, count]``, so the sweep answers every fraction; the trailing
        # loop is pure belt-and-braces.
        thresholds = [_percentile_threshold(fraction, self._count)
                      for fraction in fractions]
        order = sorted(range(len(fractions)), key=lambda i: thresholds[i])
        results = [0] * len(fractions)
        delays = sorted(self._histogram)
        seen = 0
        next_unanswered = 0
        for delay in delays:
            seen += self._histogram[delay]
            while (next_unanswered < len(order)
                   and seen >= thresholds[order[next_unanswered]]):
                results[order[next_unanswered]] = delay
                next_unanswered += 1
            if next_unanswered == len(order):
                break
        while next_unanswered < len(order):
            results[order[next_unanswered]] = delays[-1]
            next_unanswered += 1
        return tuple(results)

    @property
    def p50(self) -> int:
        """Median delay in slots."""
        return self.percentile(0.50)

    @property
    def p95(self) -> int:
        """95th-percentile delay in slots."""
        return self.percentile(0.95)

    @property
    def p99(self) -> int:
        """99th-percentile delay in slots — the tail the SLO stories care about."""
        return self.percentile(0.99)

    def snapshot(self) -> Dict[str, object]:
        """Full observable state, for equality checks and serialisation."""
        return {
            "count": self._count,
            "total": self._total,
            "minimum": self._minimum,
            "maximum": self._maximum,
            "histogram": dict(self._histogram),
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyStats):
            return NotImplemented
        return self.snapshot() == other.snapshot()


@dataclass
class ThroughputStats:
    """Counts of offered, carried and lost traffic."""

    arrivals: int = 0
    departures: int = 0
    drops: int = 0
    idle_request_slots: int = 0
    slots: int = 0

    @property
    def offered_load(self) -> float:
        return self.arrivals / self.slots if self.slots else 0.0

    @property
    def carried_load(self) -> float:
        return self.departures / self.slots if self.slots else 0.0

    @property
    def loss_fraction(self) -> float:
        return self.drops / self.arrivals if self.arrivals else 0.0
