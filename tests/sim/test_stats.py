"""Tests for the simulation statistics collectors."""

import pytest

from repro.errors import ValidationError
from repro.sim.stats import LatencyStats, ThroughputStats


class TestLatencyStats:
    def test_mean_min_max(self):
        stats = LatencyStats()
        for arrival, departure in [(0, 5), (2, 4), (10, 20)]:
            stats.record(arrival, departure)
        assert stats.count == 3
        assert stats.mean == pytest.approx((5 + 2 + 10) / 3)
        assert stats.minimum == 2
        assert stats.maximum == 10

    def test_percentile(self):
        stats = LatencyStats()
        for delay in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            stats.record(0, delay)
        assert stats.percentile(0.5) == 5
        assert stats.percentile(1.0) == 10
        assert stats.percentile(0.1) == 1

    def test_empty_stats(self):
        stats = LatencyStats()
        assert stats.mean == 0.0
        assert stats.percentile(0.5) == 0

    def test_invalid_inputs(self):
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.record(5, 2)
        with pytest.raises(ValueError):
            stats.percentile(0.0)


class TestThroughputStats:
    def test_loads(self):
        stats = ThroughputStats(arrivals=80, departures=75, drops=5, slots=100)
        assert stats.offered_load == pytest.approx(0.8)
        assert stats.carried_load == pytest.approx(0.75)
        assert stats.loss_fraction == pytest.approx(5 / 80)

    def test_zero_division_guards(self):
        stats = ThroughputStats()
        assert stats.offered_load == 0.0
        assert stats.carried_load == 0.0
        assert stats.loss_fraction == 0.0


class TestLatencyPercentiles:
    def test_p50_p95_p99_properties(self):
        stats = LatencyStats()
        for delay in range(1, 101):  # delays 1..100, one each
            stats.record(0, delay)
        assert stats.p50 == 50
        assert stats.p95 == 95
        assert stats.p99 == 99

    def test_percentiles_are_monotone(self):
        stats = LatencyStats()
        for delay in [3, 3, 3, 7, 7, 40, 41, 42, 500]:
            stats.record(0, delay)
        assert stats.p50 <= stats.p95 <= stats.p99 <= stats.maximum

    def test_empty_percentiles_are_zero(self):
        stats = LatencyStats()
        assert stats.p50 == stats.p95 == stats.p99 == 0

    def test_snapshot_equality(self):
        a, b = LatencyStats(), LatencyStats()
        for delay in [1, 5, 5, 9]:
            a.record(0, delay)
            b.record(0, delay)
        assert a == b
        assert a.snapshot() == b.snapshot()
        b.record(0, 2)
        assert a != b

    def test_equality_against_other_types(self):
        assert LatencyStats() != object()


class TestBatchPercentiles:
    def _loaded(self):
        stats = LatencyStats()
        for delay in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]:
            stats.record(0, delay)
        return stats

    def test_batch_matches_single_calls(self):
        stats = self._loaded()
        fractions = (0.1, 0.5, 0.95, 0.99, 1.0)
        assert stats.percentiles(fractions) == tuple(
            stats.percentile(fraction) for fraction in fractions)

    def test_batch_preserves_input_order(self):
        stats = self._loaded()
        assert stats.percentiles((0.99, 0.1, 0.5)) == (10, 1, 5)

    def test_batch_with_duplicates(self):
        stats = self._loaded()
        assert stats.percentiles((0.5, 0.5)) == (5, 5)

    def test_batch_empty_histogram(self):
        assert LatencyStats().percentiles((0.5, 0.95)) == (0, 0)

    def test_batch_validates_fractions(self):
        stats = self._loaded()
        with pytest.raises(ValueError):
            stats.percentiles((0.5, 0.0))
        with pytest.raises(ValueError):
            stats.percentiles((1.5,))

    def test_batch_empty_tuple(self):
        assert self._loaded().percentiles(()) == ()


class TestRecordDelay:
    def test_bulk_equivalent_to_individual_records(self):
        bulk, single = LatencyStats(), LatencyStats()
        bulk.record_delay(4, 3)
        bulk.record_delay(9)
        for _ in range(3):
            single.record(0, 4)
        single.record(0, 9)
        assert bulk == single
        assert bulk.count == 4
        assert bulk.mean == pytest.approx((4 * 3 + 9) / 4)

    def test_record_delay_validates(self):
        stats = LatencyStats()
        with pytest.raises(ValueError):
            stats.record_delay(-1)
        with pytest.raises(ValueError):
            stats.record_delay(3, 0)


def _per_call(pairs, into=None):
    stats = LatencyStats() if into is None else into
    for delay, count in pairs:
        stats.record_delay(delay, count)
    return stats


def _folded(pairs, into=None):
    stats = LatencyStats() if into is None else into
    stats.record_delays([delay for delay, _ in pairs],
                        [count for _, count in pairs])
    return stats


class TestRecordDelays:
    """The bulk fold leaves the collector as per-call ``record_delay``s in
    the same order do: count, total, minimum, maximum and the histogram,
    its keys in the same insertion order."""

    PAIRS = {
        "empty": [],
        "duplicates": [(7, 1), (3, 2), (7, 4), (3, 1), (0, 1), (7, 1)],
        "one-pair": [(5, 9)],
        "boundaries": [(0, 1), (2 ** 62, 1), (0, 2 ** 53), (1, 1)],
    }

    @staticmethod
    def _state(stats):
        snapshot = stats.snapshot()
        return snapshot, list(snapshot["histogram"])

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_equals_per_call_records(self, name):
        pairs = self.PAIRS[name]
        assert self._state(_folded(pairs)) == self._state(_per_call(pairs))

    @pytest.mark.parametrize("name", sorted(PAIRS))
    def test_equals_per_call_records_into_a_loaded_collector(self, name):
        """Minimum and maximum compare against what is there, and keys
        already present keep their place."""
        before = [(3, 2), (9, 1), (1, 1)]
        pairs = self.PAIRS[name]
        assert (self._state(_folded(pairs, _per_call(before)))
                == self._state(_per_call(pairs, _per_call(before))))

    @pytest.mark.parametrize("delays", [[], [7, 3, 7, 0, 3], [2 ** 62, 0]])
    def test_one_cell_each_without_counts(self, delays):
        stats = _per_call([(3, 2)])
        stats.record_delays(delays)
        assert self._state(stats) == self._state(
            _per_call([(3, 2)] + [(delay, 1) for delay in delays]))
        with pytest.raises(ValidationError, match="delay cannot be negative"):
            stats.record_delays([*delays, -1])
        assert self._state(stats) == self._state(
            _per_call([(3, 2)] + [(delay, 1) for delay in delays]))

    def test_takes_sized_collections_of_one_length(self):
        stats = LatencyStats()
        histogram = {4: 2, 1: 3}
        stats.record_delays(histogram.keys(), histogram.values())
        assert self._state(stats) == self._state(_per_call([(4, 2),
                                                            (1, 3)]))
        with pytest.raises(ValidationError, match="pair up"):
            stats.record_delays([1, 2], [1])

    @pytest.mark.parametrize("pairs, message", [
        ([(3, 1), (-1, 1), (4, 0)], "delay cannot be negative"),
        ([(3, 1), (4, 0), (-1, 1)], "count must be positive"),
        ([(3, -2)], "count must be positive"),
        ([(-1, 0)], "delay cannot be negative"),
    ])
    def test_raises_as_the_first_rejected_call_and_records_nothing(
            self, pairs, message):
        with pytest.raises(ValidationError, match=message) as per_call:
            _per_call(pairs)
        stats = _per_call([(2, 1)])
        with pytest.raises(ValidationError, match=message) as folded:
            _folded(pairs, stats)
        assert type(folded.value) is type(per_call.value)
        assert self._state(stats) == self._state(_per_call([(2, 1)]))


class TestEmptyStats:
    """The documented edge case: an empty collector answers every query with
    a well-defined zero, never an artefact of the percentile sweep."""

    def test_percentiles_on_empty_stats_are_zero(self):
        stats = LatencyStats()
        assert stats.percentiles((0.50, 0.95, 0.99)) == (0, 0, 0)
        assert stats.percentile(0.01) == 0
        assert stats.percentile(1.0) == 0

    def test_percentile_properties_on_empty_stats(self):
        stats = LatencyStats()
        assert stats.p50 == 0
        assert stats.p95 == 0
        assert stats.p99 == 0
        assert isinstance(stats.p99, int)

    def test_empty_stats_still_validate_fractions(self):
        with pytest.raises(ValueError):
            LatencyStats().percentile(0.0)
        with pytest.raises(ValueError):
            LatencyStats().percentiles((1.01,))

    def test_count_distinguishes_empty_from_all_zero_delays(self):
        empty, zeros = LatencyStats(), LatencyStats()
        zeros.record_delay(0, 5)
        assert empty.percentile(0.5) == zeros.percentile(0.5) == 0
        assert empty.count == 0
        assert zeros.count == 5


class TestHistogramRoundTrip:
    def _loaded(self) -> LatencyStats:
        stats = LatencyStats()
        stats.record_delay(3, 4)
        stats.record_delay(1, 2)
        stats.record_delay(10)
        return stats

    def test_histogram_items_sorted(self):
        assert self._loaded().histogram_items() == ((1, 2), (3, 4), (10, 1))

    def test_from_histogram_reconstructs_equal_collector(self):
        stats = self._loaded()
        rebuilt = LatencyStats.from_histogram(stats.histogram_items())
        assert rebuilt == stats
        assert rebuilt.mean == stats.mean
        assert rebuilt.percentiles((0.5, 0.99)) == stats.percentiles((0.5, 0.99))

    def test_from_empty_histogram(self):
        assert LatencyStats.from_histogram(()) == LatencyStats()

    def test_merge_equals_single_collector(self):
        """Merging port-level collectors reproduces the collector a single
        run over all observations would have built."""
        left, right, combined = LatencyStats(), LatencyStats(), LatencyStats()
        for delay, count in ((0, 3), (4, 1), (7, 2)):
            left.record_delay(delay, count)
            combined.record_delay(delay, count)
        for delay, count in ((4, 5), (12, 1)):
            right.record_delay(delay, count)
            combined.record_delay(delay, count)
        assert left.merge(right) is left
        assert left == combined

    def test_merge_with_empty_is_identity(self):
        stats = self._loaded()
        before = stats.snapshot()
        stats.merge(LatencyStats())
        assert stats.snapshot() == before


class TestHugeCountPercentiles:
    """Integer-exact percentile thresholds (the 2**53 regime).

    ``seen >= fraction * count`` with a float product misrounds once counts
    approach 2**53: the product falls between representable doubles and the
    comparison fires one histogram bin early or late.  Long-horizon streamed
    runs are exactly where such counts occur, so the thresholds are computed
    in exact integer arithmetic (``ceil(count * p / q)`` with the fraction
    snapped to the decimal the caller meant).
    """

    def test_median_at_2_to_53_plus_one(self):
        """The historical failure: count = 2**53 + 1 split just below the
        median.  ``0.5 * (2**53 + 1)`` rounds *down* to 2**52 (round-half-
        even), so the float comparison returned the lower bin; the exact
        threshold ceil((2**53 + 1)/2) = 2**52 + 1 lands in the upper."""
        stats = LatencyStats()
        stats.record_delay(0, 2 ** 52)        # cumulative: 2**52
        stats.record_delay(1, 2 ** 52 + 1)    # cumulative: 2**53 + 1
        assert stats.count == 2 ** 53 + 1
        assert stats.percentile(0.5) == 1

    def test_thresholds_are_exact_at_every_scale(self):
        """The exact rank of the boundary element is hit — not its float
        neighbourhood — for counts from tiny to beyond 2**53."""
        for total in (10, 999, 2 ** 31 - 1, 2 ** 53 - 1, 2 ** 53 + 3,
                      2 ** 60 + 7):
            for fraction, num, den in ((0.5, 1, 2), (0.95, 19, 20),
                                       (0.99, 99, 100), (1.0, 1, 1)):
                exact_rank = -(-total * num // den)  # ceil(total * num/den)
                stats = LatencyStats()
                if exact_rank > 1:
                    stats.record_delay(3, exact_rank - 1)
                stats.record_delay(5, 1)
                remaining = total - exact_rank
                if remaining > 0:
                    stats.record_delay(9, remaining)
                assert stats.percentile(fraction) == 5, (total, fraction)

    def test_p100_is_the_maximum_even_at_huge_counts(self):
        stats = LatencyStats()
        stats.record_delay(2, 2 ** 53)
        stats.record_delay(11, 1)
        assert stats.percentile(1.0) == 11
        assert stats.percentile(1.0) == stats.maximum

    def test_fraction_means_its_decimal_not_its_float(self):
        """0.1 (the double nearest 1/10, slightly above it) must behave as
        the decimal 10%: at count 10 the p10 is the 1st element, not the
        2nd (exact-rational arithmetic on the raw double would give 2)."""
        stats = LatencyStats()
        for delay in range(1, 11):
            stats.record_delay(delay)
        assert stats.percentile(0.1) == 1
        assert stats.percentile(0.3) == 3

    def test_batch_order_with_mixed_huge_thresholds(self):
        stats = LatencyStats()
        stats.record_delay(1, 2 ** 53 - 1)
        stats.record_delay(2, 2)
        assert stats.percentiles((1.0, 0.5, 0.999999999)) == (2, 1, 1)
