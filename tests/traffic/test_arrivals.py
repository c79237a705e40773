"""Tests for the arrival processes."""

import pytest

from repro.errors import ValidationError
from repro.traffic.arrivals import (
    BernoulliArrivals,
    BurstyArrivals,
    DeterministicArrivals,
    HotspotArrivals,
    MarkovOnOffArrivals,
    ParetoBurstArrivals,
    RoundRobinArrivals,
    TraceArrivals,
    ZipfArrivals,
)


class TestDeterministicArrivals:
    def test_replays_and_wraps(self):
        arrivals = DeterministicArrivals([0, None, 2])
        assert [arrivals.next_arrival(s) for s in range(6)] == [0, None, 2, 0, None, 2]

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            DeterministicArrivals([])


class TestRoundRobinArrivals:
    def test_full_load_cycles_queues(self):
        arrivals = RoundRobinArrivals(num_queues=3)
        assert [arrivals.next_arrival(s) for s in range(6)] == [0, 1, 2, 0, 1, 2]

    def test_partial_load_produces_idle_slots(self):
        arrivals = RoundRobinArrivals(num_queues=2, load=0.5, seed=1)
        slots = [arrivals.next_arrival(s) for s in range(2000)]
        idle = sum(1 for s in slots if s is None)
        assert 700 < idle < 1300


class TestBernoulliArrivals:
    def test_load_respected(self):
        arrivals = BernoulliArrivals(num_queues=4, load=0.25, seed=3)
        slots = [arrivals.next_arrival(s) for s in range(4000)]
        busy = sum(1 for s in slots if s is not None)
        assert 800 < busy < 1200

    def test_all_queues_seen_under_uniform_weights(self):
        arrivals = BernoulliArrivals(num_queues=4, load=1.0, seed=5)
        seen = {arrivals.next_arrival(s) for s in range(500)}
        assert seen == {0, 1, 2, 3}

    def test_weights_bias_selection(self):
        arrivals = BernoulliArrivals(num_queues=2, load=1.0, weights=[9.0, 1.0], seed=7)
        slots = [arrivals.next_arrival(s) for s in range(2000)]
        assert slots.count(0) > 3 * slots.count(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliArrivals(num_queues=0)
        with pytest.raises(ValueError):
            BernoulliArrivals(num_queues=2, load=1.5)
        with pytest.raises(ValueError):
            BernoulliArrivals(num_queues=2, weights=[1.0])
        with pytest.raises(ValueError):
            BernoulliArrivals(num_queues=2, weights=[1.0, -1.0])

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ValidationError, match="weights must be finite"):
            BernoulliArrivals(num_queues=3, weights=[1.0, value, 1.0])

    def test_reproducible_with_same_seed(self):
        a = BernoulliArrivals(num_queues=4, load=0.8, seed=42)
        b = BernoulliArrivals(num_queues=4, load=0.8, seed=42)
        assert [a.next_arrival(s) for s in range(100)] == [b.next_arrival(s) for s in range(100)]


class TestHotspotArrivals:
    def test_hot_queues_dominate(self):
        arrivals = HotspotArrivals(num_queues=8, hot_queues=[0], hot_fraction=0.9,
                                   load=1.0, seed=11)
        slots = [arrivals.next_arrival(s) for s in range(4000)]
        hot = slots.count(0)
        assert hot > 0.8 * len(slots)

    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotArrivals(num_queues=4, hot_queues=[])
        with pytest.raises(ValueError):
            HotspotArrivals(num_queues=4, hot_queues=[9])
        with pytest.raises(ValueError):
            HotspotArrivals(num_queues=4, hot_queues=[0], hot_fraction=1.5)


class TestBurstyArrivals:
    def test_produces_runs_of_same_queue(self):
        arrivals = BurstyArrivals(num_queues=8, mean_burst_cells=16, load=1.0, seed=13)
        slots = [arrivals.next_arrival(s) for s in range(2000)]
        # Count how often consecutive busy slots keep the same queue: with a
        # mean burst of 16 this should be the overwhelming majority.
        same = sum(1 for a, b in zip(slots, slots[1:])
                   if a is not None and a == b)
        assert same > 1500

    def test_mean_burst_about_right(self):
        arrivals = BurstyArrivals(num_queues=4, mean_burst_cells=8, load=1.0, seed=17)
        slots = [arrivals.next_arrival(s) for s in range(8000)]
        bursts = 1
        for a, b in zip(slots, slots[1:]):
            if a != b:
                bursts += 1
        mean = len(slots) / bursts
        assert 5 < mean < 12

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstyArrivals(num_queues=0)
        with pytest.raises(ValueError):
            BurstyArrivals(num_queues=2, mean_burst_cells=0.5)


class TestMarkovOnOffArrivals:
    def test_emits_only_valid_queues(self):
        arrivals = MarkovOnOffArrivals(num_queues=4, mean_on_slots=10,
                                       mean_off_slots=30, seed=5)
        slots = [arrivals.next_arrival(s) for s in range(3000)]
        assert all(s is None or 0 <= s < 4 for s in slots)
        assert any(s is not None for s in slots)
        assert any(s is None for s in slots)

    def test_duty_cycle_controls_mean_load(self):
        light = MarkovOnOffArrivals(num_queues=8, mean_on_slots=5,
                                    mean_off_slots=95, seed=6)
        heavy = MarkovOnOffArrivals(num_queues=8, mean_on_slots=95,
                                    mean_off_slots=5, seed=6)
        def count(gen):
            return sum(1 for s in range(5000) if gen.next_arrival(s) is not None)
        assert count(light) < count(heavy)

    def test_deterministic_given_seed(self):
        def make():
            return MarkovOnOffArrivals(num_queues=4, seed=7)
        a, b = make(), make()
        assert [a.next_arrival(s) for s in range(500)] == \
               [b.next_arrival(s) for s in range(500)]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            MarkovOnOffArrivals(num_queues=0)
        with pytest.raises(ValueError):
            MarkovOnOffArrivals(num_queues=2, mean_on_slots=0.5)
        with pytest.raises(ValueError):
            MarkovOnOffArrivals(num_queues=2, peak_rate=0.0)


class TestParetoBurstArrivals:
    def test_long_run_load_close_to_target(self):
        arrivals = ParetoBurstArrivals(num_queues=8, alpha=1.6, load=0.6, seed=8)
        slots = [arrivals.next_arrival(s) for s in range(50_000)]
        busy = sum(1 for s in slots if s is not None)
        # Heavy tails converge slowly; a wide band is the honest assertion.
        assert 0.4 < busy / len(slots) < 0.8

    def test_bursts_are_contiguous_single_queue(self):
        arrivals = ParetoBurstArrivals(num_queues=8, alpha=1.5,
                                       min_burst_cells=4, load=0.5, seed=9)
        slots = [arrivals.next_arrival(s) for s in range(5000)]
        # Within a burst, consecutive busy slots carry the same queue.
        for previous, current in zip(slots, slots[1:]):
            if previous is not None and current is not None:
                assert previous == current

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParetoBurstArrivals(num_queues=2, alpha=1.0)
        with pytest.raises(ValueError):
            ParetoBurstArrivals(num_queues=2, load=1.0)
        with pytest.raises(ValueError):
            ParetoBurstArrivals(num_queues=2, min_burst_cells=0)


class TestZipfArrivals:
    def test_popularity_is_rank_ordered(self):
        arrivals = ZipfArrivals(num_queues=6, exponent=1.5, seed=10)
        counts = [0] * 6
        for s in range(20_000):
            queue = arrivals.next_arrival(s)
            if queue is not None:
                counts[queue] += 1
        assert counts[0] > counts[2] > counts[5]

    def test_zero_exponent_is_uniform(self):
        arrivals = ZipfArrivals(num_queues=4, exponent=0.0, seed=11)
        assert arrivals.weights == [1.0] * 4

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ZipfArrivals(num_queues=4, exponent=-0.1)


class TestTraceArrivals:
    def test_replays_then_idles(self):
        arrivals = TraceArrivals([0, None, 2])
        assert [arrivals.next_arrival(s) for s in range(5)] == [0, None, 2, None, None]

    def test_length(self):
        assert len(TraceArrivals([1, 2, None])) == 3
