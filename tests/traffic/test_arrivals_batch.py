"""The batch ``arrivals()`` fast paths are stream-identical to per-slot
``next_arrival`` calls — the property both simulation engines rely on when
they pre-generate arrival plans."""

import pytest

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

#: (class, kwargs) for every stateful stochastic process: the batch must
#: continue the RNG stream exactly where the previous batch left off.
STATEFUL_CASES = [
    (BernoulliArrivals, dict(num_queues=8, load=0.85, seed=3)),
    (BernoulliArrivals, dict(num_queues=8, load=0.85,
                             weights=[1, 2, 0, 4, 5, 6, 7, 8], seed=3)),
    (BernoulliArrivals, dict(num_queues=3, load=1.0, seed=3)),
    (HotspotArrivals, dict(num_queues=8, hot_queues=[0, 1],
                           hot_fraction=0.8, load=0.9, seed=4)),
    (ZipfArrivals, dict(num_queues=8, exponent=1.2, load=0.85, seed=5)),
    (BurstyArrivals, dict(num_queues=8, mean_burst_cells=24.0, load=0.9,
                          seed=6)),
    (MarkovOnOffArrivals, dict(num_queues=8, mean_on_slots=30.0,
                               mean_off_slots=90.0, peak_rate=0.9, seed=7)),
    (ParetoBurstArrivals, dict(num_queues=8, alpha=1.4, min_burst_cells=4,
                               load=0.8, seed=8)),
    (RoundRobinArrivals, dict(num_queues=8, load=0.7, seed=9)),
    (RoundRobinArrivals, dict(num_queues=8, load=1.0, seed=9)),
]

_IDS = [f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(STATEFUL_CASES)]


@pytest.mark.parametrize("cls,kwargs", STATEFUL_CASES, ids=_IDS)
def test_batch_is_stream_identical(cls, kwargs):
    per_slot_source = cls(**kwargs)
    batch_source = cls(**kwargs)
    per_slot = [per_slot_source.next_arrival(slot) for slot in range(4000)]
    batch = list(batch_source.arrivals(4000))
    assert batch == per_slot


@pytest.mark.parametrize("cls,kwargs", STATEFUL_CASES, ids=_IDS)
def test_split_batches_continue_the_stream(cls, kwargs):
    """Two consecutive batch calls must consume the RNG exactly like one —
    the state (burst remainders, on/off chains) carries across calls."""
    per_slot_source = cls(**kwargs)
    batch_source = cls(**kwargs)
    per_slot = [per_slot_source.next_arrival(slot) for slot in range(3000)]
    batch = list(batch_source.arrivals(1100)) + list(batch_source.arrivals(1900))
    assert batch == per_slot


@pytest.mark.parametrize("cls,kwargs", STATEFUL_CASES, ids=_IDS)
def test_batch_returns_prefilled_list(cls, kwargs):
    """The batch form fills a preallocated list (no generator re-wrapping in
    the engines)."""
    source = cls(**kwargs)
    result = source.arrivals(128)
    assert isinstance(result, list)
    assert len(result) == 128


@pytest.mark.parametrize("cls", [DeterministicArrivals, TraceArrivals])
def test_slot_indexed_batches_match_per_slot(cls):
    pattern = [0, None, 3, 2, None, 1]
    per_slot_source = cls(pattern)
    batch_source = cls(pattern)
    per_slot = [per_slot_source.next_arrival(slot) for slot in range(50)]
    assert list(batch_source.arrivals(50)) == per_slot


@pytest.mark.parametrize("cls", [DeterministicArrivals, TraceArrivals])
def test_slot_indexed_batches_restart_at_slot_zero(cls):
    """Slot-indexed processes are stateless: every ``arrivals`` call starts
    at slot 0, exactly like the generic generator they override."""
    pattern = [0, None, 3]
    source = cls(pattern)
    first = list(source.arrivals(5))
    second = list(source.arrivals(5))
    assert first == second
    assert first[:3] == pattern


def test_trace_batch_pads_with_idle_slots():
    source = TraceArrivals([1, 2])
    assert source.arrivals(5) == [1, 2, None, None, None]
    assert source.arrivals(1) == [1]


def test_bernoulli_all_zero_weights_raise_on_first_draw():
    """The degenerate configuration keeps choices()'s error semantics: the
    failure surfaces when a cell must actually be drawn."""
    source = BernoulliArrivals(4, load=1.0, weights=[0, 0, 0, 0], seed=1)
    with pytest.raises(ValueError):
        source.arrivals(10)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_bernoulli_weight_made_non_finite_raises_on_first_draw(value):
    """A weight made non-finite after construction fails the batch draw as
    it fails the per-slot one: choices()'s error at the first arrival, the
    generator left where the per-slot path leaves it."""
    batch, per_slot = (BernoulliArrivals(4, load=0.5, seed=1)
                       for _ in range(2))
    for source in (batch, per_slot):
        source.weights[2] = value
    with pytest.raises(ValueError, match="^Total of weights must be finite$"):
        batch.arrivals(10)
    with pytest.raises(ValueError, match="^Total of weights must be finite$"):
        for slot in range(10):
            per_slot.next_arrival(slot)
    assert batch._rng.getstate() == per_slot._rng.getstate()


# --------------------------------------------------------------------- #
# arrivals_slice — the chunked-execution window API
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("cls,kwargs", STATEFUL_CASES, ids=_IDS)
def test_slices_tile_into_the_monolithic_stream(cls, kwargs):
    """Consecutive arrivals_slice windows concatenate to one arrivals()
    call — the property the streaming engine rests on."""
    monolithic = list(cls(**kwargs).arrivals(5000))
    chunked_source = cls(**kwargs)
    chunked = []
    for start, count in ((0, 1), (1, 1024), (1025, 137), (1162, 3838)):
        chunked.extend(chunked_source.arrivals_slice(start, count))
    assert chunked == monolithic


@pytest.mark.parametrize("cls,kwargs", STATEFUL_CASES, ids=_IDS)
def test_stochastic_processes_declare_slot_invariance(cls, kwargs):
    assert cls(**kwargs).slot_invariant is True


def test_deterministic_slice_is_offset_aware():
    pattern = [0, None, 1, 2, None]
    source = DeterministicArrivals(pattern)
    full = source.arrivals(40)
    for start, count in ((0, 7), (3, 11), (5, 5), (13, 27)):
        assert source.arrivals_slice(start, count) \
            == full[start:start + count], (start, count)
    assert source.slot_invariant is False


def test_trace_slice_is_offset_aware_and_pads():
    pattern = [3, None, 1, 0]
    source = TraceArrivals(pattern)
    assert source.arrivals_slice(0, 4) == pattern
    assert source.arrivals_slice(2, 4) == [1, 0, None, None]
    assert source.arrivals_slice(10, 3) == [None, None, None]
    assert source.slot_invariant is False


def test_default_slice_calls_next_arrival_with_absolute_slots():
    from repro.traffic.arrivals import ArrivalProcess

    class SlotEcho(ArrivalProcess):
        def next_arrival(self, slot):
            return slot

    source = SlotEcho()
    assert source.arrivals_slice(5, 3) == [5, 6, 7]
    # Window zero routes through the subclass's own arrivals() batch, so a
    # custom batch override keeps its monolithic behaviour.
    assert list(source.arrivals_slice(0, 3)) == [0, 1, 2]
