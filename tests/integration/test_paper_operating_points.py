"""The touch-then-hammer adversary at the paper's operating points, on the
span kernel.

Trace arrivals preload B cells into each of queues 1..Q-1, then L + 2B
cells into queue 0; a trace arbiter then requests each queue once, B slots
apart, and then queue 0 for L slots in a row.  With the default lookahead
L = Q(B-1) + B and the default head SRAM, ECQF misses nothing, and the
head SRAM peaks at about twice the paper's Q(B-1): the cells ECQF fetched
for requests already in the lookahead come on top of the unclaimed ones.
Both runs take every slot on the kernel; the reference engine checks the
OC-768 report and is too slow to check OC-3072's in tier-1.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel
from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import TraceArbiter
from repro.traffic.arrivals import TraceArrivals


def touch_then_hammer(num_queues, granularity):
    """The closed-loop adversary and its number of slots."""
    config = RADSConfig(num_queues=num_queues, granularity=granularity)
    lookahead = config.effective_lookahead
    arrivals = ([queue for queue in range(1, num_queues)
                 for _ in range(granularity)]
                + [0] * (lookahead + 2 * granularity))
    requests = [None] * len(arrivals)
    for queue in range(num_queues):
        requests += [queue] + [None] * (granularity - 1)
    requests += [0] * lookahead
    sim = ClosedLoopSimulation(RADSPacketBuffer(config),
                               TraceArrivals(arrivals),
                               TraceArbiter(requests))
    return sim, len(requests)


def run_on_kernel(num_queues, granularity):
    sim, num_slots = touch_then_hammer(num_queues, granularity)
    registry = MetricsRegistry()
    with using_metrics(registry):
        report = sim.run(num_slots, engine="array")
    if kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_slots") == \
            registry.counter("engine.array.span_slots") > num_slots
    return report


def test_oc768_peak_equals_the_reference():
    """OC-768 (Q=128, B=8, L=904): peak 1791 cells, zero misses, and the
    report equals the reference engine's."""
    array = run_on_kernel(128, 8)
    sim, num_slots = touch_then_hammer(128, 8)
    reference = sim.run(num_slots, engine="reference")
    assert array.throughput == reference.throughput
    assert array.latency == reference.latency
    assert array.buffer_result == reference.buffer_result
    assert array.buffer_result.max_head_sram_occupancy == 1791
    assert array.buffer_result.zero_miss


@pytest.mark.skipif(kernel.load_kernel() is None,
                    reason="no C compiler: the run would take the "
                           "reference engine, too slow for tier-1")
def test_oc3072_peak():
    """OC-3072 (Q=512, B=32, L=15,904; 64,608 slots): peak 31,743 cells,
    zero misses."""
    report = run_on_kernel(512, 32)
    assert report.buffer_result.max_head_sram_occupancy == 31743
    assert report.buffer_result.zero_miss
