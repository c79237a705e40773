"""Reproduction finding: at the paper's lookahead ``Q(B-1)+1`` ECQF misses
once when the adversary's burst is not aligned with its decision grid.

The classical bound assumes the round-robin burst starts on a decision slot
(one decision every ``B`` slots).  Started ``k`` idle slots later, for any
``k`` in ``1..B-1``, the same burst costs exactly one head-SRAM miss, and
lengthening the lookahead by ``B-1`` slots (``Q(B-1)+B``, what
:func:`~repro.rads.sizing.ecqf_safe_lookahead` returns) removes it without
growing the head SRAM past ``Q(B-1)+B-1`` cells.  Head SRAM is unbounded and
the run non-strict, so every miss is counted rather than raised.
"""

import pytest

from repro.rads.config import RADSConfig
from repro.rads.head_buffer import RADSHeadBuffer
from repro.rads.sizing import ecqf_safe_lookahead
from repro.traffic.arbiters import RoundRobinAdversary

SLOTS = 2000
GEOMETRIES = [(8, 4), (32, 8)]


def _run(num_queues, granularity, lookahead, idle_slots):
    config = RADSConfig(num_queues=num_queues, granularity=granularity,
                        lookahead=lookahead, head_sram_cells=10 ** 9,
                        strict=False)
    buffer = RADSHeadBuffer(config)
    adversary = RoundRobinAdversary(num_queues)
    unbounded = [10 ** 9] * num_queues
    requests = [None] * idle_slots + [
        adversary.next_request(slot, unbounded) for slot in range(SLOTS)]
    return buffer.run(requests)


@pytest.mark.parametrize("num_queues,granularity", GEOMETRIES)
def test_paper_lookahead_misses_once_off_the_decision_grid(num_queues,
                                                          granularity):
    lookahead = num_queues * (granularity - 1) + 1
    misses = [len(_run(num_queues, granularity, lookahead, idle).misses)
              for idle in range(granularity)]
    assert misses == [0] + [1] * (granularity - 1)


@pytest.mark.parametrize("num_queues,granularity", GEOMETRIES)
def test_safe_lookahead_never_misses(num_queues, granularity):
    lookahead = ecqf_safe_lookahead(num_queues, granularity)
    assert lookahead == num_queues * (granularity - 1) + granularity
    for idle in range(granularity):
        result = _run(num_queues, granularity, lookahead, idle)
        assert result.misses == []
        assert result.cells_out == SLOTS
        assert (result.max_head_sram_occupancy
                <= num_queues * (granularity - 1) + granularity - 1)
