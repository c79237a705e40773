"""Version-3 stream checkpoints written before MDQF, the adversaries and
``intermittent`` ran on the span kernel resume on it.

The fixtures were saved at slot 2345 of 5000 (700-slot chunks, warmup 900)
by array cores whose python slot loop ran those policies: the MDQF cores
kept no pending-request view, and the intermittent core no eligible list
for its inner random arbiter.  ``resume_core`` rebuilds both, and the
resumed run must equal the reference engine's uninterrupted one.
"""

from pathlib import Path

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.errors import CheckpointError
from repro.mma.mdqf import MDQF
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import resume_stream
from repro.traffic.arbiters import IntermittentArbiter, RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals, BurstyArrivals

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints"


def _rads(head_mma=None, arbiter=None):
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4,
                                    strict=False), head_mma=head_mma),
        BernoulliArrivals(8, load=0.9, seed=3),
        arbiter or RandomArbiter(8, seed=4, load=0.95))


def _cfds(head_mma=None):
    return ClosedLoopSimulation(
        CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                    granularity=2, num_banks=32,
                                    strict=False), head_mma=head_mma),
        BurstyArrivals(8, mean_burst_cells=16, load=0.9, seed=5),
        RandomArbiter(8, seed=6, load=0.95))


#: Each fixture and the simulation it checkpointed.
CASES = {
    "rads-mdqf": lambda: _rads(MDQF()),
    "cfds-mdqf": lambda: _cfds(MDQF()),
    "rads-intermittent": lambda: _rads(arbiter=IntermittentArbiter(
        RandomArbiter(8, seed=7, load=0.9), 50, 20)),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checkpoint_resumes_on_the_kernel(name):
    path = FIXTURES / f"{name}.ckpt.json"
    if kernel.load_kernel() is None:
        with pytest.raises(CheckpointError, match="unavailable"):
            resume_stream(path)
        return
    want = CASES[name]().run_stream(5000, engine="reference",
                                    chunk_slots=700, warmup_slots=900)
    registry = MetricsRegistry()
    with using_metrics(registry):
        # The fixtures set no checkpoint_every: nothing is written back.
        got = resume_stream(path)
    assert got.throughput == want.throughput
    assert got.latency == want.latency
    assert got.buffer_result == want.buffer_result
    assert registry.counter("engine.array.kernel_slots") == \
        registry.counter("engine.array.span_slots") > 5000 - 2345
