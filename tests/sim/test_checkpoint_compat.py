"""Stream checkpoints written by earlier builds.

Version 3 is refused, not converted.  Those fixtures were saved at slot
2345 of 5000 (700-slot chunks, warmup 900) by version-3 array cores, which
pickled python mirrors of the machine (lists, deques and heaps) that the
version-4 core no longer has: two MDQF cores (RADS and CFDS) and a RADS
core under an intermittent arbiter.  A version-4 core keeps the machine
once, in the span kernel's encoding, so ``resume_stream`` rejects each file
by its envelope version, with a one-line
:class:`~repro.errors.CheckpointError` naming both versions, before it
unpickles anything; a sweep worker then recomputes the run from scratch.

Version 4 still resumes when the kernel that wrote it kept each head SRAM
as a heap and RandomArbiter's backlogged queues as a sorted list on the
core.  Those fixtures were saved at slot 1700 of 3000 (700-slot chunks,
warmup 500, one checkpoint mark at 1700) by that kernel: a RADS core under
``RandomArbiter`` and a CFDS core with queue renaming.  Each image holds
head-SRAM segments in heap order that is not ascending, which the kernel
loads into ascending order when it opens the next span, and each pickled
core carries the ``eligible`` list, which nothing reads any more; the run
resumes to the uninterrupted run's report.
"""

import base64
import json
import pickle
import shutil
from pathlib import Path

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.errors import CheckpointError
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel as span_kernel
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import CHECKPOINT_VERSION, resume_stream
from repro.traffic.arbiters import RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints"

NAMES = ("cfds-mdqf", "rads-intermittent", "rads-mdqf")


@pytest.mark.parametrize("name", NAMES)
def test_version_3_checkpoint_is_refused(name):
    path = FIXTURES / f"{name}.ckpt.json"
    assert json.loads(path.read_text(encoding="utf-8"))["version"] == 3
    assert CHECKPOINT_VERSION == 4
    with pytest.raises(CheckpointError) as error:
        resume_stream(path)
    message = str(error.value)
    assert "\n" not in message
    assert "format version 3" in message
    assert "reads version 4" in message


def _rads_sim():
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4)),
        BernoulliArrivals(8, load=0.9, seed=3),
        RandomArbiter(8, load=0.95, seed=4))


def _cfds_sim():
    return ClosedLoopSimulation(
        CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                    granularity=2, num_banks=32,
                                    strict=False),
                         use_renaming=True, group_capacity_cells=48),
        BernoulliArrivals(8, load=0.9, seed=3),
        RandomArbiter(8, load=0.7, seed=4))


#: The version-4 fixtures of the heap-SRAM kernel and the simulation each
#: was saved from.
V4_FIXTURES = {"rads-random-v4": _rads_sim, "cfds-renaming-v4": _cfds_sim}

#: The run both fixtures checkpointed.
V4_GEOMETRY = dict(chunk_slots=700, warmup_slots=500)
V4_SLOTS = 3000


def _payload(path):
    document = json.loads(path.read_text(encoding="utf-8"))
    return document, pickle.loads(base64.b64decode(document["state_b64"]))


def _sram_segments(core):
    """Each queue's head-SRAM cells as the image lists them: the SRAM
    counts lead the image, and the tail and DRAM cells precede the SRAM
    part (layout above ``kptrs`` in ``_spankernel.c``)."""
    image, nq = core.image, core.num_queues
    at = 2 * nq + sum(core.tail_occ) + sum(core.dram_occ)
    segments = []
    for count in image[:nq]:
        segments.append(list(image[at:at + count]))
        at += count
    return segments


@pytest.mark.parametrize("name", sorted(V4_FIXTURES))
def test_version_4_fixture_holds_a_heap_ordered_sram(name):
    """The fixture is what this module says: a version-4 array core under
    RandomArbiter whose image lists some head SRAM in heap order that is
    not ascending, and which carries the retired eligible list."""
    document, payload = _payload(FIXTURES / f"{name}.ckpt.json")
    core = payload["core"]
    assert document["version"] == CHECKPOINT_VERSION == 4
    assert document["slot"] == 1700
    assert type(core.sim.arbiter) is RandomArbiter
    segments = _sram_segments(core)
    assert any(segment != sorted(segment) for segment in segments)
    assert all(len(set(segment)) == len(segment) for segment in segments)
    assert "eligible" in vars(core) and "eligible_len" in vars(core)


@pytest.mark.parametrize("name", sorted(V4_FIXTURES))
def test_version_4_fixture_resumes_to_the_uninterrupted_report(name,
                                                               tmp_path):
    path = tmp_path / f"{name}.ckpt.json"
    shutil.copyfile(FIXTURES / f"{name}.ckpt.json", path)
    make_sim = V4_FIXTURES[name]
    want = make_sim().run_stream(V4_SLOTS, engine="reference", **V4_GEOMETRY)
    assert make_sim().run_stream(V4_SLOTS, engine="array",
                                 **V4_GEOMETRY) == want
    registry = MetricsRegistry()
    with using_metrics(registry):
        assert resume_stream(path) == want
    if span_kernel.load_kernel() is not None:
        assert registry.counter("engine.array.kernel_spans") > 0
        assert registry.counter("engine.array.kernel_slots") == \
            registry.counter("engine.array.span_slots")
