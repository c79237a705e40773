"""Version-3 stream checkpoints are refused, not converted.

The fixtures were saved at slot 2345 of 5000 (700-slot chunks, warmup 900)
by version-3 array cores, which pickled python mirrors of the machine
(lists, deques and heaps) that the version-4 core no longer has: two MDQF
cores (RADS and CFDS) and a RADS core under an intermittent arbiter.  A
version-4 core keeps the machine once, in the span kernel's encoding, so
``resume_stream`` rejects each file by its envelope version, with a
one-line :class:`~repro.errors.CheckpointError` naming both versions,
before it unpickles anything; a sweep worker then recomputes the run from
scratch.
"""

import json
from pathlib import Path

import pytest

from repro.errors import CheckpointError
from repro.sim.streaming import CHECKPOINT_VERSION, resume_stream

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
