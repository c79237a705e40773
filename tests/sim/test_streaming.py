"""The streaming path: chunk invariance, warmup, checkpoint/resume, memory.

The contract under test (ISSUE 5):

* a streamed run with ``warmup_slots=0`` is bit-identical to the monolithic
  run on the same engine, for **every** chunk size;
* the warmup reset lands at exactly ``warmup_slots`` regardless of chunking,
  so warmup reports are chunk- and engine-invariant;
* a run checkpointed mid-way and resumed from the snapshot file reproduces
  the uninterrupted run bit for bit, on all three engines and both schemes;
* peak memory is a function of ``chunk_slots``, never of ``num_slots`` —
  the arrival process is only ever asked for chunk-sized windows.
"""

import base64
import hashlib
import json
import os

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.obs.metrics import using_metrics
from repro.sim.engine import ClosedLoopSimulation
from repro.sim.streaming import (
    CHECKPOINT_VERSION,
    StreamingSimulation,
    read_checkpoint,
    resume_stream,
    run_stream,
)
from repro.traffic.arbiters import LongestQueueArbiter, RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals, TraceArrivals
from repro.workloads.registry import get_scenario

#: Both engines, plus ``batched``: the retired name must keep running the
#: reference loop on every streaming path, checkpoint resume included.
ENGINES = ("reference", "batched", "array")
#: One RADS and one CFDS registered scenario, as the acceptance criteria ask.
SCHEME_SCENARIOS = ("uniform-bernoulli", "markov-onoff")


def assert_reports_identical(left, right, context=""):
    assert left.throughput == right.throughput, context
    assert left.latency == right.latency, context
    assert left.buffer_result == right.buffer_result, context


# --------------------------------------------------------------------- #
# Chunk invariance
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("scenario_name", SCHEME_SCENARIOS)
@pytest.mark.parametrize("engine", ENGINES)
def test_streamed_equals_monolithic(scenario_name, engine):
    scenario = get_scenario(scenario_name)
    monolithic = scenario.build_simulation().run(scenario.num_slots,
                                                 engine=engine)
    for chunk in (137, 1000, scenario.num_slots, 10 * scenario.num_slots):
        streamed = scenario.build_simulation().run_stream(
            scenario.num_slots, engine=engine, chunk_slots=chunk)
        assert_reports_identical(streamed, monolithic,
                                 f"{scenario_name}/{engine}/chunk={chunk}")


@pytest.mark.parametrize("engine", ENGINES)
def test_streamed_drain_only_and_no_drain(engine):
    scenario = get_scenario("uniform-bernoulli")
    monolithic = scenario.build_simulation().run(scenario.num_slots,
                                                 drain=False, engine=engine)
    streamed = StreamingSimulation(scenario.build_simulation(),
                                   scenario.num_slots, engine=engine,
                                   drain=False, chunk_slots=333).run()
    assert_reports_identical(streamed, monolithic, engine)


def test_streamed_zero_slots():
    scenario = get_scenario("uniform-bernoulli")
    report = scenario.build_simulation().run_stream(0, engine="reference")
    assert report.throughput.arrivals == 0


# --------------------------------------------------------------------- #
# Warmup
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("scenario_name", SCHEME_SCENARIOS)
def test_warmup_is_chunk_and_engine_invariant(scenario_name):
    scenario = get_scenario(scenario_name)
    warmup = scenario.num_slots // 3
    reports = [
        scenario.build_simulation().run_stream(
            scenario.num_slots, engine=engine, chunk_slots=chunk,
            warmup_slots=warmup)
        for engine, chunk in (("reference", 97), ("reference", 4096),
                              ("array", 700), ("array", 131072))
    ]
    for report in reports[1:]:
        assert_reports_identical(report, reports[0], scenario_name)


def test_warmup_discards_the_transient():
    scenario = get_scenario("uniform-bernoulli")
    full = scenario.build_simulation().run_stream(scenario.num_slots,
                                                  engine="array")
    warmed = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="array",
        warmup_slots=scenario.num_slots // 2)
    # Measured window shrinks by exactly the warmup; drain slots unchanged.
    assert (full.throughput.slots - warmed.throughput.slots
            == scenario.num_slots // 2)
    assert warmed.throughput.arrivals < full.throughput.arrivals
    assert warmed.latency.count < full.latency.count
    # Engineering counters still cover the whole run.
    assert warmed.buffer_result.cells_in == full.buffer_result.cells_in
    assert (warmed.buffer_result.slots_simulated
            == full.buffer_result.slots_simulated)


def test_warmup_validation():
    scenario = get_scenario("uniform-bernoulli")
    sim = scenario.build_simulation()
    with pytest.raises(ConfigurationError, match="cannot exceed"):
        StreamingSimulation(sim, 100, warmup_slots=101)
    with pytest.raises(ConfigurationError, match="non-negative"):
        StreamingSimulation(sim, 100, warmup_slots=-1)


def test_warmup_equal_to_num_slots_measures_only_the_drain():
    scenario = get_scenario("uniform-bernoulli")
    report = scenario.build_simulation().run_stream(
        1000, engine="reference", warmup_slots=1000, chunk_slots=64)
    assert report.throughput.arrivals == 0
    # Cells still in flight at the boundary depart during the drain window.
    assert report.throughput.slots == report.buffer_result.slots_simulated - 1000


# --------------------------------------------------------------------- #
# Checkpoint / resume
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("scenario_name", SCHEME_SCENARIOS)
@pytest.mark.parametrize("engine", ENGINES)
def test_checkpoint_resume_bit_identical(scenario_name, engine, tmp_path):
    scenario = get_scenario(scenario_name)
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine=engine, chunk_slots=500)
    path = tmp_path / "run.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine=engine,
                                  chunk_slots=500)
    session.advance_to(scenario.num_slots * 2 // 5)
    session.save_checkpoint(path)
    resumed = resume_stream(path)
    assert_reports_identical(resumed, uninterrupted,
                             f"{scenario_name}/{engine}")


def test_checkpoint_resume_with_warmup_pending(tmp_path):
    """A snapshot taken *inside* the warmup window must still reset the
    measurement at the right boundary after resuming."""
    scenario = get_scenario("uniform-bernoulli")
    warmup = 1200
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="array", chunk_slots=256,
        warmup_slots=warmup)
    path = tmp_path / "warm.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="array",
                                  chunk_slots=256, warmup_slots=warmup)
    session.advance_to(512)  # still inside the warmup window
    session.save_checkpoint(path)
    resumed = resume_stream(path)
    assert_reports_identical(resumed, uninterrupted)


def test_run_writes_checkpoints_at_marks(tmp_path):
    scenario = get_scenario("uniform-bernoulli")
    path = tmp_path / "marks.ckpt.json"
    report = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="reference", chunk_slots=300,
        checkpoint_every=1000, checkpoint_path=path)
    assert path.exists()
    meta = read_checkpoint(path)
    # The last mark strictly inside the run (marks at num_slots are skipped:
    # the run completes instead).
    last_mark = (scenario.num_slots - 1) // 1000 * 1000
    assert meta["slot"] == last_mark
    assert meta["num_slots"] == scenario.num_slots
    assert meta["version"] == CHECKPOINT_VERSION
    # And the checkpointed run's own report is unaffected by snapshotting.
    monolithic = scenario.build_simulation().run(scenario.num_slots,
                                                 engine="reference")
    assert_reports_identical(report, monolithic)


def test_resume_continues_checkpointing(tmp_path):
    scenario = get_scenario("uniform-bernoulli")
    path = tmp_path / "cont.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="reference",
                                  chunk_slots=500, checkpoint_every=700,
                                  checkpoint_path=path)
    session.advance_to(700)
    session.save_checkpoint(path)
    resume_stream(path)
    # The resumed run rewrote later marks into the same file.
    assert read_checkpoint(path)["slot"] > 700


def test_checkpoint_requires_path():
    scenario = get_scenario("uniform-bernoulli")
    with pytest.raises(ConfigurationError, match="checkpoint_path"):
        StreamingSimulation(scenario.build_simulation(), 100,
                            checkpoint_every=10)


def test_read_checkpoint_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.ckpt.json"
    with pytest.raises(CheckpointError, match="cannot read"):
        read_checkpoint(missing)
    not_json = tmp_path / "garbage.ckpt.json"
    not_json.write_text("{truncated", encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        read_checkpoint(not_json)
    wrong_format = tmp_path / "other.json"
    wrong_format.write_text(json.dumps({"format": "something-else"}),
                            encoding="utf-8")
    with pytest.raises(CheckpointError, match="not a repro streaming"):
        read_checkpoint(wrong_format)


def test_checkpoint_version_and_digest_guards(tmp_path):
    scenario = get_scenario("uniform-bernoulli")
    path = tmp_path / "run.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="reference",
                                  chunk_slots=500)
    session.advance_to(1000)
    session.save_checkpoint(path)

    document = json.loads(path.read_text(encoding="utf-8"))
    future = dict(document, version=CHECKPOINT_VERSION + 1)
    path.write_text(json.dumps(future), encoding="utf-8")
    with pytest.raises(CheckpointError, match="format version"):
        resume_stream(path)

    corrupt = dict(document)
    corrupt["state_b64"] = corrupt["state_b64"][:-8] + "AAAAAAAA"
    path.write_text(json.dumps(corrupt), encoding="utf-8")
    with pytest.raises(CheckpointError, match="digest mismatch"):
        resume_stream(path)

    missing_field = dict(document)
    del missing_field["engine"]
    path.write_text(json.dumps(missing_field), encoding="utf-8")
    with pytest.raises(CheckpointError, match="missing field"):
        resume_stream(path)


def test_corrupt_checkpoints_always_fail_cleanly(tmp_path):
    """Every on-disk corruption mode surfaces as a CheckpointError with a
    message naming the file — never a raw KeyError/binascii.Error/pickle
    exception from the decode internals."""
    scenario = get_scenario("uniform-bernoulli")
    path = tmp_path / "run.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="reference",
                                  chunk_slots=500)
    session.advance_to(1000)
    session.save_checkpoint(path)
    text = path.read_text(encoding="utf-8")
    document = json.loads(text)

    # A write that died halfway: the envelope itself is cut mid-document.
    path.write_text(text[:len(text) // 2], encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        resume_stream(path)

    # The state payload is not even base64 (would be binascii.Error raw).
    bad_b64 = dict(document, state_b64="!!! not base64 !!!")
    path.write_text(json.dumps(bad_b64), encoding="utf-8")
    with pytest.raises(CheckpointError, match="not valid base64"):
        resume_stream(path)

    # The state payload has the wrong JSON type (would be TypeError raw).
    bad_type = dict(document, state_b64=12345)
    path.write_text(json.dumps(bad_type), encoding="utf-8")
    with pytest.raises(CheckpointError):
        resume_stream(path)

    # Digest-consistent garbage: valid base64, matching sha256, but the
    # blob is not a pickle (would be UnpicklingError raw).
    blob = b"this is not a pickle stream"
    forged = dict(document,
                  state_b64=base64.b64encode(blob).decode("ascii"),
                  sha256=hashlib.sha256(blob).hexdigest())
    path.write_text(json.dumps(forged), encoding="utf-8")
    with pytest.raises(CheckpointError, match="cannot be unpickled"):
        resume_stream(path)


def test_save_checkpoint_is_atomic(tmp_path):
    """No ``*.tmp.*`` residue next to a written snapshot."""
    scenario = get_scenario("uniform-bernoulli")
    path = tmp_path / "atomic.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="array",
                                  chunk_slots=500)
    session.advance_to(500)
    session.save_checkpoint(path)
    assert [p.name for p in tmp_path.iterdir()] == ["atomic.ckpt.json"]


# --------------------------------------------------------------------- #
# Bounded memory
# --------------------------------------------------------------------- #

class WindowSpy(BernoulliArrivals):
    """Records every window the engine asks for, to prove chunking."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = []

    def arrivals_slice(self, start_slot, num_slots):
        self.windows.append((start_slot, num_slots))
        return super().arrivals_slice(start_slot, num_slots)


@pytest.mark.parametrize("engine", ENGINES)
def test_peak_memory_is_chunk_bounded_not_horizon_bounded(engine):
    """The arrival process is only ever asked for chunk-sized windows, and
    the windows tile the horizon exactly — no engine materialises an
    O(num_slots) plan on the streaming path."""
    num_slots, chunk = 10_000, 512
    spy = WindowSpy(num_queues=4, load=0.8, seed=9)
    sim = ClosedLoopSimulation(
        get_scenario("uniform-bernoulli").build_buffer(), spy,
        LongestQueueArbiter(4))
    run_stream(sim, num_slots, engine=engine, chunk_slots=chunk)
    assert max(count for _, count in spy.windows) <= chunk
    assert sum(count for _, count in spy.windows) == num_slots
    starts = [start for start, _ in spy.windows]
    assert starts == sorted(starts)
    assert spy.windows[0][0] == 0


class BatchSpy(BernoulliArrivals):
    """Records every batch draw: a process that overrides ``arrivals``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.windows = []

    def arrivals(self, num_slots):
        self.windows.append((None, num_slots))
        return super().arrivals(num_slots)


@pytest.mark.parametrize("spy_class", [WindowSpy, BatchSpy],
                         ids=["arrivals_slice", "arrivals"])
def test_overriding_processes_keep_their_python_windows(spy_class):
    """A Bernoulli subclass that overrides ``arrivals_slice`` or
    ``arrivals`` is asked for every chunk's window, even where the span
    kernel would draw a stock process's plan (random arbiter, chunks past
    the kernel's minimum span); the report matches the reference engine."""
    def run(engine):
        spy = spy_class(num_queues=8, load=0.8, seed=9)
        sim = ClosedLoopSimulation(
            get_scenario("uniform-bernoulli").build_buffer(), spy,
            RandomArbiter(8, seed=10))
        return run_stream(sim, 3000, engine=engine, chunk_slots=700,
                          warmup_slots=1000), spy

    reference, _ = run("reference")
    with using_metrics() as registry:
        array, spy = run("array")
    assert_reports_identical(array, reference)
    assert [count for _, count in spy.windows] == [700, 700, 700, 700, 200]
    assert registry.counter("engine.array.kernel_plan_slots") == 0


def test_all_zero_weights_raise_the_python_draws_error():
    """All-zero weights keep their python windows, so the first arrival
    raises ``choices()``'s own error on every engine, streamed or not."""
    def make_sim():
        return ClosedLoopSimulation(
            get_scenario("uniform-bernoulli").build_buffer(),
            BernoulliArrivals(8, load=0.9, weights=[0.0] * 8, seed=5),
            RandomArbiter(8, seed=6))

    with pytest.raises(ValueError) as reference:
        make_sim().run_stream(2000, engine="reference", chunk_slots=700)
    for run in (lambda: make_sim().run_stream(2000, engine="array",
                                              chunk_slots=700),
                lambda: make_sim().run(2000, engine="array")):
        with pytest.raises(ValueError) as array:
            run()
        assert str(array.value) == str(reference.value)


def test_checkpoint_size_is_horizon_independent(tmp_path):
    """Snapshot size reflects live state (queues, histogram), not the
    horizon: checkpointing at the same fill level of a 4x longer run must
    not grow the file materially."""
    scenario = get_scenario("uniform-bernoulli")
    sizes = {}
    for label, num_slots in (("short", 4000), ("long", 16000)):
        path = tmp_path / f"{label}.ckpt.json"
        session = StreamingSimulation(scenario.build_simulation(),
                                      num_slots, engine="array",
                                      chunk_slots=500)
        session.advance_to(2000)
        session.save_checkpoint(path)
        sizes[label] = os.path.getsize(path)
    assert sizes["long"] <= sizes["short"] * 1.5


# --------------------------------------------------------------------- #
# Open-ended (feed) sessions
# --------------------------------------------------------------------- #

def test_feed_session_matches_trace_arrivals_run():
    pattern = BernoulliArrivals(num_queues=4, load=0.7, seed=21).arrivals(3000)
    scenario = get_scenario("uniform-bernoulli")

    monolithic = ClosedLoopSimulation(
        scenario.build_buffer(), TraceArrivals(pattern),
        LongestQueueArbiter(4)).run(len(pattern), engine="array")

    session = StreamingSimulation(
        ClosedLoopSimulation(scenario.build_buffer(), None,
                             LongestQueueArbiter(4)),
        None, engine="array")
    for start in range(0, len(pattern), 271):
        session.feed(pattern[start:start + 271])
    streamed = session.finish()
    assert_reports_identical(streamed, monolithic)


def test_feed_rejects_sized_sessions_and_vice_versa():
    scenario = get_scenario("uniform-bernoulli")
    sized = StreamingSimulation(scenario.build_simulation(), 100)
    with pytest.raises(ConfigurationError, match="open-ended"):
        sized.feed([None] * 10)
    with pytest.raises(ConfigurationError, match="cannot advance to slot"):
        sized.advance_to(101)
    open_ended = StreamingSimulation(scenario.build_simulation(), None)
    with pytest.raises(ConfigurationError, match="num_slots"):
        open_ended.run()
    with pytest.raises(ConfigurationError, match="num_slots"):
        open_ended.advance_to(10)


def test_finish_guards():
    scenario = get_scenario("uniform-bernoulli")
    session = StreamingSimulation(scenario.build_simulation(), 1000,
                                  chunk_slots=100)
    with pytest.raises(ConfigurationError, match="cannot finish"):
        session.finish()
    under_warmed = StreamingSimulation(scenario.build_simulation(), None,
                                       warmup_slots=50)
    under_warmed.feed([None] * 10)
    with pytest.raises(ConfigurationError, match="warmup"):
        under_warmed.finish()


def test_finished_session_rejects_further_use():
    from repro.errors import StaleSimulationError

    scenario = get_scenario("uniform-bernoulli")
    session = StreamingSimulation(scenario.build_simulation(), 200,
                                  chunk_slots=100)
    session.run()
    with pytest.raises(StaleSimulationError, match="already produced"):
        session._span([None])


@pytest.mark.parametrize("engine", ENGINES)
def test_double_finish_raises_on_every_engine(engine):
    """Without the guard the non-core path would silently re-run the drain
    window and report inflated slot counts."""
    from repro.errors import StaleSimulationError

    scenario = get_scenario("uniform-bernoulli")
    session = StreamingSimulation(scenario.build_simulation(), 200,
                                  engine=engine, chunk_slots=100)
    session.run()
    with pytest.raises(StaleSimulationError, match="already produced"):
        session.finish()


# --------------------------------------------------------------------- #
# Scenario / job-spec integration
# --------------------------------------------------------------------- #

def test_run_scenario_spec_streamed_matches_monolithic(tmp_path):
    from repro.workloads.scenario import run_scenario_spec

    scenario = get_scenario("uniform-bernoulli")
    plain = run_scenario_spec(scenario.to_spec(), engine="array")
    streamed = run_scenario_spec(scenario.to_spec(), engine="array",
                                 stream=True, chunk_slots=700)
    assert streamed == plain

    # With a checkpoint_dir the run is crash-resumable and cleans up after
    # itself once complete.
    resumable = run_scenario_spec(scenario.to_spec(), engine="array",
                                  stream=True, chunk_slots=700,
                                  checkpoint_every=800,
                                  checkpoint_dir=str(tmp_path))
    assert resumable == plain
    assert list(tmp_path.iterdir()) == []


def test_run_scenario_spec_resumes_from_existing_checkpoint(tmp_path):
    """A snapshot left behind by a crashed worker is picked up and finished
    instead of restarting from slot 0."""
    import hashlib

    from repro.workloads.scenario import run_scenario_spec

    scenario = get_scenario("uniform-bernoulli")
    plain = run_scenario_spec(scenario.to_spec(), engine="array")

    # Reproduce the path run_scenario_spec derives for these kwargs.
    signature = json.dumps(
        {"spec": scenario.to_spec(), "engine": "array",
         "chunk_slots": 700, "warmup_slots": 0},
        sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(signature.encode("utf-8")).hexdigest()[:16]
    path = tmp_path / f"{scenario.name}-{digest}.ckpt.json"

    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="array",
                                  chunk_slots=700)
    session.advance_to(1400)
    session.save_checkpoint(path)

    resumed = run_scenario_spec(scenario.to_spec(), engine="array",
                                stream=True, chunk_slots=700,
                                checkpoint_every=800,
                                checkpoint_dir=str(tmp_path))
    assert resumed == plain
    assert not path.exists()


def test_stale_checkpoint_falls_back_to_fresh_run(tmp_path):
    """An unreadable snapshot in the checkpoint_dir must not wedge the job:
    run_scenario_spec discards it and recomputes from slot 0."""
    import hashlib

    from repro.workloads.scenario import run_scenario_spec

    scenario = get_scenario("uniform-bernoulli")
    plain = run_scenario_spec(scenario.to_spec(), engine="array")
    signature = json.dumps(
        {"spec": scenario.to_spec(), "engine": "array",
         "chunk_slots": 700, "warmup_slots": 0},
        sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(signature.encode("utf-8")).hexdigest()[:16]
    path = tmp_path / f"{scenario.name}-{digest}.ckpt.json"
    path.write_text("{definitely not a checkpoint", encoding="utf-8")

    recovered = run_scenario_spec(scenario.to_spec(), engine="array",
                                  stream=True, chunk_slots=700,
                                  checkpoint_every=800,
                                  checkpoint_dir=str(tmp_path))
    assert recovered == plain
    assert not path.exists()


def test_checkpoint_records_scenario_label(tmp_path):
    path = tmp_path / "labelled.ckpt.json"
    scenario = get_scenario("uniform-bernoulli")
    scenario.run_stream(checkpoint_every=1000, checkpoint_path=path)
    assert read_checkpoint(path)["label"] == "uniform-bernoulli"
    session = StreamingSimulation.load_checkpoint(path)
    assert session.label == "uniform-bernoulli"


# --------------------------------------------------------------------- #
# Crash-resume under injected faults
# --------------------------------------------------------------------- #

_KILLED_CHILD = """\
import os
import signal
import sys

from repro.sim.streaming import StreamingSimulation
from repro.workloads.registry import get_scenario

scenario = get_scenario(sys.argv[1])
session = StreamingSimulation(scenario.build_simulation(), scenario.num_slots,
                              engine=sys.argv[2], chunk_slots=500)
session.advance_to(scenario.num_slots * 2 // 5)
session.save_checkpoint(sys.argv[3])
# Progress past the snapshot dies with the process: the resumed run must
# recompute it, not trust anything the killed process did afterwards.
session.advance_to(scenario.num_slots * 3 // 5)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_sigkilled_run_resumes_bit_identically(engine, tmp_path):
    """SIGKILL mid-chunk — the harshest crash there is: no atexit, no
    flush, nothing.  The surviving checkpoint must replay to the exact
    uninterrupted report."""
    import signal
    import subprocess
    import sys

    import repro

    scenario = get_scenario("uniform-bernoulli")
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine=engine, chunk_slots=500)
    path = tmp_path / "killed.ckpt.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(os.path.dirname(os.path.dirname(repro.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_CHILD, "uniform-bernoulli", engine,
         str(path)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    resumed = resume_stream(path)
    assert_reports_identical(resumed, uninterrupted, f"sigkill/{engine}")


@pytest.mark.parametrize("engine", ENGINES)
def test_truncated_envelope_then_retry_resumes_identically(engine, tmp_path):
    """A checkpoint torn by the injector must fail loudly, and retrying
    from the previous intact snapshot must land on the exact same report."""
    from repro.faults import FaultInjector, FaultPlan

    scenario = get_scenario("uniform-bernoulli")
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine=engine, chunk_slots=500)
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine=engine,
                                  chunk_slots=500)
    early = tmp_path / "early.ckpt.json"
    late = tmp_path / "late.ckpt.json"
    session.advance_to(1000)
    session.save_checkpoint(early)
    session.advance_to(2000)
    session.save_checkpoint(late)

    injector = FaultInjector(FaultPlan(master_seed=5, rates={"corrupt": 1.0}))
    assert injector.corrupt_file(late, f"test-tear:{engine}")
    with pytest.raises(CheckpointError):
        resume_stream(late)
    # The torn file is still on disk, untouched by the failed load.
    resumed = resume_stream(early)
    assert_reports_identical(resumed, uninterrupted, f"torn/{engine}")


def test_injected_resume_fault_fails_cleanly_then_recovers(tmp_path):
    """End-to-end through the wired fault site: resume_stream's own
    corrupt_file hook tears the checkpoint, the load raises
    CheckpointError, and a pristine copy still resumes identically."""
    import shutil

    from repro.faults import FaultInjector, FaultPlan, using_faults

    scenario = get_scenario("uniform-bernoulli")
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="array", chunk_slots=500)
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="array",
                                  chunk_slots=500)
    path = tmp_path / "run.ckpt.json"
    backup = tmp_path / "run.ckpt.json.backup"
    session.advance_to(1000)
    session.save_checkpoint(path)
    shutil.copy(path, backup)

    plan = FaultPlan(master_seed=7, rates={"corrupt": 1.0})
    with using_faults(FaultInjector(plan)):
        with pytest.raises(CheckpointError):
            resume_stream(path)
    shutil.copy(backup, path)
    resumed = resume_stream(path)
    assert_reports_identical(resumed, uninterrupted, "resume-fault")
