"""The observability layer's hard invariants, end to end.

* Enabling metrics and tracing never changes any report — scenario runs on
  all three engines, switch runs and the differential fuzzer produce
  bit-identical results with and without observability installed.
* Metric state rides inside the checkpoint envelope: a run checkpointed and
  resumed reports the same cumulative work counters as the uninterrupted
  run.
* The disabled path costs nothing measurable: a ``run()`` with metrics off
  is within noise of calling the engine dispatch directly (wide-128, the
  per-slot-overhead stressor).
"""

import time

import pytest

from repro.bench.suite import wide_scenario
from repro.obs.metrics import disable_metrics, enable_metrics, using_metrics
from repro.obs.trace import TraceWriter, set_trace, using_trace
from repro.sim import resolve_engine
from repro.sim.streaming import StreamingSimulation
from repro.workloads.fuzz import fuzz_many
from repro.workloads.registry import get_scenario

#: Both engines, plus ``batched``: the retired name runs the reference loop.
ENGINES = ("reference", "batched", "array")


@pytest.fixture(autouse=True)
def _observability_off():
    previous = disable_metrics()
    previous_trace = set_trace(None)
    yield
    disable_metrics()
    if previous is not None:
        enable_metrics(previous)
    set_trace(previous_trace)


def assert_reports_identical(left, right, context=""):
    assert left.throughput == right.throughput, context
    assert left.latency == right.latency, context
    assert left.buffer_result == right.buffer_result, context


# --------------------------------------------------------------------- #
# Observability never changes a report
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("engine", ENGINES)
def test_metrics_and_trace_leave_reports_bit_identical(engine, tmp_path):
    scenario = get_scenario("uniform-bernoulli")
    plain = scenario.build_simulation().run(1500, engine=engine)
    with using_metrics() as registry:
        with TraceWriter(tmp_path / "t.ndjson") as writer:
            with using_trace(writer):
                observed = scenario.build_simulation().run(1500,
                                                           engine=engine)
    assert_reports_identical(plain, observed, engine)
    # And the run really was recorded.
    assert registry.counter(f"engine.{resolve_engine(engine)}.runs") == 1
    assert registry.counter("engine.slots_simulated") == 1500


def test_streamed_run_is_invariant_under_metrics(tmp_path):
    scenario = get_scenario("markov-onoff")
    plain = scenario.build_simulation().run_stream(2000, engine="array",
                                                  chunk_slots=300)
    with using_metrics() as registry:
        observed = scenario.build_simulation().run_stream(2000,
                                                          engine="array",
                                                          chunk_slots=300)
    assert_reports_identical(plain, observed)
    # The session registry folded into the active one at finish().
    assert registry.counter("stream.slots") >= 2000
    assert registry.counter("stream.chunks") >= 7


def test_fuzzer_passes_with_observability_enabled(tmp_path):
    """The differential fuzzer pins the whole invariant: every engine,
    monolithic and streamed, stays bit-identical while metrics and tracing
    are live."""
    with using_metrics() as registry:
        with TraceWriter(tmp_path / "fuzz.ndjson") as writer:
            with using_trace(writer):
                summary = fuzz_many(3, master_seed=101)
    assert summary.ok, summary.failures
    assert summary.cases == 3
    assert registry.counter("fuzz.cases") == 3
    assert registry.counter("fuzz.divergent_cases") == 0


# --------------------------------------------------------------------- #
# Metric state across checkpoint/resume
# --------------------------------------------------------------------- #

def test_resumed_metric_totals_equal_the_uninterrupted_run(tmp_path):
    scenario = get_scenario("uniform-bernoulli")
    num_slots, chunk, every = 2500, 500, 1000

    path_a = tmp_path / "a.ckpt.json"
    session_a = StreamingSimulation(scenario.build_simulation(), num_slots,
                                    engine="array", chunk_slots=chunk,
                                    checkpoint_every=every,
                                    checkpoint_path=path_a)
    report_a = session_a.run()
    snap_a = session_a.metrics_snapshot()

    path_b = tmp_path / "b.ckpt.json"
    session_b = StreamingSimulation(scenario.build_simulation(), num_slots,
                                    engine="array", chunk_slots=chunk,
                                    checkpoint_every=every,
                                    checkpoint_path=path_b)
    session_b.advance_to(1000)  # die exactly at the first mark
    session_b.save_checkpoint(path_b)
    session_c = StreamingSimulation.load_checkpoint(path_b)
    report_c = session_c.run()
    snap_c = session_c.metrics_snapshot()

    assert_reports_identical(report_a, report_c)
    # The work counters are cumulative across the resume: identical to the
    # uninterrupted run's.
    for name in ("stream.chunks", "stream.slots",
                 "stream.checkpoints_saved"):
        assert snap_c["counters"][name] == snap_a["counters"][name], name
    # Only the resume marker distinguishes the two sessions.
    assert snap_c["counters"]["stream.checkpoints_resumed"] == 1
    assert "stream.checkpoints_resumed" not in snap_a["counters"]


def test_metric_state_survives_the_envelope_bit_identically(tmp_path):
    scenario = get_scenario("uniform-bernoulli")
    path = tmp_path / "mid.ckpt.json"
    session = StreamingSimulation(scenario.build_simulation(), 2000,
                                  engine="reference", chunk_slots=300)
    session.advance_to(900)
    session.save_checkpoint(path)
    saved = session.metrics_snapshot()

    resumed = StreamingSimulation.load_checkpoint(path)
    restored = resumed.metrics_snapshot()
    # Counters and gauges round-trip exactly (modulo the resume marker);
    # the chunk timer — fully inside the envelope — does too.  (The save
    # timer is recorded after the envelope is written, so it is the one
    # timer a snapshot legitimately lags on.)
    restored_counters = dict(restored["counters"])
    assert restored_counters.pop("stream.checkpoints_resumed") == 1
    assert restored_counters == saved["counters"]
    assert restored["gauges"] == saved["gauges"]
    assert restored["timers"]["stream.chunk_s"] == \
        saved["timers"]["stream.chunk_s"]


# --------------------------------------------------------------------- #
# The progress heartbeat
# --------------------------------------------------------------------- #

def test_progress_heartbeat_reports_and_changes_nothing():
    scenario = get_scenario("uniform-bernoulli")
    beats = []
    plain = scenario.build_simulation().run_stream(2000, engine="array",
                                                   chunk_slots=250)
    observed = scenario.build_simulation().run_stream(
        2000, engine="array", chunk_slots=250,
        progress=beats.append, progress_every=2)
    assert_reports_identical(plain, observed)
    # 8 chunks, a beat every 2nd: slots 500, 1000, 1500, 2000.
    assert [beat["slot"] for beat in beats] == [500, 1000, 1500, 2000]
    final = beats[-1]
    assert final["num_slots"] == 2000
    assert final["chunks"] == 8
    assert final["elapsed_s"] > 0
    assert final["slots_per_s"] > 0


# --------------------------------------------------------------------- #
# Metrics off: nothing measurable
# --------------------------------------------------------------------- #

def test_disabled_metrics_overhead_is_within_noise():
    """``run()`` with observability off short-circuits to the engine
    dispatch; on the wide-128 stressor the wrapper must stay within noise
    of calling the dispatch directly.  The bound is deliberately loose
    (shared CI machines) — the real cost is one module-global read."""
    scenario = wide_scenario(num_slots=1500)

    def once(direct):
        sim = scenario.build_simulation()
        started = time.perf_counter()
        if direct:
            sim._run_engine(1500, True, "array")
        else:
            sim.run(1500, engine="array")
        return time.perf_counter() - started

    wrapped, direct = [], []
    for _ in range(5):  # interleaved, medians: robust to one noisy rep
        direct.append(once(direct=True))
        wrapped.append(once(direct=False))
    def median(samples):
        return sorted(samples)[len(samples) // 2]

    assert median(wrapped) <= median(direct) * 1.5 + 0.002
