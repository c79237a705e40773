"""The NDJSON trace writer, the module-level emit hook and the inspector."""

import json

import pytest

from repro.obs.trace import (
    TraceWriter,
    emit,
    get_trace,
    read_events,
    render_trace_summary,
    set_trace,
    summarize_trace,
    using_trace,
)


@pytest.fixture(autouse=True)
def _trace_off():
    previous = set_trace(None)
    yield
    set_trace(previous)


def read_lines(path):
    return [json.loads(line) for line in
            path.read_text(encoding="utf-8").splitlines()]


class TestWriter:
    def test_open_and_close_frame_the_file(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with TraceWriter(path) as writer:
            writer.emit("chunk", slots=500)
        events = read_lines(path)
        assert [e["event"] for e in events] == \
            ["trace_open", "chunk", "trace_close"]
        assert events[1]["slots"] == 500
        # Every event carries both clocks.
        assert all("ts" in e and "elapsed_s" in e for e in events)
        # trace_close reports how many lines preceded it.
        assert events[-1]["events"] == 2

    def test_events_are_flushed_per_line(self, tmp_path):
        path = tmp_path / "t.ndjson"
        writer = TraceWriter(path)
        writer.emit("chunk", slots=1)
        # Readable before close — a crashed run's trace is usable.
        assert [e["event"] for e in read_lines(path)] == \
            ["trace_open", "chunk"]
        writer.close()

    def test_close_is_idempotent(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.ndjson")
        writer.close()
        writer.close()
        writer.emit("chunk")  # silently dropped after close
        assert [e["event"] for e in read_lines(tmp_path / "t.ndjson")] == \
            ["trace_open", "trace_close"]

    def test_non_json_fields_are_stringified(self, tmp_path):
        path = tmp_path / "t.ndjson"
        with TraceWriter(path) as writer:
            writer.emit("checkpoint_saved", path=path)
        assert read_lines(path)[1]["path"] == str(path)


class TestCurrentWriter:
    def test_emit_without_a_writer_is_a_no_op(self):
        assert get_trace() is None
        emit("chunk", slots=1)  # must not raise

    def test_using_trace_installs_and_restores(self, tmp_path):
        with TraceWriter(tmp_path / "t.ndjson") as writer:
            with using_trace(writer):
                assert get_trace() is writer
                emit("chunk", slots=7)
            assert get_trace() is None
        events = read_lines(tmp_path / "t.ndjson")
        assert events[1] == {**events[1], "event": "chunk", "slots": 7}

    def test_using_trace_does_not_close_the_writer(self, tmp_path):
        writer = TraceWriter(tmp_path / "t.ndjson")
        with using_trace(writer):
            pass
        writer.emit("chunk")  # still open
        writer.close()


class TestInspector:
    def write_trace(self, path, events):
        with path.open("w", encoding="utf-8") as handle:
            for index, (event, fields) in enumerate(events):
                record = {"ts": 1000.0 + index, "elapsed_s": float(index),
                          "event": event, **fields}
                handle.write(json.dumps(record) + "\n")

    def test_summary_aggregates_the_headline_numbers(self, tmp_path):
        path = tmp_path / "t.ndjson"
        self.write_trace(path, [
            ("trace_open", {}),
            ("chunk", {"slots": 500, "duration_s": 0.1}),
            ("chunk", {"slots": 300, "duration_s": 0.1}),
            ("checkpoint_saved", {"duration_s": 0.02}),
            ("checkpoint_resumed", {"slot": 500}),
            ("job_cached", {}),
            ("job_dispatched", {}),
            ("run_end", {"slots": 800}),
            ("fuzz_divergence", {"index": 3, "leg": "array",
                                 "field": "latency"}),
            ("trace_close", {}),
        ])
        summary = summarize_trace(path)
        assert summary["events"] == 10
        assert summary["by_type"]["chunk"] == 2
        assert summary["span_s"] == pytest.approx(9.0)
        assert summary["chunk_slots_total"] == 800
        assert summary["chunk_kslots_per_s"] == pytest.approx(4.0)
        assert summary["checkpoints_saved"] == 1
        assert summary["checkpoints_resumed"] == 1
        assert summary["resumed_from_slot"] == 500
        assert summary["jobs_cached"] == 1
        assert summary["jobs_dispatched"] == 1
        assert summary["runs"] == 1
        assert summary["slots_simulated"] == 800
        assert summary["fuzz_divergences"] == [
            {"index": 3, "leg": "array", "field": "latency"}]

    def test_render_names_every_section(self, tmp_path):
        path = tmp_path / "t.ndjson"
        self.write_trace(path, [
            ("trace_open", {}),
            ("chunk", {"slots": 500, "duration_s": 0.1}),
            ("fuzz_divergence", {"index": 3, "leg": "array",
                                 "field": "latency"}),
            ("trace_close", {}),
        ])
        text = render_trace_summary(summarize_trace(path))
        assert "4 events" in text
        assert "chunks: 1 windows, 500 slots" in text
        assert "DIVERGENCE: case 3 leg array (latency)" in text

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "t.ndjson"
        self.write_trace(path, [("trace_open", {}),
                                ("chunk", {"slots": 10, "duration_s": 0.1})])
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"ts": 1002.0, "elapsed_s"')  # writer died here
        events = read_events(path)
        assert [e["event"] for e in events] == ["trace_open", "chunk"]

    def test_valid_json_that_is_not_an_event_is_an_error(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text('{"no_event_field": 1}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="not a trace event"):
            read_events(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_events(tmp_path / "nope.ndjson")

    def test_empty_trace_summarizes_to_zero(self, tmp_path):
        path = tmp_path / "t.ndjson"
        path.write_text("", encoding="utf-8")
        summary = summarize_trace(path)
        assert summary["events"] == 0
        assert summary["span_s"] == 0.0


class TestPathLedger:
    """``run_end`` says which implementation ran a run, and the summary
    gives each engine's share of runs and slots on each path."""

    def run_traced(self, tmp_path, runs):
        path = tmp_path / "paths.ndjson"
        with TraceWriter(path) as writer, using_trace(writer):
            for run in runs:
                run()
        return path

    def test_run_end_names_the_path_and_the_summary_shares_it(
            self, tmp_path):
        from repro.sim import kernel
        from repro.traffic.arbiters import LongestQueueArbiter
        from repro.workloads.registry import get_scenario

        class Subclass(LongestQueueArbiter):
            """A user subclass: its runs go to the reference engine."""

        scenario = get_scenario("uniform-bernoulli")

        def custom():
            sim = scenario.build_simulation()
            sim.arbiter = Subclass(8)
            sim.run(300, engine="array")

        def streamed():
            scenario.build_simulation().run_stream(300, engine="array",
                                                   chunk_slots=100)

        path = self.run_traced(tmp_path, [
            lambda: scenario.build_simulation().run(300, engine="array"),
            custom, streamed,
            lambda: scenario.build_simulation().run(300,
                                                    engine="reference")])
        ends = [e for e in read_events(path) if e["event"] == "run_end"]
        assert len(ends) == 4
        on_kernel = kernel.load_kernel() is not None
        if on_kernel:
            assert (ends[0]["path"], ends[0]["spans"]) == ("kernel", 2)
            assert (ends[2]["path"], ends[2]["spans"]) == ("kernel", 4)
        assert (ends[1]["path"], ends[1]["reason"]) == ("reference",
                                                        "policy")
        assert (ends[3]["path"], ends[3]["reason"]) == ("reference", None)
        summary = summarize_trace(path)
        if on_kernel:
            assert set(summary["paths"]["array"]) == {
                "kernel", "reference (policy)"}
            assert summary["paths"]["array"]["kernel"][0] == 2
            text = render_trace_summary(summary)
            assert "array: kernel 67% of runs" in text
            assert "reference (policy) 33% of runs" in text
        assert summary["paths"]["reference"] == {
            "reference": [1, ends[3]["slots"]]}
