"""Smoke tests for the ``python -m repro`` command line."""

import pytest

from repro.runner.cli import ALL, build_parser, main
from repro.runner.experiments import EXPERIMENTS

SUBCOMMANDS = sorted(EXPERIMENTS) + [ALL]


class TestHelp:
    def test_top_level_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "EXPERIMENT" in capsys.readouterr().out

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([name, "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "--no-cache" in out

    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 2
        assert "EXPERIMENT" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        import repro
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_unknown_subcommand_errors(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["figure99"])
        assert excinfo.value.code == 2


class TestDryRun:
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_dry_run_lists_jobs_without_computing(self, name, capsys):
        assert main([name, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert f"{name}:" in out
        assert "jobs" in out

    def test_dry_run_all_covers_every_experiment(self, capsys):
        assert main([ALL, "--dry-run"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert f"{name}:" in out


class TestExecution:
    def test_intro_dram_report(self, tmp_path, capsys):
        code = main(["intro-dram", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "guaranteed" in out
        assert "[runner]" in out

    def test_table2_output_file(self, tmp_path):
        out_file = tmp_path / "table2.txt"
        code = main(["table2", "--no-cache", "--output", str(out_file)])
        assert code == 0
        text = out_file.read_text(encoding="utf-8")
        assert "Table 2" in text
        assert "OC-3072" in text

    def test_second_invocation_served_from_cache(self, tmp_path, capsys):
        args = ["figure8", "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "0 cache hits" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 jobs executed" in second
        # The report itself must be identical, only the footer may differ.
        def strip(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[runner]")]
        assert strip(first) == strip(second)

    def test_no_cache_recomputes(self, tmp_path, capsys):
        args = ["scaling", "--no-cache", "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 cache hits" in out
        assert not any(tmp_path.iterdir())  # --no-cache writes nothing

    def test_parallel_report_matches_serial(self, tmp_path, capsys):
        serial_args = ["figure11", "--no-cache"]
        assert main(serial_args) == 0
        serial = capsys.readouterr().out
        assert main(serial_args + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        def strip(text):
            return [line for line in text.splitlines()
                    if not line.startswith("[runner]")]
        assert strip(serial) == strip(parallel)


class TestParser:
    def test_every_experiment_has_a_subparser(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name
            assert args.jobs == 1
            assert not args.no_cache

    def test_jobs_flag_parses(self):
        args = build_parser().parse_args(["figure8", "-j", "4"])
        assert args.jobs == 4


class TestScenarioCommand:
    def test_list_enumerates_registered_scenarios(self, capsys):
        from repro.workloads import scenario_names
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        names = scenario_names()
        assert len(names) >= 8
        for name in names:
            assert name in out

    def test_run_one_scenario(self, capsys):
        assert main(["scenario", "uniform-bernoulli"]) == 0
        out = capsys.readouterr().out
        assert "uniform-bernoulli" in out
        assert "latency p99" in out
        assert "zero miss" in out

    def test_slots_override_and_legacy_loop_agree(self, capsys):
        assert main(["scenario", "uniform-bernoulli", "--slots", "600"]) == 0
        fast = capsys.readouterr().out
        assert main(["scenario", "uniform-bernoulli", "--slots", "600",
                     "--engine", "reference"]) == 0
        legacy = capsys.readouterr().out
        assert fast == legacy

    def test_engine_flag_agrees_across_engines(self, capsys):
        reports = {}
        for engine in ("reference", "array", "batched", "numpy"):
            assert main(["scenario", "uniform-bernoulli", "--slots", "600",
                         "--engine", engine]) == 0
            reports[engine] = capsys.readouterr().out
        assert len(set(reports.values())) == 1

    def test_engine_flag_on_replay(self, tmp_path, capsys):
        trace_file = str(tmp_path / "capture.rtrc")
        assert main(["scenario", "bursty-trains", "--record", trace_file]) == 0
        capsys.readouterr()
        assert main(["scenario", "bursty-trains", "--replay", trace_file,
                     "--engine", "array"]) == 0
        array = capsys.readouterr().out
        assert main(["scenario", "bursty-trains", "--replay", trace_file,
                     "--engine", "reference"]) == 0
        reference = capsys.readouterr().out
        assert array == reference

    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        trace_file = str(tmp_path / "capture.rtrc")
        assert main(["scenario", "bursty-trains", "--record", trace_file]) == 0
        recorded = capsys.readouterr().out
        assert "trace saved" in recorded
        assert main(["scenario", "bursty-trains", "--replay", trace_file]) == 0
        replayed = capsys.readouterr().out
        # Identical statistics table (modulo the trace-saved footer).
        assert replayed.strip() in recorded

    def test_unknown_scenario_errors(self, capsys):
        assert main(["scenario", "no-such-scenario"]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_missing_name_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario"])
        assert excinfo.value.code == 2

    def test_scenarios_experiment_is_registered(self, tmp_path, capsys):
        assert main(["scenarios", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Workload scenarios" in out
        assert "p99" in out

    def test_replay_into_smaller_buffer_errors_cleanly(self, tmp_path, capsys):
        from repro.workloads import Scenario, register_scenario
        from repro.workloads.registry import _REGISTRY
        trace_file = str(tmp_path / "wide.rtrc")
        assert main(["scenario", "bursty-trains", "--record", trace_file]) == 0
        capsys.readouterr()
        register_scenario(Scenario(
            name="test-cli-tiny", description="4-queue probe", scheme="rads",
            buffer={"num_queues": 4, "granularity": 3},
            arrivals={"type": "bernoulli", "params": {"num_queues": 4}},
            arbiter=None, num_slots=100))
        try:
            assert main(["scenario", "test-cli-tiny", "--replay", trace_file]) == 1
            assert "has only 4 queues" in capsys.readouterr().err
        finally:
            del _REGISTRY["test-cli-tiny"]

    def test_replay_missing_file_errors_cleanly(self, capsys):
        assert main(["scenario", "bursty-trains", "--replay",
                     "/nonexistent/trace.rtrc"]) == 1
        assert "cannot access trace file" in capsys.readouterr().err


class TestExitCodePins:
    """Every CLI failure path must exit non-zero with a one-line
    ``error: ...`` message — fuzz-found failure modes get pinned here so
    they cannot regress into tracebacks or silent exit-0."""

    def test_negative_slots_exit_one_with_one_line_error(self, capsys):
        assert main(["scenario", "uniform-bernoulli", "--slots", "-5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_scenario_list_exits_zero(self):
        assert main(["scenario", "--list"]) == 0

    def test_missing_spec_file_exits_one(self, capsys):
        assert main(["scenario", "--from-spec", "/nonexistent.yaml"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read spec")
        assert err.count("\n") == 1

    def test_invalid_spec_exits_one_naming_the_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: scenario\nname: x\nspec: {}\ngrid: {seed: 1}\n",
                       encoding="utf-8")
        assert main(["scenario", "--from-spec", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "grid['seed']" in err
        assert err.count("\n") == 1

    def test_kind_mismatch_exits_one(self, capsys):
        assert main(["scenario", "--from-spec",
                     "examples/switch_sweep.yaml"]) == 1
        err = capsys.readouterr().err
        assert "kind 'switch'" in err
        assert err.count("\n") == 1

    def test_from_spec_plus_name_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "uniform-bernoulli",
                  "--from-spec", "examples/scenario_sweep.yaml"])
        assert exc.value.code == 2

    def test_keyboard_interrupt_exits_130_no_traceback(self, capsys,
                                                       monkeypatch):
        # Ctrl-C must look like an interrupted process: one line on stderr,
        # exit code 128+SIGINT, never a traceback.
        from repro.workloads import registry

        def interrupted(name):
            raise KeyboardInterrupt

        monkeypatch.setattr(registry, "get_scenario", interrupted)
        assert main(["scenario", "uniform-bernoulli"]) == 130
        err = capsys.readouterr().err
        assert err == "interrupted\n"
        assert "Traceback" not in err


class TestFromSpec:
    def test_scenario_dry_run_lists_the_grid(self, capsys):
        assert main(["scenario", "--from-spec",
                     "examples/scenario_sweep.yaml", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "load-mma-sweep: 24 jobs" in out
        assert "load-mma-sweep-g000" in out
        assert "load-mma-sweep-g023" in out

    def test_switch_dry_run_lists_the_grid(self, capsys):
        assert main(["switch", "--from-spec",
                     "examples/switch_sweep.yaml", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "fabric-ports-sweep: 9 jobs" in out

    def test_small_spec_runs_to_a_table(self, tmp_path, capsys):
        spec = tmp_path / "small.yaml"
        spec.write_text("""\
kind: scenario
name: cli-smoke
spec:
  scheme: rads
  buffer: {num_queues: 4, granularity: 2}
  arrivals: {type: bernoulli, params: {num_queues: 4, load: 0.8}}
  arbiter: {type: oldest_cell, params: {num_queues: 4}}
  num_slots: 400
  seed: 2
grid:
  seed: [2, 3]
""", encoding="utf-8")
        assert main(["scenario", "--from-spec", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "cli-smoke-g000" in out and "cli-smoke-g001" in out
        assert "p99" in out


class TestFuzzCommand:
    def test_quick_fuzz_exits_zero(self, capsys):
        assert main(["fuzz", "--seeds", "2", "--quiet"]) == 0
        assert "2 cases" in capsys.readouterr().out

    def test_replay_of_a_dumped_artifact_exits_zero(self, tmp_path, capsys):
        from repro.workloads.fuzz import dump_artifact, make_case
        path = dump_artifact(make_case(9, 0), divergences=[],
                             artifact_dir=str(tmp_path), stream=False)
        assert main(["fuzz", "--replay", path, "--quiet"]) == 0

    def test_replay_of_garbage_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "junk.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["fuzz", "--replay", str(bad), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1


class TestObservabilityFlags:
    def test_metrics_flag_prints_the_registry_to_stderr(self, capsys):
        assert main(["scenario", "uniform-bernoulli", "--slots", "400",
                     "--engine", "array", "--metrics"]) == 0
        captured = capsys.readouterr()
        assert "== run metrics ==" in captured.err
        assert "engine.array.runs = 1" in captured.err
        assert "engine.slots_simulated = 400" in captured.err
        # The report itself stays on stdout, metrics-free.
        assert "metrics" not in captured.out

    def test_trace_out_writes_and_summarize_reads(self, tmp_path, capsys):
        trace = tmp_path / "run.ndjson"
        assert main(["scenario", "uniform-bernoulli", "--slots", "400",
                     "--trace-out", str(trace)]) == 0
        assert f"trace written to {trace}" in capsys.readouterr().err
        assert main(["trace", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run_end: 1" in out
        assert "trace_close: 1" in out

    def test_trace_summarize_json_mode(self, tmp_path, capsys):
        import json
        trace = tmp_path / "run.ndjson"
        assert main(["scenario", "uniform-bernoulli", "--slots", "400",
                     "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["by_type"]["run_start"] == 1

    def test_trace_summarize_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "nope.ndjson")]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read")

    def test_trace_out_unwritable_path_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "no-such-dir" / "t.ndjson"
        assert main(["scenario", "uniform-bernoulli", "--slots", "400",
                     "--trace-out", str(bad)]) == 1
        assert "cannot open trace file" in capsys.readouterr().err

    def test_progress_prints_heartbeats_to_stderr(self, capsys):
        assert main(["scenario", "uniform-bernoulli", "--slots", "2000",
                     "--chunk-slots", "500", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "[stream] slot 500/2000" in err
        assert "[stream] slot 2000/2000 (100.0%)" in err

    def test_progress_every_must_be_positive(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scenario", "uniform-bernoulli", "--progress",
                  "--progress-every", "0"])
        assert excinfo.value.code == 2


class TestBenchCompareCommand:
    def make_snapshot(self, path, speedup, overhead=1.0):
        import json
        document = {
            "suite": "repro-bench", "schema": 1, "quick": True,
            "repeats": 1,
            "benchmarks": [
                {"name": "wide-128/array", "median_s": 0.01,
                 "samples_s": [0.01],
                 "metrics": {"slots": 1500, "kslots_per_s": 150.0}}],
            "derived": {"speedup": speedup, "x-overhead": overhead},
            "derived_directions": {"speedup": "higher_better",
                                   "x-overhead": "lower_better"},
        }
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_identical_snapshots_pass_the_gate(self, tmp_path, capsys):
        base = self.make_snapshot(tmp_path / "base.json", 5.0)
        assert main(["bench", "--compare", base, "--against", base,
                     "--fail-on-regression", "10"]) == 0
        out = capsys.readouterr().out
        assert "bench compare" in out
        assert "OK: no gated ratio regressed more than 10%" in out

    def test_regression_fails_the_gate_with_exit_one(self, tmp_path,
                                                     capsys):
        base = self.make_snapshot(tmp_path / "base.json", 5.0)
        cur = self.make_snapshot(tmp_path / "cur.json", 3.0)
        assert main(["bench", "--compare", base, "--against", cur,
                     "--fail-on-regression", "10"]) == 1
        out = capsys.readouterr().out
        assert "<< REGRESSION" in out
        assert "FAIL: 1 ratio(s) regressed more than 10%" in out

    def test_compare_without_gate_reports_but_exits_zero(self, tmp_path,
                                                         capsys):
        base = self.make_snapshot(tmp_path / "base.json", 5.0)
        cur = self.make_snapshot(tmp_path / "cur.json", 3.0)
        assert main(["bench", "--compare", base, "--against", cur]) == 0
        assert "derived ratios" in capsys.readouterr().out

    def test_ratios_restricts_the_gate(self, tmp_path, capsys):
        base = self.make_snapshot(tmp_path / "base.json", 5.0, overhead=1.0)
        cur = self.make_snapshot(tmp_path / "cur.json", 3.0, overhead=1.0)
        # Only the (unchanged) overhead ratio is gated: the speedup
        # regression is reported but does not fail the run.
        assert main(["bench", "--compare", base, "--against", cur,
                     "--fail-on-regression", "10",
                     "--ratios", "x-overhead"]) == 0
        assert "(not gated)" in capsys.readouterr().out

    def test_unknown_ratio_name_exits_one(self, tmp_path, capsys):
        base = self.make_snapshot(tmp_path / "base.json", 5.0)
        assert main(["bench", "--compare", base, "--against", base,
                     "--fail-on-regression", "10",
                     "--ratios", "no-such-ratio"]) == 1
        assert "not in the compare report" in capsys.readouterr().err

    def test_compare_json_writes_the_report(self, tmp_path, capsys):
        import json
        base = self.make_snapshot(tmp_path / "base.json", 5.0)
        out_path = tmp_path / "cmp.json"
        assert main(["bench", "--compare", base, "--against", base,
                     "--compare-json", str(out_path)]) == 0
        report = json.loads(out_path.read_text(encoding="utf-8"))
        assert {row["name"] for row in report["ratios"]} == \
            {"speedup", "x-overhead"}

    def test_against_requires_compare(self, tmp_path):
        base = self.make_snapshot(tmp_path / "base.json", 5.0)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--against", base])
        assert excinfo.value.code == 2

    def test_gate_requires_compare(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--fail-on-regression", "10"])
        assert excinfo.value.code == 2

    def test_missing_baseline_exits_one(self, tmp_path, capsys):
        assert main(["bench", "--compare",
                     str(tmp_path / "nope.json")]) == 1
        assert "cannot read bench snapshot" in capsys.readouterr().err
