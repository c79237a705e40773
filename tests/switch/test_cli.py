"""Smoke tests of ``python -m repro switch`` and the switch-suite experiment."""

import pytest

from repro.runner.cli import main


class TestSwitchCli:
    def test_list_shows_registered_scenarios(self, capsys):
        assert main(["switch", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("uniform", "hotspot-egress", "incast", "mixed-scheme"):
            assert name in out

    def test_missing_name_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["switch"])
        assert excinfo.value.code == 2
        assert "NAME is required" in capsys.readouterr().err

    def test_unknown_name_reports_error(self, capsys):
        assert main(["switch", "no-such-switch"]) == 1
        assert "unknown switch scenario" in capsys.readouterr().err

    def test_run_renders_aggregate_and_per_port_tables(self, capsys):
        assert main(["switch", "uniform", "--slots", "200"]) == 0
        out = capsys.readouterr().out
        assert "Switch uniform (8 ports, array engine)" in out
        assert "Per-port closed-loop statistics" in out
        assert "zero miss" in out

    def test_ports_and_jobs_flags(self, capsys):
        assert main(["switch", "hotspot-egress", "--ports", "4",
                     "--slots", "200", "--jobs", "2"]) == 0
        assert "(4 ports" in capsys.readouterr().out

    def test_invalid_ports_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["switch", "uniform", "--ports", "0"])

    def test_engine_flag(self, capsys):
        assert main(["switch", "uniform", "--slots", "150",
                     "--engine", "reference"]) == 0
        assert "reference engine" in capsys.readouterr().out
        # A retired name runs, and the report names the engine that ran.
        assert main(["switch", "uniform", "--slots", "150",
                     "--engine", "batched"]) == 0
        assert "reference engine" in capsys.readouterr().out

    def test_fabric_override(self, capsys):
        assert main(["switch", "uniform", "--slots", "150",
                     "--fabric", "priority"]) == 0
        assert "Switch uniform" in capsys.readouterr().out

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "switch.txt"
        assert main(["switch", "uniform", "--slots", "150",
                     "-o", str(path)]) == 0
        assert "Per-port closed-loop statistics" in path.read_text()

    def test_identical_report_across_jobs_values(self, capsys):
        """The acceptance criterion, at CLI level: the rendered report is
        byte-identical whichever ``--jobs`` was given."""
        assert main(["switch", "hotspot-egress", "--slots", "300",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["switch", "hotspot-egress", "--slots", "300",
                     "--jobs", "4"]) == 0
        assert capsys.readouterr().out == serial

    def test_chunk_slots_leave_the_report_unchanged(self, capsys):
        assert main(["switch", "hotspot-egress", "--slots", "300"]) == 0
        whole = capsys.readouterr().out
        assert main(["switch", "hotspot-egress", "--slots", "300",
                     "--chunk-slots", "41", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == whole

    def test_every_run_streams_so_stream_is_no_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["switch", "uniform", "--stream"])
        assert excinfo.value.code == 2


class TestSwitchSuiteExperiment:
    def test_dry_run_lists_one_job_per_scenario(self, capsys):
        assert main(["switch-suite", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "switch-suite:" in out
        assert "run_switch_spec" in out

    def test_help_carries_runner_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["switch-suite", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--jobs" in out
