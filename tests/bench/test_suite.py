"""Tests of the perf-trajectory benchmark harness (``python -m repro bench``)."""

import json

import pytest

from repro.bench import (
    DEFAULT_OUTPUT,
    SUITE,
    render_results,
    run_suite,
    wide_scenario,
    write_results,
)
from repro.runner.cli import main


def test_suite_is_fixed_and_named():
    names = [case.name for case in SUITE]
    assert len(names) == len(set(names))
    # The fixed families every snapshot must carry.
    assert any(name.startswith("scenario/uniform-bernoulli") for name in names)
    assert any(name.startswith("wide-128") for name in names)
    assert any(name.startswith("mma-ablation") for name in names)
    assert any(name.startswith("switch/") for name in names)
    assert any(name.startswith("stream/") for name in names)
    assert DEFAULT_OUTPUT == "BENCH_22.json"


def test_run_suite_quick_document_shape():
    document = run_suite(quick=True, repeats=1, name_filter="uniform")
    assert document["schema"] == 1
    assert document["quick"] is True
    assert document["repeats"] == 1
    names = [bench["name"] for bench in document["benchmarks"]]
    assert names == [case.name for case in SUITE if "uniform" in case.name]
    for bench in document["benchmarks"]:
        assert bench["median_s"] > 0
        assert len(bench["samples_s"]) == 1
        assert bench["metrics"]["slots"] > 0
        assert bench["metrics"]["kslots_per_s"] > 0
    # Both engines of the same scenario ran: the derived ratio exists.
    assert "uniform-speedup-array-over-reference" in document["derived"]


def test_run_suite_median_is_median():
    document = run_suite(quick=True, repeats=3, name_filter="mma-ablation/ecqf")
    bench = document["benchmarks"][0]
    samples = sorted(bench["samples_s"])
    assert bench["median_s"] == samples[1]


def test_run_suite_rejects_bad_repeats():
    with pytest.raises(ValueError):
        run_suite(repeats=0)


def test_write_results_round_trips(tmp_path):
    document = run_suite(quick=True, repeats=1, name_filter="mma-ablation/ecqf")
    path = tmp_path / "bench.json"
    write_results(document, str(path))
    assert json.loads(path.read_text()) == document


def test_render_results_mentions_every_benchmark():
    document = run_suite(quick=True, repeats=1, name_filter="mma-ablation")
    text = render_results(document)
    assert "mma-ablation/ecqf" in text
    assert "mma-ablation/mdqf" in text
    assert "quick suite" in text


def test_wide_scenario_matches_benchmark_configuration():
    scenario = wide_scenario()
    assert scenario.scheme == "rads"
    assert scenario.buffer["num_queues"] == 128


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "wide-128/array" in out

    def test_quick_filtered_run_writes_json(self, tmp_path, capsys):
        output = tmp_path / "BENCH_test.json"
        code = main(["bench", "--quick", "--repeats", "1",
                     "--filter", "mma-ablation/ecqf", "-o", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "mma-ablation/ecqf" in out
        document = json.loads(output.read_text())
        assert document["quick"] is True
        assert [bench["name"] for bench in document["benchmarks"]] == [
            "mma-ablation/ecqf"]

    def test_dash_output_skips_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--repeats", "1",
                     "--filter", "mma-ablation/ecqf", "-o", "-"])
        assert code == 0
        assert not list(tmp_path.iterdir())

    def test_unmatched_filter_errors(self, capsys):
        code = main(["bench", "--filter", "no-such-benchmark"])
        assert code == 1
        assert "no benchmark matches" in capsys.readouterr().err
