"""The retired engine names keep working: ``numpy`` runs ``array`` and
``batched`` runs ``reference``, through every entry point that takes an
engine, and a checkpoint written under a retired name still resumes."""

import dataclasses
import json

import pytest

from repro.errors import CheckpointError, ConfigurationError
from repro.runner.sweep import SweepRunner
from repro.sim import ENGINES, resolve_engine
from repro.sim.streaming import StreamingSimulation, resume_stream
from repro.switch import SwitchModel
from repro.switch.registry import get_switch_scenario
from repro.workloads.registry import get_scenario
from repro.workloads.spec_yaml import compile_jobs, parse_document

#: (retired name, the engine that now runs in its place).
PAIRS = [("batched", "reference"), ("numpy", "array")]


def assert_reports_identical(left, right):
    assert left.throughput == right.throughput
    assert left.latency == right.latency
    assert left.buffer_result == right.buffer_result


def test_lookup_maps_retired_names_and_rejects_the_rest():
    assert ENGINES == ("reference", "array")
    for retired, engine in PAIRS:
        assert resolve_engine(retired) == engine
    for engine in ENGINES:
        assert resolve_engine(engine) == engine
    with pytest.raises(ConfigurationError, match="known: reference, array"):
        resolve_engine("warp")


@pytest.mark.parametrize("retired,engine", PAIRS)
@pytest.mark.parametrize("name", ["uniform-bernoulli", "markov-onoff"])
def test_run_and_run_stream(name, retired, engine):
    scenario = get_scenario(name)
    reports = [scenario.build_simulation().run(scenario.num_slots,
                                               engine=chosen)
               for chosen in (retired, engine)]
    reports += [scenario.build_simulation().run_stream(
        scenario.num_slots, engine=chosen, chunk_slots=700)
        for chosen in (retired, engine)]
    reports += [scenario.run(engine=chosen) for chosen in (retired, engine)]
    for report in reports[1:]:
        assert_reports_identical(report, reports[0])


@pytest.mark.parametrize("retired,engine", PAIRS)
def test_switch_model_run(retired, engine):
    scenario = get_switch_scenario("uniform").with_overrides(num_ports=3,
                                                             num_slots=300)
    old = SwitchModel(scenario).run(engine=retired)
    new = SwitchModel(scenario).run(engine=engine)
    assert old == new
    assert old.engine == engine


def test_yaml_grid():
    spec = get_scenario("uniform-bernoulli").to_spec()
    spec["num_slots"] = 900
    document = parse_document({
        "kind": "scenario", "name": "retired", "spec": spec,
        "grid": {"run.engine": ["numpy", "array", "batched", "reference"]}})
    _points, jobs = compile_jobs(document)
    # Each grid point names its result; everything else must agree.
    results = [dataclasses.replace(result, name="")
               for result in SweepRunner(jobs=1).run(jobs)]
    assert len(results) == 4
    assert all(result == results[0] for result in results)


def test_checkpoint_naming_batched_resumes(tmp_path):
    """A snapshot of the retired object-model loop carries no core (the
    state lives in the buffer objects), so it resumes on the reference
    loop, bit-identical to the uninterrupted run."""
    scenario = get_scenario("uniform-bernoulli")
    uninterrupted = scenario.build_simulation().run_stream(
        scenario.num_slots, engine="reference", chunk_slots=500)
    session = StreamingSimulation(scenario.build_simulation(),
                                  scenario.num_slots, engine="reference",
                                  chunk_slots=500)
    session.advance_to(1500)
    path = tmp_path / "batched.ckpt.json"
    session.save_checkpoint(path)
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["engine"] == "reference"
    path.write_text(json.dumps(dict(document, engine="batched")),
                    encoding="utf-8")

    resumed = StreamingSimulation.load_checkpoint(path)
    assert resumed.engine == "reference"
    assert_reports_identical(resume_stream(path), uninterrupted)

    path.write_text(json.dumps(dict(document, engine="warp")),
                    encoding="utf-8")
    with pytest.raises(CheckpointError, match="unknown engine 'warp'"):
        resume_stream(path)


@pytest.mark.parametrize("retired,engine", PAIRS)
def test_cli_scenario_and_switch(retired, engine, capsys):
    """``--engine`` takes a retired name on ``scenario`` and ``switch``:
    the report equals the replacement's, and a switch report names the
    engine that ran."""
    from repro.runner.cli import main

    outputs = []
    for chosen in (retired, engine):
        assert main(["scenario", "uniform-bernoulli", "--slots", "600",
                     "--engine", chosen]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    outputs = []
    for chosen in (retired, engine):
        assert main(["switch", "uniform", "--slots", "150",
                     "--engine", chosen]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert f"{engine} engine" in outputs[0]
