"""The YAML sweep front end: parsing, grid expansion, validation errors
that name the document path, canonical round-trips, and execution through
the real sweep runner."""

import json
from pathlib import Path

import pytest

from repro.errors import SpecError
from repro.runner.sweep import SweepRunner
from repro.switch.scenario import SwitchScenario
from repro.workloads.scenario import Scenario
from repro.workloads.spec_yaml import (
    SCENARIO_JOB_FUNC,
    SWITCH_JOB_FUNC,
    compile_jobs,
    dump_yaml_document,
    expand_document,
    load_yaml_document,
    parse_document,
)

yaml = pytest.importorskip("yaml")

EXAMPLES = Path(__file__).resolve().parent.parent.parent / "examples"

BASE_SPEC = {
    "scheme": "rads",
    "buffer": {"num_queues": 4, "granularity": 2},
    "arrivals": {"type": "bernoulli",
                 "params": {"num_queues": 4, "load": 0.8}},
    "arbiter": {"type": "oldest_cell", "params": {"num_queues": 4}},
    "num_slots": 300,
    "seed": 3,
}

SWITCH_SPEC = {
    "num_ports": 4,
    "traffic": {"type": "bernoulli", "params": {"load": 0.6}},
    "fabric": {"type": "islip", "params": {}},
    "ports": [{"scheme": "rads", "buffer": {"granularity": 2},
               "arbiter": {"type": "oldest_cell", "params": {}}}],
    "num_slots": 200,
    "seed": 5,
}


def _doc(**overrides):
    document = {"kind": "scenario", "name": "t", "spec": dict(BASE_SPEC)}
    document.update(overrides)
    return document


# --------------------------------------------------------------------- #
# Parsing and validation errors
# --------------------------------------------------------------------- #

class TestParseDocument:
    def test_minimal_document_parses(self):
        doc = parse_document(_doc())
        assert doc.kind == "scenario"
        assert doc.name == "t"
        assert doc.grid == {}

    def test_non_mapping_document_rejected(self):
        with pytest.raises(SpecError, match="must be a mapping"):
            parse_document(["not", "a", "doc"], source="sweep.yaml")

    def test_unknown_top_level_key_named(self):
        with pytest.raises(SpecError, match="'gird'"):
            parse_document(_doc(gird={}), source="sweep.yaml")

    def test_bad_kind_named(self):
        with pytest.raises(SpecError, match="'kind'.*'switchh'"):
            parse_document(_doc(kind="switchh"))

    def test_missing_spec_rejected(self):
        with pytest.raises(SpecError, match="'spec'"):
            parse_document({"kind": "scenario", "name": "t"})

    def test_error_names_the_source(self):
        with pytest.raises(SpecError, match="my-sweep.yaml"):
            parse_document({"kind": "nope"}, source="my-sweep.yaml")

    def test_grid_axis_with_non_list_rejected(self):
        with pytest.raises(SpecError, match=r"grid\['seed'\]"):
            parse_document(_doc(grid={"seed": 3}))

    def test_grid_axis_with_empty_list_rejected(self):
        with pytest.raises(SpecError, match=r"grid\['seed'\].*empty"):
            parse_document(_doc(grid={"seed": []}))

    def test_unknown_run_option_named(self):
        with pytest.raises(SpecError, match="run.*'chunk_slots'"):
            parse_document({"kind": "switch", "name": "t",
                            "spec": dict(SWITCH_SPEC),
                            "run": {"chunk_slots": 8}})

    def test_unknown_run_grid_axis_named(self):
        with pytest.raises(SpecError, match=r"grid\['run.warp'\]"):
            parse_document(_doc(grid={"run.warp": [1]}))


class TestExpansionErrors:
    def test_bad_component_type_names_grid_point(self):
        doc = parse_document(_doc(grid={"arrivals.type": ["bernouli"]}))
        with pytest.raises(SpecError, match="grid point 0.*bernouli"):
            expand_document(doc)

    def test_bad_param_value_names_grid_point(self):
        doc = parse_document(
            _doc(grid={"arrivals.params.load": [0.5, 7.0]}))
        with pytest.raises(SpecError, match="load"):
            expand_document(doc)

    def test_path_through_scalar_rejected(self):
        doc = parse_document(_doc(grid={"num_slots.deep": [1]}))
        with pytest.raises(SpecError, match="num_slots.deep.*not a mapping"):
            expand_document(doc)

    def test_bad_list_index_rejected(self):
        document = {"kind": "switch", "name": "t",
                    "spec": dict(SWITCH_SPEC),
                    "grid": {"ports.3.scheme": ["rads"]}}
        with pytest.raises(SpecError, match="'ports.3'"):
            expand_document(parse_document(document))


# --------------------------------------------------------------------- #
# Expansion semantics
# --------------------------------------------------------------------- #

class TestExpansion:
    def test_no_grid_yields_one_point_keeping_the_name(self):
        points = expand_document(parse_document(_doc()))
        assert [p.name for p in points] == ["t"]

    def test_product_in_key_order_first_axis_slowest(self):
        doc = parse_document(_doc(grid={"seed": [1, 2],
                                        "num_slots": [100, 200, 300]}))
        points = expand_document(doc)
        assert len(points) == 6
        assert [p.axes["seed"] for p in points] == [1, 1, 1, 2, 2, 2]
        assert [p.spec["num_slots"] for p in points] == [100, 200, 300] * 2
        assert [p.name for p in points][:2] == ["t-g000", "t-g001"]

    def test_intermediate_dicts_created_for_none_base(self):
        # head_mma is absent from the base spec; a dotted axis must still
        # be able to grow the component dict.
        doc = parse_document(_doc(grid={"head_mma.type": ["mdqf"]}))
        (point,) = expand_document(doc)
        assert point.spec["head_mma"]["type"] == "mdqf"

    def test_run_axes_route_to_run_options_not_the_spec(self):
        doc = parse_document(_doc(grid={"run.engine": ["reference", "array"]}))
        points = expand_document(doc)
        assert [p.run["engine"] for p in points] == ["reference", "array"]
        assert all("run" not in p.spec and "engine" not in p.spec
                   for p in points)

    def test_list_index_paths_reach_port_templates(self):
        # Swap the whole port template per point (scheme and buffer params
        # must change together), then reach inside it with a deeper path.
        document = {"kind": "switch", "name": "t",
                    "spec": dict(SWITCH_SPEC),
                    "grid": {"ports.0": [
                        {"scheme": "rads", "buffer": {"granularity": 2},
                         "arbiter": {"type": "oldest_cell", "params": {}}},
                        {"scheme": "cfds",
                         "buffer": {"dram_access_slots": 4, "granularity": 2,
                                    "num_banks": 8},
                         "arbiter": {"type": "oldest_cell", "params": {}}}],
                        "ports.0.buffer.granularity": [2, 4]}}
        points = expand_document(parse_document(document))
        assert len(points) == 4
        schemes = {p.spec["ports"][0]["scheme"] for p in points}
        grains = {p.spec["ports"][0]["buffer"]["granularity"] for p in points}
        assert schemes == {"rads", "cfds"}
        assert grains == {2, 4}


# --------------------------------------------------------------------- #
# Canonical round-trips
# --------------------------------------------------------------------- #

class TestRoundTrip:
    def test_every_compiled_spec_is_a_from_spec_to_spec_fixed_point(self):
        doc = parse_document(_doc(grid={
            "seed": [0, 1],
            "arrivals.params.load": [0.5, 1.0],
            "head_mma": [None, {"type": "mdqf", "params": {}}],
        }))
        for point in expand_document(doc):
            through_json = json.loads(json.dumps(point.spec))
            assert Scenario.from_spec(through_json).to_spec() == point.spec

    def test_switch_specs_round_trip_identically(self):
        document = {"kind": "switch", "name": "t",
                    "spec": dict(SWITCH_SPEC),
                    "grid": {"num_ports": [2, 4], "seed": [0, 9]}}
        for point in expand_document(parse_document(document)):
            through_json = json.loads(json.dumps(point.spec))
            assert (SwitchScenario.from_spec(through_json).to_spec()
                    == point.spec)

    def test_document_survives_yaml_dump_load_cycle(self):
        doc = parse_document(_doc(grid={"seed": [0, 1],
                                        "run.engine": ["array"]},
                                  run={"stream": True}))
        text = dump_yaml_document(doc)
        again = parse_document(yaml.safe_load(text))
        assert again == doc
        # ... and the compiled output is identical too (axis order included).
        first = [(p.name, p.spec, p.run) for p in expand_document(doc)]
        second = [(p.name, p.spec, p.run) for p in expand_document(again)]
        assert first == second

    def test_example_files_spec_yaml_json_spec_unchanged(self):
        """The committed examples hold the headline guarantee: compile,
        push every spec through YAML *and* JSON, and get the same spec
        back bit for bit."""
        for filename, cls in (("scenario_sweep.yaml", Scenario),
                              ("switch_sweep.yaml", SwitchScenario)):
            doc = load_yaml_document(str(EXAMPLES / filename))
            for point in expand_document(doc):
                via_yaml = yaml.safe_load(yaml.safe_dump(dict(point.spec)))
                via_json = json.loads(json.dumps(via_yaml))
                assert cls.from_spec(via_json).to_spec() == point.spec, (
                    f"{filename}:{point.name} did not round-trip")


# --------------------------------------------------------------------- #
# Jobs and execution
# --------------------------------------------------------------------- #

class TestJobs:
    def test_scenario_points_compile_to_scenario_jobs(self):
        doc = parse_document(_doc(run={"engine": "array", "stream": True,
                                       "chunk_slots": 64}))
        _, jobs = compile_jobs(doc)
        assert jobs[0].func == SCENARIO_JOB_FUNC
        assert jobs[0].kwargs["engine"] == "array"
        assert jobs[0].kwargs["stream"] is True
        assert jobs[0].kwargs["chunk_slots"] == 64

    def test_switch_points_compile_to_switch_jobs(self):
        doc = parse_document({"kind": "switch", "name": "t",
                              "spec": dict(SWITCH_SPEC)})
        _, jobs = compile_jobs(doc)
        assert jobs[0].func == SWITCH_JOB_FUNC

    def test_example_grid_runs_through_the_sweep_runner(self):
        """Acceptance: the committed example expands to >= 24 jobs and they
        all execute through SweepRunner (serial here, to stay hermetic)."""
        doc = load_yaml_document(str(EXAMPLES / "scenario_sweep.yaml"))
        points, jobs = compile_jobs(doc)
        assert len(jobs) >= 24
        # Shrink the horizon so the suite stays fast; geometry is untouched.
        small = [job.__class__(func=job.func,
                               kwargs={**dict(job.kwargs),
                                       "spec": {**dict(job.kwargs["spec"]),
                                                "num_slots": 300}},
                               tag=job.tag)
                 for job in jobs]
        results = SweepRunner(jobs=1).run(small)
        assert len(results) == len(points)
        assert all(r.slots >= 300 for r in results)

    def test_streamed_and_monolithic_jobs_agree(self):
        base = parse_document(_doc())
        stream = parse_document(_doc(run={"stream": True,
                                          "chunk_slots": 7}))
        (mono,) = SweepRunner(jobs=1).run(compile_jobs(base)[1])
        (chunked,) = SweepRunner(jobs=1).run(compile_jobs(stream)[1])
        assert mono == chunked


class TestYamlGating:
    def test_missing_pyyaml_yields_clean_spec_error(self, monkeypatch):
        import repro.workloads.spec_yaml as mod

        monkeypatch.setattr(mod, "_yaml", None)
        with pytest.raises(SpecError, match="pyyaml"):
            mod.load_yaml_document("whatever.yaml")

    def test_unreadable_file_yields_clean_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_yaml_document(str(tmp_path / "absent.yaml"))

    def test_invalid_yaml_yields_clean_spec_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: [unclosed", encoding="utf-8")
        with pytest.raises(SpecError, match="not valid YAML"):
            load_yaml_document(str(bad))
