"""The generative spec fuzzer: determinism, sampler coverage, artifact
round-trips, and a small real differential run.

The nightly job runs ``repro fuzz --seeds 200 --stream``; these tests keep
the machinery honest at a few seeds so a sampler or comparison regression
is caught on the PR path, not at 3am.
"""

import json
import random

import pytest

from repro.errors import BufferOverflowError
from repro.switch.scenario import SwitchScenario
from repro.workloads.fuzz import (
    DEFAULT_MASTER_SEED,
    SWITCH_EVERY,
    FuzzCase,
    case_rng,
    dump_artifact,
    fuzz_many,
    load_artifact,
    make_case,
    render_summary,
    run_case,
    sample_scenario,
    sample_switch_scenario,
)
from repro.workloads.scenario import Scenario


class TestDeterminism:
    def test_same_seed_and_index_always_yields_the_same_case(self):
        for index in range(6):
            first = make_case(DEFAULT_MASTER_SEED, index)
            second = make_case(DEFAULT_MASTER_SEED, index)
            assert first == second

    def test_different_indices_yield_different_specs(self):
        specs = [make_case(1, i).spec for i in range(8)]
        assert len({json.dumps(s, sort_keys=True) for s in specs}) == 8

    def test_different_master_seeds_decorrelate(self):
        a = make_case(1, 0)
        b = make_case(2, 0)
        assert a.spec != b.spec

    def test_case_rng_is_a_pure_function_of_seed_and_index(self):
        assert (case_rng(5, 3).random() == case_rng(5, 3).random())


class TestSwitchFraction:
    def test_every_switch_every_th_case_is_a_switch(self):
        kinds = [make_case(DEFAULT_MASTER_SEED, i).kind for i in range(12)]
        for i, kind in enumerate(kinds):
            expected = "switch" if i % SWITCH_EVERY == SWITCH_EVERY - 1 \
                else "scenario"
            assert kind == expected

    def test_switch_fraction_meets_the_acceptance_floor(self):
        # >= 30% of samples must be switch specs; index % 3 == 2 gives
        # exactly 1/3 for any seeds >= 3.
        kinds = [make_case(DEFAULT_MASTER_SEED, i).kind for i in range(30)]
        assert kinds.count("switch") / len(kinds) >= 0.30

    def test_all_switch_samples_have_at_least_64_ports(self):
        for i in range(60):
            spec = sample_switch_scenario(random.Random(i), i)
            assert spec["num_ports"] >= 64
            # Must actually build into a valid scenario.
            SwitchScenario.from_spec(spec)


class TestSamplerCoverage:
    """The adversarial corners the fuzzer exists to reach must actually be
    reachable — a sampler edit that silently drops one would hollow out
    the nightly run."""

    def _scenarios(self, n=80):
        return [sample_scenario(random.Random(i), i) for i in range(n)]

    def test_specs_are_valid_and_canonical(self):
        for spec in self._scenarios(20):
            assert Scenario.from_spec(spec).to_spec() == spec

    def test_heavy_tailed_arrivals_are_drawn(self):
        # arrivals may be null (a flush-only degenerate case), hence `or {}`.
        kinds = {(s["arrivals"] or {}).get("type")
                 for s in self._scenarios()}
        assert {"pareto", "zipf"} <= kinds

    def test_lossy_and_lossless_configs_are_both_drawn(self):
        strictness = {s["buffer"].get("strict", True)
                      for s in self._scenarios()}
        assert strictness == {True, False}

    def test_both_schemes_are_drawn(self):
        assert {s["scheme"] for s in self._scenarios()} == {"rads", "cfds"}

    def test_custom_mma_paths_are_drawn(self):
        mmas = {(s["head_mma"] or {}).get("type") for s in self._scenarios()}
        assert {None, "mdqf", "ecqf"} <= mmas

    def test_switch_traffic_includes_incast_and_permutation(self):
        kinds = {sample_switch_scenario(random.Random(i), i)["traffic"]["type"]
                 for i in range(60)}
        assert {"incast", "permutation"} <= kinds

    def test_cfds_switch_samples_get_shorter_horizons(self):
        # CFDS ports cost ~3x RADS per slot on the reference engine; the
        # sampler halves the horizon so one case cannot dominate a run.
        saw_cfds = False
        for i in range(120):
            spec = sample_switch_scenario(random.Random(i), i)
            schemes = {p["scheme"] for p in spec["ports"]}
            if "cfds" in schemes:
                saw_cfds = True
                assert spec["num_slots"] <= 120
        assert saw_cfds


class TestArtifacts:
    def test_case_json_round_trip(self):
        case = make_case(7, 2)
        again = FuzzCase.from_json(json.loads(json.dumps(case.to_json())))
        assert again == case

    def test_dump_and_load_artifact(self, tmp_path):
        case = make_case(7, 1)
        path = dump_artifact(case, divergences=[], artifact_dir=str(tmp_path),
                             stream=False)
        loaded = load_artifact(path)
        assert loaded == case
        document = json.loads((tmp_path / path.split("/")[-1]).read_text())
        assert document["format"] == "repro-fuzz-case"
        assert "--replay" in document["repro"]

    def test_replaying_an_artifact_reruns_the_exact_spec(self, tmp_path):
        case = make_case(11, 0)
        path = dump_artifact(case, divergences=[], artifact_dir=str(tmp_path),
                             stream=False)
        divergences = run_case(load_artifact(path), stream=False)
        assert divergences == []


class TestFuzzMany:
    def test_small_run_is_divergence_free(self):
        summary = fuzz_many(seeds=4, master_seed=DEFAULT_MASTER_SEED,
                            stream=False, artifact_dir=None, progress=None)
        assert summary.ok
        assert summary.cases == 4
        assert summary.switch_cases == 1
        assert summary.failures == []

    def test_render_summary_mentions_counts(self):
        summary = fuzz_many(seeds=2, master_seed=3, stream=False,
                            artifact_dir=None, progress=None)
        text = render_summary(summary, stream=False)
        assert "2 cases" in text and "0 divergent" in text

    def test_failing_case_dumps_an_artifact(self, tmp_path, monkeypatch):
        import repro.workloads.fuzz as mod

        def broken(case, stream, rng=None, **kwargs):
            return [mod.Divergence(leg="forced", field="report",
                                   detail="injected for the test")]

        monkeypatch.setattr(mod, "run_case", broken)
        summary = mod.fuzz_many(seeds=2, master_seed=3, stream=False,
                                artifact_dir=str(tmp_path), progress=None)
        assert not summary.ok
        assert len(summary.artifacts) == 2
        for artifact in summary.artifacts:
            document = json.loads(open(artifact).read())
            assert document["divergences"][0]["leg"] == "forced"


class TestFaultLegs:
    def test_a_raising_case_is_an_outcome_not_a_crash(self):
        """A strict tail-SRAM overflow raises on both engines; under
        ``faults=True`` the clean sweep records that error as the run's
        outcome, and the faulted and cache-reread sweeps raise the same."""
        spec = {
            "name": "fuzz-raises", "scheme": "rads", "num_slots": 400,
            "seed": 5,
            "buffer": {"num_queues": 8, "granularity": 4,
                       "tail_sram_cells": 3, "strict": True},
            "arrivals": {"type": "bernoulli",
                         "params": {"num_queues": 8, "load": 1.0}},
            "arbiter": {"type": "random",
                        "params": {"num_queues": 8, "load": 0.3}},
        }
        for engine in ("reference", "array"):
            with pytest.raises(BufferOverflowError):
                Scenario.from_spec(spec).run(engine=engine)
        case = FuzzCase(DEFAULT_MASTER_SEED, 0, "scenario", spec)
        assert run_case(case, faults=True) == []


class TestKernelFabricCoverage:
    """The switch legs compare the fabric kernel against the python loop:
    ``array`` runs every fabric window on the kernel, ``reference`` on the
    python oracle.  Nothing else would catch a wrong kernel fabric, since
    both engines' ports replay the same traces."""

    @pytest.mark.parametrize("index,ports", [(50, 64), (29, 128)])
    def test_switch_legs_route_the_fabric_by_engine(self, index, ports):
        from repro.obs.metrics import MetricsRegistry, using_metrics
        from repro.sim.kernel import load_fabric_kernel

        if load_fabric_kernel() is None:
            pytest.skip("span kernel unavailable")
        case = make_case(DEFAULT_MASTER_SEED, index)
        assert case.kind == "switch"
        assert case.spec["num_ports"] == ports
        registry = MetricsRegistry()
        with using_metrics(registry):
            assert run_case(case) == []
        counters = registry.counters()
        fallbacks = {name for name in counters
                     if name.startswith("switch.fabric.fallback.")}
        assert fallbacks == {"switch.fabric.fallback.reference"}
        assert counters["switch.fabric.kernel_windows"] >= 2
        assert counters["switch.fabric.kernel_slots"] >= case.spec["num_slots"]


class TestCFDSKernelReach:
    """Single-port CFDS cases reach the span kernel's CFDS entry through
    the untraced ``array`` leg (switch draws halve CFDS horizons to 50–120
    arrival slots, so their port spans rarely reach ``MIN_KERNEL_SLOTS``).
    The cases: those of the default master seed with a CFDS buffer, a
    policy the entry runs (stock ECQF; no arbiter, ``random`` or
    ``longest_queue``) and at least 192 slots, among the first 45."""

    CASES = (7, 19, 21, 28, 34, 42)

    @pytest.mark.parametrize("index", CASES)
    def test_kernel_runs_and_agrees(self, index, monkeypatch):
        from repro.obs.metrics import MetricsRegistry, using_metrics
        from repro.sim import kernel

        case = make_case(DEFAULT_MASTER_SEED, index)
        spec = case.spec
        assert case.kind == "scenario" and spec["scheme"] == "cfds"
        assert spec["num_slots"] >= kernel.MIN_KERNEL_SLOTS
        assert spec.get("head_mma") is None or \
            spec["head_mma"]["type"] == "ecqf"
        assert spec.get("arbiter") is None or \
            spec["arbiter"]["type"] in ("random", "longest_queue")
        registry = MetricsRegistry()
        with using_metrics(registry):
            assert run_case(case) == []
        if kernel.load_kernel() is not None:
            assert registry.counter("engine.array.kernel_spans") >= 1
            assert registry.counter("engine.array.kernel_aborts") == 0

        # REPRO_SPAN_KERNEL=0, read afresh: every array span runs python.
        monkeypatch.setenv(kernel.KERNEL_ENV, "0")
        monkeypatch.setattr(kernel, "_kernel", None)
        monkeypatch.setattr(kernel, "_kernel_tried", False)
        registry = MetricsRegistry()
        with using_metrics(registry):
            assert run_case(case) == []
        assert registry.counter("engine.array.kernel_spans") == 0
        assert registry.counter("engine.array.fallback.unavailable") > 0
