"""Acceptance tests of the two-stage switch model: determinism across
worker counts, exact conservation through the fabric, and the merged report."""

import pytest

from repro.errors import ConfigurationError, SweepFailure
from repro.runner.cache import ResultCache
from repro.runner.jobs import run_job
from repro.runner.sweep import SweepRunner
from repro.sim.stats import LatencyStats
from repro.switch import (
    SwitchModel,
    SwitchScenario,
    get_switch_scenario,
    run_fabric,
    run_switch_spec,
    switch_scenario_names,
)
from repro.switch.model import FabricStream, port_template, queue_row
from repro.switch.oracle import port_scenarios, run_port_oracle
from repro.workloads.scenario import Scenario, ScenarioResult


def _small(name: str, **overrides) -> SwitchScenario:
    return get_switch_scenario(name).with_overrides(num_slots=400, **overrides)


class TestFabricStage:
    def test_voq_table_holds_only_queued_egresses(self):
        """A 256-port stream allocates under 5 MiB: VOQs exist only while
        they hold cells (a table of 256**2 deques held 49.8 MiB)."""
        import tracemalloc

        from repro.switch.model import FabricStream

        scenario = get_switch_scenario("uniform").with_overrides(
            num_ports=256, num_slots=60)
        tracemalloc.start()
        try:
            FabricStream(scenario)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    @pytest.mark.parametrize("engine", ["array", "reference"])
    def test_256_port_fabric_unchanged(self, engine):
        """The traces and FabricStats of a 256-port stage, pinned by
        digest: the sparse VOQ table changes neither engine's stage."""
        import hashlib

        scenario = get_switch_scenario("uniform").with_overrides(
            num_ports=256, num_slots=60)
        traces, stats = run_fabric(scenario, engine=engine)
        digest = hashlib.sha256(repr((traces, stats)).encode()).hexdigest()
        assert digest[:16] == "a1e3048aa2289f32"

    def test_conservation_offered_equals_transferred_after_flush(self):
        traces, stats = run_fabric(_small("uniform"))
        assert stats.offered_cells == stats.transferred_cells
        assert stats.offered_cells == sum(stats.per_egress_cells)

    def test_traces_share_one_length_and_respect_crossbar(self):
        """Each egress accepts at most one cell per slot — the trace *is*
        the single-linecard arrival model."""
        traces, stats = run_fabric(_small("hotspot-egress"))
        for trace in traces:
            assert len(trace) == stats.total_slots
            assert all(src is None or 0 <= src < 8 for src in trace)

    def test_fabric_stage_is_deterministic(self):
        scenario = _small("incast")
        first_traces, first_stats = run_fabric(scenario)
        second_traces, second_stats = run_fabric(scenario)
        assert first_traces == second_traces
        assert first_stats == second_stats

    def test_permutation_traffic_sees_zero_fabric_wait(self):
        """The contention-free calibration pattern: nothing ever queues."""
        traces, stats = run_fabric(_small("permutation"))
        assert stats.flush_slots == 0
        assert stats.wait_max == 0
        assert stats.peak_voq_backlog <= 1

    def test_seed_changes_the_traffic(self):
        import dataclasses

        scenario = _small("uniform")
        reseeded = dataclasses.replace(scenario, seed=scenario.seed + 1)
        assert run_fabric(scenario)[0] != run_fabric(reseeded)[0]

    @pytest.mark.parametrize("bad_match", [
        [(0, 0), (0, 1)],   # same ingress twice
        [(0, 0), (1, 0)],   # same egress twice
    ])
    def test_misbehaving_custom_arbiter_is_caught(self, monkeypatch,
                                                  bad_match):
        """The crossbar invariant (≤1 per ingress AND ≤1 per egress) is
        enforced on whatever a custom FABRIC_TYPES entry returns."""
        from repro.errors import ConfigurationError
        from repro.switch.fabric import FABRIC_TYPES, FabricArbiter

        class BrokenArbiter(FabricArbiter):
            def match(self, slot, requests):
                if all(len(requests[i]) >= 1 for i, _ in bad_match):
                    wanted = [(i, e) for i, e in bad_match
                              if e in requests[i]]
                    if len(wanted) == len(bad_match):
                        return bad_match
                return []

        monkeypatch.setitem(FABRIC_TYPES, "broken", BrokenArbiter)
        import dataclasses

        scenario = dataclasses.replace(
            _small("uniform"), fabric={"type": "broken", "params": {}})
        with pytest.raises(ConfigurationError, match="twice in slot"):
            run_fabric(scenario)


class TestPortScenarios:
    def test_ports_are_ordinary_scenarios(self):
        scenario = _small("uniform")
        traces, _stats = run_fabric(scenario)
        ports = port_scenarios(scenario, traces)
        assert len(ports) == scenario.num_ports
        for port in ports:
            assert isinstance(port, Scenario)
            assert port.arrivals["type"] == "trace"
            assert port.num_slots == len(traces[0])

    def test_port_queue_mapping_folds_ingress_index(self):
        """With fewer queues than ports, sources fold modulo the queue
        count instead of overrunning the buffer."""
        scenario = _small("uniform")
        template = dict(scenario.ports[0])
        template["buffer"] = {"granularity": 4, "num_queues": 4}
        import dataclasses

        narrow = dataclasses.replace(scenario, ports=(template,))
        traces, _stats = run_fabric(narrow)
        ports = port_scenarios(narrow, traces)
        for port, trace in zip(ports, traces):
            pattern = port.arrivals["params"]["pattern"]
            assert all(q is None or 0 <= q < 4 for q in pattern)
            assert pattern == [None if s is None else s % 4 for s in trace]

    def test_port_with_a_queue_per_ingress_takes_the_trace_itself(self):
        """With the default sizing (a queue per ingress) the fold is the
        identity: the fabric's row is the port's plan, uncopied."""
        scenario = _small("uniform")
        for _start, rows in FabricStream(scenario).chunks():
            for egress, row in enumerate(rows):
                queues = port_template(scenario, egress).buffer["num_queues"]
                assert queue_row(row, queues, scenario.num_ports) is row

    def test_stream_folds_ingress_index_for_fewer_queues(self):
        """The streamed port stage folds as the per-port trace oracle
        does."""
        import dataclasses

        scenario = _small("uniform")
        template = dict(scenario.ports[0])
        template["buffer"] = {"granularity": 4, "num_queues": 4}
        narrow = dataclasses.replace(scenario, ports=(template,))
        assert SwitchModel(narrow).run(chunk_slots=150) == run_port_oracle(
            narrow)

    def test_mixed_scheme_templates_cycle(self):
        scenario = _small("mixed-scheme")
        schemes = [port_template(scenario, egress).scheme
                   for egress in range(scenario.num_ports)]
        assert schemes == ["rads", "cfds"] * 4

    def test_per_port_seeds_differ(self):
        scenario = _small("uniform")
        seeds = {port_template(scenario, egress).seed
                 for egress in range(scenario.num_ports)}
        assert len(seeds) == scenario.num_ports


class TestSwitchReport:
    @pytest.fixture(scope="class")
    def report(self):
        return SwitchModel(_small("uniform")).run(jobs=1)

    def test_aggregates_are_sums_over_ports(self, report):
        assert report.arrivals == sum(p.arrivals for p in report.ports)
        assert report.departures == sum(p.departures for p in report.ports)
        assert report.drops == sum(p.drops for p in report.ports)
        assert report.arrivals == report.fabric.transferred_cells

    def test_merged_latency_is_exact_histogram_merge(self, report):
        merged = report.merged_latency()
        expected = LatencyStats()
        for port in report.ports:
            for delay, count in port.latency_histogram:
                expected.record_delay(delay, count)
        assert merged == expected
        assert merged.count == report.departures

    def test_summary_is_flat_and_consistent(self, report):
        summary = report.summary()
        assert summary["ports"] == 8
        assert summary["arrivals"] == report.arrivals
        assert summary["zero_miss"] is True
        assert summary["latency_p50"] <= summary["latency_p95"] \
            <= summary["latency_p99"] <= summary["latency_max"]

    def test_port_results_are_scenario_results(self, report):
        assert all(isinstance(p, ScenarioResult) for p in report.ports)


class TestDeterminism:
    @pytest.mark.parametrize("name", switch_scenario_names())
    def test_every_registered_scenario_runs_and_conserves(self, name):
        report = SwitchModel(_small(name)).run(jobs=1)
        assert report.arrivals == report.fabric.transferred_cells
        assert report.fabric.offered_cells == report.fabric.transferred_cells
        assert report.drops == 0
        assert report.zero_miss
        # drain() only flushes requested cells, so a handful may legally
        # remain buffered at the very end of each port's run.
        assert 0 <= report.arrivals - report.departures <= 2 * report.num_ports

    def test_report_identical_across_jobs_counts(self):
        """On both engines, every ``jobs`` value and every ``chunk_slots``
        give the same report, and so does the port-stage job run by
        hand."""
        scenario = get_switch_scenario("mixed-scheme").with_overrides(
            num_slots=250)
        for engine in ("array", "reference"):
            serial = SwitchModel(scenario).run(engine=engine, jobs=1)
            for jobs in (1, 2, 3, 8):
                for chunk_slots in (None, 1, 137, 10_000):
                    assert SwitchModel(scenario).run(
                        engine=engine, jobs=jobs, chunk_slots=chunk_slots
                    ) == serial, (engine, jobs, chunk_slots)
            [job] = SwitchModel(scenario).build_port_jobs(engine)
            assert run_job(job) == (serial.fabric, serial.ports)

    def test_failed_port_stage_raises(self, monkeypatch):
        """The switch is one job: a strict runner raises its error, and a
        non-strict runner's quarantined job raises SweepFailure."""
        import repro.switch.model as model

        real = model.port_template

        def poisoned(scenario, egress):
            if egress == 5:
                raise ConfigurationError("poisoned port")
            return real(scenario, egress)

        monkeypatch.setattr(model, "port_template", poisoned)
        scenario = _small("uniform")
        with pytest.raises(SweepFailure, match="poisoned port"):
            SwitchModel(scenario).run(
                runner=SweepRunner(jobs=2, strict=False, retries=0))
        with pytest.raises(ConfigurationError, match="poisoned port"):
            SwitchModel(scenario).run(jobs=2)

    def test_report_identical_across_engines(self):
        scenario = _small("uniform")
        reports = {engine: SwitchModel(scenario).run(engine=engine)
                   for engine in ("reference", "array")}
        assert reports["reference"].ports == reports["array"].ports
        assert reports["reference"].fabric == reports["array"].fabric

    def test_run_switch_spec_round_trips_through_cache(self, tmp_path):
        """The switch-suite job function: a cached re-run reconstructs a
        report that compares equal to the fresh one."""
        scenario = _small("incast")
        cache = ResultCache(root=tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        from repro.runner.jobs import Job

        job = Job(func="repro.switch.model:run_switch_spec",
                  kwargs={"spec": scenario.to_spec(), "jobs": 1})
        fresh = runner.run_one(job)
        again = runner.run_one(job)
        assert cache.hits == 1
        assert fresh == again
        assert fresh.summary() == again.summary()

    def test_num_ports_override_rescales(self):
        report = run_switch_spec(_small("uniform").to_spec(), num_ports=4,
                                 num_slots=300)
        assert report.num_ports == 4
        assert len(report.ports) == 4
        # queue counts follow the port count by default
        assert all(p.arrivals >= 0 for p in report.ports)
