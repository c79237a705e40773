"""Tests for the sweep runner: determinism, parallelism, caching."""

import pytest

from repro.analysis.figure8 import figure8, figure8_jobs
from repro.analysis.figure11 import figure11, figure11_jobs
from repro.analysis.scaling import granularity_roadmap
from repro.analysis.table2 import table2
from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.sweep import (
    SweepRunner,
    default_jobs,
    get_runner,
    set_runner,
    using_runner,
)


class TestConfiguration:
    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=-1)

    def test_zero_selects_auto(self):
        assert SweepRunner(jobs=0).jobs == default_jobs()


class TestDeterminism:
    def test_results_are_in_job_order(self):
        jobs = figure8_jobs("OC-768", points=6)
        results = SweepRunner(jobs=1).run(jobs)
        assert [p.lookahead_slots for p in results] == \
            [j.kwargs["lookahead"] for j in jobs]

    def test_parallel_results_identical_to_serial(self):
        jobs = figure8_jobs("OC-3072", points=8)
        serial = SweepRunner(jobs=1).run(jobs)
        parallel = SweepRunner(jobs=2).run(jobs)
        assert serial == parallel

    def test_parallel_figure11_identical_to_serial(self):
        jobs = figure11_jobs(queue_limit=256)
        serial = SweepRunner(jobs=1).run(jobs)
        parallel = SweepRunner(jobs=3).run(jobs)
        assert serial == parallel

    def test_cached_rerun_identical_to_fresh(self, tmp_path):
        jobs = figure8_jobs("OC-768", points=6)
        fresh = SweepRunner(jobs=1).run(jobs)
        cache = ResultCache(root=tmp_path)
        SweepRunner(jobs=1, cache=cache).run(jobs)
        cached = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path)).run(jobs)
        assert cached == fresh


class TestCachingBehaviour:
    def test_cache_hit_skips_execution(self, tmp_path, monkeypatch):
        jobs = figure8_jobs("OC-768", points=5)
        cache = ResultCache(root=tmp_path)
        warm = SweepRunner(jobs=1, cache=cache)
        warm.run(jobs)
        assert warm.executed == len(jobs)

        # A warm cache must answer without calling any job function.
        import repro.runner.sweep as sweep_module

        def boom(job):
            raise AssertionError(f"job executed despite warm cache: {job}")

        monkeypatch.setattr(sweep_module, "run_job", boom)
        rerun = SweepRunner(jobs=1, cache=ResultCache(root=tmp_path))
        results = rerun.run(jobs)
        assert rerun.executed == 0
        assert results == warm.run(jobs)

    def test_config_change_recomputes(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        SweepRunner(jobs=1, cache=cache).run(figure8_jobs("OC-768", points=4))
        changed = SweepRunner(jobs=1, cache=cache)
        changed.run(figure8_jobs("OC-768", num_queues=64, points=4))
        assert changed.executed == 4  # no entry reused across configs

    def test_partial_cache_mixes_hit_and_compute(self, tmp_path):
        jobs = figure8_jobs("OC-768", points=6)
        cache = ResultCache(root=tmp_path)
        SweepRunner(jobs=1, cache=cache).run(jobs[:3])
        mixed = SweepRunner(jobs=1, cache=cache)
        results = mixed.run(jobs)
        assert mixed.executed == 3
        assert [p.lookahead_slots for p in results] == \
            [j.kwargs["lookahead"] for j in jobs]


class TestGlobalRunner:
    def test_default_runner_is_serial_uncached(self):
        runner = get_runner()
        assert runner.jobs == 1
        assert runner.cache is None

    def test_using_runner_restores_previous(self):
        before = get_runner()
        with using_runner(SweepRunner(jobs=2)) as inside:
            assert get_runner() is inside
        assert get_runner() is before

    def test_set_runner_none_restores_default(self):
        custom = SweepRunner(jobs=2)
        set_runner(custom)
        try:
            assert get_runner() is custom
        finally:
            set_runner(None)
        assert get_runner().jobs == 1

    def test_analysis_entry_points_use_installed_runner(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        with using_runner(runner):
            figure8("OC-768", points=4)
            table2("OC-768")
            granularity_roadmap("OC-3072", 512, years=[0.0, 3.0])
        assert runner.executed > 0
        assert len(cache) == runner.executed

    def test_parallel_entry_point_matches_serial(self):
        serial = figure11(queue_limit=128)
        with using_runner(SweepRunner(jobs=2)):
            parallel = figure11(queue_limit=128)
        assert serial == parallel
