"""Chaos suite for the supervised sweep runner.

Pins the failure semantics the tentpole promises: poison jobs quarantine as
structured :class:`JobFailure` records instead of losing the sweep, worker
deaths and timeouts are attributed to exactly one job and retried, completed
siblings land in the cache even when the sweep aborts, and — the invariant —
any fault schedule that eventually lets every job complete produces results
bit-identical to the fault-free run.

Fleet tests run with ``jobs=2`` and a generous ``timeout``: the timeout
waives the CPU cap, so a real two-worker fleet spawns even on the one-CPU CI
container (and worker kills are real ``os._exit`` deaths, not simulations).
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.runner.sweep as sweep_module
from repro.errors import ReproError, SweepFailure
from repro.faults import (
    FaultInjector,
    FaultPlan,
    InjectedPermanentError,
    using_faults,
)
from repro.obs.metrics import using_metrics
from repro.runner.cache import ResultCache
from repro.runner.jobs import Job
from repro.runner.sweep import JobFailure, SweepRunner

JOBS = "tests.runner.chaos_jobs"

#: Fleet kwargs: a timeout forces worker processes even on one CPU.
FLEET = {"jobs": 2, "timeout": 60}


def echo_jobs(n=6):
    return [Job(func=f"{JOBS}:square", kwargs={"x": i}, tag=f"sq{i}")
            for i in range(n)]


def poison_job(tag="poison"):
    return Job(func=f"{JOBS}:always_fails", kwargs={"tag": tag}, tag=tag)


class TestJobFailureQuarantine:
    def test_non_strict_yields_structured_failure_in_place(self):
        jobs = echo_jobs(4)
        jobs.insert(2, poison_job())
        results = SweepRunner(jobs=1, strict=False).run(jobs)
        assert [r for r in results if not isinstance(r, JobFailure)] \
            == [0, 1, 4, 9]
        failure = results[2]
        assert isinstance(failure, JobFailure)
        assert failure.tag == "poison"
        assert failure.kind == "error"
        assert failure.attempts == 1  # permanent: no retry
        assert "permanently broken" in failure.error
        assert "always_fails" in failure.traceback

    def test_strict_reraises_the_original_exception(self):
        jobs = [poison_job()] + echo_jobs(2)
        with pytest.raises(ReproError, match="permanently broken"):
            SweepRunner(jobs=1, strict=True).run(jobs)

    def test_strict_is_the_default(self):
        assert SweepRunner(jobs=1).strict is True

    def test_failure_never_cached(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        jobs = [poison_job(), echo_jobs(1)[0]]
        SweepRunner(jobs=1, cache=cache, strict=False).run(jobs)
        assert len(cache) == 1  # only the surviving job

    def test_fleet_poison_spares_siblings(self):
        jobs = echo_jobs(5)
        jobs.insert(1, poison_job())
        results = SweepRunner(strict=False, **FLEET).run(jobs)
        assert isinstance(results[1], JobFailure)
        assert [r for r in results if not isinstance(r, JobFailure)] \
            == [0, 1, 4, 9, 16]


class TestRetries:
    def test_transient_retried_to_success(self, tmp_path):
        marker = str(tmp_path / "marker")
        jobs = [Job(func=f"{JOBS}:transient_until_marker",
                    kwargs={"marker_path": marker, "value": 7}, tag="flaky")]
        results = SweepRunner(jobs=1, retries=2, backoff_s=0).run(jobs)
        assert results == [7]

    def test_transient_exhausted_becomes_failure(self, tmp_path):
        plan = FaultPlan(master_seed=1, rates={"transient": 1.0},
                         max_faulted_attempts=99)
        with using_faults(FaultInjector(plan)):
            results = SweepRunner(jobs=1, retries=2, backoff_s=0,
                                  strict=False).run(echo_jobs(1))
        failure = results[0]
        assert isinstance(failure, JobFailure)
        assert failure.attempts == 3  # first try + 2 retries

    def test_retry_metrics_counted(self, tmp_path):
        marker = str(tmp_path / "marker")
        jobs = [Job(func=f"{JOBS}:transient_until_marker",
                    kwargs={"marker_path": marker, "value": 1}, tag="flaky")]
        with using_metrics() as registry:
            SweepRunner(jobs=1, retries=2, backoff_s=0).run(jobs)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["runner.retries"] == 1

    def test_backoff_is_deterministic(self):
        runner = SweepRunner(jobs=1, backoff_s=0.05)
        job = echo_jobs(1)[0]
        first = runner._retry_delay(job, 0, 1)
        assert first == runner._retry_delay(job, 0, 1)
        # Exponential growth, jitter bounded in [1, 1.5).
        assert 0.05 <= first < 0.075
        assert 0.10 <= runner._retry_delay(job, 0, 2) < 0.15


class TestWorkerDeath:
    def test_dead_worker_attributed_and_quarantined(self):
        jobs = echo_jobs(3)
        jobs.insert(1, Job(func=f"{JOBS}:kill_worker", kwargs={},
                           tag="killer"))
        results = SweepRunner(strict=False, retries=1, backoff_s=0.01,
                              **FLEET).run(jobs)
        failure = results[1]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "worker-death"
        assert failure.attempts == 2
        assert [r for r in results if not isinstance(r, JobFailure)] \
            == [0, 1, 4]

    def test_crash_then_recover_on_retry(self, tmp_path):
        marker = str(tmp_path / "marker")
        jobs = [Job(func=f"{JOBS}:crash_until_marker",
                    kwargs={"marker_path": marker, "value": 42},
                    tag="flaky-crash")] + echo_jobs(2)
        results = SweepRunner(retries=2, backoff_s=0.01, **FLEET).run(jobs)
        assert results == [42, 0, 1]

    def test_strict_worker_death_raises_sweep_failure_with_tag(self):
        jobs = [Job(func=f"{JOBS}:kill_worker", kwargs={}, tag="killer")]
        with pytest.raises(SweepFailure) as excinfo:
            SweepRunner(strict=True, retries=0, **FLEET).run(jobs)
        assert excinfo.value.failure.tag == "killer"
        assert "killer" in str(excinfo.value)

    def test_worker_death_metrics(self):
        jobs = [Job(func=f"{JOBS}:kill_worker", kwargs={}, tag="killer")]
        with using_metrics() as registry:
            SweepRunner(strict=False, retries=0, **FLEET).run(jobs)
        counters = registry.snapshot()["counters"]
        assert counters["runner.worker_deaths"] == 1
        assert counters["runner.jobs_failed"] == 1


class TestTimeouts:
    def test_hung_job_quarantined_siblings_survive(self):
        jobs = [Job(func=f"{JOBS}:slow_echo",
                    kwargs={"value": 1, "seconds": 30.0}, tag="hung")] \
            + echo_jobs(2)
        with using_metrics() as registry:
            results = SweepRunner(jobs=2, timeout=0.5, retries=0,
                                  strict=False).run(jobs)
        failure = results[0]
        assert isinstance(failure, JobFailure)
        assert failure.kind == "timeout"
        assert results[1:] == [0, 1]
        assert registry.snapshot()["counters"]["runner.timeouts"] == 1

    def test_strict_timeout_raises_sweep_failure(self):
        jobs = [Job(func=f"{JOBS}:slow_echo",
                    kwargs={"value": 1, "seconds": 30.0}, tag="hung")]
        with pytest.raises(SweepFailure) as excinfo:
            SweepRunner(jobs=2, timeout=0.5, retries=0, strict=True).run(jobs)
        assert excinfo.value.failure.kind == "timeout"
        assert excinfo.value.failure.tag == "hung"

    def test_timeout_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=1, timeout=0)
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=1, retries=-1)
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=1, backoff_s=-0.1)


class TestLargePayloads:
    #: Eight echo jobs of a 10,000-int list over two workers.
    SCRIPT = (
        "from repro.runner.jobs import Job\n"
        "from repro.runner.sweep import SweepRunner\n"
        "payload = list(range(10_000))\n"
        "jobs = [Job(func='tests.runner.chaos_jobs:echo',\n"
        "            kwargs={'value': payload}, tag=f'echo{i}')\n"
        "        for i in range(8)]\n"
        "assert SweepRunner(jobs=2, timeout=5).run(jobs) == [payload] * 8\n")

    def test_large_tasks_and_results_finish(self):
        """Tasks and results both larger than a pipe's buffer: a supervisor
        that queued every task before reading a result blocked in ``put``
        while both workers blocked putting their results, and ``timeout``
        never fired.  The sweep runs in a child with a deadline (its whole
        process group is killed on expiry), so a hang fails the test
        instead of hanging the suite."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        child = subprocess.Popen([sys.executable, "-c", self.SCRIPT],
                                 cwd=root, env=env, start_new_session=True,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
        try:
            output, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the fleet deadlocked on large tasks and results")
        assert child.returncode == 0, output


class TestCrashResumeFromCache:
    def test_completed_jobs_cached_before_sweep_aborts(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        # Serial: two successes land in the cache before the poison job
        # aborts the (strict) sweep.
        jobs = echo_jobs(2) + [poison_job()] + echo_jobs(4)[2:]
        with pytest.raises(ReproError):
            SweepRunner(jobs=1, cache=cache, strict=True).run(jobs)
        assert len(cache) == 2
        # The rerun resumes from cache: only the still-missing jobs execute.
        rerun = SweepRunner(jobs=1, cache=cache, strict=False)
        results = rerun.run(jobs)
        assert rerun.executed == 3  # poison + the two never-started jobs
        assert [r for r in results if not isinstance(r, JobFailure)] \
            == [0, 1, 4, 9]

    def test_fleet_writes_cache_as_results_arrive(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        jobs = echo_jobs(4)
        SweepRunner(cache=cache, **FLEET).run(jobs)
        assert len(cache) == 4
        # Warm rerun executes nothing even if run_job is broken.
        def boom(job):
            raise AssertionError("cached sweep must not execute jobs")

        original = sweep_module.run_job
        sweep_module.run_job = boom
        try:
            assert SweepRunner(cache=cache, **FLEET).run(jobs) \
                == [0, 1, 4, 9]
        finally:
            sweep_module.run_job = original


class TestChaosInvariant:
    """Any eventually-completing fault schedule ⇒ bit-identical results."""

    #: Transient-only kinds: with retries >= max_faulted_attempts every job
    #: is guaranteed to complete, making the invariant checkable per seed.
    RATES = {"worker_kill": 0.3, "transient": 0.35, "delay": 0.2}

    def test_fifty_seeded_schedules_serial(self):
        jobs = echo_jobs(8)
        clean = SweepRunner(jobs=1).run(jobs)
        for seed in range(50):
            plan = FaultPlan(master_seed=seed, rates=self.RATES,
                             delay_s=0.0005)
            with using_faults(FaultInjector(plan)):
                faulted = SweepRunner(jobs=1, retries=3,
                                      backoff_s=0.001).run(jobs)
            assert faulted == clean, f"schedule {seed} diverged"

    def test_seeded_schedules_fleet_with_real_kills(self):
        jobs = echo_jobs(6)
        clean = SweepRunner(jobs=1).run(jobs)
        for seed in range(8):
            plan = FaultPlan(master_seed=seed, rates=self.RATES,
                             delay_s=0.0005)
            with using_faults(FaultInjector(plan)):
                faulted = SweepRunner(retries=3, backoff_s=0.001,
                                      **FLEET).run(jobs)
            assert faulted == clean, f"fleet schedule {seed} diverged"

    def test_corrupted_cache_entries_recompute_identically(self, tmp_path):
        jobs = echo_jobs(6)
        clean = SweepRunner(jobs=1).run(jobs)
        for seed in range(10):
            cache = ResultCache(root=tmp_path / f"seed{seed}")
            plan = FaultPlan(master_seed=seed, rates={"corrupt": 0.7})
            with using_faults(FaultInjector(plan)):
                first = SweepRunner(jobs=1, cache=cache).run(jobs)
                second = SweepRunner(jobs=1, cache=cache).run(jobs)
            assert first == clean and second == clean, f"seed {seed}"

    def test_permanent_fault_is_structured_not_lost(self):
        jobs = echo_jobs(4)
        plan = FaultPlan(master_seed=3, rates={"permanent": 0.5})
        injector = FaultInjector(plan)
        expected_failed = [i for i in range(4)
                           if injector.job_fault(f"job:sq{i}#{i}", 0)]
        assert expected_failed  # seed chosen so at least one job is poisoned
        with using_faults(FaultInjector(plan)):
            results = SweepRunner(jobs=1, strict=False).run(jobs)
        for index, result in enumerate(results):
            if index in expected_failed:
                assert isinstance(result, JobFailure)
                assert "InjectedPermanentError" in result.error
            else:
                assert result == index * index

    def test_injection_never_perturbs_simulation_rng(self):
        # A fault plan must not consume the random module's global stream:
        # a faulted simulation draws exactly the clean run's randomness.
        import random

        plan = FaultPlan(master_seed=1, rates={"transient": 0.5})
        injector = FaultInjector(plan)
        random.seed(99)
        expected = [random.random() for _ in range(5)]
        random.seed(99)
        for i in range(100):
            injector.job_fault(f"site{i}", 0)
            injector.corrupt_file(os.devnull, f"file{i}")
        assert [random.random() for _ in range(5)] == expected


class TestCacheQuarantine:
    def _entry_path(self, cache, job):
        return cache.path(job)

    def test_truncated_entry_quarantined_and_recomputed(self, tmp_path,
                                                        capsys):
        cache = ResultCache(root=tmp_path, verbose=True)
        job = echo_jobs(1)[0]
        SweepRunner(jobs=1, cache=cache).run([job])
        path = self._entry_path(cache, job)
        path.write_text(path.read_text()[:17])  # torn write
        with using_metrics() as registry:
            runner = SweepRunner(jobs=1, cache=cache)
            assert runner.run([job]) == [0]
            assert runner.executed == 1  # recomputed, not served
        assert cache.quarantined == 1
        assert registry.snapshot()["counters"]["cache.quarantined"] == 1
        assert path.with_name(path.name + ".bad").exists()
        assert "quarantined" in capsys.readouterr().err

    def test_wrong_key_entry_quarantined(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        job = echo_jobs(1)[0]
        SweepRunner(jobs=1, cache=cache).run([job])
        path = self._entry_path(cache, job)
        text = path.read_text().replace(cache.key(job), "0" * 64)
        path.write_text(text)
        assert SweepRunner(jobs=1, cache=cache).run([job]) == [0]
        assert cache.quarantined == 1

    def test_missing_entry_is_plain_miss_no_quarantine(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        assert cache.get(echo_jobs(1)[0]) is \
            __import__("repro.runner.cache", fromlist=["MISS"]).MISS
        assert cache.quarantined == 0

    def test_clear_removes_quarantined_files(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        job = echo_jobs(1)[0]
        SweepRunner(jobs=1, cache=cache).run([job])
        path = self._entry_path(cache, job)
        path.write_text("{")
        cache.get(job)
        assert path.with_name(path.name + ".bad").exists()
        cache.clear()
        assert not path.with_name(path.name + ".bad").exists()


class TestSweepAbortObservability:
    def test_sweep_s_observed_when_sweep_raises(self):
        with using_metrics() as registry:
            with pytest.raises(ReproError):
                SweepRunner(jobs=1, strict=True).run([poison_job()])
        timers = registry.snapshot()["timers"]
        assert "runner.sweep_s" in timers
        assert timers["runner.sweep_s"]["count"] == 1

    def test_sweep_abort_trace_names_the_failing_tag(self, tmp_path):
        import json

        from repro.obs.trace import TraceWriter, using_trace

        trace_path = tmp_path / "trace.ndjson"
        with TraceWriter(trace_path) as writer, using_trace(writer):
            with pytest.raises(ReproError):
                SweepRunner(jobs=1, strict=True).run(
                    echo_jobs(2) + [poison_job(tag="culprit")])
        events = [json.loads(line)
                  for line in trace_path.read_text().splitlines()]
        aborts = [e for e in events if e["event"] == "sweep_abort"]
        assert len(aborts) == 1
        assert aborts[0]["tag"] == "culprit"
        failed = [e for e in events if e["event"] == "job_failed"]
        assert failed and failed[0]["tag"] == "culprit"
