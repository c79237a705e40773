"""The sweep runner: cached, fault-tolerant, optionally parallel execution.

Every analysis module expresses its parameter sweep as a list of
:class:`~repro.runner.jobs.Job` and hands it to a :class:`SweepRunner`.  The
runner fills what it can from the :class:`~repro.runner.cache.ResultCache`,
fans the remaining jobs out over supervised worker processes, and returns
results **in job order** regardless of which worker finished first — so a
parallel run is byte-identical to a serial one.

Execution is *supervised*, not a bare ``pool.map``: every job is dispatched
individually, each worker announces which job it is starting, and the parent
therefore knows exactly which job a dead or hung worker was running.  That
buys the failure semantics a long-lived sweep service needs:

* **per-job wall-clock timeouts** (``timeout=``) — a hung job's worker is
  killed and the job retried or quarantined, instead of hanging the sweep;
* **bounded retries with exponential backoff** (``retries=``,
  ``backoff_s=``) for transient failures — a job raising
  :class:`~repro.faults.TransientJobError` (or losing its worker) is retried
  with deterministic jitter, so a replayed sweep waits the same schedule;
* **dead-worker detection with fleet respawn** — a worker that disappears
  (OOM kill, segfault, injected ``worker_kill`` fault) costs one attempt for
  the job it was running; every other in-flight job is re-dispatched to a
  fresh fleet unpenalised;
* **poison-job quarantine** — a job that keeps failing becomes a structured
  :class:`JobFailure` *in the results list* (``strict=False``) instead of
  aborting the sweep, and completed sibling results are written to the cache
  as they finish, so a rerun resumes from cache.  With ``strict=True`` (the
  library default, preserving historical behaviour) the first permanent
  failure re-raises the original exception — or a
  :class:`~repro.errors.SweepFailure` for timeouts and worker deaths, which
  have no exception object.

A module-level *current runner* lets the CLI (or a test) reconfigure how the
high-level analysis entry points (``figure8(...)``, ``table2(...)``, ...)
execute without threading a runner argument through every signature.  The
default is serial and uncached, which preserves the library's historical
behaviour exactly.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import multiprocessing
import multiprocessing.connection
import os
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, ReproError, SweepFailure
from repro.faults import (FaultInjector, FaultPlan, TransientJobError,
                          get_injector, set_injector)
from repro.obs.metrics import get_metrics
from repro.obs.trace import emit as trace_emit
from repro.runner.cache import MISS, ResultCache
from repro.runner.jobs import Job, run_job

#: Supervisor poll period while waiting for worker messages (seconds).  Only
#: latency of *detecting* deaths and timeouts depends on it; results are
#: handled the moment they arrive.
_POLL_S = 0.05

#: Placeholder for a result slot that has not been produced yet.
_PENDING = object()


def available_cpus() -> int:
    """CPUs this process may actually run on (container/affinity aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def default_jobs() -> int:
    """A sensible worker count for ``--jobs 0`` / auto mode."""
    return available_cpus()


@dataclass(frozen=True)
class JobFailure:
    """A job that permanently failed, as a value in the results list.

    Produced by non-strict sweeps in place of the failed job's result, so a
    single poison job can never discard its siblings' finished work.  Plain
    strings and ints only: a ``JobFailure`` serialises through the result
    cache machinery (it is never *cached*, but it may ride inside a larger
    report, e.g. a partial ``SwitchReport``).

    Attributes:
        tag: the failed job's tag (presentation label).
        func: the failed job's function path.
        kind: ``"error"`` (the job raised), ``"timeout"`` (exceeded the
            per-job wall clock) or ``"worker-death"`` (its worker process
            disappeared mid-job).
        attempts: how many times the job was tried before quarantine.
        error: ``"Type: message"`` of the last failure (empty for kinds
            without an exception).
        traceback: the last attempt's traceback text, when one exists.
    """

    tag: str
    func: str
    kind: str
    attempts: int
    error: str = ""
    traceback: str = ""

    def brief(self) -> str:
        """One-line provenance for reports and logs."""
        name = self.tag or self.func
        detail = f": {self.error}" if self.error else ""
        return (f"{name}: {self.kind} after {self.attempts} "
                f"attempt(s){detail}")


def _job_site(job: Job, position: int) -> str:
    """The fault-injection site naming one job's dispatch slot."""
    return f"job:{job.tag or job.func}#{position}"


def _describe_error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _attempt_job(job: Job, position: int, attempt: int,
                 injector: Optional[FaultInjector]) -> Any:
    """Run one job attempt, applying any planned fault first."""
    if injector is not None:
        injector.apply_job_fault(_job_site(job, position), attempt)
    return run_job(job)


def _worker_main(task_queue, result_queue, plan_document) -> None:
    """Worker process loop: pull ``(position, job, attempt)`` tasks until the
    ``None`` sentinel.

    Each task is acknowledged with a ``("start", position, pid)`` message
    *before* the job body runs — that acknowledgement is what lets the
    supervisor attribute a worker death or a timeout to exactly one job.
    The fault plan (when given) applies only to the dispatched job itself;
    it is deliberately not installed globally, so a job body that runs a
    nested sweep (e.g. a switch's port stage) is not re-faulted with reset
    attempt numbers on every outer retry.  A fork start method can leak the
    parent's *active* injector into the worker, which would break exactly
    that — nested sites would fire a real ``os._exit`` on every retry, the
    nested attempt counter restarting each time — so it is cleared first.
    """
    set_injector(None)
    injector = (FaultInjector(FaultPlan.from_json(plan_document))
                if plan_document is not None else None)
    while True:
        try:
            message = task_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if message is None:
            return
        position, job, attempt = message
        try:
            result_queue.put(("start", position, os.getpid()))
        except Exception:
            return
        try:
            value = _attempt_job(job, position, attempt, injector)
        except KeyboardInterrupt:
            return
        except Exception as exc:
            transient = isinstance(exc, TransientJobError)
            text = traceback_module.format_exc()
            try:
                result_queue.put(("err", position, exc, text, transient))
            except Exception as put_exc:
                fallback = ReproError(
                    f"worker could not return the failure of job "
                    f"{job.tag or job.func!r}: {put_exc}")
                result_queue.put(("err", position, fallback, text, transient))
        else:
            try:
                result_queue.put(("ok", position, value))
            except Exception as exc:
                text = traceback_module.format_exc()
                fallback = ReproError(
                    f"result of job {job.tag or job.func!r} could not be "
                    f"returned from the worker: {exc}")
                result_queue.put(("err", position, fallback, text, False))


class SweepRunner:
    """Executes job lists with caching, parallelism and failure isolation.

    Args:
        jobs: number of worker processes; ``1`` runs in-process (no pool),
            ``0`` selects :func:`default_jobs`.  The effective fleet size is
            additionally capped at the job count and at
            :func:`available_cpus` — simulation jobs are CPU-bound, so
            extra workers could only add overhead.  (With a ``timeout`` the
            CPU cap is waived: timeout enforcement needs a worker process
            the supervisor can kill, so ``jobs >= 2`` guarantees one even on
            a single-CPU machine.)
        cache: result cache, or ``None`` to recompute everything.  Completed
            results are written as they finish, so an aborted sweep resumes
            from cache on rerun.
        timeout: per-job wall-clock seconds measured from the moment a
            worker starts the job.  ``None`` (default) never times out.
            Only enforceable when worker processes exist (``jobs >= 2``);
            the in-process path ignores it.
        retries: how many times a *transiently* failed job is re-attempted
            (:class:`~repro.faults.TransientJobError`, a worker death, or a
            timeout).  Any other exception is permanent on first strike.
        backoff_s: base of the exponential retry backoff; retry ``k`` waits
            ``backoff_s * 2**(k-1)`` scaled by a deterministic jitter in
            ``[1, 1.5)`` derived from the job site — reproducible, yet
            de-synchronised across jobs.
        strict: with ``True`` (default) the first permanent failure
            re-raises (fail-fast, the historical behaviour); with ``False``
            it becomes a :class:`JobFailure` entry in the results list and
            the sweep carries on.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 *,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 backoff_s: float = 0.05,
                 strict: bool = True) -> None:
        if jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ConfigurationError(
                f"backoff_s must be >= 0, got {backoff_s}")
        self.jobs = jobs if jobs != 0 else default_jobs()
        self.cache = cache
        if cache is not None:
            # Startup sweep: reclaim temp files leaked by workers that died
            # between writing and the atomic rename (see ResultCache.put).
            cache.sweep_stale_tmp()
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.strict = strict
        #: Number of jobs actually executed (cache misses) over this runner's
        #: lifetime; cache hits are visible via ``cache.hits``.
        self.executed = 0

    # ------------------------------------------------------------------ #
    def run(self, jobs: Sequence[Job]) -> List[Any]:
        """Execute ``jobs`` and return their results in the same order.

        Permanently failed jobs appear as :class:`JobFailure` entries when
        ``strict=False``; with ``strict=True`` the first one raises.  Either
        way ``runner.sweep_s`` is observed and completed results are already
        in the cache — an aborted sweep is resumable, never lost.
        """
        jobs = list(jobs)
        results: List[Any] = [MISS] * len(jobs)
        started = time.perf_counter()
        trace_emit("sweep_start", jobs=len(jobs), workers=self.jobs,
                   cached_runner=self.cache is not None)

        pending: List[int] = []
        try:
            if self.cache is not None:
                for index, job in enumerate(jobs):
                    cached = self.cache.get(job)
                    if cached is MISS:
                        pending.append(index)
                    else:
                        results[index] = cached
                        trace_emit("job_cached", index=index, tag=job.tag,
                                   func=job.func)
            else:
                pending = list(range(len(jobs)))

            if pending:
                for index in pending:
                    trace_emit("job_dispatched", index=index,
                               tag=jobs[index].tag, func=jobs[index].func)

                def on_result(position: int, value: Any) -> None:
                    index = pending[position]
                    results[index] = value
                    if (self.cache is not None
                            and not isinstance(value, JobFailure)):
                        self.cache.put(jobs[index], value)

                self._execute([jobs[i] for i in pending], on_result)
                self.executed += len(pending)
        except BaseException as exc:
            # The timing metric and an abort event must survive the raise:
            # a sweep that died is exactly the one worth being able to see.
            duration = time.perf_counter() - started
            obs = get_metrics()
            if obs is not None:
                obs.observe("runner.sweep_s", duration)
            failure = getattr(exc, "failure", None)
            tag = (getattr(exc, "repro_job_tag", None)
                   or getattr(failure, "tag", None))
            trace_emit("sweep_abort", tag=tag, error=_describe_error(exc),
                       duration_s=round(duration, 6))
            if isinstance(exc, KeyboardInterrupt) and self.cache is not None:
                # Workers are already terminated (the supervisor's cleanup
                # runs first); their orphaned cache temp files are stale now.
                self.cache.sweep_stale_tmp()
            raise
        duration = time.perf_counter() - started
        failed = sum(1 for value in results if isinstance(value, JobFailure))
        obs = get_metrics()
        if obs is not None:
            obs.inc("runner.sweeps")
            obs.inc("runner.jobs", len(jobs))
            obs.inc("runner.jobs_executed", len(pending))
            obs.inc("runner.jobs_cached", len(jobs) - len(pending))
            obs.observe("runner.sweep_s", duration)
        trace_emit("sweep_end", jobs=len(jobs), executed=len(pending),
                   cached=len(jobs) - len(pending), failed=failed,
                   duration_s=round(duration, 6))
        return results

    def run_one(self, job: Job) -> Any:
        """Convenience wrapper for a single job."""
        return self.run([job])[0]

    # ------------------------------------------------------------------ #
    # Execution paths
    # ------------------------------------------------------------------ #
    def _execute(self, jobs: List[Job],
                 on_result: Optional[Callable[[int, Any], None]] = None,
                 ) -> List[Any]:
        # Never spawn more workers than there are jobs *or* CPUs this
        # process may run on: the jobs are pure CPU-bound simulation, so an
        # oversubscribed pool can only add fork/IPC overhead, never speed.
        # A timeout waives the CPU cap — and forces the fleet path even for
        # a single job — because enforcing it requires a worker process the
        # supervisor can kill, even on a one-CPU machine.
        if self.timeout is not None:
            workers = max(1, min(self.jobs, len(jobs)))
        else:
            workers = min(self.jobs, len(jobs), available_cpus())
        obs = get_metrics()
        if workers <= 1 and self.timeout is None:
            if obs is not None:
                obs.gauge("runner.workers", 1)
            return self._execute_serial(jobs, on_result)
        if obs is not None:
            obs.inc("runner.pools_started")
            obs.gauge("runner.workers", workers)
        return self._execute_fleet(jobs, workers, on_result)

    def _retry_delay(self, job: Job, position: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based): exponential, scaled
        by a deterministic jitter so replays wait the identical schedule."""
        if self.backoff_s == 0:
            return 0.0
        site = f"{_job_site(job, position)}@retry{attempt}"
        digest = hashlib.sha256(site.encode("utf-8")).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return self.backoff_s * (2.0 ** (attempt - 1)) * (1.0 + 0.5 * jitter)

    def _note_retry(self, job: Job, kind: str, attempt: int,
                    delay: float) -> None:
        obs = get_metrics()
        if obs is not None:
            obs.inc("runner.retries")
        trace_emit("job_retry", tag=job.tag, func=job.func, kind=kind,
                   attempt=attempt, delay_s=round(delay, 6))

    def _finalize_failure(self, failure: JobFailure,
                          original: Optional[BaseException]) -> JobFailure:
        """Record a permanent failure; raises when the runner is strict."""
        obs = get_metrics()
        if obs is not None:
            obs.inc("runner.jobs_failed")
        trace_emit("job_failed", tag=failure.tag, func=failure.func,
                   kind=failure.kind, attempts=failure.attempts,
                   error=failure.error)
        if self.strict:
            if original is not None:
                # Fail fast with the job's own exception — exactly what a
                # bare pool.map would have raised — annotated with the tag
                # so the abort trace can name the culprit.
                with contextlib.suppress(Exception):
                    original.repro_job_tag = failure.tag  # type: ignore
                raise original
            raise SweepFailure(failure)
        return failure

    # -- serial ---------------------------------------------------------- #
    def _execute_serial(self, jobs: List[Job],
                        on_result: Optional[Callable[[int, Any], None]],
                        ) -> List[Any]:
        injector = get_injector()
        results: List[Any] = []
        for position, job in enumerate(jobs):
            attempt = 0
            while True:
                try:
                    value = _attempt_job(job, position, attempt, injector)
                except Exception as exc:
                    if (isinstance(exc, TransientJobError)
                            and attempt < self.retries):
                        attempt += 1
                        delay = self._retry_delay(job, position, attempt)
                        self._note_retry(job, "error", attempt, delay)
                        if delay > 0:
                            time.sleep(delay)
                        continue
                    value = self._finalize_failure(
                        JobFailure(tag=job.tag, func=job.func, kind="error",
                                   attempts=attempt + 1,
                                   error=_describe_error(exc),
                                   traceback=traceback_module.format_exc()),
                        original=exc)
                results.append(value)
                if on_result is not None:
                    on_result(position, value)
                break
        return results

    # -- supervised worker fleet ----------------------------------------- #
    def _execute_fleet(self, jobs: List[Job], workers: int,
                       on_result: Optional[Callable[[int, Any], None]],
                       ) -> List[Any]:
        injector = get_injector()
        plan_document = (injector.plan.to_json()
                         if injector is not None else None)
        context = multiprocessing.get_context()
        n = len(jobs)
        results: List[Any] = [_PENDING] * n
        attempts = [0] * n
        remaining: Set[int] = set(range(n))
        ready: collections.deque = collections.deque(range(n))
        delayed: List[Tuple[float, int]] = []  # (ready_at_monotonic, pos)
        dispatched: Set[int] = set()

        fleet: Dict[int, Any] = {}  # pid -> Process
        running: Dict[int, Tuple[int, float]] = {}  # pid -> (pos, started_at)
        task_queue = None
        result_queue = None

        def spawn_fleet() -> None:
            nonlocal task_queue, result_queue
            task_queue = context.SimpleQueue()
            result_queue = context.SimpleQueue()
            for _ in range(workers):
                process = context.Process(
                    target=_worker_main,
                    args=(task_queue, result_queue, plan_document),
                    daemon=True)
                process.start()
                fleet[process.pid] = process
            trace_emit("pool_start", workers=workers, jobs=len(remaining))

        def terminate_fleet() -> None:
            """Tear the whole fleet down (kills may have poisoned the
            queues' shared locks, so they are discarded with it)."""
            nonlocal task_queue, result_queue
            for process in fleet.values():
                if process.is_alive():
                    process.terminate()
            for process in fleet.values():
                process.join(timeout=1.0)
                if process.is_alive():  # pragma: no cover - stuck SIGTERM
                    process.kill()
                    process.join(timeout=1.0)
            fleet.clear()
            running.clear()
            task_queue = None
            result_queue = None

        def drain_results() -> None:
            """Handle every complete message already in the result queue."""
            while result_queue is not None and result_queue._reader.poll(0):
                handle_message(result_queue.get())

        def penalize(position: int, kind: str) -> None:
            """One attempt failed without an exception object (a worker
            death or a timeout): retry with backoff or quarantine."""
            job = jobs[position]
            obs = get_metrics()
            if obs is not None:
                obs.inc("runner.timeouts" if kind == "timeout"
                        else "runner.worker_deaths")
            if attempts[position] < self.retries:
                attempts[position] += 1
                delay = self._retry_delay(job, position, attempts[position])
                self._note_retry(job, kind, attempts[position], delay)
                delayed.append((time.monotonic() + delay, position))
                dispatched.discard(position)
                return
            failure = self._finalize_failure(
                JobFailure(tag=job.tag, func=job.func, kind=kind,
                           attempts=attempts[position] + 1),
                original=None)
            finish(position, failure)

        def finish(position: int, value: Any) -> None:
            results[position] = value
            remaining.discard(position)
            dispatched.discard(position)
            for pid, (running_pos, _started) in list(running.items()):
                if running_pos == position:
                    del running[pid]
            if on_result is not None:
                on_result(position, value)

        def handle_message(message) -> None:
            kind = message[0]
            if kind == "start":
                _kind, position, pid = message
                running[pid] = (position, time.monotonic())
                return
            if kind == "ok":
                _kind, position, value = message
                if position in remaining:
                    finish(position, value)
                return
            # ("err", position, exception, traceback_text, transient)
            _kind, position, exc, text, transient = message
            if position not in remaining:
                return
            for pid, (running_pos, _started) in list(running.items()):
                if running_pos == position:
                    del running[pid]
            job = jobs[position]
            if transient and attempts[position] < self.retries:
                attempts[position] += 1
                delay = self._retry_delay(job, position, attempts[position])
                self._note_retry(job, "error", attempts[position], delay)
                delayed.append((time.monotonic() + delay, position))
                dispatched.discard(position)
                return
            failure = self._finalize_failure(
                JobFailure(tag=job.tag, func=job.func, kind="error",
                           attempts=attempts[position] + 1,
                           error=_describe_error(exc), traceback=text),
                original=exc)
            finish(position, failure)

        def check_workers() -> None:
            """Dead-worker detection: attribute, penalise, respawn."""
            dead = [pid for pid, process in fleet.items()
                    if not process.is_alive()]
            if not dead:
                return
            drain_results()
            casualties = []
            for pid in dead:
                assignment = running.pop(pid, None)
                if assignment is not None and assignment[0] in remaining:
                    casualties.append(assignment[0])
                exit_code = fleet[pid].exitcode
                trace_emit("worker_death", pid=pid, exitcode=exit_code,
                           tag=(jobs[casualties[-1]].tag if assignment
                                and casualties else None))
            # A SIGKILLed worker may have died holding a queue lock, so the
            # whole fleet (and its queues) is rebuilt, not patched: every
            # unfinished dispatched job goes back to the ready set, and only
            # the attributed casualties pay an attempt.
            terminate_fleet()
            for position in casualties:
                penalize(position, "worker-death")
            for position in sorted(dispatched & remaining):
                ready.append(position)
            dispatched.clear()

        def check_timeouts() -> None:
            if self.timeout is None:
                return
            now = time.monotonic()
            expired = [(pid, position)
                       for pid, (position, started_at) in running.items()
                       if now - started_at > self.timeout]
            if not expired:
                return
            # Collect everything already delivered before killing anything:
            # a job finishing in the detection window must win its race.
            drain_results()
            victims = [(pid, position) for pid, position in expired
                       if running.get(pid, (None,))[0] == position
                       and position in remaining]
            if not victims:
                return
            for pid, position in victims:
                trace_emit("job_timeout", pid=pid, tag=jobs[position].tag,
                           timeout_s=self.timeout)
                with contextlib.suppress(OSError):
                    os.kill(pid, 9)
                running.pop(pid, None)
            terminate_fleet()
            for _pid, position in victims:
                penalize(position, "timeout")
            for position in sorted(dispatched & remaining):
                ready.append(position)
            dispatched.clear()

        try:
            while remaining:
                now = time.monotonic()
                if delayed:
                    due = [pos for ready_at, pos in delayed if ready_at <= now]
                    if due:
                        delayed[:] = [(ready_at, pos)
                                      for ready_at, pos in delayed
                                      if ready_at > now]
                        ready.extend(due)
                if (ready or dispatched) and not fleet:
                    spawn_fleet()
                # At most one task in flight per worker: a supervisor that
                # queued every task up front could block in put() on a full
                # task pipe while every worker blocks putting its result
                # into a full result pipe, and never reach its poll loop
                # (where timeouts fire) again.
                while ready and len(dispatched) < workers:
                    position = ready.popleft()
                    if position not in remaining:
                        continue
                    task_queue.put((position, jobs[position],
                                    attempts[position]))
                    dispatched.add(position)
                if not remaining:
                    break
                if not fleet:
                    # Nothing dispatched and nothing ready: only backoff
                    # waits remain.
                    if delayed:
                        time.sleep(min(_POLL_S,
                                       max(0.0, min(ready_at for ready_at, _
                                                    in delayed) - now)))
                    continue
                if multiprocessing.connection.wait(
                        [result_queue._reader], timeout=_POLL_S):
                    handle_message(result_queue.get())
                else:
                    check_workers()
                    check_timeouts()
        finally:
            if fleet:
                # Normal completion: let idle workers exit over the sentinel;
                # anything else (an exception, an interrupt) tears them down.
                if not remaining and task_queue is not None:
                    for _ in range(len(fleet)):
                        with contextlib.suppress(Exception):
                            task_queue.put(None)
                    for process in fleet.values():
                        process.join(timeout=1.0)
                terminate_fleet()
        return list(results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cached = "cached" if self.cache is not None else "uncached"
        return f"SweepRunner(jobs={self.jobs}, {cached})"


# --------------------------------------------------------------------- #
# The current runner used by the analysis entry points.

_DEFAULT_RUNNER = SweepRunner(jobs=1, cache=None)
_current_runner: SweepRunner = _DEFAULT_RUNNER


def get_runner() -> SweepRunner:
    """The runner the analysis entry points currently execute through."""
    return _current_runner


def set_runner(runner: Optional[SweepRunner]) -> SweepRunner:
    """Install ``runner`` globally (``None`` restores the serial default)."""
    global _current_runner
    _current_runner = runner if runner is not None else _DEFAULT_RUNNER
    return _current_runner


@contextlib.contextmanager
def using_runner(runner: SweepRunner) -> Iterator[SweepRunner]:
    """Temporarily install ``runner`` (context manager)."""
    previous = get_runner()
    set_runner(runner)
    try:
        yield runner
    finally:
        set_runner(previous)
