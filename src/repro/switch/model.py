"""The multi-port switch model: fabric stage, sharded ports, merged report.

Execution is two-stage, which is what makes switch runs shardable:

1. **Fabric stage** (serial): every ingress port's traffic source is
   instantiated with a deterministic per-ingress seed; cells queue in
   per-ingress VOQs (one :class:`collections.deque` of arrival slots per
   (ingress, egress) pair); the fabric arbiter computes one conflict-free
   matching per slot.  Because each egress accepts at most one cell per slot,
   the fabric's output is exactly ``N`` single-linecard arrival traces —
   the same admissibility model the paper's buffer assumes.  After the
   arrival phase the fabric *flushes*: matching continues without new
   arrivals until every VOQ is empty.  The stage runs in bounded windows
   (:class:`FabricStream`); a window of a stock policy runs on the span
   kernel's fabric entry (:func:`repro.sim.kernel.run_fabric_window`),
   every other window on the python loop, which is the oracle
   (``engine="reference"``) and gives identical results.

2. **Port stage** (parallel, dominant): each egress trace plus the port's
   buffer/arbiter template becomes an ordinary
   :class:`~repro.workloads.scenario.Scenario` (arrivals = a ``trace`` spec,
   queue index = source ingress modulo the port's queue count), executed as
   a :class:`~repro.runner.jobs.Job` through the existing
   :class:`~repro.runner.sweep.SweepRunner` — so ports shard across worker
   processes, results come back in port order, and the runner cache applies
   unchanged.  Ports run on the ``array`` engine by default.

Per-port :class:`~repro.workloads.scenario.ScenarioResult` objects merge
into a :class:`SwitchReport`; latency percentiles are computed over the
*merged* per-port histograms, so the aggregate tail is exact, not an average
of port tails.  The whole pipeline is deterministic: the same spec produces
the same ``SwitchReport`` for any ``--jobs`` value.
"""

from __future__ import annotations

import time
from array import array
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.trace import emit as trace_emit
from repro.runner.jobs import Job
from repro.runner.sweep import JobFailure, SweepRunner
from repro.sim import DEFAULT_ENGINE, kernel, resolve_engine
from repro.sim.stats import LatencyStats
from repro.switch.fabric import (
    ISLIPFabricArbiter,
    PriorityFabricArbiter,
    RandomFabricArbiter,
)
from repro.switch.scenario import SwitchScenario
from repro.switch.traffic import build_ingress_traffic
from repro.workloads.scenario import Scenario, ScenarioResult

#: Job function executed per port — the single-port scenario runner, which is
#: the whole point: a switch port *is* the degenerate one-port case.
PORT_JOB_FUNC = "repro.workloads.scenario:run_scenario_spec"

#: The stock policies the fabric kernel runs, by exact type, with the
#: kernel's name for each.
_KERNEL_POLICIES = {
    ISLIPFabricArbiter: "islip",
    RandomFabricArbiter: "random",
    PriorityFabricArbiter: "priority",
}

@dataclass(frozen=True)
class FabricStats:
    """What the crossbar stage did, before any egress buffer saw a cell."""

    slots: int
    flush_slots: int
    offered_cells: int
    transferred_cells: int
    per_egress_cells: Tuple[int, ...]
    peak_voq_backlog: int
    wait_mean: float
    wait_max: int

    @property
    def total_slots(self) -> int:
        return self.slots + self.flush_slots


class FabricStream:
    """The crossbar stage as a stream of per-egress trace chunks.

    Instead of materialising every egress trace as one O(``total_slots``)
    list, the stage runs in bounded windows: each iteration of
    :meth:`chunks` yields ``(start_slot, chunk_traces)`` where
    ``chunk_traces[e][i]`` is the ingress whose cell entered egress ``e`` at
    slot ``start_slot + i`` (or ``None``).  Ingress arrival plans are drawn
    per window through
    :meth:`~repro.traffic.arrivals.ArrivalProcess.arrivals_slice`, so the
    concatenated chunks are bit-identical to the monolithic stage for every
    chunk size (each ingress owns its RNG) — :func:`run_fabric` is literally
    this stream plus concatenation.  After the arrival phase the stage
    flushes until every VOQ is empty, still in bounded windows;
    :attr:`stats` is available once the generator is exhausted.

    A window whose fabric is a stock policy (exact type) runs on the span
    kernel unless ``engine`` is ``reference``, the switch is wider than
    :data:`~repro.sim.kernel.MAX_FABRIC_PORTS` or the kernel is
    unavailable; a window the kernel declines or aborts runs on the python
    loop from untouched state.  With metrics on, each window counts once:
    ``switch.fabric.kernel_windows`` (plus its slots in
    ``switch.fabric.kernel_slots``) or ``switch.fabric.fallback.<reason>``.
    """

    def __init__(self, scenario: SwitchScenario,
                 num_slots: Optional[int] = None,
                 chunk_slots: Optional[int] = None,
                 engine: str = DEFAULT_ENGINE) -> None:
        from repro.sim.streaming import DEFAULT_CHUNK_SLOTS

        n = scenario.num_ports
        self.scenario = scenario
        self.engine = resolve_engine(engine)
        self.num_ports = n
        self.slots = scenario.num_slots if num_slots is None else num_slots
        self.chunk_slots = (chunk_slots if chunk_slots is not None
                            else DEFAULT_CHUNK_SLOTS)
        if self.chunk_slots <= 0:
            raise ConfigurationError("chunk_slots must be positive")
        self.sources = [build_ingress_traffic(scenario.traffic, n, i,
                                              seed=scenario.port_seed(i))
                        for i in range(n)]
        self.fabric = scenario.build_fabric()
        # voq[i][e]: arrival slots of cells waiting at ingress i for egress e.
        self._voq = [[deque() for _ in range(n)] for _ in range(n)]
        # requests[i]: ascending egress ports with a non-empty VOQ at
        # ingress i — maintained incrementally (a VOQ changes emptiness at
        # most twice per slot) instead of being rescanned O(N^2) every slot.
        self._requests: List[List[int]] = [[] for _ in range(n)]
        self._ingress_backlog = [0] * n
        self._per_egress = [0] * n
        self._waits = LatencyStats()
        self._offered = 0
        self._transferred = 0
        self._peak_backlog = 0
        self._backlog_total = 0
        #: Filled in once :meth:`chunks` is exhausted.
        self.stats: Optional[FabricStats] = None

    # ------------------------------------------------------------------ #
    def _transfer_slot(self, slot: int,
                       traces: List[List[Optional[int]]]) -> int:
        n = self.num_ports
        voq = self._voq
        requests = self._requests
        matches = self.fabric.match(slot, requests)
        matched_egress = [False] * n
        matched_ingress = [False] * n
        for ingress, egress in matches:
            queue = voq[ingress][egress]
            try:
                arrival_slot = queue.popleft()
            except IndexError:
                raise ConfigurationError(
                    f"fabric arbiter matched empty VOQ ({ingress}, {egress})")
            if matched_egress[egress]:
                raise ConfigurationError(
                    f"fabric arbiter matched egress {egress} twice in slot "
                    f"{slot}")
            if matched_ingress[ingress]:
                raise ConfigurationError(
                    f"fabric arbiter matched ingress {ingress} twice in slot "
                    f"{slot}")
            matched_egress[egress] = True
            matched_ingress[ingress] = True
            if not queue:
                requests[ingress].remove(egress)
            self._ingress_backlog[ingress] -= 1
            self._backlog_total -= 1
            self._waits.record_delay(slot - arrival_slot)
            traces[egress].append(ingress)
            self._per_egress[egress] += 1
            self._transferred += 1
        for egress in range(n):
            if not matched_egress[egress]:
                traces[egress].append(None)
        return len(matches)

    def _kernel_miss(self) -> Optional[str]:
        """Why the next window cannot run on the fabric kernel — the
        ``<reason>`` of its ``switch.fabric.fallback.<reason>`` counter —
        or ``None`` when it can."""
        if self.engine == "reference":
            return "reference"
        if type(self.fabric) not in _KERNEL_POLICIES:
            # Exact-type check: a subclass may override ``match``.
            return "policy"
        if self.num_ports > kernel.MAX_FABRIC_PORTS:
            return "wide_ports"
        if kernel.load_fabric_kernel() is None:
            return "unavailable"
        return None

    def _kernel_window(self, start: int, count: int, plans):
        """Run one window on the fabric kernel and apply it to the stream;
        returns ``(traces, slots)``, or ``None`` (with the window's
        fallback counted) when the python loop must run it instead."""
        reason = self._kernel_miss()
        if reason is None:
            n = self.num_ports
            voq = self._voq
            image = array("q")
            for ingress, egresses in enumerate(self._requests):
                for egress in egresses:
                    queue = voq[ingress][egress]
                    image.extend((ingress * n + egress, len(queue)))
                    image.extend(queue)
            fabric = self.fabric
            policy = _KERNEL_POLICIES[type(fabric)]
            window = kernel.run_fabric_window(
                n, policy, start, count, plans, image, self._peak_backlog,
                pointers=((fabric._grant, fabric._accept)
                          if policy == "islip" else None),
                rng=fabric._rng if policy == "random" else None)
            if isinstance(window, str):
                reason = window
            else:
                self._apply_window(window)
        obs = get_metrics()
        if reason is not None:
            if obs is not None:
                obs.inc(f"switch.fabric.fallback.{reason}")
            return None
        if obs is not None:
            obs.inc("switch.fabric.kernel_windows")
            obs.inc("switch.fabric.kernel_slots", window.slots)
        return window.traces, window.slots

    def _apply_window(self, window) -> None:
        """Fold a kernel window's outcome into the python stage's state."""
        n = self.num_ports
        voq = self._voq
        requests = self._requests
        for ingress, egresses in enumerate(requests):
            for egress in egresses:
                voq[ingress][egress].clear()
            egresses.clear()
        image = window.voqs
        at = 0
        while at < len(image):
            ingress, egress = divmod(image[at], n)
            count = image[at + 1]
            voq[ingress][egress].extend(image[at + 2:at + 2 + count])
            requests[ingress].append(egress)
            at += 2 + count
        self._ingress_backlog[:] = window.backlog.tolist()
        self._backlog_total = sum(self._ingress_backlog)
        per_egress = self._per_egress
        for egress, cells in enumerate(window.per_egress):
            per_egress[egress] += cells
        waits = window.waits
        for delay, count in zip(waits[::2], waits[1::2]):
            self._waits.record_delay(delay, count)
        self._offered += window.offered
        self._transferred += window.transferred
        self._peak_backlog = window.peak

    def chunks(self):
        """Yield ``(start_slot, chunk_traces)`` windows; arrival phase first,
        then the flush windows, all bounded by ``chunk_slots``.

        Each window runs on the fabric kernel when :meth:`_kernel_miss`
        passes and the kernel completes it, and on the python loop below
        otherwise; both produce the identical window."""
        n = self.num_ports
        slots = self.slots
        voq = self._voq
        requests = self._requests
        ingress_backlog = self._ingress_backlog
        start = 0
        while start < slots:
            count = min(self.chunk_slots, slots - start)
            plans = []
            for source in self.sources:
                plan = source.arrivals_slice(start, count)
                plans.append(plan if isinstance(plan, list) else list(plan))
            done = self._kernel_window(start, count, plans)
            if done is not None:
                yield start, done[0]
                start += count
                continue
            traces: List[List[Optional[int]]] = [[] for _ in range(n)]
            for offset in range(count):
                slot = start + offset
                for ingress in range(n):
                    destination = plans[ingress][offset]
                    if destination is None:
                        continue
                    if not 0 <= destination < n:
                        raise ConfigurationError(
                            f"ingress {ingress} generated destination "
                            f"{destination}, but the switch has only {n} "
                            f"ports")
                    queue = voq[ingress][destination]
                    if not queue:
                        insort(requests[ingress], destination)
                    queue.append(slot)
                    ingress_backlog[ingress] += 1
                    self._backlog_total += 1
                    self._offered += 1
                    if ingress_backlog[ingress] > self._peak_backlog:
                        self._peak_backlog = ingress_backlog[ingress]
                self._transfer_slot(slot, traces)
            yield start, traces
            start += count

        flush_slots = 0
        while self._backlog_total > 0:
            done = self._kernel_window(slots + flush_slots, self.chunk_slots,
                                       None)
            if done is not None:
                flush_slots += done[1]
                yield slots + flush_slots - done[1], done[0]
                continue
            traces = [[] for _ in range(n)]
            flushed = 0
            while self._backlog_total > 0 and flushed < self.chunk_slots:
                if self._transfer_slot(slots + flush_slots, traces) == 0:
                    # Unreachable with the stock policies (all are
                    # work-conserving), but a custom arbiter must not be
                    # able to hang the stage.
                    raise ConfigurationError(
                        "fabric arbiter made no progress while VOQs were "
                        "non-empty")
                flush_slots += 1
                flushed += 1
            yield slots + flush_slots - flushed, traces

        self.stats = FabricStats(
            slots=slots,
            flush_slots=flush_slots,
            offered_cells=self._offered,
            transferred_cells=self._transferred,
            per_egress_cells=tuple(self._per_egress),
            peak_voq_backlog=self._peak_backlog,
            wait_mean=self._waits.mean,
            wait_max=self._waits.maximum,
        )
        obs = get_metrics()
        if obs is not None:
            obs.inc("switch.fabric.stages")
            obs.inc("switch.fabric.offered_cells", self._offered)
            obs.inc("switch.fabric.transferred_cells", self._transferred)
            obs.inc("switch.fabric.flush_slots", flush_slots)
            obs.gauge("switch.fabric.peak_voq_backlog", self._peak_backlog)
        trace_emit("fabric_stage", scenario=self.scenario.name,
                   ports=self.num_ports, slots=slots,
                   flush_slots=flush_slots, offered_cells=self._offered,
                   transferred_cells=self._transferred,
                   peak_voq_backlog=self._peak_backlog)


def run_fabric(scenario: SwitchScenario,
               num_slots: Optional[int] = None,
               engine: str = DEFAULT_ENGINE,
               ) -> Tuple[List[List[Optional[int]]], FabricStats]:
    """Run the crossbar stage and return per-egress source traces.

    ``engine="reference"`` runs every window on the python loop, the
    oracle; any other engine runs the stock policies on the fabric kernel
    where it can (:class:`FabricStream`).  Both give identical results.

    Returns:
        ``(traces, stats)`` where ``traces[e][slot]`` is the *ingress index*
        whose cell entered egress ``e`` at ``slot`` (or ``None``), all traces
        sharing one length ``stats.total_slots``.
    """
    n = scenario.num_ports
    stream = FabricStream(scenario, num_slots, engine=engine)
    traces: List[List[Optional[int]]] = [[] for _ in range(n)]
    for _start, chunk_traces in stream.chunks():
        for egress, chunk in enumerate(chunk_traces):
            traces[egress].extend(chunk)
    return traces, stream.stats


def port_template(scenario: SwitchScenario, egress: int) -> Scenario:
    """The egress port as a single-port :class:`Scenario`, minus arrivals.

    The jobs path attaches the materialised fabric trace as a ``trace``
    arrival spec (:func:`port_scenarios`); the streaming path feeds the
    fabric chunks directly into an open-ended session.  Both build their
    buffer and arbiter from this one template, which is what keeps the two
    execution modes bit-identical.
    """
    spec = scenario.port_spec(egress)
    return Scenario(
        name=f"{scenario.name}#port{egress}",
        description=f"egress port {egress} of switch scenario "
                    f"{scenario.name!r}",
        scheme=spec["scheme"],
        buffer=spec["buffer"],
        arrivals=None,
        arbiter=spec["arbiter"],
        num_slots=0,
        seed=scenario.port_seed(egress) + 1,
        tags=("switch-port",) + scenario.tags,
        head_mma=spec["head_mma"],
    )


def port_scenarios(scenario: SwitchScenario,
                   traces: List[List[Optional[int]]]) -> List[Scenario]:
    """One single-port :class:`Scenario` per egress, fed its fabric trace.

    The trace's ingress indices become buffer queue indices (``ingress mod
    num_queues`` — one VOQ per source with the default sizing).
    """
    import dataclasses

    ports = []
    for egress, trace in enumerate(traces):
        template = port_template(scenario, egress)
        num_queues = template.buffer["num_queues"]
        pattern = [None if src is None else src % num_queues for src in trace]
        ports.append(dataclasses.replace(
            template,
            arrivals={"type": "trace", "params": {"pattern": pattern}},
            num_slots=len(pattern),
        ))
    return ports


# --------------------------------------------------------------------- #
# The merged report
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SwitchReport:
    """Everything a switch run produces: fabric stats plus per-port results.

    Aggregates are derived, never stored, so a report deserialised from the
    runner cache answers them identically to a fresh one.
    """

    name: str
    num_ports: int
    engine: str
    fabric: FabricStats
    ports: Tuple[ScenarioResult, ...]
    #: Ports whose job was quarantined by a non-strict runner, as structured
    #: :class:`~repro.runner.sweep.JobFailure` records.  Empty on a healthy
    #: run (and on every cached report written before this field existed).
    #: Aggregates below are computed over the *surviving* ports only — a
    #: partial report says so explicitly rather than pretending to totals.
    failures: Tuple[JobFailure, ...] = ()

    # -- aggregate counters ------------------------------------------- #
    @property
    def arrivals(self) -> int:
        return sum(p.arrivals for p in self.ports)

    @property
    def departures(self) -> int:
        return sum(p.departures for p in self.ports)

    @property
    def drops(self) -> int:
        return sum(p.drops for p in self.ports)

    @property
    def zero_miss(self) -> bool:
        return all(p.zero_miss for p in self.ports)

    def merged_latency(self) -> LatencyStats:
        """The exact switch-wide buffer-delay distribution (ports merged in
        port order; merging histograms is order-independent anyway)."""
        merged = LatencyStats()
        for port in self.ports:
            merged.merge(LatencyStats.from_histogram(port.latency_histogram))
        return merged

    @property
    def complete(self) -> bool:
        """True when every port produced a result (no quarantined jobs)."""
        return not self.failures

    def summary(self) -> Dict[str, object]:
        """Flat headline numbers — the rows the CLI renderer prints.

        A partial report (quarantined port jobs) gains a ``failed_ports``
        row; a complete one renders exactly as it always has.
        """
        latency = self.merged_latency()
        p50, p95, p99 = latency.percentiles((0.50, 0.95, 0.99))
        slots = self.fabric.total_slots
        if self.failures:
            return dict(self._summary_base(latency, p50, p95, p99, slots),
                        failed_ports=len(self.failures))
        return self._summary_base(latency, p50, p95, p99, slots)

    def _summary_base(self, latency, p50, p95, p99,
                      slots) -> Dict[str, object]:
        return {
            "ports": self.num_ports,
            "slots": self.fabric.slots,
            "flush_slots": self.fabric.flush_slots,
            "offered_cells": self.fabric.offered_cells,
            "transferred_cells": self.fabric.transferred_cells,
            "arrivals": self.arrivals,
            "departures": self.departures,
            "drops": self.drops,
            "offered_load": self.fabric.offered_cells / slots if slots else 0.0,
            "carried_load": self.departures / slots if slots else 0.0,
            "fabric_wait_mean": self.fabric.wait_mean,
            "fabric_wait_max": self.fabric.wait_max,
            "peak_voq_backlog": self.fabric.peak_voq_backlog,
            "latency_mean": latency.mean,
            "latency_p50": p50,
            "latency_p95": p95,
            "latency_p99": p99,
            "latency_max": latency.maximum,
            "zero_miss": self.zero_miss,
        }


# --------------------------------------------------------------------- #
# The model
# --------------------------------------------------------------------- #

class SwitchModel:
    """Composes ``N`` per-port packet buffers behind a crossbar fabric.

    Args:
        scenario: the switch scenario to run (use
            :meth:`SwitchScenario.with_overrides` for ad-hoc port/slot
            overrides).
    """

    def __init__(self, scenario: SwitchScenario) -> None:
        self.scenario = scenario

    def build_port_jobs(self, engine: str = DEFAULT_ENGINE,
                        num_slots: Optional[int] = None,
                        ) -> Tuple[List[Job], FabricStats]:
        """Run the fabric stage and return one runner job per egress port,
        together with the fabric stage's statistics.

        Exposed separately so callers (the CLI's ``--dry-run``, tests) can
        inspect the sharding without executing the port stage.
        """
        traces, stats = run_fabric(self.scenario, num_slots, engine=engine)
        jobs = [Job(func=PORT_JOB_FUNC,
                    kwargs={"spec": port.to_spec(), "engine": engine},
                    tag=f"port{index}")
                for index, port in enumerate(
                    port_scenarios(self.scenario, traces))]
        return jobs, stats

    def run(self,
            *,
            engine: str = DEFAULT_ENGINE,
            jobs: int = 1,
            runner: Optional[SweepRunner] = None,
            num_slots: Optional[int] = None) -> SwitchReport:
        """Simulate the switch and merge the per-port reports.

        Args:
            engine: simulation core for every port (``array`` by default;
                both engines are bit-identical, so this is purely a speed
                knob).
            jobs: worker processes for the port stage (``0`` = one per CPU);
                ignored when an explicit ``runner`` is given.
            runner: an existing :class:`SweepRunner` (to share a cache);
                defaults to an uncached runner with ``jobs`` workers.
            num_slots: override the scenario's arrival-slot count.
        """
        started = time.perf_counter()
        engine = resolve_engine(engine)
        port_jobs, stats = self.build_port_jobs(engine, num_slots)
        if runner is None:
            runner = SweepRunner(jobs=jobs)
        results = runner.run(port_jobs)
        # A non-strict runner quarantines poisoned port jobs as JobFailure
        # entries; the merged report keeps them separate from the surviving
        # ports so aggregates stay well-typed and provenance is explicit.
        report = SwitchReport(
            name=self.scenario.name,
            num_ports=self.scenario.num_ports,
            engine=engine,
            fabric=stats,
            ports=tuple(r for r in results if not isinstance(r, JobFailure)),
            failures=tuple(r for r in results if isinstance(r, JobFailure)))
        self._observe_run(report, "jobs", time.perf_counter() - started)
        return report

    def run_stream(self,
                   *,
                   engine: str = DEFAULT_ENGINE,
                   num_slots: Optional[int] = None,
                   chunk_slots: Optional[int] = None) -> SwitchReport:
        """Simulate the switch with bounded memory: the fabric stage streams
        per-egress trace chunks (:class:`FabricStream`) straight into one
        open-ended port session per egress, so no egress trace — and no port
        arrival plan — is ever materialised whole.  Peak memory is
        O(``ports * chunk_slots``), independent of the horizon, and the
        merged report is bit-identical to :meth:`run` for every chunk size.
        """
        from repro.sim.engine import ClosedLoopSimulation
        from repro.sim.streaming import StreamingSimulation

        started = time.perf_counter()
        engine = resolve_engine(engine)
        scenario = self.scenario
        stream = FabricStream(scenario, num_slots, chunk_slots, engine)
        templates = [port_template(scenario, egress)
                     for egress in range(scenario.num_ports)]
        sessions = []
        for template in templates:
            sim = ClosedLoopSimulation(template.build_buffer(), None,
                                       template.build_arbiter())
            sessions.append(StreamingSimulation(sim, None, engine=engine,
                                                chunk_slots=chunk_slots))
        queue_counts = [t.buffer["num_queues"] for t in templates]
        for _start, chunk_traces in stream.chunks():
            for egress, chunk in enumerate(chunk_traces):
                num_queues = queue_counts[egress]
                sessions[egress].feed(
                    [None if src is None else src % num_queues
                     for src in chunk])
        ports = tuple(
            ScenarioResult.from_report(template.name, template.scheme,
                                       session.finish())
            for template, session in zip(templates, sessions))
        report = SwitchReport(name=scenario.name,
                              num_ports=scenario.num_ports,
                              engine=engine,
                              fabric=stream.stats,
                              ports=ports)
        self._observe_run(report, "stream", time.perf_counter() - started)
        return report

    @staticmethod
    def _observe_run(report: SwitchReport, mode: str,
                     duration: float) -> None:
        """Publish what a completed switch run did (pure recording: runs
        after every port report exists, so it cannot perturb one)."""
        obs = get_metrics()
        if obs is not None:
            obs.inc("switch.runs")
            obs.inc("switch.port_reports", report.num_ports)
            obs.observe("switch.run_s", duration)
        trace_emit("switch_run", scenario=report.name, mode=mode,
                   ports=report.num_ports, engine=report.engine,
                   arrivals=report.arrivals, departures=report.departures,
                   drops=report.drops, duration_s=round(duration, 6))


def run_switch_spec(spec: Mapping[str, Any],
                    engine: str = DEFAULT_ENGINE,
                    jobs: int = 1,
                    num_ports: Optional[int] = None,
                    num_slots: Optional[int] = None) -> SwitchReport:
    """Job entry point: rebuild the switch scenario from its spec and run it.

    This is what the ``switch-suite`` experiment executes per scenario; the
    port stage runs serially inside the worker (``jobs=1``) because the
    outer sweep already parallelises across scenarios.
    """
    scenario = SwitchScenario.from_spec(spec).with_overrides(
        num_ports=num_ports, num_slots=num_slots)
    return SwitchModel(scenario).run(engine=engine, jobs=jobs)


__all__ = [
    "DEFAULT_ENGINE",
    "FabricStats",
    "FabricStream",
    "PORT_JOB_FUNC",
    "SwitchModel",
    "SwitchReport",
    "port_scenarios",
    "port_template",
    "run_fabric",
    "run_switch_spec",
]
