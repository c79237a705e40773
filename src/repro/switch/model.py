"""The multi-port switch model: fabric stage, port stage, merged report.

A switch run streams the fabric stage straight into the egress ports:

1. **Fabric stage**: every ingress port's traffic source is instantiated
   with a deterministic per-ingress seed; cells queue in per-ingress VOQs;
   the fabric arbiter computes one conflict-free matching per slot.
   Because each egress accepts at most one cell per slot, the fabric's
   output is exactly ``N`` single-linecard arrival traces — the same
   admissibility model the paper's buffer assumes.  After the arrival
   phase the fabric *flushes* until every VOQ is empty.  The stage runs in
   bounded windows (:class:`FabricStream`), each yielding one ``int32``
   row per egress; a window of a stock policy runs on the span kernel's
   fabric entry, which also draws stock Bernoulli, Zipf and hotspot
   ingress plans itself, and every other window on the python loop, the
   oracle (``engine="reference"``), with identical results.

2. **Port stage**: each egress port is an open-ended streaming session
   built from its single-port template (:func:`port_template`; queue
   index = source ingress modulo the port's queue count), fed its rows as
   the windows arrive; an array core's span kernel takes a row as its
   explicit plan as it is.  The fabric stage and every port run in one
   :class:`~repro.runner.jobs.Job` (:func:`run_port_stage`) through the
   :class:`~repro.runner.sweep.SweepRunner`: in-process, or in one worker
   process when the runner enforces a timeout.  No egress trace crosses a
   process.  The ports are not split across workers: each worker would
   rerun the whole fabric stage and pay the pool's start-up, which costs
   more than the span kernel's port work it would split.

Per-port :class:`~repro.workloads.scenario.ScenarioResult` objects merge
into a :class:`SwitchReport`; latency percentiles are computed over the
*merged* per-port histograms, so the aggregate tail is exact, not an average
of port tails.  The whole pipeline is deterministic: the same spec produces
the same ``SwitchReport`` for any ``chunk_slots``.
"""

from __future__ import annotations

import time
from array import array
from bisect import insort
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, SweepFailure
from repro.obs.metrics import get_metrics
from repro.obs.trace import emit as trace_emit
from repro.runner.jobs import Job
from repro.runner.sweep import JobFailure, SweepRunner
from repro.sim import DEFAULT_ENGINE, kernel, resolve_engine
from repro.sim.array_engine import deferred_plan, row_plan
from repro.sim.stats import LatencyStats
from repro.switch.fabric import (
    ISLIPFabricArbiter,
    PriorityFabricArbiter,
    RandomFabricArbiter,
)
from repro.switch.scenario import SwitchScenario
from repro.switch.traffic import build_ingress_traffic
from repro.workloads.scenario import Scenario, ScenarioResult

#: The stock policies the fabric kernel runs, by exact type.
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
    """The crossbar stage as a stream of per-egress row windows.

    The stage runs in bounded windows: each iteration of :meth:`chunks`
    yields ``(start_slot, rows)`` where ``rows[e]`` is an ``int32`` array
    whose entry ``i`` is the ingress whose cell entered egress ``e`` at
    slot ``start_slot + i`` (``-1`` = none).  Each ingress owns its RNG, so
    the rows concatenate to the same stage for every chunk size
    (:func:`run_fabric` is this stream plus concatenation).  After the
    arrival phase the stage flushes until every VOQ is empty, still in
    bounded windows; :attr:`stats` is set once the generator is exhausted.

    A window of a stock policy (exact type) runs on the span kernel when
    :meth:`_kernel_miss` passes, which draws its ingress plans where it
    can (:meth:`_plans`); a window the kernel declines or aborts runs on
    the python loop from untouched state.  With metrics on, each window
    counts once: ``switch.fabric.kernel_windows`` (its slots in
    ``switch.fabric.kernel_slots``, its ingress slots in
    ``switch.fabric.kernel_plan_slots`` when the kernel drew the plans) or
    ``switch.fabric.fallback.<reason>``.
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
        # voq[i][e]: arrival slots of cells waiting at ingress i for egress
        # e, only while the VOQ holds cells (a switch of N ports would
        # otherwise keep N**2 deques, mostly empty).
        self._voq: List[Dict[int, deque]] = [{} for _ in range(n)]
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
    def _transfer_slot(self, slot: int, rows: List[array]) -> int:
        n = self.num_ports
        voq = self._voq
        requests = self._requests
        matches = self.fabric.match(slot, requests)
        matched_egress = [False] * n
        matched_ingress = [False] * n
        for ingress, egress in matches:
            queue = voq[ingress].get(egress)
            if queue is None:
                raise ConfigurationError(
                    f"fabric arbiter matched empty VOQ ({ingress}, {egress})")
            arrival_slot = queue.popleft()
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
                del voq[ingress][egress]
                requests[ingress].remove(egress)
            self._ingress_backlog[ingress] -= 1
            self._backlog_total -= 1
            self._waits.record_delay(slot - arrival_slot)
            rows[egress].append(ingress)
            self._per_egress[egress] += 1
            self._transferred += 1
        for egress in range(n):
            if not matched_egress[egress]:
                rows[egress].append(-1)
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

    def _plans(self, start: int, count: int):
        """The window's ingress plans and whether the fabric kernel draws
        them (deferred): it does when the window runs on the kernel and
        every ingress qualifies (:func:`deferred_plan` over the egress
        ports, each with its own generator); python draws them otherwise."""
        if self._kernel_miss() is None:
            plans = [deferred_plan(source, self.num_ports, count)
                     for source in self.sources]
            if None not in plans and len(
                    {id(plan.proc._rng) for plan in plans}) == len(plans):
                return plans, True
        plans = [source.arrivals_slice(start, count)
                 for source in self.sources]
        return [p if isinstance(p, list) else list(p) for p in plans], False

    def _kernel_window(self, start: int, count: int, plans,
                       drawn: bool = False):
        """Run one window on the fabric kernel and apply it to the stream:
        an arrival window on ``plans`` (deferred ones the kernel draws when
        ``drawn``), a flush window on none.  Returns ``(rows, slots)``, or
        ``None`` (with the window's fallback counted, and every generator
        untouched) when the python loop must run it instead."""
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
                n, policy, start, count, None if drawn else plans, image,
                self._peak_backlog,
                pointers=((fabric._grant, fabric._accept)
                          if policy == "islip" else None),
                rng=fabric._rng if policy == "random" else None,
                bern=[plan.bern() for plan in plans] if drawn else None)
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
            if drawn:
                obs.inc("switch.fabric.kernel_plan_slots",
                        self.num_ports * window.slots)
        return window.traces, window.slots

    def _apply_window(self, window) -> None:
        """Fold a kernel window's outcome into the python stage's state."""
        n = self.num_ports
        voq = self._voq
        requests = self._requests
        for ingress, egresses in enumerate(requests):
            voq[ingress].clear()
            egresses.clear()
        image = window.voqs
        at = 0
        while at < len(image):
            ingress, egress = divmod(image[at], n)
            count = image[at + 1]
            voq[ingress][egress] = deque(image[at + 2:at + 2 + count])
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
        """Yield ``(start_slot, rows)`` windows; arrival phase first, then
        the flush windows, all bounded by ``chunk_slots``.

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
            plans, drawn = self._plans(start, count)
            done = self._kernel_window(start, count, plans, drawn)
            if done is not None:
                yield start, done[0]
                start += count
                continue
            if drawn:
                plans = [plan.materialize() for plan in plans]
            rows = [array("i") for _ in range(n)]
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
                    queue = voq[ingress].get(destination)
                    if queue is None:
                        queue = voq[ingress][destination] = deque()
                        insort(requests[ingress], destination)
                    queue.append(slot)
                    ingress_backlog[ingress] += 1
                    self._backlog_total += 1
                    self._offered += 1
                    if ingress_backlog[ingress] > self._peak_backlog:
                        self._peak_backlog = ingress_backlog[ingress]
                self._transfer_slot(slot, rows)
            yield start, rows
            start += count

        flush_slots = 0
        while self._backlog_total > 0:
            done = self._kernel_window(slots + flush_slots, self.chunk_slots,
                                       None)
            if done is not None:
                flush_slots += done[1]
                yield slots + flush_slots - done[1], done[0]
                continue
            rows = [array("i") for _ in range(n)]
            flushed = 0
            while self._backlog_total > 0 and flushed < self.chunk_slots:
                if self._transfer_slot(slots + flush_slots, rows) == 0:
                    # Unreachable with the stock policies (all are
                    # work-conserving), but a custom arbiter must not be
                    # able to hang the stage.
                    raise ConfigurationError(
                        "fabric arbiter made no progress while VOQs were "
                        "non-empty")
                flush_slots += 1
                flushed += 1
            yield slots + flush_slots - flushed, rows

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
    for _start, rows in stream.chunks():
        for trace, row in zip(traces, rows):
            trace.extend(row_plan(row))
    return traces, stream.stats


def queue_row(row: array, num_queues: int, num_ports: int) -> array:
    """An egress row's ingress indices as the port's queue indices
    (``ingress mod num_queues``): the row itself when the port has a queue
    for every ingress."""
    if num_queues >= num_ports:
        return row
    return array("i", [-1 if src == -1 else src % num_queues for src in row])


def port_template(scenario: SwitchScenario, egress: int) -> Scenario:
    """The egress port as a single-port :class:`Scenario`, minus arrivals.

    A port stage session builds its buffer and arbiter from this template
    and is fed the port's fabric rows (:func:`queue_row`).
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


def run_port_stage(spec: Mapping[str, Any], engine: str = DEFAULT_ENGINE,
                   num_slots: Optional[int] = None,
                   chunk_slots: Optional[int] = None,
                   ) -> Tuple[FabricStats, Tuple[ScenarioResult, ...]]:
    """Port-stage job: run the fabric stage into every egress port; returns
    the fabric's stats and the port results, in port order.

    A window's rows are held back and the next window appended while the
    two fit ``chunk_slots``, so the flush windows join the last arrival
    window: a port runs one main span per fed window, plus its drain.  A
    port's session opens at its first feed, so when the run fits one
    window each port is opened, fed, finished and dropped in turn.
    """
    from repro.sim.streaming import StreamingSimulation

    scenario = SwitchScenario.from_spec(spec)
    n = scenario.num_ports
    stream = FabricStream(scenario, num_slots, chunk_slots, engine)
    templates = [port_template(scenario, egress) for egress in range(n)]
    sessions: List[Any] = [None] * len(templates)

    def feed(index: int, row: array) -> None:
        template = templates[index]
        if sessions[index] is None:
            sessions[index] = StreamingSimulation(
                template.build_simulation(), None, engine=stream.engine)
        sessions[index].feed(queue_row(row, template.buffer["num_queues"], n))

    held = None
    for _start, rows in stream.chunks():
        if held is not None and (len(held[0]) + len(rows[0])
                                 <= stream.chunk_slots):
            for row, more in zip(held, rows):
                row.extend(more)
            continue
        for index, row in enumerate(held or ()):
            feed(index, row)
        held = rows
    results = []
    for index, template in enumerate(templates):
        feed(index, held[index] if held is not None else array("i"))
        report = sessions[index].finish()
        sessions[index] = None  # drop the port's core
        results.append(ScenarioResult.from_report(template.name,
                                                  template.scheme, report))
    return stream.stats, tuple(results)


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
    #: :class:`~repro.runner.sweep.JobFailure` records.  Always empty from
    #: :meth:`SwitchModel.run`, whose one port-stage job carries every port
    #: (it raises instead), and on every cached report written before this
    #: field existed.  Aggregates below are computed over the *surviving*
    #: ports only — a partial report says so explicitly rather than
    #: pretending to totals.
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
            :meth:`SwitchScenario.with_overrides` for overrides).
    """

    def __init__(self, scenario: SwitchScenario) -> None:
        self.scenario = scenario

    def build_port_jobs(self, engine: str = DEFAULT_ENGINE,
                        num_slots: Optional[int] = None,
                        chunk_slots: Optional[int] = None) -> List[Job]:
        """The switch's one :func:`run_port_stage` job, as a list (callers
        may inspect or rerun it without the runner)."""
        return [Job(func="repro.switch.model:run_port_stage",
                    kwargs={"spec": self.scenario.to_spec(), "engine": engine,
                            "num_slots": num_slots,
                            "chunk_slots": chunk_slots},
                    tag="ports")]

    def run(self,
            *,
            engine: str = DEFAULT_ENGINE,
            jobs: int = 1,
            runner: Optional[SweepRunner] = None,
            num_slots: Optional[int] = None,
            chunk_slots: Optional[int] = None) -> SwitchReport:
        """Simulate the switch and merge the per-port reports.

        Args:
            engine: simulation core for the fabric and every port
                (``array`` by default; both engines are bit-identical).
            jobs: validated and otherwise ignored: the fabric and every
                port run as one job (see the module docstring).
            runner: an existing :class:`SweepRunner` (to share a cache, or
                to enforce a timeout, which runs the job in a worker).
            num_slots: override the scenario's arrival-slot count.
            chunk_slots: the fabric's window size (default: 65536).

        A strict runner raises the job's error; a non-strict one's
        quarantined job raises :class:`~repro.errors.SweepFailure`.
        """
        started = time.perf_counter()
        engine = resolve_engine(engine)
        if chunk_slots is not None and chunk_slots <= 0:
            raise ConfigurationError("chunk_slots must be positive")
        if runner is None:
            runner = SweepRunner(jobs=jobs)
        [result] = runner.run(self.build_port_jobs(engine, num_slots,
                                                   chunk_slots))
        if isinstance(result, JobFailure):
            raise SweepFailure(result)
        stats, ports = result
        report = SwitchReport(name=self.scenario.name,
                              num_ports=self.scenario.num_ports,
                              engine=engine, fabric=stats, ports=ports)
        # Pure recording, after every port report exists.
        duration = time.perf_counter() - started
        obs = get_metrics()
        if obs is not None:
            obs.inc("switch.runs")
            obs.inc("switch.port_reports", len(report.ports))
            obs.observe("switch.run_s", duration)
        trace_emit("switch_run", scenario=report.name,
                   ports=report.num_ports, engine=report.engine,
                   arrivals=report.arrivals, departures=report.departures,
                   drops=report.drops, duration_s=round(duration, 6))
        return report


def run_switch_spec(spec: Mapping[str, Any],
                    engine: str = DEFAULT_ENGINE,
                    jobs: int = 1,
                    num_ports: Optional[int] = None,
                    num_slots: Optional[int] = None) -> SwitchReport:
    """Job entry point: rebuild the switch scenario from its spec and run it.

    This is what the ``switch-suite`` experiment executes per scenario; the
    whole switch runs in one job inside the worker because the outer sweep
    already parallelises across scenarios.
    """
    scenario = SwitchScenario.from_spec(spec).with_overrides(
        num_ports=num_ports, num_slots=num_slots)
    return SwitchModel(scenario).run(engine=engine, jobs=jobs)


__all__ = [
    "DEFAULT_ENGINE",
    "FabricStats",
    "FabricStream",
    "SwitchModel",
    "SwitchReport",
    "port_template",
    "queue_row",
    "run_fabric",
    "run_port_stage",
    "run_switch_spec",
]
