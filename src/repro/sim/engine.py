"""The closed-loop simulation driver.

Two engines produce bit-identical reports:

* the **reference per-slot loop** (``engine="reference"``) — the paper's
  machine as objects: one attribute lookup and one backlog rebuild per
  slot, stepping the buffer object itself.  It is the behavioural ground
  truth, and the only engine that accepts any buffer exposing the
  interface below, or a simulation whose buffer was already stepped.
* the **array engine** (``engine="array"``, the default) — the same
  machine as flat integer state (:mod:`repro.sim.array_engine`), every slot
  of it run by the compiled span kernel (:mod:`repro.sim.kernel`).  A run
  the kernel cannot take (a custom policy, an arrival process drawing from
  the arbiter's RNG, too many queues, no C compiler) goes wholly to the
  reference loop.

Equivalence holds because arrival processes and arbiters draw from separate
seeded RNGs (pre-generating arrivals does not perturb the arbiter's stream)
and because the array engine's incremental state replays exactly the
transitions the buffer objects make.  A process that shares the arbiter's
RNG object breaks the first premise: its plan drawn ahead of a window
differs from the per-slot interleaving, so such a run stays on the
reference loop, and only a monolithic run is its reference.  It is asserted for every registered
scenario by the workloads and array-engine test suites and by the
differential fuzzer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ArbiterContractError, ConfigurationError
from repro.obs.metrics import get_metrics
from repro.obs.trace import emit as trace_emit
from repro.obs.trace import get_trace
from repro.sim.array_engine import (
    DEFAULT_ENGINE,
    kernel_miss,
    resolve_engine,
    run_array,
)
from repro.sim.stats import LatencyStats, ThroughputStats
from repro.traffic.arbiters import Arbiter
from repro.traffic.arrivals import ArrivalProcess
from repro.traffic.trace import TrafficTrace
from repro.types import SimulationResult


@dataclass
class SimulationReport:
    """Everything a closed-loop run produces."""

    throughput: ThroughputStats
    latency: LatencyStats
    buffer_result: SimulationResult
    trace: Optional[TrafficTrace] = None

    @property
    def zero_miss(self) -> bool:
        return self.buffer_result.zero_miss

    def summary(self) -> Dict[str, object]:
        """Flat headline numbers — the rows ``render_scenario_run`` prints."""
        p50, p95, p99 = self.latency.percentiles((0.50, 0.95, 0.99))
        return {
            "slots": self.throughput.slots,
            "arrivals": self.throughput.arrivals,
            "departures": self.throughput.departures,
            "drops": self.throughput.drops,
            "offered_load": self.throughput.offered_load,
            "carried_load": self.throughput.carried_load,
            "latency_mean": self.latency.mean,
            "latency_p50": p50,
            "latency_p95": p95,
            "latency_p99": p99,
            "latency_max": self.latency.maximum,
            "zero_miss": self.zero_miss,
        }


class ClosedLoopSimulation:
    """Drives a packet buffer with an arrival process and an arbiter.

    The buffer must expose the interface shared by
    :class:`repro.rads.buffer.RADSPacketBuffer` and
    :class:`repro.core.buffer.CFDSPacketBuffer`:
    ``step(arrival, request)``, ``backlog(queue)``, ``can_request(queue)``,
    ``drain()``, ``combined_result()`` and the ``dropped_cells`` counter.

    Args:
        buffer: the packet buffer under test.
        arrivals: per-slot arrival process (may be ``None`` for a drain-only run).
        arbiter: per-slot request generator (may be ``None`` for a fill-only run).
        record_trace: keep the exact (arrival, request) sequence for replay.
    """

    def __init__(self,
                 buffer,
                 arrivals: Optional[ArrivalProcess] = None,
                 arbiter: Optional[Arbiter] = None,
                 record_trace: bool = False) -> None:
        self.buffer = buffer
        self.arrivals = arrivals
        self.arbiter = arbiter
        self.trace = TrafficTrace() if record_trace else None
        self.latency = LatencyStats()
        self.throughput = ThroughputStats()

    # ------------------------------------------------------------------ #
    def run(self, num_slots: int, drain: bool = True,
            engine: str = DEFAULT_ENGINE) -> SimulationReport:
        """Simulate ``num_slots`` slots (plus an optional final drain).

        Args:
            num_slots: slots to simulate.
            drain: run idle slots afterwards until the pipeline is empty.
            engine: ``"array"`` (the default; requires a freshly built
                simulation) or ``"reference"``; both produce bit-identical
                reports.  The retired names ``numpy`` and ``batched`` run
                ``array`` and ``reference``.
        """
        if num_slots < 0:
            raise ConfigurationError("num_slots must be non-negative")
        engine = resolve_engine(engine)
        # The observability wrapper records what a run did, strictly after
        # the fact: it draws no randomness and feeds nothing back into the
        # machines, so an instrumented run's report is bit-identical to an
        # unobserved one (the differential fuzzer pins this).
        obs = get_metrics()
        if obs is None and get_trace() is None:
            return self._run_engine(num_slots, drain, engine)
        trace_emit("run_start", engine=engine, num_slots=num_slots,
                   buffer=type(self.buffer).__name__)
        started = time.perf_counter()
        report = self._run_engine(num_slots, drain, engine)
        duration = time.perf_counter() - started
        # Which implementation ran (run_array decides it from the policies,
        # which the run does not change): the kernel, with its span count,
        # or the reference loop, with the array engine's reason.
        reason = kernel_miss(self) if engine == "array" else None
        path = (dict(path="kernel", spans=int(num_slots > 0) + int(drain))
                if engine == "array" and reason is None
                else dict(path="reference", reason=reason))
        if obs is not None:
            obs.inc(f"engine.{engine}.runs")
            obs.inc("engine.slots_simulated", num_slots)
            obs.observe(f"engine.{engine}.run_s", duration)
            result = report.buffer_result
            obs.gauge("buffer.max_head_sram_occupancy",
                      result.max_head_sram_occupancy)
            obs.gauge("buffer.max_tail_sram_occupancy",
                      result.max_tail_sram_occupancy)
        trace_emit("run_end", engine=engine,
                   slots=report.throughput.slots,
                   arrivals=report.throughput.arrivals,
                   departures=report.throughput.departures,
                   drops=report.throughput.drops,
                   duration_s=round(duration, 6),
                   slots_per_s=(round(num_slots / duration)
                                if duration > 0 else None), **path)
        return report

    def _run_engine(self, num_slots: int, drain: bool,
                    engine: str) -> SimulationReport:
        """Dispatch to the selected core and assemble the report."""
        if engine == "array":
            return run_array(self, num_slots, drain=drain)
        return self._run_reference(num_slots, drain)

    def _run_reference(self, num_slots: int,
                       drain: bool) -> SimulationReport:
        """The reference engine's run: the per-slot loop, then
        :meth:`_reference_epilogue`."""
        self._run_slots(num_slots)
        return self._reference_epilogue(drain)

    def _reference_epilogue(self, drain: bool,
                            drops_baseline: int = 0) -> SimulationReport:
        """The reference engine's drain and report, for a monolithic run
        and a streamed one alike: drops count from ``drops_baseline``, the
        buffer's drops before a stream's measured window."""
        if drain:
            for cell in self.buffer.drain():
                self.throughput.departures += 1
                self.latency.record(cell.arrival_slot, self.buffer.slot)
        self.throughput.slots = self.buffer.slot
        self.throughput.drops = self.buffer.dropped_cells - drops_baseline
        return SimulationReport(throughput=self.throughput,
                                latency=self.latency,
                                buffer_result=self.buffer.combined_result(),
                                trace=self.trace)

    def run_stream(self, num_slots: int, *,
                   drain: bool = True,
                   engine: str = DEFAULT_ENGINE,
                   chunk_slots: Optional[int] = None,
                   warmup_slots: int = 0,
                   checkpoint_every: Optional[int] = None,
                   checkpoint_path=None,
                   label: Optional[str] = None,
                   progress=None,
                   progress_every: int = 1) -> SimulationReport:
        """Simulate ``num_slots`` slots in bounded-memory chunks.

        The streaming path (:mod:`repro.sim.streaming`) generates arrival
        plans one chunk at a time (peak memory is independent of
        ``num_slots``), optionally discards the first ``warmup_slots`` from
        the report's statistics, and can write resumable checkpoints every
        ``checkpoint_every`` slots.  With ``warmup_slots=0`` the report is
        bit-identical to :meth:`run` on the same engine, for every chunk
        size, provided the arrival process and the arbiter draw from
        separate RNGs (each chunk's plan is drawn before its arbiter draws).
        """
        from repro.sim.streaming import StreamingSimulation

        return StreamingSimulation(self, num_slots, engine=engine,
                                   drain=drain, chunk_slots=chunk_slots,
                                   warmup_slots=warmup_slots,
                                   checkpoint_every=checkpoint_every,
                                   checkpoint_path=checkpoint_path,
                                   label=label, progress=progress,
                                   progress_every=progress_every).run()

    # ------------------------------------------------------------------ #
    def _run_slots(self, num_slots: int, start_slot: int = 0,
                   plan: Optional[List[Optional[int]]] = None) -> None:
        """Reference loop: rebuild the backlog from the buffer every slot.

        ``start_slot`` and ``plan`` are the streaming hooks: a chunked run
        passes its absolute slot window and, optionally, a pre-generated
        arrival plan for exactly that window.  The defaults reproduce the
        monolithic behaviour.
        """
        num_queues = self.buffer.config.num_queues
        for slot in range(start_slot, start_slot + num_slots):
            if plan is not None:
                arrival = plan[slot - start_slot]
            else:
                arrival = (self.arrivals.next_arrival(slot)
                           if self.arrivals else None)
            backlog = [self.buffer.backlog(q) for q in range(num_queues)]
            request = self.arbiter.next_request(slot, backlog) if self.arbiter else None
            if request is not None:
                # The engine contract (shared verbatim by the array
                # engine): a request is None or an int in range.
                if type(request) is int and 0 <= request < num_queues:
                    if not self.buffer.can_request(request):
                        request = None
                else:
                    raise ArbiterContractError(request, num_queues, slot)
            if self.trace is not None:
                self.trace.append(arrival, request)
            served = self.buffer.step(arrival, request)
            self._account(arrival, request, served)

    # ------------------------------------------------------------------ #
    def _account(self, arrival, request, served) -> None:
        if arrival is not None:
            self.throughput.arrivals += 1
        if request is None:
            self.throughput.idle_request_slots += 1
        if served is not None:
            self.throughput.departures += 1
            self.latency.record(served.arrival_slot, self.buffer.slot)
