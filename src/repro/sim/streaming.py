"""Long-horizon streaming execution: chunking, warmup, checkpoint/resume.

The monolithic engines materialise the full arrival plan (and, when
recording, the full trace) before the loop, so a run is capped by memory and
a crash loses everything.  This module runs the *same machines* in bounded
chunks:

* **Chunked arrival plans** — each chunk's plan covers just its window
  (:func:`~repro.sim.array_engine.window_plan`), so peak memory is
  ``O(chunk_slots)``, independent of the horizon.  On either array core a
  stock Bernoulli process (Zipf and hotspot included) hands the chunk over
  undrawn, and the span kernel draws it natively as it does a monolithic
  run's; a span the kernel declines draws it in python with the same
  ``arrivals()`` call.  Every other process, and the reference engine,
  asks the process for its window
  (:meth:`~repro.traffic.arrivals.ArrivalProcess.arrivals_slice`).  The
  chunk concatenation is stream-identical to one monolithic plan, so with
  ``warmup_slots=0`` a streamed run's report is **bit-identical** to
  :meth:`~repro.sim.engine.ClosedLoopSimulation.run` on the same engine, for
  every chunk size (asserted by the differential suite).
* **Warmup discard** — the first ``warmup_slots`` slots run normally (the
  machine state evolves exactly as always) but the measurement collectors
  (latency histogram, throughput counters, drop count) restart at the warmup
  boundary, so the report describes steady state rather than the fill
  transient.  The engineering counters in ``buffer_result`` (peak
  occupancies, misses, DRAM accesses) keep covering the whole run on every
  engine.  The boundary lands at exactly ``warmup_slots`` regardless of
  chunking, so warmup reports are chunk-invariant too.
* **Checkpoint/resume** — every ``checkpoint_every`` slots the complete
  simulation state (buffer, arrival/arbiter RNG streams, partial latency
  histogram, engine core) is serialised to a versioned snapshot file,
  atomically.  :func:`resume_stream` continues a run from its snapshot and
  produces a report bit-identical to the uninterrupted run — pickling
  round-trips ``random.Random`` state, ints and floats exactly.

Checkpoint files are JSON envelopes (format name, version, run geometry, a
SHA-256 of the state blob) around a base64 pickle payload.  Like any pickle,
a snapshot must only be loaded from a trusted source; the digest guards
against truncation and corruption, not against tampering.

Open-ended *feed* sessions (``num_slots=None``) accept externally generated
arrival chunks via :meth:`StreamingSimulation.feed` — that is how the switch
layer streams per-egress fabric rows (``int32``, which an array core's span
kernel takes as its explicit plan) straight into port simulations without
ever materialising a whole trace.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import time
from array import array
from typing import Any, Callable, Dict, Optional

import repro
from repro.errors import (
    CheckpointError,
    ConfigurationError,
    StaleSimulationError,
)
from repro.faults import get_injector
from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.trace import emit as trace_emit
from repro.sim.array_engine import (
    DEFAULT_ENGINE,
    build_array_core,
    resolve_engine,
    row_plan,
    split_plan,
    window_plan,
)
from repro.sim.stats import LatencyStats, ThroughputStats

#: Default chunk size: big enough that per-chunk overhead vanishes, small
#: enough that a chunk's arrival plan is a few hundred kilobytes.
DEFAULT_CHUNK_SLOTS = 65536

#: Checkpoint envelope identification.  Version 3: the CFDS array core
#: keeps its Requests Register, ORR, bank timing and renaming state in its
#: own flat lists (version 2 snapshots pickle a core that stepped the
#: buffer's scheduler objects; version 1 ones a ring-buffer class that no
#: longer exists).
CHECKPOINT_FORMAT = "repro-stream-checkpoint"
CHECKPOINT_VERSION = 3


class StreamingSimulation:
    """Chunked, checkpointable execution of a ``ClosedLoopSimulation``.

    Args:
        sim: the simulation to drive (same object
            :meth:`~repro.sim.engine.ClosedLoopSimulation.run` would run).
        num_slots: total arrival/request slots, or ``None`` for an
            open-ended session driven by :meth:`feed`.
        engine: ``"array"`` (default) or ``"reference"``; the retired
            names resolve as in :meth:`~repro.sim.engine.\
ClosedLoopSimulation.run`.
        drain: run the drain window in :meth:`finish`.
        chunk_slots: window size of chunked execution.
        warmup_slots: slots to discard from the measurement statistics.
        checkpoint_every: slots between checkpoint snapshots (requires
            ``checkpoint_path``); ``None`` disables checkpointing.
        checkpoint_path: snapshot file path.
        label: free-form run identity recorded in the checkpoint envelope
            (``Scenario.run_stream`` stores the scenario name) so a resume
            can detect a snapshot that belongs to a different run.
        progress: heartbeat callback for long runs; called from :meth:`run`
            every ``progress_every`` chunks with a dict of ``slot``,
            ``num_slots``, ``chunks``, ``elapsed_s``, ``slots_per_s`` and
            ``eta_s`` (the CLI's ``--progress`` prints it to stderr).
        progress_every: chunks between ``progress`` calls.

    Every session also keeps a private :class:`~repro.obs.metrics.\
MetricsRegistry` of what it did — chunks executed, slots processed,
    checkpoint save counts and latencies.  The snapshot rides inside the
    checkpoint envelope and is restored on resume, so a resumed run reports
    *cumulative* totals identical to the uninterrupted run; :meth:`finish`
    folds the session registry into the globally enabled one (when metrics
    are on) and emits it with the ``stream_finish`` trace event.

    Note that ``record_trace`` keeps the full event list in memory — a
    streamed run with trace recording is still O(``num_slots``).
    """

    def __init__(self, sim, num_slots: Optional[int] = None, *,
                 engine: str = DEFAULT_ENGINE,
                 drain: bool = True,
                 chunk_slots: Optional[int] = None,
                 warmup_slots: int = 0,
                 checkpoint_every: Optional[int] = None,
                 checkpoint_path: Optional[os.PathLike] = None,
                 label: Optional[str] = None,
                 progress: Optional[Callable[[Dict[str, Any]], None]] = None,
                 progress_every: int = 1) -> None:
        engine = resolve_engine(engine)
        if num_slots is not None and num_slots < 0:
            raise ConfigurationError("num_slots must be non-negative")
        if chunk_slots is None:
            chunk_slots = DEFAULT_CHUNK_SLOTS
        if chunk_slots <= 0:
            raise ConfigurationError("chunk_slots must be positive")
        if warmup_slots < 0:
            raise ConfigurationError("warmup_slots must be non-negative")
        if num_slots is not None and warmup_slots > num_slots:
            raise ConfigurationError(
                f"warmup_slots ({warmup_slots}) cannot exceed num_slots "
                f"({num_slots})")
        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise ConfigurationError("checkpoint_every must be positive")
            if checkpoint_path is None:
                raise ConfigurationError(
                    "checkpoint_every needs a checkpoint_path to write to")
        if progress_every < 1:
            raise ConfigurationError("progress_every must be at least 1")
        self.sim = sim
        self.engine = engine
        self.num_slots = num_slots
        self.drain = drain
        self.chunk_slots = chunk_slots
        self.warmup_slots = warmup_slots
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        self.label = label
        self.progress = progress
        self.progress_every = progress_every
        # Per-session observability state (always on: a handful of dict
        # operations per *chunk*, invisible next to a 64k-slot window).
        self._obs = MetricsRegistry()
        # The array core carries the machine state between chunks (and
        # enforces the freshly-built-buffer contract up front).
        self._core = build_array_core(sim) if engine == "array" else None
        self.slot = 0                    # arrival/request slots completed
        self._warmup_done = warmup_slots == 0
        self._measured_from = 0          # slot measurement started at
        self._drops_baseline = 0         # buffer drops before measurement
        self._finished = False
        self._start_clock()

    # ------------------------------------------------------------------ #
    # Driving
    # ------------------------------------------------------------------ #
    def run(self):
        """Run to completion (resuming from wherever :attr:`slot` stands)
        and return the :class:`~repro.sim.engine.SimulationReport`."""
        if self.num_slots is None:
            raise ConfigurationError(
                "run() needs num_slots; open-ended sessions are driven with "
                "feed() and closed with finish()")
        self._start_clock()
        every = self.checkpoint_every
        if every is not None:
            # The first mark strictly ahead of the current position, so a
            # resumed run never immediately rewrites the snapshot it loaded.
            mark = (self.slot // every + 1) * every
            while mark < self.num_slots:
                self.advance_to(mark)
                self.save_checkpoint(self.checkpoint_path)
                mark += every
        self.advance_to(self.num_slots)
        return self.finish()

    def advance_to(self, stop_slot: int) -> None:
        """Run chunks until :attr:`slot` reaches ``stop_slot``, with the
        plans :meth:`run` uses and no checkpoint marks.

        Chunks start at the current slot; the last one ends at
        ``stop_slot``.  Nothing runs when the session already stands there
        (or past it).  Driving a session to a slot, then saving a
        checkpoint, is how an interrupted run is replayed.
        """
        if self.num_slots is None:
            raise ConfigurationError(
                "advance_to() needs num_slots; open-ended sessions are "
                "driven with feed()")
        if stop_slot > self.num_slots:
            raise ConfigurationError(
                f"cannot advance to slot {stop_slot}: the run is configured "
                f"for {self.num_slots} slots")
        while self.slot < stop_slot:
            count = min(self.chunk_slots, stop_slot - self.slot)
            self._execute(window_plan(self.sim, self._core, self.slot,
                                      count))
            self._chunks_run += 1
            if (self.progress is not None
                    and self._chunks_run % self.progress_every == 0):
                self._heartbeat()

    def _start_clock(self) -> None:
        """Restart the progress heartbeat's clock and chunk count."""
        self._clock_started = time.perf_counter()
        self._clock_slot = self.slot
        self._chunks_run = 0

    def _heartbeat(self) -> None:
        """Hand the progress callback one snapshot of where the run stands."""
        elapsed = time.perf_counter() - self._clock_started
        done = self.slot - self._clock_slot
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = self.num_slots - self.slot
        self.progress({
            "slot": self.slot,
            "num_slots": self.num_slots,
            "chunks": self._chunks_run,
            "elapsed_s": elapsed,
            "slots_per_s": rate,
            "eta_s": remaining / rate if rate > 0 else None,
        })

    def feed(self, plan) -> None:
        """Advance ``len(plan)`` slots with externally supplied arrivals:
        an ``Optional[int]`` list, or an ``int32`` row (``-1`` = no
        arrival), which an array core's span kernel takes as it is.

        Only valid on open-ended sessions (``num_slots=None``); the warmup
        boundary is honoured even when it falls inside a fed chunk.
        """
        if self.num_slots is not None:
            raise ConfigurationError(
                "feed() is for open-ended sessions; this one has num_slots "
                f"= {self.num_slots}")
        if isinstance(plan, array):
            if self._core is None:
                plan = row_plan(plan)
        elif not isinstance(plan, list):
            plan = list(plan)
        self._execute(plan)

    def _execute(self, plan) -> None:
        """Advance over ``plan`` (a list, or a chunk the kernel may draw),
        splitting it at the warmup boundary so the measurement reset lands
        at exactly ``warmup_slots`` for any chunking."""
        count = len(plan)
        if (not self._warmup_done
                and self.slot < self.warmup_slots <= self.slot + count):
            head, plan = split_plan(self._core, plan,
                                    self.warmup_slots - self.slot)
            self._span(head)
            self._reset_measurement()
            self._warmup_done = True
        self._span(plan)

    def _span(self, plan) -> None:
        if self._finished:
            raise StaleSimulationError(
                "this streaming session already produced its report")
        count = len(plan)
        if count == 0:
            return
        start_slot = self.slot
        started = time.perf_counter()
        if self._core is not None:
            self._core.run_span(plan, count)
        else:
            self.sim._run_slots(count, start_slot=self.slot, plan=plan)
        self.slot += count
        duration = time.perf_counter() - started
        self._obs.inc("stream.chunks")
        self._obs.inc("stream.slots", count)
        self._obs.observe("stream.chunk_s", duration)
        trace_emit("chunk", start_slot=start_slot, slots=count,
                   duration_s=round(duration, 6), engine=self.engine)

    def _reset_measurement(self) -> None:
        """Restart the measurement collectors at the warmup boundary."""
        sim = self.sim
        sim.latency = LatencyStats()
        sim.throughput = ThroughputStats()
        self._measured_from = self.slot
        self._drops_baseline = sim.buffer.dropped_cells
        if self._core is not None:
            self._core.reset_measurement()

    # ------------------------------------------------------------------ #
    # Finishing
    # ------------------------------------------------------------------ #
    def finish(self):
        """Run the drain window and assemble the report.

        With ``warmup_slots=0`` this matches the monolithic ``run()``
        epilogue bit for bit; with warmup, ``throughput.slots`` counts only
        the measured window and drops are measured from the warmup boundary.
        """
        from repro.sim.engine import SimulationReport

        if self._finished:
            # Identical on every engine: without this guard the non-core
            # path would re-run the drain window and return inflated slot
            # counts (the array core raises on its own, via the same check).
            raise StaleSimulationError(
                "this streaming session already produced its report")
        if self.num_slots is not None and self.slot < self.num_slots:
            raise ConfigurationError(
                f"cannot finish at slot {self.slot}: the run is configured "
                f"for {self.num_slots} slots")
        if not self._warmup_done:
            raise ConfigurationError(
                f"only {self.slot} slots were fed, but warmup_slots is "
                f"{self.warmup_slots}")
        sim = self.sim
        if self._core is not None:
            report = self._core.finish(drain=self.drain)
        else:
            buffer = sim.buffer
            if self.drain:
                for cell in buffer.drain():
                    sim.throughput.departures += 1
                    sim.latency.record(cell.arrival_slot, buffer.slot)
            sim.throughput.slots = buffer.slot
            sim.throughput.drops = (buffer.dropped_cells
                                    - self._drops_baseline)
            report = SimulationReport(throughput=sim.throughput,
                                      latency=sim.latency,
                                      buffer_result=buffer.combined_result(),
                                      trace=sim.trace)
        report.throughput.slots -= self._measured_from
        self._finished = True
        # Cumulative session totals: across a checkpoint/resume these are
        # identical to the uninterrupted run's, because the restored
        # snapshot carried the pre-crash state.
        snapshot = self._obs.snapshot()
        active = get_metrics()
        if active is not None and active is not self._obs:
            active.restore(snapshot)
        trace_emit("stream_finish", slot=self.slot,
                   measured_from=self._measured_from,
                   engine=self.engine, label=self.label,
                   counters=snapshot["counters"])
        return report

    def metrics_snapshot(self) -> Dict[str, Any]:
        """This session's cumulative observability state (counters of
        chunks/slots/checkpoints plus chunk and checkpoint timers)."""
        return self._obs.snapshot()

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def save_checkpoint(self, path: os.PathLike) -> None:
        """Serialise the complete run state to ``path``, atomically.

        The payload pickles the simulation and the engine core *together*,
        so state they share (the buffer's scheduler, occupancy tables, RNG
        streams) stays shared after a reload.
        """
        if path is None:
            raise ConfigurationError("save_checkpoint needs a path")
        started = time.perf_counter()
        # Counted before the snapshot is taken so the envelope's own metric
        # state includes this save — that is what makes resumed totals
        # cumulative rather than off by the save they were loaded from.
        self._obs.inc("stream.checkpoints_saved")
        blob = pickle.dumps({
            "sim": self.sim,
            "core": self._core,
            "slot": self.slot,
            "warmup_done": self._warmup_done,
            "measured_from": self._measured_from,
            "drops_baseline": self._drops_baseline,
            "obs": self._obs.snapshot(),
        }, protocol=pickle.HIGHEST_PROTOCOL)
        document = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "repro_version": repro.__version__,
            "label": self.label,
            "engine": self.engine,
            "slot": self.slot,
            "num_slots": self.num_slots,
            "warmup_slots": self.warmup_slots,
            "chunk_slots": self.chunk_slots,
            "checkpoint_every": self.checkpoint_every,
            "drain": self.drain,
            "sha256": hashlib.sha256(blob).hexdigest(),
            "state_b64": base64.b64encode(blob).decode("ascii"),
        }
        path = os.fspath(path)
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            os.replace(tmp, path)
            injector = get_injector()
            if injector is not None:
                # Chaos harness: the plan may tear or bit-flip the envelope
                # we just committed; the resume path must detect it through
                # the digest check and fall back to a clean recompute.
                injector.corrupt_file(
                    path, f"checkpoint-save:{self.label}:{self.slot}")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        duration = time.perf_counter() - started
        self._obs.observe("stream.checkpoint_save_s", duration)
        trace_emit("checkpoint_saved", path=path, slot=self.slot,
                   bytes=len(blob), duration_s=round(duration, 6))

    @classmethod
    def load_checkpoint(cls, path: os.PathLike, *,
                        checkpoint_every: Optional[int] = None,
                        checkpoint_path: Optional[os.PathLike] = None,
                        progress: Optional[Callable[[Dict[str, Any]], None]]
                        = None,
                        progress_every: int = 1) -> "StreamingSimulation":
        """Reconstruct a session from a snapshot written by
        :meth:`save_checkpoint`.

        The run geometry (slots, warmup, chunking, engine) comes from the
        snapshot; ``checkpoint_every``/``checkpoint_path`` may be overridden
        so a resumed run keeps checkpointing (by default it continues with
        the snapshot's own settings, writing back to ``path``).  The metric
        state saved in the envelope is restored too, so the resumed session
        reports cumulative totals.
        """
        started = time.perf_counter()
        document = read_checkpoint(path)
        try:
            # A snapshot may name a retired engine; its state is the same.
            engine = resolve_engine(document["engine"])
        except ConfigurationError as exc:
            raise CheckpointError(f"checkpoint {os.fspath(path)!r}: {exc}")
        try:
            blob = base64.b64decode(document["state_b64"],
                                    validate=True)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} is corrupt: state payload "
                f"is not valid base64 ({exc})")
        if hashlib.sha256(blob).hexdigest() != document["sha256"]:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} is corrupt: state digest "
                "mismatch")
        try:
            payload = pickle.loads(blob)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} state cannot be "
                f"unpickled: {exc}")
        session = object.__new__(cls)
        session.sim = payload["sim"]
        session.engine = engine
        session.num_slots = document["num_slots"]
        session.drain = document["drain"]
        session.chunk_slots = document["chunk_slots"]
        session.warmup_slots = document["warmup_slots"]
        session.checkpoint_every = (checkpoint_every
                                    if checkpoint_every is not None
                                    else document.get("checkpoint_every"))
        session.checkpoint_path = (checkpoint_path
                                   if checkpoint_path is not None
                                   else os.fspath(path))
        session.label = document.get("label")
        session.progress = progress
        session.progress_every = progress_every
        session._core = payload["core"]
        session.slot = payload["slot"]
        session._warmup_done = payload["warmup_done"]
        session._measured_from = payload["measured_from"]
        session._drops_baseline = payload["drops_baseline"]
        session._finished = False
        session._start_clock()
        session._obs = MetricsRegistry()
        session._obs.restore(payload.get("obs", {}))
        session._obs.inc("stream.checkpoints_resumed")
        duration = time.perf_counter() - started
        session._obs.observe("stream.checkpoint_restore_s", duration)
        trace_emit("checkpoint_resumed", path=os.fspath(path),
                   slot=session.slot, num_slots=session.num_slots,
                   duration_s=round(duration, 6))
        return session


# --------------------------------------------------------------------- #
# Module-level conveniences
# --------------------------------------------------------------------- #

def run_stream(sim, num_slots: int, *,
               engine: str = DEFAULT_ENGINE,
               drain: bool = True,
               chunk_slots: Optional[int] = None,
               warmup_slots: int = 0,
               checkpoint_every: Optional[int] = None,
               checkpoint_path: Optional[os.PathLike] = None,
               label: Optional[str] = None,
               progress: Optional[Callable[[Dict[str, Any]], None]] = None,
               progress_every: int = 1):
    """One-call streaming run; see :class:`StreamingSimulation`."""
    return StreamingSimulation(sim, num_slots, engine=engine, drain=drain,
                               chunk_slots=chunk_slots,
                               warmup_slots=warmup_slots,
                               checkpoint_every=checkpoint_every,
                               checkpoint_path=checkpoint_path,
                               label=label, progress=progress,
                               progress_every=progress_every).run()


def resume_stream(path: os.PathLike, *,
                  checkpoint_every: Optional[int] = None,
                  checkpoint_path: Optional[os.PathLike] = None,
                  progress: Optional[Callable[[Dict[str, Any]], None]] = None,
                  progress_every: int = 1):
    """Resume a checkpointed run to completion and return its report.

    The continuation is bit-identical to the uninterrupted run: the snapshot
    carries every RNG stream, queue, pipeline register and partial histogram,
    and chunked execution is chunk-invariant, so only wall-clock time is
    lost to the crash.
    """
    injector = get_injector()
    if injector is not None:
        # Chaos harness: the plan may corrupt the snapshot *before* the load
        # reads it — the digest check must turn that into a CheckpointError
        # the caller handles by recomputing from scratch.
        injector.corrupt_file(path, f"checkpoint-resume:{os.fspath(path)}")
    return StreamingSimulation.load_checkpoint(
        path, checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path, progress=progress,
        progress_every=progress_every).run()


def read_checkpoint(path: os.PathLike) -> dict:
    """Read and validate a checkpoint envelope (without unpickling state).

    Returns the JSON document; raises
    :class:`~repro.errors.CheckpointError` when the file is missing, not a
    checkpoint, or from an incompatible format version.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}")
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} is not valid JSON: {exc}")
    if not isinstance(document, dict) \
            or document.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"{os.fspath(path)!r} is not a repro streaming checkpoint")
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {os.fspath(path)!r} has format version {version!r}; "
            f"this build reads version {CHECKPOINT_VERSION}")
    for key in ("engine", "slot", "num_slots", "warmup_slots", "chunk_slots",
                "drain", "sha256", "state_b64"):
        if key not in document:
            raise CheckpointError(
                f"checkpoint {os.fspath(path)!r} is missing field {key!r}")
    return document


__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "DEFAULT_CHUNK_SLOTS",
    "StreamingSimulation",
    "read_checkpoint",
    "resume_stream",
    "run_stream",
]
