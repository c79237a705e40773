"""Exception hierarchy for the packet-buffer reproduction library.

Every failure mode the simulators can detect maps to a dedicated exception so
tests (and users) can assert on the precise guarantee that was violated:

* :class:`CacheMissError` — the head SRAM did not contain a cell the arbiter
  requested.  RADS/CFDS are designed so this can *never* happen; raising it
  in a simulation means the configuration (SRAM size, lookahead, latency) is
  under-dimensioned or the algorithm is broken.
* :class:`BankConflictError` — a DRAM bank was asked to start a new access
  while a previous access was still in flight.  CFDS's scheduler exists to
  make this impossible.
* :class:`BufferOverflowError` — an SRAM or DRAM structure exceeded its
  configured capacity.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""

    def __reduce__(self):
        # Several subclasses take structured arguments rather than the
        # message, so the default reduce (``cls(*args)``) cannot rebuild
        # them.  Restore message and attributes without re-running
        # ``__init__``, so an error crosses a sweep worker's result queue
        # intact.
        return (_restore_error, (type(self), self.args, self.__dict__))


def _restore_error(cls, args, state):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent."""


class ValidationError(ConfigurationError, ValueError):
    """A single parameter value is out of its documented range.

    Doubly inherits ``ValueError`` so seed-era callers (and tests) that
    catch the builtin keep working, while the error-taxonomy contract —
    library code raises only :class:`ReproError` subclasses, enforced by
    ``python -m repro lint`` — is satisfied.
    """


class TraceFormatError(ReproError, ValueError):
    """An NDJSON run-trace file contains a line that is not a trace event.

    Subclasses ``ValueError`` for backwards compatibility with callers that
    treated malformed traces as generic value errors.
    """


class CacheIntegrityError(ReproError):
    """A result-cache entry failed its integrity check (key mismatch after a
    hash collision or a hand-edited file).  Raised and consumed inside
    :class:`~repro.runner.cache.ResultCache`, which quarantines the entry
    and reports a miss."""


class CacheMissError(ReproError):
    """The head SRAM missed: a requested cell was not resident when needed."""

    def __init__(self, queue: int, slot: int, message: str = "") -> None:
        detail = message or (
            f"head SRAM miss for queue {queue} at slot {slot}: "
            "the requested cell was not resident"
        )
        super().__init__(detail)
        self.queue = queue
        self.slot = slot


class BankConflictError(ReproError):
    """A DRAM bank received a new access while still busy with a previous one."""

    def __init__(self, bank: int, slot: int, busy_until: int) -> None:
        super().__init__(
            f"bank conflict: bank {bank} asked to start an access at slot {slot} "
            f"but it is busy until slot {busy_until}"
        )
        self.bank = bank
        self.slot = slot
        self.busy_until = busy_until


class BufferOverflowError(ReproError):
    """A bounded structure (SRAM, register, DRAM queue) exceeded its capacity."""

    def __init__(self, structure: str, capacity: int, occupancy: int) -> None:
        super().__init__(
            f"{structure} overflow: occupancy {occupancy} exceeds capacity {capacity}"
        )
        self.structure = structure
        self.capacity = capacity
        self.occupancy = occupancy


class QueueEmptyError(ReproError):
    """A cell was requested from a queue that holds no cells."""

    def __init__(self, queue: int, message: str = "") -> None:
        super().__init__(message or f"queue {queue} is empty")
        self.queue = queue


class ArbiterContractError(ReproError):
    """An arbiter returned something other than ``None`` or a valid queue index.

    The engine contract is that ``next_request`` returns ``None`` (stay idle)
    or a plain ``int`` in ``[0, num_queues)``.  Every simulation engine
    enforces this identically, so a misbehaving custom arbiter fails loudly
    and in the same way on the reference and array paths instead of
    crashing with an ``IndexError`` on one and silently diverging on another.
    """

    def __init__(self, request: object, num_queues: int, slot: int) -> None:
        super().__init__(
            f"arbiter returned {request!r} at slot {slot}, but a request must "
            f"be None or an int in [0, {num_queues})"
        )
        self.request = request
        self.num_queues = num_queues
        self.slot = slot


class StaleSimulationError(ReproError):
    """A simulation that has already run (or been stepped) was run again.

    The array engine replays a run from slot 0 on its own state arrays, so it
    requires a freshly built simulation; re-running one would silently
    produce a wrong report.
    """


class CheckpointError(ReproError):
    """A streaming checkpoint file is missing, corrupt, or incompatible."""


class SpecError(ConfigurationError):
    """A declarative scenario/sweep spec document failed to parse or validate.

    Raised by the YAML front end (:mod:`repro.workloads.spec_yaml`) with the
    document path *inside the spec* (``spec.arrivals.params``, ``grid``, ...)
    and the offending key, so an authoring mistake points at the exact YAML
    line to fix rather than at the Python that tripped over it.
    """


class SweepFailure(ReproError):
    """A strict sweep aborted on a job failure with no exception to re-raise.

    Raised by :class:`~repro.runner.sweep.SweepRunner` in ``strict`` mode
    when a job was quarantined for a *timeout* or a *worker death* — failure
    modes that leave no original exception object.  (A job that raised keeps
    fail-fast semantics: its own exception propagates instead.)  Carries the
    structured :class:`~repro.runner.sweep.JobFailure` as ``failure``.
    """

    def __init__(self, failure: object) -> None:
        super().__init__(getattr(failure, "brief", lambda: str(failure))())
        self.failure = failure


class RenamingError(ReproError):
    """The renaming subsystem ran out of physical queues or violated FIFO order."""


class SchedulingError(ReproError):
    """The DRAM scheduler could not find a conflict-free request to issue."""
