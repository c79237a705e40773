"""Closed-loop, slot-level simulation harness.

The buffers in :mod:`repro.rads` and :mod:`repro.core` are stepped one slot at
a time; this package provides the loop that drives a buffer with an arrival
process and an arbiter, enforces admissibility, and gathers the statistics the
examples and benchmarks report (throughput, delays, SRAM occupancies, zero-miss
verdicts).
"""

from repro.sim.stats import LatencyStats, ThroughputStats
from repro.sim.engine import ClosedLoopSimulation, SimulationReport
from repro.sim.array_engine import (
    DEFAULT_ENGINE,
    ENGINES,
    build_array_core,
    resolve_engine,
    run_array,
)
from repro.sim.streaming import (
    StreamingSimulation,
    read_checkpoint,
    resume_stream,
    run_stream,
)
from repro.sim.worstcase import (
    WorstCaseSummary,
    run_cfds_worst_case,
    run_rads_worst_case,
)

__all__ = [
    "LatencyStats",
    "ThroughputStats",
    "ClosedLoopSimulation",
    "SimulationReport",
    "DEFAULT_ENGINE",
    "ENGINES",
    "build_array_core",
    "resolve_engine",
    "run_array",
    "StreamingSimulation",
    "read_checkpoint",
    "resume_stream",
    "run_stream",
    "WorstCaseSummary",
    "run_rads_worst_case",
    "run_cfds_worst_case",
]
