"""The perf-trajectory benchmark suite (``python -m repro bench``).

Every PR that touches a hot path needs a comparable baseline; this module
provides it.  The suite is a *fixed* set of benchmarks — the closed-loop
scenario on each engine, the wide-queue stressor that magnifies per-slot
overhead, a CFDS scenario exercising the DRAM scheduler subsystem, the
head-MMA ablation, the multi-port switch pipeline (the fabric stage
alone, then the full run at ``jobs=1`` and ``jobs=4``), and the
long-horizon streaming path (chunked runs, with and without
checkpointing) — each timed for a handful of repetitions, with the
**median** wall-clock time recorded per benchmark.
Results are written as JSON (``BENCH_28.json`` by default; the number
tracks the PR that produced the file), so successive snapshots can be
diffed mechanically::

    python -m repro bench                 # full suite -> BENCH_28.json
    python -m repro bench --quick         # reduced slot counts (CI perf-smoke)
    python -m repro bench --filter wide   # only the wide-queue benchmarks

The suite intentionally times whole runs (build + simulate + drain) — that
is what users pay for — and records the slot throughput alongside the raw
seconds so machines of different speeds can still be compared by ratio.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.runner.sweep import available_cpus
from repro.errors import ValidationError

#: Default output file.  The suffix tracks the PR that produced the
#: snapshot so the repository can accumulate a BENCH_<n>.json trajectory.
DEFAULT_OUTPUT = "BENCH_28.json"

#: JSON schema version of the output document.
SCHEMA = 1

#: Slot counts used when ``--quick`` trims the suite for CI smoke runs.
QUICK_MMA_SLOTS = 3000

#: Slots of the two registered-scenario pairs and of the wide pair, quick
#: and full alike: their array-over-reference ratios are gated, and on the
#: span kernel a ratio depends on the horizon, so the quick run times the
#: baseline's horizon.
SCENARIO_SLOTS = 10_000

WIDE_QUEUES = 128
WIDE_SLOTS = 6000
MMA_QUEUES = 16
MMA_GRANULARITY = 4
MMA_SLOTS = 12_000
SWITCH_PORTS = 8
#: Arrival slots of the switch pair, quick and full alike (their jobs4 /
#: jobs1 ratio is gated, and a worker pool's start-up is a fixed cost).
SWITCH_SLOTS = 6000
#: Slot count of the fabric-stage-only benchmark (the serial stage is the
#: switch pipeline's Amdahl ceiling, so its trajectory is tracked alone).
FABRIC_SLOTS = 20_000
QUICK_FABRIC_SLOTS = 5000
#: The long-horizon streaming benchmark: a slot count well past what the
#: quick scenarios cover, run in bounded chunks (kslots/s is the headline).
#: The quick run is long enough (~70 ms on the span kernel) that its three
#: checkpoints stay a small share of it, as they are in the full run.
STREAM_SLOTS = 250_000
QUICK_STREAM_SLOTS = 100_000
STREAM_CHUNK_SLOTS = 32_768
STREAM_QUEUES = 8

#: A benchmark thunk plus the metadata recorded next to its timings.
BenchSetup = Tuple[Callable[[], object], Dict[str, Any]]


@dataclass(frozen=True)
class BenchCase:
    """One named benchmark of the fixed suite."""

    name: str
    description: str
    factory: Callable[[bool], BenchSetup]


@dataclass
class BenchResult:
    """Timings of one benchmark: the median is the headline number."""

    name: str
    description: str
    median_s: float
    samples_s: List[float]
    metrics: Dict[str, Any] = field(default_factory=dict)
    profile: Optional[List[Dict[str, Any]]] = None

    def as_json(self) -> Dict[str, Any]:
        out = {
            "name": self.name,
            "description": self.description,
            "median_s": self.median_s,
            "samples_s": self.samples_s,
            "metrics": self.metrics,
        }
        if self.profile is not None:
            out["profile"] = self.profile
        return out


def wide_scenario(num_queues: int = WIDE_QUEUES,
                  num_slots: int = WIDE_SLOTS):
    """The 128-queue Bernoulli stressor shared with
    ``benchmarks/bench_workloads.py`` — wide enough that per-slot loop
    overhead, not the workload, dominates."""
    from repro.workloads import Scenario

    return Scenario(
        name="wide-bernoulli",
        description="128-queue Bernoulli stressor for the loop overhead",
        scheme="rads",
        buffer={"num_queues": num_queues, "granularity": 4},
        arrivals={"type": "bernoulli",
                  "params": {"num_queues": num_queues, "load": 0.85}},
        arbiter={"type": "random",
                 "params": {"num_queues": num_queues, "load": 0.9}},
        num_slots=num_slots, seed=1)


def _registered_scenario_setup(scenario_name: str, engine: str,
                               quick: bool) -> BenchSetup:
    from repro.workloads.registry import get_scenario

    scenario = get_scenario(scenario_name)
    slots = SCENARIO_SLOTS

    def thunk():
        return scenario.run(num_slots=slots, engine=engine)

    return thunk, {"slots": slots, "scheme": scenario.scheme,
                   "scenario": scenario_name, "engine": engine}


def _wide_setup(engine: str, quick: bool) -> BenchSetup:
    scenario = wide_scenario(num_slots=WIDE_SLOTS)

    def thunk():
        return scenario.run(engine=engine)

    return thunk, {"slots": WIDE_SLOTS, "scheme": scenario.scheme,
                   "queues": WIDE_QUEUES, "engine": engine}


def _mma_setup(policy: str, quick: bool) -> BenchSetup:
    from repro.mma.ecqf import ECQF
    from repro.mma.mdqf import MDQF
    from repro.rads.config import RADSConfig
    from repro.rads.head_buffer import RADSHeadBuffer
    from repro.traffic.arbiters import RoundRobinAdversary

    slots = QUICK_MMA_SLOTS if quick else MMA_SLOTS
    mma_cls = {"ecqf": ECQF, "mdqf": MDQF}[policy]

    def thunk():
        config = RADSConfig(num_queues=MMA_QUEUES,
                            granularity=MMA_GRANULARITY, strict=False)
        buffer = RADSHeadBuffer(config, mma=mma_cls())
        adversary = RoundRobinAdversary(MMA_QUEUES)
        unbounded = [10 ** 9] * MMA_QUEUES
        return buffer.run(adversary.next_request(slot, unbounded)
                          for slot in range(slots))

    return thunk, {"slots": slots, "policy": policy,
                   "queues": MMA_QUEUES, "granularity": MMA_GRANULARITY}


def switch_bench_scenario(num_slots: int = SWITCH_SLOTS):
    """The switch-stage stressor: uniform traffic into CFDS linecards.

    CFDS ports are the heaviest per-port workload (DSS + latency register in
    the loop), so this is where sharding ports across workers would pay —
    the configuration the ``switch-scaling`` derived ratio tracks.  With the
    ports on the span kernel a worker pool cost more than it split, so a
    switch run is one in-process job whatever ``jobs`` is, and the ratio
    reads about 1: it falls if ``jobs`` ever buys a pool that loses again.
    Not a registered scenario: benchmarks must not drift when the registry
    grows.
    """
    from repro.switch import SwitchScenario

    return SwitchScenario(
        name="bench-cfds-uniform",
        description="8-port uniform-traffic switch with CFDS linecards",
        num_ports=SWITCH_PORTS,
        traffic={"type": "bernoulli", "params": {"load": 0.85}},
        fabric={"type": "islip", "params": {}},
        ports=({"scheme": "cfds",
                "buffer": {"dram_access_slots": 8, "granularity": 2,
                           "num_banks": 32},
                "arbiter": {"type": "longest_queue", "params": {}}},),
        num_slots=num_slots, seed=3)


def _switch_setup(jobs: int, quick: bool) -> BenchSetup:
    from repro.switch import SwitchModel

    slots = SWITCH_SLOTS
    scenario = switch_bench_scenario(num_slots=slots)

    def thunk():
        return SwitchModel(scenario).run(jobs=jobs)

    # ``slots`` counts simulated port-slots so kslots/s stays comparable
    # with the single-port benchmarks.
    return thunk, {"slots": slots * SWITCH_PORTS, "arrival_slots": slots,
                   "ports": SWITCH_PORTS, "scheme": "cfds", "jobs": jobs,
                   "engine": "array"}


def stream_scenario(num_slots: int = STREAM_SLOTS):
    """The long-horizon streaming stressor: a plain Bernoulli/random-arbiter
    RADS workload whose only point is slot count.  Not a registered scenario:
    benchmarks must not drift when the registry grows."""
    from repro.workloads import Scenario

    return Scenario(
        name="stream-bernoulli",
        description="long-horizon streaming stressor",
        scheme="rads",
        buffer={"num_queues": STREAM_QUEUES, "granularity": 4},
        arrivals={"type": "bernoulli",
                  "params": {"num_queues": STREAM_QUEUES, "load": 0.85}},
        arbiter={"type": "random",
                 "params": {"num_queues": STREAM_QUEUES, "load": 0.9}},
        num_slots=num_slots, seed=7)


def _stream_setup(engine: str, quick: bool,
                  checkpoint: bool = False) -> BenchSetup:
    import os
    import tempfile

    slots = QUICK_STREAM_SLOTS if quick else STREAM_SLOTS
    scenario = stream_scenario(num_slots=slots)
    every = max(slots // 4, 1)

    if checkpoint:
        def thunk():
            with tempfile.TemporaryDirectory() as tmpdir:
                return scenario.run_stream(
                    engine=engine, chunk_slots=STREAM_CHUNK_SLOTS,
                    checkpoint_every=every,
                    checkpoint_path=os.path.join(tmpdir, "bench.ckpt.json"))
    else:
        def thunk():
            return scenario.run_stream(engine=engine,
                                       chunk_slots=STREAM_CHUNK_SLOTS)

    metrics = {"slots": slots, "scheme": "rads", "engine": engine,
               "chunk_slots": STREAM_CHUNK_SLOTS, "stream": True}
    if checkpoint:
        metrics["checkpoint_every"] = every
    return thunk, metrics


def _fabric_setup(quick: bool) -> BenchSetup:
    from repro.switch import run_fabric

    slots = QUICK_FABRIC_SLOTS if quick else FABRIC_SLOTS
    scenario = switch_bench_scenario(num_slots=slots)

    def thunk():
        return run_fabric(scenario)

    return thunk, {"slots": slots, "ports": SWITCH_PORTS, "fabric": "islip"}


def _case(name: str, description: str, factory) -> BenchCase:
    return BenchCase(name=name, description=description, factory=factory)


#: The fixed suite, in reporting order.
SUITE: Tuple[BenchCase, ...] = (
    _case("scenario/uniform-bernoulli/reference",
          "registered RADS scenario, reference per-slot loop",
          lambda quick: _registered_scenario_setup(
              "uniform-bernoulli", "reference", quick)),
    _case("scenario/uniform-bernoulli/array",
          "registered RADS scenario, array engine (span kernel)",
          lambda quick: _registered_scenario_setup(
              "uniform-bernoulli", "array", quick)),
    _case("scenario/markov-onoff/reference",
          "registered CFDS scenario (DSS + latency register), reference "
          "per-slot loop",
          lambda quick: _registered_scenario_setup(
              "markov-onoff", "reference", quick)),
    _case("scenario/markov-onoff/array",
          "registered CFDS scenario (DSS + latency register), array engine",
          lambda quick: _registered_scenario_setup(
              "markov-onoff", "array", quick)),
    _case("wide-128/reference",
          "128-queue Bernoulli stressor, reference per-slot loop",
          lambda quick: _wide_setup("reference", quick)),
    _case("wide-128/array",
          "128-queue Bernoulli stressor, array engine (span kernel)",
          lambda quick: _wide_setup("array", quick)),
    _case("mma-ablation/ecqf",
          "head-only worst case under ECQF (paper policy)",
          lambda quick: _mma_setup("ecqf", quick)),
    _case("mma-ablation/mdqf",
          "head-only worst case under MDQF (ablation policy)",
          lambda quick: _mma_setup("mdqf", quick)),
    _case("switch/fabric-stage",
          "crossbar fabric stage alone (serial, iSLIP, 8 ports)",
          lambda quick: _fabric_setup(quick)),
    _case("switch/cfds-8port/jobs1",
          "8-port CFDS switch, jobs=1",
          lambda quick: _switch_setup(1, quick)),
    _case("switch/cfds-8port/jobs4",
          "8-port CFDS switch, jobs=4 (one in-process job all the same)",
          lambda quick: _switch_setup(4, quick)),
    _case("stream/long-horizon/array",
          "long-horizon streamed run, array engine, chunked plans",
          lambda quick: _stream_setup("array", quick)),
    _case("stream/long-horizon/array-checkpointed",
          "streamed run writing 3 resumable checkpoints along the way",
          lambda quick: _stream_setup("array", quick, checkpoint=True)),
)

#: Ratios derived from pairs of benchmark medians (numerator / denominator —
#: the speedup trajectory the acceptance criteria track).  The fourth
#: element is the regression *direction* the compare gate uses: a speedup
#: ratio regressed when it falls (``higher_better``), an overhead ratio
#: regressed when it rises (``lower_better``).
DERIVED_RATIOS: Tuple[Tuple[str, str, str, str], ...] = (
    ("wide-128-speedup-array-over-reference", "wide-128/reference",
     "wide-128/array", "higher_better"),
    ("uniform-speedup-array-over-reference",
     "scenario/uniform-bernoulli/reference",
     "scenario/uniform-bernoulli/array", "higher_better"),
    ("cfds-speedup-array-over-reference",
     "scenario/markov-onoff/reference",
     "scenario/markov-onoff/array", "higher_better"),
    ("switch-scaling-jobs4-over-jobs1", "switch/cfds-8port/jobs1",
     "switch/cfds-8port/jobs4", "higher_better"),
    ("stream-checkpoint-overhead", "stream/long-horizon/array-checkpointed",
     "stream/long-horizon/array", "lower_better"),
)


def run_suite(quick: bool = False,
              repeats: Optional[int] = None,
              name_filter: Optional[str] = None,
              profile: bool = False,
              profile_top: Optional[int] = None) -> Dict[str, Any]:
    """Run the suite and return the JSON-serialisable result document.

    With ``profile=True`` every selected benchmark is run once more under
    :mod:`cProfile` *after* the timed repetitions (profiler overhead must
    never pollute the medians) and its hottest frames land in the result's
    ``profile`` list.
    """
    from repro.obs.profile import DEFAULT_TOP, profile_call
    from repro.obs.trace import emit as trace_emit

    if repeats is None:
        repeats = 3 if quick else 5
    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    if profile_top is None:
        profile_top = DEFAULT_TOP
    selected = [case for case in SUITE
                if name_filter is None or name_filter in case.name]
    setups = [case.factory(quick) for case in selected]
    trace_emit("bench_start", quick=quick, repeats=repeats,
               cases=len(selected), profile=profile)
    # Interleave the repetitions (round 0 of every case, then round 1, ...)
    # instead of timing each case's repeats back to back: slow drift in
    # machine load then lands on every case roughly equally, which is what
    # keeps the *derived ratios* honest — a ratio of two medians measured in
    # disjoint time windows would be biased by whatever happened in between.
    all_samples: List[List[float]] = [[] for _ in selected]
    for _ in range(repeats):
        for index, (thunk, _metrics) in enumerate(setups):
            started = time.perf_counter()
            thunk()
            all_samples[index].append(time.perf_counter() - started)
    results: List[BenchResult] = []
    for case, (thunk, metrics), samples in zip(selected, setups, all_samples):
        median = statistics.median(samples)
        slots = metrics.get("slots")
        if slots:
            metrics["kslots_per_s"] = round(slots / median / 1e3, 2)
        frames = profile_call(thunk, top=profile_top) if profile else None
        trace_emit("bench_case", name=case.name,
                   median_s=round(median, 6),
                   kslots_per_s=metrics.get("kslots_per_s"))
        results.append(BenchResult(name=case.name,
                                   description=case.description,
                                   median_s=median,
                                   samples_s=samples,
                                   metrics=metrics,
                                   profile=frames))
    medians = {result.name: result.median_s for result in results}
    derived: Dict[str, float] = {}
    directions: Dict[str, str] = {}
    for label, numerator, denominator, direction in DERIVED_RATIOS:
        if numerator in medians and denominator in medians and medians[denominator]:
            derived[label] = round(medians[numerator] / medians[denominator], 3)
            directions[label] = direction
    return {
        "schema": SCHEMA,
        "suite": "repro-bench",
        "quick": quick,
        "repeats": repeats,
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        # Affinity-aware — the same count that caps every SweepRunner
        # pool.
        "cpus": available_cpus(),
        "benchmarks": [result.as_json() for result in results],
        "derived": derived,
        # Regression direction per derived ratio — what the compare gate
        # (repro bench --compare --fail-on-regression) keys on.
        "derived_directions": directions,
    }


def write_results(document: Mapping[str, Any], path: str) -> None:
    """Write the result document as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def render_results(document: Mapping[str, Any]) -> str:
    """Human-readable table of the suite results."""
    from repro.analysis.report import format_table

    rows = []
    for bench in document["benchmarks"]:
        metrics = bench["metrics"]
        rows.append([
            bench["name"],
            f"{bench['median_s'] * 1e3:.1f}",
            metrics.get("kslots_per_s", "-"),
            metrics.get("slots", "-"),
        ])
    mode = "quick" if document["quick"] else "full"
    table = format_table(
        ["benchmark", "median (ms)", "kslots/s", "slots"], rows,
        title=f"repro bench — {mode} suite, {document['repeats']} repeats")
    lines = [table]
    if document["derived"]:
        lines.append("")
        for label, value in document["derived"].items():
            lines.append(f"{label}: {value:.3f}x")
    if any("profile" in bench for bench in document["benchmarks"]):
        from repro.obs.profile import render_profile

        lines.append("")
        lines.append("hot frames (self-time, per benchmark):")
        for bench in document["benchmarks"]:
            if bench.get("profile"):
                lines.append(f"  {bench['name']}:")
                lines.append(render_profile(bench["profile"]))
    return "\n".join(lines)
