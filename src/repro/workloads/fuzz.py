"""Seeded generative spec fuzzer for the differential harness.

The hand-curated differential suite (``tests/sim/test_differential.py``)
draws ~50 random single-port configs from one frozen seed.  This module is
the *generative* extension of that net: :func:`sample_scenario` and
:func:`sample_switch_scenario` draw structurally valid but adversarial specs
— heavy-tailed WAN/datacenter mixes, lossy bounded-DRAM configs, custom-MMA
paths, 64–256-port incast/permutation switches — and :func:`run_case` runs
every sampled spec through both engines (the ``reference`` oracle and
``array``, whose every slot the compiled span kernel runs), monolithic
*and* streamed, with random chunk/warmup/checkpoint boundaries, asserting
bit-identical reports, traces included.  Only a spec with a custom policy
(a user subclass) sends its ``array`` legs to the reference engine, which
``--metrics`` counts as ``engine.array.fallback.policy``.

Everything is a pure function of ``(master_seed, index)``: a diverging case
is dumped as a replayable JSON artifact carrying exactly those coordinates
plus its spec, and ``python -m repro fuzz --replay <artifact>`` re-runs the
identical legs.  An engine *error* is part of the compared behaviour — all
legs must either produce the same report or raise the same error; a config
that crashes one engine and not another is a divergence, not a crash.

This is the check every perf backend merges against: first make the
fuzzer pass, then optimise.  The compiled span kernel earned its place in
the ``array`` engine exactly this way.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ReproError, SpecError
from repro.obs.metrics import get_metrics
from repro.obs.trace import emit as trace_emit
from repro.sim.array_engine import ENGINES
from repro.switch.scenario import SwitchScenario
from repro.workloads.scenario import Scenario

#: Default master seed — frozen so CI and a local repro draw the same cases.
DEFAULT_MASTER_SEED = 20260807

#: Per-case seed spread (a large prime, mirroring the streaming tests).
_CASE_STRIDE = 1_000_003

#: Every third case is a switch (index 2, 5, 8, ...): a deterministic ≥33%
#: switch fraction rather than a probabilistic one, so the coverage floor
#: ("≥30% of samples exercise ≥64-port switches") holds for every budget.
SWITCH_EVERY = 3


def case_rng(master_seed: int, index: int) -> random.Random:
    """The RNG that fully determines case ``index`` (spec *and* run geometry)."""
    return random.Random(master_seed * _CASE_STRIDE + index)


# --------------------------------------------------------------------- #
# Samplers
# --------------------------------------------------------------------- #

def _sample_arrivals(rng: random.Random, num_queues: int) -> Dict[str, Any]:
    kind = rng.choice(["bernoulli", "bursty", "hotspot", "markov_on_off",
                       "pareto", "pareto", "round_robin", "zipf", "zipf",
                       "deterministic"])
    if kind == "bernoulli":
        params: Dict[str, Any] = {"num_queues": num_queues,
                                  "load": rng.choice([0.4, 0.7, 0.95, 1.0])}
    elif kind == "bursty":
        params = {"num_queues": num_queues,
                  "mean_burst_cells": rng.choice([2.0, 16.0, 48.0]),
                  "load": rng.choice([0.6, 0.9, 1.0])}
    elif kind == "hotspot":
        hot = rng.sample(range(num_queues), k=max(1, num_queues // 8))
        params = {"num_queues": num_queues, "hot_queues": sorted(hot),
                  "hot_fraction": rng.choice([0.7, 0.95]),
                  "load": rng.choice([0.6, 0.95])}
    elif kind == "markov_on_off":
        # Long off-periods against short saturated on-periods: the bursty
        # long-range-dependent shape of WAN traces.
        params = {"num_queues": num_queues,
                  "mean_on_slots": rng.choice([4.0, 12.0, 80.0]),
                  "mean_off_slots": rng.choice([8.0, 100.0, 300.0]),
                  "peak_rate": rng.choice([0.8, 1.0])}
    elif kind == "pareto":
        # Heavy tails down to alpha ~1.1 (barely-finite mean): the worst of
        # the self-similar WAN models the paper's buffers must absorb.
        params = {"num_queues": num_queues,
                  "alpha": rng.choice([1.1, 1.3, 1.9]),
                  "min_burst_cells": rng.choice([1, 4, 8]),
                  "load": rng.choice([0.5, 0.8, 0.95])}
    elif kind == "round_robin":
        params = {"num_queues": num_queues, "load": rng.choice([0.8, 1.0])}
    elif kind == "zipf":
        params = {"num_queues": num_queues,
                  "exponent": rng.choice([0.9, 1.4, 2.5]),
                  "load": rng.choice([0.7, 1.0])}
    else:  # deterministic: a canned random pattern, cycled
        length = rng.randint(30, 120)
        pattern = [rng.randrange(num_queues) if rng.random() < 0.75 else None
                   for _ in range(length)]
        if all(p is None for p in pattern):
            pattern[0] = 0
        params = {"pattern": pattern}
    return {"type": kind, "params": params}


def _sample_arbiter(rng: random.Random,
                    num_queues: int) -> Optional[Dict[str, Any]]:
    kind = rng.choice(["longest_queue", "oldest_cell", "random",
                       "round_robin_adversary", "strided_adversary",
                       "intermittent", None])
    if kind is None:
        return None
    if kind == "random":
        params: Dict[str, Any] = {"num_queues": num_queues,
                                  "load": rng.choice([0.6, 0.9, 1.0])}
    elif kind == "strided_adversary":
        params = {"num_queues": num_queues,
                  "stride": rng.randint(1, num_queues),
                  "burst": rng.randint(1, 4)}
    elif kind == "intermittent":
        params = {"inner": {"type": rng.choice(["oldest_cell",
                                                "longest_queue"]),
                            "params": {"num_queues": num_queues}},
                  "on_slots": rng.randint(1, 40),
                  "off_slots": rng.randint(0, 25)}
    else:
        params = {"num_queues": num_queues}
    return {"type": kind, "params": params}


def _sample_buffer(rng: random.Random, scheme: str,
                   num_queues: int) -> Dict[str, Any]:
    if scheme == "rads":
        buffer: Dict[str, Any] = {"num_queues": num_queues,
                                  "granularity": rng.choice([1, 2, 3, 4, 6])}
        if rng.random() < 0.25:
            # Lossy mode: bounded DRAM with strictness off — drops are legal
            # and every engine must agree on each dropped cell.
            buffer["strict"] = False
            buffer["dram_cells"] = rng.choice([16, 64, 256])
    else:
        b = rng.choice([1, 2, 4])
        big_b = b * rng.choice([2, 4])
        buffer = {"num_queues": num_queues,
                  "dram_access_slots": big_b,
                  "granularity": b,
                  "num_banks": (big_b // b) * rng.choice([2, 4, 8])}
    return buffer


def _sample_head_mma(rng: random.Random) -> Optional[Dict[str, Any]]:
    roll = rng.random()
    if roll < 0.60:
        return None  # the buffer's stock policy, ECQF with its fallback
    if roll < 0.80:
        # Explicit MDQF: the span kernel's deficit scan against the
        # reference's MDQF object.
        return {"type": "mdqf", "params": {}}
    # Explicit ECQF; half the time without the most-deficit fallback.
    return {"type": "ecqf",
            "params": {"fallback_to_most_deficit": rng.random() < 0.5}}


def sample_scenario(rng: random.Random, index: int = 0) -> Dict[str, Any]:
    """Draw one structurally valid single-port scenario spec (canonical
    JSON form)."""
    scheme = rng.choice(["rads", "cfds"])
    num_queues = rng.choice([1, 2, 4, 8, 8, 16, 32, 64])
    scenario = Scenario(
        name=f"fuzz-{index}",
        description="generative fuzzer case",
        scheme=scheme,
        buffer=_sample_buffer(rng, scheme, num_queues),
        arrivals=(_sample_arrivals(rng, num_queues)
                  if rng.random() > 0.04 else None),
        arbiter=_sample_arbiter(rng, num_queues),
        num_slots=rng.randint(150, 600),
        seed=rng.randrange(2 ** 16),
        head_mma=_sample_head_mma(rng),
    )
    return scenario.to_spec()


def _sample_ingress_traffic(rng: random.Random,
                            num_ports: int) -> Dict[str, Any]:
    kind = rng.choice(["incast", "incast", "permutation", "bernoulli",
                       "bursty", "zipf", "hotspot", "markov_on_off"])
    if kind == "incast":
        # Synchronised fan-in at one victim egress: N cells per slot aimed
        # at a port that can accept one — the worst case the crossbar admits.
        period = rng.choice([32, 64, 128])
        params: Dict[str, Any] = {
            "victim": rng.randrange(num_ports),
            "period": period,
            "burst": rng.randint(2, max(2, period // 4)),
            "load": rng.choice([0.2, 0.4, 0.6]),
        }
    elif kind == "permutation":
        params = {"shift": rng.randrange(1, num_ports),
                  "load": rng.choice([0.7, 0.9, 1.0])}
    elif kind == "bernoulli":
        params = {"load": rng.choice([0.5, 0.8, 0.95])}
    elif kind == "bursty":
        params = {"mean_burst_cells": rng.choice([4.0, 16.0]),
                  "load": rng.choice([0.5, 0.8])}
    elif kind == "zipf":
        params = {"exponent": rng.choice([1.0, 1.8]),
                  "load": rng.choice([0.6, 0.9])}
    elif kind == "hotspot":
        hot = rng.sample(range(num_ports), k=max(1, num_ports // 16))
        params = {"hot_queues": sorted(hot),
                  "hot_fraction": rng.choice([0.7, 0.9]),
                  "load": rng.choice([0.5, 0.8])}
    else:  # markov_on_off
        params = {"mean_on_slots": rng.choice([6.0, 40.0]),
                  "mean_off_slots": rng.choice([20.0, 120.0]),
                  "peak_rate": 1.0}
    # num_queues / ingress / per-ingress seeds are injected by the switch
    # layer (the destination space is the port count), so the sampled spec
    # stays valid under --ports overrides.
    return {"type": kind, "params": params}


def _sample_port_template(rng: random.Random) -> Dict[str, Any]:
    scheme = rng.choice(["rads", "rads", "cfds"])
    if scheme == "rads":
        buffer: Dict[str, Any] = {"granularity": rng.choice([1, 2, 4])}
        if rng.random() < 0.2:
            buffer["strict"] = False
            buffer["dram_cells"] = rng.choice([256, 1024])
    else:
        b = rng.choice([1, 2])
        big_b = b * 2
        buffer = {"dram_access_slots": big_b, "granularity": b,
                  "num_banks": (big_b // b) * rng.choice([2, 4])}
    arbiter_kind = rng.choice(["oldest_cell", "longest_queue", "random",
                               "round_robin_adversary", None])
    arbiter = (None if arbiter_kind is None
               else {"type": arbiter_kind,
                     "params": ({"load": 0.9} if arbiter_kind == "random"
                                else {})})
    return {"scheme": scheme, "buffer": buffer, "arbiter": arbiter,
            "head_mma": _sample_head_mma(rng)}


def sample_switch_scenario(rng: random.Random, index: int = 0) -> Dict[str, Any]:
    """Draw one valid multi-port switch spec, always ≥ 64 ports.

    Slot budgets shrink as ports grow so a 256-port draw stays affordable —
    the per-slot fabric work is O(ports²) across engines.
    """
    num_ports = rng.choices([64, 96, 128, 256],
                            weights=[0.60, 0.20, 0.15, 0.05])[0]
    slot_range = {64: (120, 240), 96: (100, 170),
                  128: (80, 140), 256: (50, 90)}[num_ports]
    templates = [_sample_port_template(rng)
                 for _ in range(rng.choice([1, 1, 2]))]
    num_slots = rng.randint(*slot_range)
    if any(t["scheme"] == "cfds" for t in templates):
        # CFDS ports cost ~3x RADS per slot on the reference engine; halve
        # the horizon so heavy draws stay inside the per-case budget.
        num_slots = max(50, num_slots // 2)
    scenario = SwitchScenario(
        name=f"fuzz-switch-{index}",
        description="generative fuzzer case",
        num_ports=num_ports,
        traffic=_sample_ingress_traffic(rng, num_ports),
        fabric={"type": rng.choice(["islip", "random", "priority"]),
                "params": {}},
        ports=tuple(templates),
        num_slots=num_slots,
        seed=rng.randrange(2 ** 16),
    )
    return scenario.to_spec()


# --------------------------------------------------------------------- #
# Cases and execution
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FuzzCase:
    """One sampled spec plus the coordinates that regenerate it exactly."""

    master_seed: int
    index: int
    kind: str  # "scenario" | "switch"
    spec: Mapping[str, Any]

    def repro_command(self, stream: bool = False,
                      artifact: Optional[str] = None,
                      faults: bool = False) -> str:
        """The CLI line that re-runs exactly this case."""
        if artifact is not None:
            base = f"python -m repro fuzz --replay {artifact}"
        else:
            base = (f"python -m repro fuzz --seeds {self.index + 1} "
                    f"--master-seed {self.master_seed}")
        return (base + (" --stream" if stream else "")
                + (" --faults" if faults else ""))

    def to_json(self) -> Dict[str, Any]:
        return {"format": "repro-fuzz-case", "version": 1,
                "master_seed": self.master_seed, "index": self.index,
                "kind": self.kind,
                "spec": json.loads(json.dumps(dict(self.spec)))}

    @classmethod
    def from_json(cls, document: Mapping[str, Any]) -> "FuzzCase":
        if (not isinstance(document, Mapping)
                or document.get("format") != "repro-fuzz-case"):
            raise SpecError("not a repro fuzz-case artifact (missing "
                            "format: repro-fuzz-case)")
        try:
            return cls(master_seed=document["master_seed"],
                       index=document["index"], kind=document["kind"],
                       spec=document["spec"])
        except KeyError as exc:
            raise SpecError(f"fuzz-case artifact is missing key {exc}")


@dataclass(frozen=True)
class Divergence:
    """One leg that disagreed with its baseline."""

    leg: str
    field: str
    detail: str

    def to_json(self) -> Dict[str, str]:
        return {"leg": self.leg, "field": self.field, "detail": self.detail}


def make_case(master_seed: int, index: int) -> FuzzCase:
    """Case ``index`` of the run seeded with ``master_seed`` (pure function)."""
    rng = case_rng(master_seed, index)
    if index % SWITCH_EVERY == SWITCH_EVERY - 1:
        return FuzzCase(master_seed, index, "switch",
                        sample_switch_scenario(rng, index))
    return FuzzCase(master_seed, index, "scenario",
                    sample_scenario(rng, index))


def _outcome(fn: Callable[[], Any]) -> Tuple[str, Any]:
    """Run one leg: ``("ok", report)`` or ``("error", "Type: message")``.

    An agreed-upon error (same type, same message on every leg) is valid
    behaviour; only *disagreement* is a divergence.
    """
    try:
        return ("ok", fn())
    except ReproError as exc:
        return ("error", f"{type(exc).__name__}: {exc}")


def _clip(value: Any, limit: int = 300) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _compare_reports(leg: str, outcome: Tuple[str, Any],
                     baseline: Tuple[str, Any],
                     include_trace: bool) -> List[Divergence]:
    if outcome[0] != baseline[0]:
        return [Divergence(leg, "outcome",
                           f"baseline {baseline[0]} ({_clip(baseline[1])}) "
                           f"vs {outcome[0]} ({_clip(outcome[1])})")]
    if outcome[0] == "error":
        if outcome[1] != baseline[1]:
            return [Divergence(leg, "error",
                               f"{baseline[1]!r} vs {outcome[1]!r}")]
        return []
    report, reference = outcome[1], baseline[1]
    out: List[Divergence] = []
    fields = [("throughput", lambda r: r.throughput),
              ("latency", lambda r: r.latency),
              ("buffer_result", lambda r: r.buffer_result)]
    if include_trace:
        fields.append(("trace", lambda r: None if r.trace is None
                       else r.trace.events))
    for name, view in fields:
        if view(report) != view(reference):
            out.append(Divergence(leg, name,
                                  f"{_clip(view(reference))} vs "
                                  f"{_clip(view(report))}"))
    return out


def _compare_switch(leg: str, outcome: Tuple[str, Any],
                    baseline: Tuple[str, Any]) -> List[Divergence]:
    if outcome[0] != baseline[0]:
        return [Divergence(leg, "outcome",
                           f"baseline {baseline[0]} ({_clip(baseline[1])}) "
                           f"vs {outcome[0]} ({_clip(outcome[1])})")]
    if outcome[0] == "error":
        if outcome[1] != baseline[1]:
            return [Divergence(leg, "error",
                               f"{baseline[1]!r} vs {outcome[1]!r}")]
        return []
    report, reference = outcome[1], baseline[1]
    out: List[Divergence] = []
    if report.fabric != reference.fabric:
        out.append(Divergence(leg, "fabric",
                              f"{_clip(reference.fabric)} vs "
                              f"{_clip(report.fabric)}"))
    for port, (got, want) in enumerate(zip(report.ports, reference.ports)):
        if got != want:
            out.append(Divergence(leg, f"port[{port}]",
                                  f"{_clip(want)} vs {_clip(got)}"))
            break  # one diverging port identifies the case; keep it short
    return out


def _run_scenario_case(case: FuzzCase, stream: bool,
                       rng: random.Random) -> List[Divergence]:
    from repro.sim.streaming import StreamingSimulation, resume_stream

    scenario = Scenario.from_spec(case.spec)
    drain = bool(rng.getrandbits(1))
    divergences: List[Divergence] = []

    # Leg 1 — monolithic, all engines, full report incl. trace.
    outcomes = {}
    for engine in ENGINES:
        outcomes[engine] = _outcome(
            lambda engine=engine: scenario.build_simulation(record_trace=True)
            .run(scenario.num_slots, drain=drain, engine=engine))
    baseline = outcomes["reference"]
    for engine in ENGINES[1:]:
        divergences += _compare_reports(f"monolithic-{engine}",
                                        outcomes[engine], baseline,
                                        include_trace=True)
    # Leg 1b — the array engine untraced: the kernel returns no trace rows,
    # its other output must not change.
    divergences += _compare_reports(
        "monolithic-array-untraced",
        _outcome(lambda: scenario.build_simulation().run(
            scenario.num_slots, drain=drain, engine="array")),
        baseline, include_trace=False)

    # Leg 2 — streamed with random chunk boundaries, every engine, vs the
    # monolithic reference (warmup 0 ⇒ bit-identical, trace included).
    for engine in ENGINES:
        chunk = rng.randint(1, scenario.num_slots + 17)
        outcome = _outcome(
            lambda engine=engine, chunk=chunk: StreamingSimulation(
                scenario.build_simulation(record_trace=True),
                scenario.num_slots, engine=engine, drain=drain,
                chunk_slots=chunk).run())
        divergences += _compare_reports(f"stream-{engine}-chunk{chunk}",
                                        outcome, baseline,
                                        include_trace=True)

    if not stream:
        return divergences

    # Leg 3 (--stream) — a random warmup offset must yield one well-defined
    # report across engines and chunkings (trace no longer comparable to
    # the monolithic run, so engines are compared to each other).
    warmup = rng.randint(0, scenario.num_slots)
    warm_baseline = None
    for engine in ENGINES:
        chunk = rng.randint(1, scenario.num_slots + 17)
        outcome = _outcome(
            lambda engine=engine, chunk=chunk: StreamingSimulation(
                scenario.build_simulation(), scenario.num_slots,
                engine=engine, drain=drain, chunk_slots=chunk,
                warmup_slots=warmup).run())
        if warm_baseline is None:
            warm_baseline = outcome
            continue
        divergences += _compare_reports(
            f"warmup{warmup}-{engine}-chunk{chunk}", outcome, warm_baseline,
            include_trace=False)

    # Leg 4 (--stream) — checkpoint at a random mid-run slot, resume from
    # disk, on one engine: must equal the uninterrupted streamed run.
    import tempfile

    engine = rng.choice(ENGINES)
    chunk = rng.randint(1, scenario.num_slots)
    stop = rng.randint(0, scenario.num_slots)

    def checkpointed() -> Any:
        session = StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            drain=drain, chunk_slots=chunk)
        session.advance_to(stop)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.ckpt.json")
            session.save_checkpoint(path)
            return resume_stream(path)

    uninterrupted = _outcome(
        lambda: StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            drain=drain, chunk_slots=chunk).run())
    resumed = _outcome(checkpointed)
    divergences += _compare_reports(
        f"resume-{engine}-chunk{chunk}-at{stop}", resumed, uninterrupted,
        include_trace=False)
    return divergences


def _fault_plan(case: FuzzCase) -> Any:
    """The eventually-completing fault schedule for one case.

    Only transient kinds (worker kills, retryable errors, delays, file
    corruption) are rated, and the runner legs grant more retries than
    ``max_faulted_attempts`` — so by construction every job completes, and
    the chaos invariant (completed ⇒ bit-identical) is checkable on every
    case.  Each case hashes to its own schedule: 25 CLI seeds are 25
    distinct fault schedules.
    """
    from repro.faults import FaultPlan

    return FaultPlan(
        master_seed=case.master_seed * _CASE_STRIDE + case.index,
        rates={"worker_kill": 0.2, "transient": 0.3, "delay": 0.2,
               "corrupt": 0.4},
        delay_s=0.001)


def _compare_values(leg: str, got: Any, want: Any) -> List[Divergence]:
    """Strict equality compare for the chaos legs (results are frozen
    dataclasses, so ``==`` is the bit-identity check).

    A clean run that raised is a ``JobFailure`` of kind ``error``, and that
    is its outcome: the faulted run must raise the same error (its attempt
    count may differ, since transient faults add retries)."""
    from repro.runner.sweep import JobFailure

    if isinstance(want, JobFailure):
        if (isinstance(got, JobFailure)
                and (got.kind, got.error) == (want.kind, want.error)):
            return []
        outcome = got.brief() if isinstance(got, JobFailure) else _clip(got)
        return [Divergence(leg, "outcome", f"{want.brief()} vs {outcome}")]
    if isinstance(got, JobFailure):
        return [Divergence(leg, "job_failure", got.brief())]
    if got != want:
        return [Divergence(leg, "result",
                           f"{_clip(want)} vs {_clip(got)}")]
    return []


def _run_fault_legs(case: FuzzCase, stream: bool,
                    rng: random.Random) -> List[Divergence]:
    """The ``--faults`` chaos legs: the case re-run under its seeded fault
    schedule must produce reports bit-identical to the fault-free run, or,
    where the fault-free run raised, the same error.

    Three legs: (a) a supervised sweep under injected worker kills and
    transient errors, with cache writes the plan may corrupt; (b) the same
    sweep again against that cache, so corrupted entries must quarantine and
    recompute rather than serve garbage; (c) for scenario cases, a
    checkpoint/resume whose snapshot the plan may tear — detected corruption
    must fall back to a clean recompute.
    """
    import tempfile

    from repro.errors import CheckpointError
    from repro.faults import FaultInjector, using_faults
    from repro.runner.cache import ResultCache
    from repro.runner.jobs import Job
    from repro.runner.sweep import SweepRunner

    divergences: List[Divergence] = []
    plan = _fault_plan(case)

    if case.kind == "switch":
        # The port stage inside run_switch_spec is the expensive part; one
        # rng-chosen engine keeps the chaos legs within the leg-1 budget.
        engines = (rng.choice(ENGINES),)
        func = "repro.switch.model:run_switch_spec"
    else:
        engines = ENGINES
        func = "repro.workloads.scenario:run_scenario_spec"
    spec = json.loads(json.dumps(dict(case.spec)))
    jobs = [Job(func=func, kwargs={"spec": spec, "engine": engine},
                tag=f"faults-{engine}")
            for engine in engines]

    clean = SweepRunner(jobs=1, strict=False).run(jobs)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(root=os.path.join(tmp, "cache"))
        # retries > max_faulted_attempts ⇒ guaranteed completion; jobs=2
        # with a timeout forces a real worker fleet even on one CPU, so
        # worker_kill faults exercise genuine dead-worker recovery.
        with using_faults(FaultInjector(plan)):
            faulted = SweepRunner(jobs=2, cache=cache, strict=False,
                                  retries=4, backoff_s=0.002,
                                  timeout=300).run(jobs)
            reread = SweepRunner(jobs=1, cache=cache, strict=False,
                                 retries=4, backoff_s=0.002).run(jobs)
    for engine, got, want in zip(engines, faulted, clean):
        divergences += _compare_values(f"faults-sweep-{engine}", got, want)
    for engine, got, want in zip(engines, reread, clean):
        divergences += _compare_values(f"faults-cache-{engine}", got, want)

    if case.kind != "scenario":
        return divergences

    # Leg (c): checkpoint at a random slot, then resume under the fault
    # plan.  resume_stream may find the snapshot torn (the save and resume
    # sites both corrupt): a detected CheckpointError falls back to a fresh
    # run — exactly what run_scenario_spec does — and either path must end
    # bit-identical to the uninterrupted streamed run.
    from repro.sim.streaming import StreamingSimulation, resume_stream

    scenario = Scenario.from_spec(case.spec)
    engine = rng.choice(ENGINES)
    chunk = rng.randint(1, scenario.num_slots + 1)
    stop = rng.randint(0, scenario.num_slots)

    def fresh() -> Any:
        return StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            chunk_slots=chunk).run()

    def resumed_under_faults() -> Any:
        session = StreamingSimulation(
            scenario.build_simulation(), scenario.num_slots, engine=engine,
            chunk_slots=chunk)
        session.advance_to(stop)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "chaos.ckpt.json")
            with using_faults(FaultInjector(plan)):
                session.save_checkpoint(path)
                try:
                    return resume_stream(path)
                except CheckpointError:
                    return fresh()

    baseline = _outcome(fresh)
    outcome = _outcome(resumed_under_faults)
    divergences += _compare_reports(
        f"faults-resume-{engine}-chunk{chunk}-at{stop}", outcome, baseline,
        include_trace=False)
    return divergences


def _run_switch_case(case: FuzzCase, stream: bool,
                     rng: random.Random) -> List[Divergence]:
    from repro.switch.model import SwitchModel
    from repro.switch.oracle import run_port_oracle

    scenario = SwitchScenario.from_spec(case.spec)
    divergences: List[Divergence] = []

    outcomes = {}
    for engine in ENGINES:
        outcomes[engine] = _outcome(
            lambda engine=engine: SwitchModel(scenario).run(engine=engine))
    baseline = outcomes["reference"]
    for engine in ENGINES[1:]:
        divergences += _compare_switch(f"run-{engine}", outcomes[engine],
                                       baseline)

    # The per-port trace oracle (the whole fabric traces, each port its own
    # trace scenario: a second path to the same report) and a drawn fabric
    # window: one rng-chosen engine by default (the expensive legs at 64+
    # ports), both under --stream.
    stream_engines = ENGINES if stream else (rng.choice(ENGINES),)
    for engine in stream_engines:
        oracle = _outcome(
            lambda engine=engine: run_port_oracle(scenario, engine))
        divergences += _compare_switch(f"oracle-{engine}", oracle, baseline)
        chunk = rng.choice([None, rng.randint(1, scenario.num_slots + 7)])
        outcome = _outcome(
            lambda engine=engine, chunk=chunk: SwitchModel(scenario).run(
                engine=engine, chunk_slots=chunk))
        divergences += _compare_switch(f"stream-{engine}-chunk{chunk}",
                                       outcome, baseline)
    return divergences


def run_case(case: FuzzCase, stream: bool = False,
             faults: bool = False) -> List[Divergence]:
    """Run every differential leg of one case; empty list = all agreed.

    ``faults=True`` appends the chaos legs (:func:`_run_fault_legs`) after
    the ordinary differential legs — appended, not interleaved, so the
    geometry RNG reaching the ordinary legs is untouched by the flag.
    """
    # The geometry RNG is offset from the sampler's stream so replaying a
    # case from its artifact (spec already drawn) uses identical leg
    # geometry without re-sampling the spec.
    rng = case_rng(case.master_seed, case.index)
    rng = random.Random(rng.randrange(2 ** 60) ^ 0x5EED)
    if case.kind == "switch":
        divergences = _run_switch_case(case, stream, rng)
    else:
        divergences = _run_scenario_case(case, stream, rng)
    if faults:
        divergences += _run_fault_legs(case, stream, rng)
    return divergences


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #

@dataclass
class FuzzSummary:
    """What a fuzz run did, for rendering and exit-code decisions."""

    cases: int = 0
    switch_cases: int = 0
    failures: List[Tuple[FuzzCase, List[Divergence]]] = field(
        default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def dump_artifact(case: FuzzCase, divergences: List[Divergence],
                  artifact_dir: str, stream: bool,
                  faults: bool = False) -> str:
    """Write one replayable JSON artifact; returns its path."""
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(
        artifact_dir,
        f"fuzz-{case.master_seed}-{case.index:04d}.json")
    document = case.to_json()
    document["stream"] = stream
    document["faults"] = faults
    document["divergences"] = [d.to_json() for d in divergences]
    document["repro"] = case.repro_command(stream=stream, artifact=path,
                                           faults=faults)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_artifact(path: str) -> FuzzCase:
    """Reload a dumped divergence artifact as a runnable case."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read fuzz artifact {path!r}: {exc}")
    except ValueError as exc:
        raise SpecError(f"fuzz artifact {path!r} is not valid JSON: {exc}")
    return FuzzCase.from_json(document)


def fuzz_many(seeds: int,
              master_seed: int = DEFAULT_MASTER_SEED,
              stream: bool = False,
              faults: bool = False,
              artifact_dir: Optional[str] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> FuzzSummary:
    """Run cases ``0..seeds-1``; dump every diverging spec as an artifact."""
    summary = FuzzSummary()
    trace_emit("fuzz_start", seeds=seeds, master_seed=master_seed,
               stream=stream, faults=faults)
    for index in range(seeds):
        case = make_case(master_seed, index)
        summary.cases += 1
        if case.kind == "switch":
            summary.switch_cases += 1
        divergences = run_case(case, stream=stream, faults=faults)
        obs = get_metrics()
        if obs is not None:
            obs.inc("fuzz.cases")
            if case.kind == "switch":
                obs.inc("fuzz.switch_cases")
        trace_emit("fuzz_case", index=index, kind=case.kind,
                   name=case.spec["name"],
                   divergences=len(divergences))
        if divergences:
            if obs is not None:
                obs.inc("fuzz.divergent_cases")
            for div in divergences:
                trace_emit("fuzz_divergence", index=index, leg=div.leg,
                           field=div.field)
            summary.failures.append((case, divergences))
            if artifact_dir is not None:
                summary.artifacts.append(
                    dump_artifact(case, divergences, artifact_dir, stream,
                                  faults=faults))
        if progress is not None:
            ports = (f" ports={case.spec['num_ports']}"
                     if case.kind == "switch" else "")
            status = "DIVERGED" if divergences else "ok"
            progress(f"[{index + 1}/{seeds}] {case.kind}{ports} "
                     f"{case.spec['name']}: {status}")
    trace_emit("fuzz_end", cases=summary.cases,
               switch_cases=summary.switch_cases,
               divergent=len(summary.failures))
    return summary


def render_summary(summary: FuzzSummary, stream: bool = False,
                   faults: bool = False) -> str:
    """Human-readable closing report for the CLI."""
    legs_note = (", streamed legs on" if stream else "") + \
                (", chaos legs on" if faults else "")
    lines = [f"fuzz: {summary.cases} cases "
             f"({summary.switch_cases} switch, "
             f"{summary.cases - summary.switch_cases} scenario), "
             f"{len(summary.failures)} divergent" + legs_note]
    for case, divergences in summary.failures:
        lines.append(f"  case {case.index} ({case.kind} "
                     f"{case.spec['name']}): "
                     f"{len(divergences)} diverging leg(s)")
        for div in divergences[:3]:
            lines.append(f"    {div.leg}: {div.field} differs")
        command = case.repro_command(stream=stream, faults=faults)
        lines.append(f"    repro: {command}")
    for path in summary.artifacts:
        lines.append(f"  artifact: {path}")
    return "\n".join(lines)


__all__ = [
    "DEFAULT_MASTER_SEED",
    "ENGINES",
    "Divergence",
    "FuzzCase",
    "FuzzSummary",
    "case_rng",
    "dump_artifact",
    "fuzz_many",
    "load_artifact",
    "make_case",
    "render_summary",
    "run_case",
    "sample_scenario",
    "sample_switch_scenario",
]
