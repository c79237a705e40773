"""The traced run's layer boundaries and the per-layer numbers read from them.

:func:`install` wraps the public entry points of each module the workloads
pass through, :func:`after_run` adds the two checks that need the finished
run (checkpoint resume for the streamed workload, in-process replay of the
switch's port jobs), and :func:`summarize` turns the spans into the
``per_layer`` metrics named in ``BENCHMARK.json``.

Boundary -> span name:

* ``ArrivalProcess.arrivals`` / ``arrivals_slice`` -> ``traffic.plan``
* core ``run_span`` (every ``repro.sim`` class defining it) -> ``sim.span``
* core ``finish`` -> ``sim.finish``
* ``sim.kernel.run_span_kernel`` -> ``sim.kernel.span``
* ``StreamingSimulation.save_checkpoint`` / ``load_checkpoint`` ->
  ``sim.stream.checkpoint`` / ``sim.stream.restore``
* ``Scenario.build_simulation`` -> ``workloads.build``
* ``SwitchModel.build_port_jobs`` -> ``switch.build_port_jobs``, and the
  ``switch.model.run_fabric`` inside it -> ``switch.fabric``
* the fabric arbiter's ``match`` -> ``switch.match`` (a per-slot leaf)
* ``SweepRunner.run`` -> ``runner.port_stage``
"""

from __future__ import annotations

import os
import pickle
import sys
from collections import defaultdict
from typing import Any, Dict

from tracer import Tracer, subclasses
from workloads import digest, workers


def install() -> Tracer:
    from repro.runner.sweep import SweepRunner
    from repro.sim import kernel
    from repro.sim.streaming import StreamingSimulation
    from repro.switch import model
    from repro.switch.fabric import FabricArbiter
    from repro.traffic.arrivals import ArrivalProcess
    from repro.workloads.scenario import Scenario

    tracer = Tracer()

    def slots(args, _result):
        return {"slots": args["num_slots"]}

    arrivals = subclasses(ArrivalProcess)
    tracer.wrap_defining(arrivals, "arrivals", "traffic.plan", attrs=slots)
    tracer.wrap_defining(arrivals, "arrivals_slice", "traffic.plan",
                         attrs=slots)
    cores = [cls for module in list(sys.modules.values())
             if getattr(module, "__name__", "").startswith("repro.sim.")
             for cls in vars(module).values()
             if isinstance(cls, type) and cls.__module__ == module.__name__
             and "run_span" in vars(cls)]
    tracer.wrap_defining(cores, "run_span", "sim.span", attrs=slots)
    tracer.wrap_defining(cores, "finish", "sim.finish")
    tracer.wrap(kernel, "run_span_kernel", "sim.kernel.span",
                attrs=lambda a, r: {"slots": a["num_slots"]
                                    + a["drain_slots"], "ok": bool(r)})
    tracer.wrap(StreamingSimulation, "save_checkpoint",
                "sim.stream.checkpoint",
                attrs=lambda a, r: {"bytes": os.path.getsize(a["path"])})
    tracer.wrap(StreamingSimulation, "load_checkpoint", "sim.stream.restore")
    tracer.wrap(Scenario, "build_simulation", "workloads.build")
    tracer.wrap(model.SwitchModel, "build_port_jobs", "switch.build_port_jobs")
    tracer.wrap(model, "run_fabric", "switch.fabric")
    tracer.wrap_defining(subclasses(FabricArbiter), "match", "switch.match",
                         leaf=True)

    def capture(args, result):
        tracer.captured["port_stage"] = (list(args["jobs"]), result)
        return {"jobs": len(args["jobs"])}

    tracer.wrap(SweepRunner, "run", "runner.port_stage", attrs=capture)
    return tracer


def after_run(tracer: Tracer, prepared, report,
              checkpoint: str) -> Dict[str, Any]:
    """Resume the streamed run from its last snapshot, or replay the
    switch's port jobs in this process, where their timers survive."""
    kind = prepared.inputs["kind"]
    if kind == "stream":
        from repro.sim.streaming import resume_stream

        with tracer.span("resume"):
            resumed = resume_stream(checkpoint)
        return {"resume_digest": digest(resumed)}
    if kind != "switch":
        return {}
    from repro.runner.jobs import run_job

    jobs, results = tracer.captured["port_stage"]
    replayed = []
    ipc_bytes = 0
    with tracer.span("replay"):
        for job in jobs:
            with tracer.span("runner.port_job", tag=job.tag):
                replayed.append(run_job(job))
            ipc_bytes += len(pickle.dumps(job)) + len(pickle.dumps(
                replayed[-1]))
    return {"replay_matches": replayed == list(results),
            "ipc_bytes": ipc_bytes}


def _stats(tracer: Tracer, root: int, self_times: Dict[int, float]):
    """Per span or leaf name under ``root``: summed self time, and the
    count, duration and slots of the outermost calls (a ``run_span`` that
    calls its base class's ``run_span`` is one call)."""
    names = {s["id"]: s["name"] for s in tracer.spans}
    inside = {root}
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self": 0.0, "total": 0.0, "calls": 0, "slots": 0})
    for span in tracer.descendants(root):
        inside.add(span["id"])
        entry = out[span["name"]]
        entry["self"] += self_times[span["id"]]
        if names.get(span["parent"]) != span["name"]:
            entry["total"] += span["end"] - span["start"]
            entry["calls"] += 1
            entry["slots"] += span["attrs"].get("slots", 0)
    for (parent, name), (calls, seconds) in tracer.leaves.items():
        if parent in inside:
            entry = out[name]
            entry["self"] += seconds
            entry["total"] += seconds
            entry["calls"] += calls
    return out


def shares(tracer: Tracer, root: int,
           self_times: Dict[int, float]) -> Dict[str, float]:
    """Each layer's self time as a share of ``root``'s duration; the shares
    and the root's own self time add up to 1."""
    span = tracer.spans[root]
    duration = span["end"] - span["start"]
    out = {f"{span['name']} (self)": self_times[root] / duration}
    for name, entry in _stats(tracer, root, self_times).items():
        out[name] = entry["self"] / duration
    return dict(sorted(out.items(), key=lambda item: -item[1]))


def summarize(tracer: Tracer, prepared, out: Dict[str, Any]):
    """The per-layer metrics of one traced run, and its layer shares."""
    from repro.runner.sweep import available_cpus

    cpus = available_cpus()
    kind = prepared.inputs["kind"]
    selfs = tracer.self_times()
    roots = {s["name"]: s["id"] for s in tracer.spans if s["parent"] is None}
    run = _stats(tracer, roots["run"], selfs)
    # A switch's ports run in forked workers whose timers die with them, so
    # port-level layers come from the in-process replay of the same jobs.
    ports = _stats(tracer, roots["replay"], selfs) if "replay" in roots \
        else run
    build = ports if kind == "switch" else _stats(tracer, roots["setup"],
                                                  selfs)
    resume = _stats(tracer, roots["resume"], selfs) if "resume" in roots \
        else {}
    counters = out["counters"]

    def get(stats, name, key):
        return stats[name][key] if name in stats else 0

    kernel_slots = counters.get("engine.numpy.kernel_slots", 0)
    kernel_s = get(run, "sim.kernel.span", "total")
    span_slots = get(ports, "sim.span", "slots")
    span_s = get(ports, "sim.span", "self")
    checkpoints = [s["attrs"]["bytes"] for s in tracer.descendants(
        roots["run"]) if s["name"] == "sim.stream.checkpoint"]
    stage_s = get(run, "runner.port_stage", "total")
    job_s = get(ports, "runner.port_job", "total")
    n_workers = workers(prepared.inputs) if kind == "switch" else 0
    metrics = {
        "repro.import_s": out["import_s"],
        "workloads.build_s": get(build, "workloads.build", "total"),
        "sim.kernel.load_s": out.get("kernel_load_s", 0.0),
        "traffic.plan_s": get(run, "traffic.plan", "total"),
        "traffic.plan_slots": get(run, "traffic.plan", "slots"),
        "sim.kernel.span_s": kernel_s,
        "sim.kernel.spans": counters.get("engine.numpy.kernel_spans", 0),
        "sim.kernel.slots": kernel_slots,
        "sim.kernel.aborts": counters.get("engine.numpy.kernel_aborts", 0),
        "sim.kernel.ns_per_slot": (1e9 * kernel_s / kernel_slots
                                   if kernel_slots else 0.0),
        "sim.kernel.slot_share": (kernel_slots / span_slots
                                  if span_slots else 0.0),
        "sim.span_s": span_s,
        "sim.spans": get(ports, "sim.span", "calls"),
        "sim.span_slots": span_slots,
        "sim.ns_per_slot": 1e9 * span_s / span_slots if span_slots else 0.0,
        "sim.finish_s": get(ports, "sim.finish", "total"),
        "sim.stream.chunks": counters.get("stream.chunks", 0),
        "sim.stream.checkpoint_s": get(run, "sim.stream.checkpoint",
                                       "total"),
        "sim.stream.checkpoint_bytes": (sum(checkpoints) / len(checkpoints)
                                        if checkpoints else 0),
        "sim.stream.restore_s": get(resume, "sim.stream.restore", "total"),
        "switch.fabric_s": get(run, "switch.fabric", "total"),
        "switch.match_s": get(run, "switch.match", "total"),
        "switch.voq_s": get(run, "switch.fabric", "self"),
        "runner.port_stage_s": stage_s,
        "runner.port_job_s": job_s,
        "runner.parallel_efficiency": (
            job_s / (n_workers * stage_s)
            if kind == "switch" and cpus >= 2 and stage_s else 0.0),
        "runner.ipc_bytes": out.get("ipc_bytes", 0),
        "runner.cpus": cpus,
        "runner.workers": n_workers,
    }
    layer_shares = {"run": shares(tracer, roots["run"], selfs)}
    if "replay" in roots:
        layer_shares["replay"] = shares(tracer, roots["replay"], selfs)
    return {"metrics": metrics, "shares": layer_shares}
