"""YAML front end for scenario / switch sweeps.

A sweep document describes many runs as one base spec plus a parameter grid::

    kind: scenario              # or: switch
    name: load-sweep            # base name for the expanded jobs
    spec:                       # exactly the Scenario.to_spec() JSON form
      scheme: rads
      buffer: {num_queues: 8, granularity: 4}
      arrivals: {type: bernoulli, params: {num_queues: 8, load: 0.9}}
      arbiter: {type: oldest_cell, params: {num_queues: 8}}
      num_slots: 20000
    grid:                       # dotted spec paths -> value lists
      seed: [0, 1, 2]
      arrivals.params.load: [0.5, 0.8, 0.95]
      run.engine: [reference, array]
    run:                        # execution options shared by every job
      stream: false

The grid is expanded as a full cartesian product in key order; each point
deep-copies the base spec, applies its overrides (``run.*`` keys override the
``run`` block instead of the spec) and is *canonicalised* through the
existing dataclass round-trip — ``Scenario.from_spec(...).to_spec()`` — so
every compiled spec is, by construction, bit-identical under
spec → JSON → spec.  Validation is eager: every component of every expanded
point is actually built once at compile time, and any failure is reported as
a :class:`~repro.errors.SpecError` naming the document path
(``grid['arrivals.params.load'][2]``, ``spec.buffer``, ...) rather than the
Python that tripped over it.

Compiled points become :class:`~repro.runner.jobs.Job` objects for the
existing :class:`~repro.runner.sweep.SweepRunner`, which is what
``python -m repro scenario --from-spec sweep.yaml`` executes.

PyYAML is an optional dependency: everything here except the two
``*_yaml`` I/O helpers works on plain dicts, and the helpers raise a clean
:class:`SpecError` when the package is missing.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

try:  # pragma: no cover - exercised only where PyYAML is absent
    import yaml as _yaml
except ImportError:  # pragma: no cover
    _yaml = None

from repro.errors import ReproError, SpecError
from repro.obs.metrics import get_metrics
from repro.obs.trace import emit as trace_emit
from repro.runner.jobs import Job
from repro.switch.scenario import SwitchScenario
from repro.workloads.scenario import Scenario

#: Job functions the two document kinds compile to.
SCENARIO_JOB_FUNC = "repro.workloads.scenario:run_scenario_spec"
SWITCH_JOB_FUNC = "repro.switch.model:run_switch_spec"

#: Document kinds and the run-block options each accepts.
RUN_KEYS: Dict[str, Tuple[str, ...]] = {
    "scenario": ("engine", "stream", "chunk_slots", "warmup_slots"),
    "switch": ("engine",),
}

#: Top-level keys a document may carry.
DOCUMENT_KEYS = ("kind", "name", "spec", "grid", "run")


def _require_yaml() -> Any:
    if _yaml is None:
        raise SpecError(
            "YAML sweep specs need the optional 'pyyaml' package; install "
            "it, or compile from a JSON document instead")
    return _yaml


# --------------------------------------------------------------------- #
# Document model
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SpecDocument:
    """One parsed (but not yet expanded) sweep document."""

    kind: str
    name: str
    spec: Mapping[str, Any]
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    run: Mapping[str, Any] = field(default_factory=dict)

    def to_mapping(self) -> Dict[str, Any]:
        """The plain-dict form (what the YAML file holds)."""
        out: Dict[str, Any] = {"kind": self.kind, "name": self.name,
                               "spec": json.loads(json.dumps(self.spec))}
        if self.grid:
            out["grid"] = {axis: list(values)
                           for axis, values in self.grid.items()}
        if self.run:
            out["run"] = dict(self.run)
        return out


@dataclass(frozen=True)
class CompiledPoint:
    """One expanded grid point: a canonical spec plus its run options."""

    name: str
    kind: str
    spec: Mapping[str, Any]
    run: Mapping[str, Any]
    axes: Mapping[str, Any]

    def job(self) -> Job:
        """The :class:`~repro.runner.jobs.Job` that executes this point."""
        kwargs: Dict[str, Any] = {"spec": json.loads(json.dumps(self.spec))}
        run = dict(self.run)
        if self.kind == "scenario":
            if run.get("engine") is not None:
                kwargs["engine"] = run["engine"]
            if run.get("stream"):
                kwargs["stream"] = True
                if run.get("chunk_slots") is not None:
                    kwargs["chunk_slots"] = run["chunk_slots"]
                if run.get("warmup_slots"):
                    kwargs["warmup_slots"] = run["warmup_slots"]
            func = SCENARIO_JOB_FUNC
        else:
            if run.get("engine") is not None:
                kwargs["engine"] = run["engine"]
            func = SWITCH_JOB_FUNC
        tag = ", ".join(f"{axis}={value!r}"
                        for axis, value in self.axes.items())
        return Job(func=func, kwargs=kwargs, tag=tag)

    def describe(self) -> str:
        """One ``--dry-run`` line for this point."""
        axes = (f" [{', '.join(f'{a}={v!r}' for a, v in self.axes.items())}]"
                if self.axes else "")
        return f"{self.kind} {self.name}{axes}"


# --------------------------------------------------------------------- #
# Parsing
# --------------------------------------------------------------------- #

def parse_document(document: Any, source: str = "<spec>") -> SpecDocument:
    """Validate the raw (YAML/JSON-loaded) mapping into a :class:`SpecDocument`.

    Every structural problem raises :class:`SpecError` naming the document
    path and the offending key, so the message points at the YAML line to
    fix.
    """
    if not isinstance(document, Mapping):
        raise SpecError(f"{source}: document must be a mapping, "
                        f"not {type(document).__name__}")
    unknown = sorted(set(document) - set(DOCUMENT_KEYS))
    if unknown:
        raise SpecError(f"{source}: unknown top-level key "
                        f"{unknown[0]!r} (known: {', '.join(DOCUMENT_KEYS)})")
    kind = document.get("kind")
    if kind not in RUN_KEYS:
        raise SpecError(f"{source}: 'kind' must be one of "
                        f"{', '.join(sorted(RUN_KEYS))}, got {kind!r}")
    spec = document.get("spec")
    if not isinstance(spec, Mapping):
        raise SpecError(f"{source}: 'spec' must be a mapping with the "
                        f"{kind} spec fields, got {type(spec).__name__}")
    name = document.get("name", spec.get("name", "sweep"))
    if not isinstance(name, str) or not name:
        raise SpecError(f"{source}: 'name' must be a non-empty string")

    grid = document.get("grid", {})
    if not isinstance(grid, Mapping):
        raise SpecError(f"{source}: 'grid' must be a mapping of dotted spec "
                        "paths to value lists")
    for axis, values in grid.items():
        if not isinstance(axis, str) or not axis:
            raise SpecError(f"{source}.grid: axis names must be non-empty "
                            f"strings, got {axis!r}")
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise SpecError(f"{source}.grid[{axis!r}]: expected a list of "
                            f"values, got {type(values).__name__}")
        if len(values) == 0:
            raise SpecError(f"{source}.grid[{axis!r}]: value list is empty")
        if axis.startswith("run."):
            _check_run_key(kind, axis[len("run."):],
                           f"{source}.grid[{axis!r}]")

    run = document.get("run", {})
    if not isinstance(run, Mapping):
        raise SpecError(f"{source}: 'run' must be a mapping of run options")
    for key in run:
        _check_run_key(kind, key, f"{source}.run")

    return SpecDocument(kind=kind, name=name, spec=spec,
                        grid={axis: list(values)
                              for axis, values in grid.items()},
                        run=dict(run))


def _check_run_key(kind: str, key: str, where: str) -> None:
    if key not in RUN_KEYS[kind]:
        raise SpecError(f"{where}: unknown run option {key!r} for kind "
                        f"{kind!r} (known: {', '.join(RUN_KEYS[kind])})")


def load_yaml_document(path: str) -> SpecDocument:
    """Parse one sweep document from a YAML file."""
    yaml = _require_yaml()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = yaml.safe_load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read spec {path!r}: {exc}")
    except yaml.YAMLError as exc:
        raise SpecError(f"{path}: not valid YAML: {exc}")
    return parse_document(raw, source=path)


def dump_yaml_document(document: SpecDocument) -> str:
    """The YAML text form of a document (inverse of :func:`load_yaml_document`).

    Key order is preserved (``sort_keys=False``) so a document survives a
    load → dump → load cycle with its grid axes — and therefore its expansion
    order — intact.
    """
    yaml = _require_yaml()
    return yaml.safe_dump(document.to_mapping(), sort_keys=False,
                          default_flow_style=False)


# --------------------------------------------------------------------- #
# Grid expansion and compilation
# --------------------------------------------------------------------- #

def _apply_override(spec: Any, dotted: str, value: Any, where: str) -> None:
    """Set ``spec[...path...] = value`` along a dotted path, creating
    intermediate mappings as needed (``head_mma.type`` on a spec whose
    ``head_mma`` is ``None``) and indexing lists by integer segments
    (``ports.0.scheme``)."""
    parts = dotted.split(".")
    target = spec
    for depth, part in enumerate(parts[:-1]):
        prefix = ".".join(parts[:depth + 1])
        if isinstance(target, list):
            try:
                index = int(part)
                target = target[index]
            except (ValueError, IndexError):
                raise SpecError(f"{where}: path segment {prefix!r} must be "
                                f"a valid index into a list of {len(target)}")
            continue
        if not isinstance(target, dict):
            raise SpecError(f"{where}: path segment {prefix!r} lands on a "
                            f"{type(target).__name__}, not a mapping")
        nxt = target.get(part)
        if nxt is None:
            nxt = {}
            target[part] = nxt
        target = nxt
    leaf = parts[-1]
    if isinstance(target, list):
        try:
            target[int(leaf)] = value
        except (ValueError, IndexError):
            raise SpecError(f"{where}: path segment {dotted!r} must be a "
                            f"valid index into a list of {len(target)}")
    elif isinstance(target, dict):
        target[leaf] = value
    else:
        raise SpecError(f"{where}: path {dotted!r} lands on a "
                        f"{type(target).__name__}, not a mapping")


def _canonicalise(kind: str, spec: Mapping[str, Any],
                  where: str) -> Dict[str, Any]:
    """Round the spec through its dataclass and eagerly build every component.

    Returns the canonical ``to_spec()`` form — the JSON shape that is a
    fixed point of ``from_spec``/``to_spec``, which is what makes the
    "compiled specs round-trip bit-identically" guarantee hold by
    construction.
    """
    cls = Scenario if kind == "scenario" else SwitchScenario
    try:
        built = cls.from_spec(spec)
    except ReproError as exc:
        raise SpecError(f"{where}: {exc}")
    try:
        if kind == "scenario":
            built.build_buffer()
            built.build_arrivals()
            built.build_arbiter()
        else:
            from repro.switch.model import port_template
            from repro.switch.traffic import build_ingress_traffic

            built.build_fabric()
            build_ingress_traffic(built.traffic, built.num_ports, 0,
                                  built.port_seed(0))
            port_template(built, 0).build_buffer()
    except ReproError as exc:
        raise SpecError(f"{where}: {exc}")
    except (TypeError, ValueError) as exc:
        # Component constructors raise plain TypeError/ValueError on bad
        # params; at compile time that is a spec-authoring error.
        raise SpecError(f"{where}: invalid component parameters: {exc}")
    return built.to_spec()


def expand_document(document: SpecDocument) -> List[CompiledPoint]:
    """Expand the grid into validated, canonicalised points.

    The cartesian product runs in grid-key order (first axis varies
    slowest); with no grid, the single point keeps the document name.
    Expanded points are named ``<name>-g<index>``.
    """
    axes = list(document.grid.items())
    points: List[CompiledPoint] = []
    combos = itertools.product(*(range(len(values)) for _, values in axes)) \
        if axes else [()]
    for index, combo in enumerate(combos):
        spec = json.loads(json.dumps(dict(document.spec)))
        run = dict(document.run)
        coordinates: Dict[str, Any] = {}
        for (axis, values), position in zip(axes, combo):
            value = values[position]
            where = f"grid[{axis!r}][{position}]"
            if axis.startswith("run."):
                run[axis[len("run."):]] = value
            else:
                _apply_override(spec, axis, value, where)
            coordinates[axis] = value
        name = f"{document.name}-g{index:03d}" if axes else document.name
        spec["name"] = name
        spec.setdefault("description", "")
        where = (f"grid point {index} "
                 f"({', '.join(f'{a}={v!r}' for a, v in coordinates.items())})"
                 if axes else "spec")
        canonical = _canonicalise(document.kind, spec, where)
        trace_emit("grid_point", name=name, kind=document.kind,
                   index=index,
                   axes={axis: value for axis, value in coordinates.items()})
        points.append(CompiledPoint(name=name, kind=document.kind,
                                    spec=canonical, run=run,
                                    axes=coordinates))
    obs = get_metrics()
    if obs is not None:
        obs.inc("sweep.documents_expanded")
        obs.inc("sweep.grid_points", len(points))
    return points


def compile_jobs(document: SpecDocument) -> Tuple[List[CompiledPoint], List[Job]]:
    """Expand a document and pair every point with its runnable job."""
    points = expand_document(document)
    return points, [point.job() for point in points]


# --------------------------------------------------------------------- #
# Result rendering
# --------------------------------------------------------------------- #

def render_sweep_results(points: Sequence[CompiledPoint],
                         results: Sequence[Any],
                         title: str = "") -> str:
    """One table row per grid point.

    Scenario points yield :class:`~repro.workloads.scenario.ScenarioResult`
    rows; switch points yield :class:`~repro.switch.model.SwitchReport`
    rows (their exact merged-percentile ``summary()``).  A point whose job
    was quarantined by a non-strict runner renders as a ``FAILED`` row, and
    the per-job provenance (kind, attempts, last error) is appended below
    the table — partial results are reported, never silently dropped.
    """
    from repro.analysis.report import format_table
    from repro.runner.sweep import JobFailure

    headers = ["name", "axes", "slots", "arrivals", "departures", "drops",
               "carried", "p50", "p99", "zero-miss"]
    rows = []
    failures = []
    for point, result in zip(points, results):
        axes = ", ".join(f"{a}={v!r}" for a, v in point.axes.items())
        if isinstance(result, JobFailure):
            failures.append(result)
            rows.append([point.name, axes, "-", "-", "-", "-", "-", "-", "-",
                         f"FAILED ({result.kind})"])
        elif point.kind == "scenario":
            rows.append([result.name, axes, result.slots, result.arrivals,
                         result.departures, result.drops,
                         result.carried_load, result.latency_p50,
                         result.latency_p99, result.zero_miss])
        else:
            summary = result.summary()
            rows.append([result.name, axes, summary["slots"],
                         summary["arrivals"], summary["departures"],
                         summary["drops"], summary["carried_load"],
                         summary["latency_p50"], summary["latency_p99"],
                         summary["zero_miss"]])
    text = format_table(headers, rows, title=title)
    if failures:
        text += "\n\n" + render_job_failures(failures)
    return text


def render_job_failures(failures: Sequence[Any]) -> str:
    """The per-job failure provenance block appended to partial reports."""
    lines = [f"{len(failures)} job(s) failed (partial results above):"]
    for failure in failures:
        lines.append(f"  - {failure.brief()}")
        if failure.traceback:
            last = failure.traceback.strip().splitlines()[-1]
            if last not in failure.error:
                lines.append(f"      {last}")
    lines.append("  (rerun with --strict to fail fast, --trace-out for the "
                 "full trace)")
    return "\n".join(lines)


__all__ = [
    "CompiledPoint",
    "SCENARIO_JOB_FUNC",
    "SWITCH_JOB_FUNC",
    "SpecDocument",
    "compile_jobs",
    "dump_yaml_document",
    "expand_document",
    "load_yaml_document",
    "parse_document",
    "render_job_failures",
    "render_sweep_results",
]
