"""Perf-trajectory comparison: diff two ``repro bench`` snapshots.

``repro bench --compare BENCH_N.json`` runs the suite and diffs the fresh
document against the committed baseline; ``--against CURRENT.json`` diffs
two existing snapshots without running anything (the CI perf-gate path).

Two kinds of rows:

* **per-benchmark deltas** — median seconds and kslots/s, side by side.
  Median deltas are only meaningful when both snapshots ran the same slot
  counts (full vs full, quick vs quick); throughput (kslots/s) stays
  comparable across modes, so it is always shown.
* **derived-ratio deltas** — the machine-independent trajectory numbers
  (array-over-reference speedups, switch sharding scaling, checkpoint
  overhead).
  Each ratio has a *direction*: for a speedup, a regression is the ratio
  falling; for an overhead, a regression is the ratio rising.  Directions
  come from the snapshot's ``derived_directions`` table when present and
  fall back to a name heuristic (``overhead`` in the label means lower is
  better) for snapshots written before the table existed.

``--fail-on-regression PCT`` gates on the ratio rows only — absolute
timings move with the machine, ratios move with the code — and exits 1 when
any gated ratio regressed by more than ``PCT`` percent.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.errors import ReproError

__all__ = [
    "BenchCompareError",
    "compare_documents",
    "load_bench_document",
    "ratio_direction",
    "ratio_regressions",
    "render_compare",
]

#: Direction labels used in bench documents and compare reports.
HIGHER_BETTER = "higher_better"
LOWER_BETTER = "lower_better"


class BenchCompareError(ReproError):
    """A snapshot could not be read or is not a bench document."""


def load_bench_document(path: os.PathLike) -> Dict[str, Any]:
    """Read one ``repro bench`` JSON snapshot, validated."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise BenchCompareError(f"cannot read bench snapshot: {exc}")
    except ValueError as exc:
        raise BenchCompareError(
            f"bench snapshot {path!r} is not valid JSON: {exc}")
    if not isinstance(document, dict) \
            or document.get("suite") != "repro-bench" \
            or not isinstance(document.get("benchmarks"), list):
        raise BenchCompareError(
            f"{path!r} is not a repro bench snapshot")
    document["_path"] = path
    return document


def ratio_direction(name: str,
                    *documents: Mapping[str, Any]) -> str:
    """The regression direction of derived ratio ``name``.

    Prefers the ``derived_directions`` table of any given document (current
    first); falls back to the name heuristic.
    """
    for document in documents:
        table = document.get("derived_directions")
        if isinstance(table, Mapping) and name in table:
            return table[name]
    return LOWER_BETTER if "overhead" in name else HIGHER_BETTER


def _pct(current: float, base: float) -> Optional[float]:
    if not base:
        return None
    return (current - base) / base * 100.0


def compare_documents(baseline: Mapping[str, Any],
                      current: Mapping[str, Any]) -> Dict[str, Any]:
    """Diff two bench documents into a JSON-serialisable compare report."""
    base_by_name = {b["name"]: b for b in baseline["benchmarks"]}
    cur_by_name = {b["name"]: b for b in current["benchmarks"]}

    rows: List[Dict[str, Any]] = []
    for name, cur in cur_by_name.items():
        base = base_by_name.get(name)
        if base is None:
            continue
        base_metrics = base.get("metrics", {})
        cur_metrics = cur.get("metrics", {})
        slots_match = (base_metrics.get("slots") == cur_metrics.get("slots"))
        row: Dict[str, Any] = {
            "name": name,
            "base_median_s": base["median_s"],
            "cur_median_s": cur["median_s"],
            "slots_match": slots_match,
            "median_delta_pct": (_pct(cur["median_s"], base["median_s"])
                                 if slots_match else None),
            "base_kslots": base_metrics.get("kslots_per_s"),
            "cur_kslots": cur_metrics.get("kslots_per_s"),
        }
        if row["base_kslots"] and row["cur_kslots"] is not None:
            row["kslots_delta_pct"] = _pct(row["cur_kslots"],
                                           row["base_kslots"])
        else:
            row["kslots_delta_pct"] = None
        rows.append(row)

    ratios: List[Dict[str, Any]] = []
    base_derived = baseline.get("derived", {})
    cur_derived = current.get("derived", {})
    for name, cur_value in cur_derived.items():
        if name not in base_derived:
            continue
        base_value = base_derived[name]
        direction = ratio_direction(name, current, baseline)
        delta = _pct(cur_value, base_value)
        if delta is None:
            regression = None
        elif direction == LOWER_BETTER:
            regression = max(0.0, delta)
        else:
            regression = max(0.0, -delta)
        ratios.append({
            "name": name,
            "base": base_value,
            "cur": cur_value,
            "delta_pct": delta,
            "direction": direction,
            "regression_pct": regression,
        })

    return {
        "baseline": _document_header(baseline),
        "current": _document_header(current),
        "benchmarks": rows,
        "ratios": ratios,
        "missing_in_current": sorted(set(base_by_name) - set(cur_by_name)),
        "missing_in_baseline": sorted(set(cur_by_name) - set(base_by_name)),
    }


def _document_header(document: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "path": document.get("_path"),
        "quick": document.get("quick"),
        "repeats": document.get("repeats"),
        # Snapshots written before the affinity-aware cpu count existed
        # (BENCH_3.json and earlier) have no "cpus" key; report the gap
        # instead of a bare null so downstream consumers need no guard.
        "cpus": document.get("cpus", "unknown"),
        "python": document.get("python"),
        "created_unix": document.get("created_unix"),
    }


def ratio_regressions(report: Mapping[str, Any], threshold_pct: float,
                      ratio_names: Optional[Sequence[str]] = None
                      ) -> List[Dict[str, Any]]:
    """The gated ratios that regressed beyond ``threshold_pct``.

    ``ratio_names`` restricts the gate to named ratios; naming a ratio the
    report does not contain is an error (a typo must not silently pass the
    gate).
    """
    by_name = {row["name"]: row for row in report["ratios"]}
    if ratio_names is None:
        gated = list(report["ratios"])
    else:
        gated = []
        for name in ratio_names:
            if name not in by_name:
                known = ", ".join(sorted(by_name)) or "none"
                raise BenchCompareError(
                    f"ratio {name!r} is not in the compare report "
                    f"(present: {known})")
            gated.append(by_name[name])
    return [row for row in gated
            if row["regression_pct"] is not None
            and row["regression_pct"] > threshold_pct]


def render_compare(report: Mapping[str, Any],
                   threshold_pct: Optional[float] = None,
                   ratio_names: Optional[Sequence[str]] = None,
                   failures: Optional[Sequence[Mapping[str, Any]]] = None
                   ) -> str:
    """Human-readable compare report (the ``--compare`` output)."""
    from repro.analysis.report import format_table

    base = report["baseline"]
    cur = report["current"]

    def fmt_pct(value: Optional[float]) -> str:
        if value is None:
            return "-"
        return f"{value:+.1f}%"

    rows = []
    for row in report["benchmarks"]:
        rows.append([
            row["name"],
            f"{row['base_median_s'] * 1e3:.1f}",
            f"{row['cur_median_s'] * 1e3:.1f}",
            fmt_pct(row["median_delta_pct"]),
            row["base_kslots"] if row["base_kslots"] is not None else "-",
            row["cur_kslots"] if row["cur_kslots"] is not None else "-",
            fmt_pct(row["kslots_delta_pct"]),
        ])
    def describe(header: Mapping[str, Any]) -> str:
        mode = "quick" if header.get("quick") else "full"
        cpus = header.get("cpus")
        if cpus in (None, "unknown"):
            return f"{mode}, cpus unknown"
        return f"{mode}, {cpus} cpu{'s' if cpus != 1 else ''}"

    table = format_table(
        ["benchmark", "base ms", "cur ms", "Δms", "base ks/s", "cur ks/s",
         "Δks/s"],
        rows,
        title=(f"bench compare — baseline {base.get('path')} "
               f"({describe(base)}) vs current ({describe(cur)})"))
    lines = [table]
    if not all(row["slots_match"] for row in report["benchmarks"]):
        lines.append("(Δms shown only where both snapshots ran the same "
                     "slot counts; throughput stays comparable)")
    for name in report["missing_in_current"]:
        lines.append(f"missing in current: {name}")
    for name in report["missing_in_baseline"]:
        lines.append(f"new in current: {name}")
    if report["ratios"]:
        lines.append("")
        lines.append("derived ratios (direction-aware; regression = change "
                     "in the bad direction):")
        gated_set = set(ratio_names) if ratio_names is not None else None
        failing = {row["name"] for row in (failures or ())}
        for row in report["ratios"]:
            arrow = ("lower is better" if row["direction"] == LOWER_BETTER
                     else "higher is better")
            marker = ""
            if row["name"] in failing:
                marker = "  << REGRESSION"
            elif gated_set is not None and row["name"] not in gated_set:
                marker = "  (not gated)"
            lines.append(
                f"  {row['name']}: {row['base']:.3f}x -> {row['cur']:.3f}x "
                f"({fmt_pct(row['delta_pct'])}, {arrow}, regression "
                f"{row['regression_pct']:.1f}%)"
                f"{marker}" if row["regression_pct"] is not None else
                f"  {row['name']}: {row['base']:.3f}x -> {row['cur']:.3f}x")
    if threshold_pct is not None:
        if failures:
            names = ", ".join(row["name"] for row in failures)
            lines.append(f"\nFAIL: {len(failures)} ratio(s) regressed more "
                         f"than {threshold_pct:g}%: {names}")
        else:
            lines.append(f"\nOK: no gated ratio regressed more than "
                         f"{threshold_pct:g}%")
    return "\n".join(lines)
