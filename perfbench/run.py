"""The repro benchmark: three workloads at the paper's operating points.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every run of a workload is a fresh
interpreter (``child.py``) that sets up, runs the workload once and gates
its report; this script repeats such runs for ``--seconds`` (at least
three), then prints one line per metric and, last, one JSON object.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json`` as
medians over the runs that passed the gate.  Their timings are rescaled to
the reference host speed: each run's are multiplied by
``REFERENCE_CALIBRATION_S`` over the time the child's calibration loop
took around that run (see ``child.py``).  The vCPUs of a shared host speed
up and slow down by a quarter for minutes at a time; the rescaled figures
move with the program, the wall-clock ones also with the host.  ``--trace 1`` makes the same
untraced runs, then a metrics-only run and a traced run (see
``layers.py``), and reports the ``per_layer`` metrics.

The correctness gate: every run's report must satisfy the paper-bound
invariants (no misses, no drops, SRAM peaks within capacity, every offered
fabric cell transferred, no quarantined port job), and its digest must
equal the one ``recorded.json`` holds for this seed -- produced by a second
engine, see ``record.py`` -- or, for an unrecorded seed, the digest of the
first run.  A run that fails the gate counts in ``failed`` and its timings
are dropped; any failure makes the result incorrect and the exit code 1.

Everything the benchmark writes goes under ``.perfbench/`` in the
checkout, the compiled span kernel's cache included.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from workloads import arrival_slots, load_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
RECORDED = HERE / "recorded.json"

#: Fewest untraced runs behind a median, whatever ``--seconds`` says --
#: unless they would take longer than the window below.
MIN_RUNS = 3
MIN_RUNS_WINDOW_S = 60.0

#: Seconds a calibration pass takes on the host the benchmark was tuned
#: on (a 2-vCPU 2.1 GHz Xeon VM, CPython 3.11): the median of about 300
#: runs.  Timings are reported as if every run had that host speed.
REFERENCE_CALIBRATION_S = 0.118

#: Wall-clock limit of one child process.
CHILD_TIMEOUT_S = 120.0

#: Counter prefixes that must agree between the traced and the
#: metrics-only run: they record which path each span and chunk took.
ROUTING_PREFIXES = ("engine.", "stream.", "switch.")


def warmed_env() -> Dict[str, str]:
    """The environment of every child run, with the span kernel compiled
    (or found) in the benchmark's own cache before anything is timed, so
    an edit to its C source never lands a compile in a run's setup_s."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    # The compiler's scratch files too stay inside the checkout.
    env["TMPDIR"] = str(WORK / "tmp")
    # The default configuration is what is measured: no kill switch, no
    # sanitizer build.
    env.pop("REPRO_SPAN_KERNEL", None)
    env.pop("REPRO_SPAN_KERNEL_SANITIZE", None)
    warm = spawn("kernel", "-", 0, env)
    if "error" in warm:
        raise SystemExit(f"error: cannot import the program: "
                         f"{warm['error']}")
    if not warm["kernel"]:
        print("note: the span kernel is unavailable (no C compiler?); "
              "numpy runs use the python loop")
    return env


def spawn(mode: str, workload: str, seed: int, env: Dict[str, str],
          timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run ``child.py`` once; its JSON line, or ``{"error": ...}``."""
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
         repr(spawned_at), str(WORK)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"{mode} run timed out after {timeout:.0f} s"}
    finally:
        # Anything the child left behind in its session (a stray port
        # worker) goes with it.
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(proc.pid, signal.SIGKILL)
    if proc.returncode != 0:
        tail = " | ".join(err.strip().splitlines()[-3:])
        return {"error": f"{mode} run exited {proc.returncode}: {tail}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"{mode} run printed no result"}


def at_reference_speed(result: Dict[str, Any]) -> None:
    """Rescale a run's timings to the reference host speed, keeping the
    wall-clock ones as ``wall_run_s`` and ``wall_setup_s``."""
    scale = REFERENCE_CALIBRATION_S / result["calibration_s"]
    for key in ("run_s", "setup_s"):
        result[f"wall_{key}"] = result[key]
        result[key] *= scale


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    try:
        with open(RECORDED, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        return None
    return recorded["digests"].get(workload, {}).get(str(seed))


class Gate:
    """Checks each run against the recorded digest (or the first passing
    run's) and the invariants; collects what failed."""

    def __init__(self, expected: Optional[str]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, label: str, result: Dict[str, Any],
              extra: List[str] = ()) -> bool:
        self.attempted += 1
        problems = list(extra)
        if "error" in result:
            problems.append(result["error"])
        else:
            problems += result["violations"]
            if self.expected is None and not problems:
                self.expected = result["digest"]
            if self.expected not in (None, result["digest"]):
                problems.append(f"report digest {result['digest'][:12]} != "
                                f"expected {self.expected[:12]}")
        self.failures += [f"{label}: {p}" for p in problems]
        self.failed += bool(problems)
        return not problems


def fidelity(traced: Dict[str, Any], plain: Dict[str, Any]) -> List[str]:
    """Ways the traced run differs from a run without wrappers."""
    if "error" in traced or "error" in plain:
        return []
    problems = list(traced["identity_problems"])
    if traced["digest"] != plain["digest"]:
        problems.append("traced digest differs from the metrics-only run")

    def routing(counters):
        return {k: v for k, v in counters.items()
                if k.startswith(ROUTING_PREFIXES)}

    if routing(traced["counters"]) != routing(plain["counters"]):
        problems.append("traced routing counters differ from the "
                        "metrics-only run")
    if traced.get("resume_digest", traced["digest"]) != traced["digest"]:
        problems.append("resumed report differs from the uninterrupted run")
    if traced.get("replay_matches") is False:
        problems.append("in-process port replay differs from the workers")
    return problems


def zero_reason(name: str, kind: str,
                values: Dict[str, float]) -> Optional[str]:
    """Why a per-layer metric reads 0 on this workload, or ``None`` when 0
    is a measured value of a layer that ran (no kernel aborts, say)."""
    if name == "runner.parallel_efficiency" and kind == "switch":
        return "cpus < 2: the port stage ran in-process, no parallel ratio"
    if name == "sim.kernel.compile_s":
        return "no C compiler: the span kernel could not be built"
    if name.startswith("sim.kernel.") and not values["sim.kernel.spans"]:
        return ("no span ran on the compiled kernel (Q > 254, or an engine "
                "that does not use it)")
    if name.startswith("traffic.plan") and kind == "monolithic":
        return ("the numpy engine draws this plan itself, vectorized, "
                "without calling ArrivalProcess.arrivals")
    for prefix, ran, reason in (
            ("sim.stream.", kind == "stream",
             "no streaming or checkpoints on this workload"),
            (("switch.", "runner."), kind == "switch",
             "no switch fabric or port runner on this workload"),
            ("rads.", kind != "switch", "no RADS buffer on this workload"),
            ("core.", kind == "switch", "no CFDS buffer on this workload")):
        if name.startswith(prefix) and not ran:
            return reason
    return None


def measure_kernel_compile(env: Dict[str, str]) -> Dict[str, Any]:
    """``load_kernel()`` in a fresh process on an empty throwaway cache."""
    scratch = tempfile.mkdtemp(prefix="compile-", dir=WORK)
    try:
        return spawn("kernel", "-", 0, dict(env, XDG_CACHE_HOME=scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              "root of a repro checkout", file=sys.stderr)
        return 2
    inputs = load_inputs()
    if args.workload not in inputs:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(inputs)})", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    kind = inputs[args.workload]["kind"]
    env = warmed_env()

    expected = recorded_digest(args.workload, args.seed)
    gate = Gate(expected)
    slots = arrival_slots(inputs[args.workload])
    passed = []
    started = time.monotonic()
    while (time.monotonic() < started + args.seconds
           or (gate.attempted < MIN_RUNS
               and time.monotonic() < started + MIN_RUNS_WINDOW_S)):
        result = spawn("plain", args.workload, args.seed, env)
        if gate.check(f"run {gate.attempted + 1}", result):
            at_reference_speed(result)
            result["kslots_per_s"] = slots / result["run_s"] / 1e3
            passed.append(result)
    runs = gate.attempted

    def median(key):
        samples = [r[key] for r in passed]
        return statistics.median(samples) if samples else 0.0

    if args.trace == 0:
        values = {
            "kslots_per_s": median("kslots_per_s"),
            "setup_s": median("setup_s"),
            "peak_rss_mib": median("peak_rss_mib"),
            "ok_frac": len(passed) / runs,
        }
        order = declared["end_to_end"]
        against = "recorded digest" if expected else "first run's digest"
        print(f"{args.workload} seed {args.seed}: {len(passed)} of {runs} "
              f"runs passed the gate (against the {against})")
        print("  wall run_s:    " + " ".join(f"{r['wall_run_s']:.3f}"
                                             for r in passed))
        print("  calibration_s: " + " ".join(f"{r['calibration_s']:.3f}"
                                             for r in passed))
        if passed:
            print(f"  {'wall kslots_per_s':28s} "
                  f"{slots / median('wall_run_s') / 1e3:>14.6g} kslots/s"
                  "  (not rescaled)")
            print(f"  {'wall setup_s':28s} {median('wall_setup_s'):>14.6g} s"
                  "  (not rescaled)")
        print(f"  {'failed_frac':28s} {1 - values['ok_frac']:>14.6g} fraction"
              "  (= 1 - ok_frac)")
    else:
        metrics_run = spawn("metrics", args.workload, args.seed, env)
        traced = spawn("traced", args.workload, args.seed, env)
        gate.check("metrics-only run", metrics_run)
        gate.check("traced run", traced, fidelity(traced, metrics_run))
        compiled = measure_kernel_compile(env)
        values = dict.fromkeys((m["name"] for m in declared["per_layer"]),
                               0.0)
        if "error" not in traced:
            values.update(traced["layers"]["metrics"])
            values.update(traced["counts"])
            at_reference_speed(traced)
            if passed:
                values["tracing.overhead_frac"] = (
                    traced["run_s"] / median("run_s") - 1)
        if compiled.get("kernel"):
            values["sim.kernel.compile_s"] = compiled["load_s"]
        order = declared["per_layer"]
        print(f"{args.workload} seed {args.seed}: traced run vs "
              f"{len(passed)} untraced runs; spans in "
              f"{traced.get('spans_path', '-')}")
        for root, table in traced.get("layers", {}).get("shares",
                                                        {}).items():
            print(f"  layer shares of {root!r} (self time / duration):")
            for name, share in table.items():
                print(f"    {name:30s} {share:8.1%}")

    for metric in order:
        name = metric["name"]
        value = values[name]
        reason = zero_reason(name, kind, values) \
            if args.trace and value == 0 else None
        note = f"  ({reason})" if reason else ""
        print(f"  {name:28s} {value:>14.6g} {metric['unit']}{note}")
    for failure in gate.failures:
        print(f"  FAILED {failure}")
    correct = not gate.failures
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in order},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
