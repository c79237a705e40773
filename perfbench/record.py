"""Refresh ``recorded.json``: reference digests and layer shares.

Usage::

    python3 perfbench/record.py --digests 0-19
    python3 perfbench/record.py --shares

``--digests`` runs every workload once per seed on its second engine
(``reference_engine`` in ``workloads.json``: ``array`` for the RADS
workloads, which never touches the kernel or the numpy plans, ``batched``
for the switch ports) and records that run's digest when it passes the
invariants.  It also runs the timed engine and flags a seed where the two
disagree; the benchmark then fails on that seed.
``--shares`` records each workload's layer shares from one traced run of
seed 0, with the host they were taken on.  Rerun ``--digests`` whenever a
workload's inputs change; a change to the program that moves a digest is
a model change, which the benchmark reports as a failed run.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import Any, Dict, List

import run
from workloads import load_inputs


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record_digests(seeds: List[int], env) -> Dict[str, Dict]:
    digests: Dict[str, Dict] = {}
    for name in load_inputs():
        digests[name] = {}
        for seed in seeds:
            ref = run.spawn("reference", name, seed, env, timeout=600)
            timed = run.spawn("plain", name, seed, env, timeout=600)
            problems = ref.get("violations", [ref.get("error")])
            if problems:
                print(f"{name} seed {seed}: NOT recorded: {problems}")
                continue
            digests[name][str(seed)] = ref["digest"]
            agrees = timed.get("digest") == ref["digest"]
            print(f"{name} seed {seed}: {ref['digest'][:16]}"
                  + ("" if agrees else "  TIMED ENGINE DISAGREES"))
    return digests


def record_shares(env) -> Dict[str, Any]:
    shares = {}
    for name in load_inputs():
        traced = run.spawn("traced", name, 0, env)
        if "error" in traced:
            sys.exit(f"{name}: {traced['error']}")
        shares[name] = traced["layers"]["shares"]
        cpus = traced["layers"]["metrics"]["runner.cpus"]
    return {"host": {"cpus": cpus, "machine": platform.machine(),
                     "processor": _cpu_model(),
                     "python": platform.python_version()},
            "seed": 0, "workloads": shares}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digests", metavar="SEEDS",
                        help="seed list such as 0-19 or 0,3,5-7")
    parser.add_argument("--shares", action="store_true")
    args = parser.parse_args()
    try:
        with open(run.RECORDED, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except FileNotFoundError:
        recorded = {"digests": {}}
    env = run.warmed_env()
    if args.digests:
        for name, digests in record_digests(parse_seeds(args.digests),
                                            env).items():
            recorded["digests"].setdefault(name, {}).update(digests)
    if args.shares:
        recorded["layer_shares"] = record_shares(env)
    with open(run.RECORDED, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


if __name__ == "__main__":
    sys.exit(main())
