"""The benchmark's workloads: build one from its recorded inputs, run it,
digest its report and check it against the paper's bounds.

Inputs live in ``workloads.json`` beside this file; the seed is the only
input that comes from the command line.  Nothing here imports ``repro`` at
module level, so the caller decides when the import (part of set-up) is
timed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent


def load_inputs() -> Dict[str, Dict[str, Any]]:
    with open(HERE / "workloads.json", encoding="utf-8") as handle:
        return json.load(handle)


def workers(inputs: Dict[str, Any]) -> int:
    """Port-stage workers: one per CPU this process may use, capped."""
    from repro.runner.sweep import available_cpus

    return min(available_cpus(), inputs["max_workers"])


def arrival_slots(inputs: Dict[str, Any]) -> int:
    """Configured arrival slots of one run, summed over switch ports."""
    if inputs["kind"] == "switch":
        return inputs["switch"]["num_slots"] * inputs["switch"]["num_ports"]
    return inputs["scenario"]["num_slots"]


class Prepared:
    """A workload built up to the point where only the timed run is left."""

    def __init__(self, name: str, inputs: Dict[str, Any], seed: int,
                 engine: str, checkpoint_path: str) -> None:
        self.name = name
        self.inputs = inputs
        self.engine = engine
        self.checkpoint_path = checkpoint_path
        if inputs["kind"] == "switch":
            from repro.switch import SwitchModel, SwitchScenario

            spec = dict(inputs["switch"], seed=seed)
            self.scenario = SwitchScenario.from_spec(spec)
            self.model = SwitchModel(self.scenario)
            self.sim = None
        else:
            from repro.workloads import Scenario

            spec = dict(inputs["scenario"], seed=seed)
            self.scenario = Scenario.from_spec(spec)
            self.sim = self.scenario.build_simulation()

    def run(self):
        """The timed run: simulate, drain and assemble the report."""
        inputs = self.inputs
        kind = inputs["kind"]
        if kind == "switch":
            return self.model.run(engine=self.engine, jobs=workers(inputs))
        num_slots = self.scenario.num_slots
        if kind == "monolithic":
            return self.sim.run(num_slots, engine=self.engine)
        return self.sim.run_stream(
            num_slots, engine=self.engine,
            chunk_slots=inputs["chunk_slots"],
            warmup_slots=inputs["warmup_slots"],
            checkpoint_every=inputs["checkpoint_every"],
            checkpoint_path=self.checkpoint_path,
            label=self.scenario.name)


# --------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------- #

def report_document(report) -> Dict[str, Any]:
    """Every modelled output of a report, as plain JSON data.

    The engine name a switch report carries is an input, not an output, so
    it is left out: reports from different engines must digest alike.
    """
    if hasattr(report, "fabric"):
        return {"fabric": dataclasses.asdict(report.fabric),
                "ports": [dataclasses.asdict(p) for p in report.ports],
                "failures": len(report.failures)}
    return {"throughput": dataclasses.asdict(report.throughput),
            "latency": report.latency.snapshot(),
            "buffer_result": dataclasses.asdict(report.buffer_result)}


def digest(report) -> str:
    text = json.dumps(report_document(report), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def violations(prepared: Prepared, report) -> List[str]:
    """Paper-bound invariants the report breaks (empty when it passes).

    Buffers run in strict mode, so a miss or an overflow during warmup
    raises instead of completing; these checks cover what a completed run
    reports.
    """
    found: List[str] = []
    if prepared.inputs["kind"] == "switch":
        from repro.core.config import CFDSConfig

        fabric = report.fabric
        if report.failures:
            found.append(f"{len(report.failures)} port jobs quarantined")
        if fabric.transferred_cells != fabric.offered_cells:
            found.append(f"fabric moved {fabric.transferred_cells} of "
                         f"{fabric.offered_cells} offered cells")
        for egress, port in enumerate(report.ports):
            config = CFDSConfig(
                **prepared.scenario.port_spec(egress)["buffer"])
            found += _buffer_violations(
                port.name, not port.zero_miss, port.drops,
                port.max_head_sram_occupancy, port.max_tail_sram_occupancy,
                config)
        return found
    from repro.rads.config import RADSConfig

    result = report.buffer_result
    config = RADSConfig(**prepared.scenario.buffer)
    return _buffer_violations(
        prepared.name, bool(result.misses), report.throughput.drops,
        result.max_head_sram_occupancy, result.max_tail_sram_occupancy,
        config)


def _buffer_violations(label: str, missed: bool, drops: int, head_peak: int,
                       tail_peak: int, config) -> List[str]:
    found = []
    if missed:
        found.append(f"{label}: head-SRAM misses")
    if drops:
        found.append(f"{label}: {drops} dropped cells")
    if head_peak > config.effective_head_sram_cells:
        found.append(f"{label}: head SRAM peak {head_peak} > capacity "
                     f"{config.effective_head_sram_cells}")
    if tail_peak > config.effective_tail_sram_cells:
        found.append(f"{label}: tail SRAM peak {tail_peak} > capacity "
                     f"{config.effective_tail_sram_cells}")
    return found


def modelled_counts(prepared: Prepared, report) -> Dict[str, float]:
    """Simulated-machine counts; they repeat exactly for a given seed."""
    if prepared.inputs["kind"] == "switch":
        return {
            "core.bank_conflicts": sum(p.bank_conflicts
                                       for p in report.ports),
            "core.head_sram_peak_cells": max(p.max_head_sram_occupancy
                                             for p in report.ports),
            "switch.peak_voq_backlog": report.fabric.peak_voq_backlog,
        }
    result = report.buffer_result
    return {
        "rads.dram_reads": result.dram_reads,
        "rads.dram_writes": result.dram_writes,
        "rads.head_sram_peak_cells": result.max_head_sram_occupancy,
        "rads.tail_sram_peak_cells": result.max_tail_sram_occupancy,
    }

