#!/usr/bin/env python3
"""DRAM fragmentation and the queue-renaming cure (Section 6).

CFDS statically binds each physical queue to one bank group, so without
renaming a single hot VOQ can only ever use 1/G of the DRAM: once its group is
full, cells are lost even though the rest of the DRAM sits empty.  The
renaming registers let a logical queue spill across groups and reclaim the
whole DRAM.

This example drives both variants with the same hot-spot traffic and compares
DRAM utilisation and losses.

Run with::

    python examples/fragmentation_renaming.py
"""

from repro import CFDSConfig, CFDSPacketBuffer, ClosedLoopSimulation
from repro.analysis.report import format_table
from repro.traffic import HotspotArrivals, RandomArbiter


def run_variant(use_renaming: bool, group_capacity_cells: int = 256):
    config = CFDSConfig(num_queues=16, dram_access_slots=8, granularity=2,
                        num_banks=32, strict=False)
    buffer = CFDSPacketBuffer(config,
                              use_renaming=use_renaming,
                              oversubscription=2,
                              group_capacity_cells=group_capacity_cells)
    # 90% of the traffic targets two hot queues; the arbiter drains slowly so
    # the DRAM actually fills up.
    simulation = ClosedLoopSimulation(
        buffer,
        arrivals=HotspotArrivals(16, hot_queues=[0, 1], hot_fraction=0.9,
                                 load=0.95, seed=7),
        arbiter=RandomArbiter(16, load=0.35, seed=8),
    )
    report = simulation.run(30_000)
    return buffer, report


def main() -> None:
    rows = []
    for use_renaming in (False, True):
        buffer, report = run_variant(use_renaming)
        occupancy = buffer.dram_group_occupancy()
        rows.append([
            "renaming" if use_renaming else "static",
            report.throughput.arrivals,
            report.throughput.drops,
            f"{buffer.dram_utilisation():.0%}",
            max(occupancy),
            sum(1 for o in occupancy if o == 0),
        ])
    print(format_table(
        ["scheme", "cells offered", "cells dropped", "DRAM utilisation",
         "fullest group (cells)", "empty groups"],
        rows,
        title="Hot-spot traffic, 32-bank DRAM split into 8 groups of 256 cells"))
    print()
    print("Without renaming the hot queues are pinned to their home groups and")
    print("lose cells once those groups fill; with renaming the same traffic")
    print("spreads over every group and the whole DRAM is usable.")


if __name__ == "__main__":
    main()
