"""Ablation: queue renaming on versus off (Section 6, DRAM fragmentation).

With the static queue-to-group assignment a hot VOQ can only use its own
group's share of the DRAM; once that group fills, cells are dropped while the
rest of the DRAM is empty.  Renaming lets the hot queue's blocks spill into
other groups, so the same offered load sees far fewer losses and much higher
DRAM utilisation.
"""


from repro.analysis.report import format_table
from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.sim.engine import ClosedLoopSimulation
from repro.traffic.arbiters import RandomArbiter
from repro.traffic.arrivals import HotspotArrivals

GROUP_CAPACITY = 192
SLOTS = 20_000


def _run(use_renaming: bool):
    config = CFDSConfig(num_queues=16, dram_access_slots=8, granularity=2,
                        num_banks=32, strict=False)
    buffer = CFDSPacketBuffer(config, use_renaming=use_renaming,
                              oversubscription=2,
                              group_capacity_cells=GROUP_CAPACITY)
    report = ClosedLoopSimulation(
        buffer,
        arrivals=HotspotArrivals(16, hot_queues=[0, 1], hot_fraction=0.9,
                                 load=0.95, seed=17),
        arbiter=RandomArbiter(16, load=0.30, seed=18),
    ).run(SLOTS)
    return buffer, report


def test_renaming_recovers_fragmented_dram(benchmark, echo):
    def run_both():
        return _run(False), _run(True)

    (static_buffer, static_report), (renamed_buffer, renamed_report) = benchmark(run_both)

    static_drops = static_report.throughput.drops
    renamed_drops = renamed_report.throughput.drops
    assert static_drops > 0
    assert renamed_drops < static_drops
    assert renamed_buffer.dram_utilisation() > 2 * static_buffer.dram_utilisation()

    echo(format_table(
        ["scheme", "offered cells", "dropped cells", "DRAM utilisation",
         "empty groups"],
        [["static assignment", static_report.throughput.arrivals,
          static_drops, f"{static_buffer.dram_utilisation():.0%}",
          sum(1 for o in static_buffer.dram_group_occupancy() if o == 0)],
         ["with renaming", renamed_report.throughput.arrivals,
          renamed_drops, f"{renamed_buffer.dram_utilisation():.0%}",
          sum(1 for o in renamed_buffer.dram_group_occupancy() if o == 0)]],
        title="Ablation — DRAM fragmentation under hot-spot traffic"))
