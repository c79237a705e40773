"""Benchmark: the multi-port switch pipeline.

A switch run streams the crossbar fabric stage (the pipeline's Amdahl
ceiling — tracked on its own here and in ``repro bench``) straight into
the egress ports, in one in-process job.  The benchmark times the fabric
alone, the registered suite's scenarios end-to-end, and ``jobs=1`` vs
``jobs=4`` (which the port stage no longer splits across workers: a pool
cost more than the span kernel's port work it split), and asserts the
merged report stays identical whichever ``jobs`` was given.
"""

import time

import pytest

from repro.analysis.report import format_table
from repro.bench import switch_bench_scenario
from repro.switch import SwitchModel, get_switch_scenario, run_fabric

SLOTS = 4000
FABRIC_SLOTS = 20_000


@pytest.mark.parametrize("name", ["uniform", "hotspot-egress", "incast",
                                  "mixed-scheme"])
def test_registered_switch_scenario(benchmark, name):
    scenario = get_switch_scenario(name).with_overrides(num_slots=SLOTS)
    report = benchmark(SwitchModel(scenario).run, jobs=1)
    assert report.zero_miss


def test_fabric_stage_alone(benchmark):
    scenario = switch_bench_scenario(num_slots=FABRIC_SLOTS)
    traces, stats = benchmark(run_fabric, scenario)
    assert stats.offered_cells == stats.transferred_cells


@pytest.mark.parametrize("jobs", [1, 4])
def test_port_stage_sharding(benchmark, jobs):
    scenario = switch_bench_scenario(num_slots=SLOTS)
    report = benchmark(SwitchModel(scenario).run, jobs=jobs)
    assert report.zero_miss


def test_sharded_report_identical_and_timed(echo):
    """Identity check plus a human-readable table (the equality assertions
    are the point; wall-clock scaling depends on the machine's cores and is
    tracked by ``repro bench``'s switch-scaling ratio)."""
    scenario = switch_bench_scenario(num_slots=SLOTS)
    rows = []
    reports = {}
    for jobs in (1, 4):
        best = None
        for _ in range(3):
            started = time.perf_counter()
            reports[jobs] = SwitchModel(scenario).run(jobs=jobs)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None or elapsed < best else best
        rows.append([jobs, f"{best * 1e3:.1f}",
                     scenario.num_ports * SLOTS / best / 1e3])
    assert reports[1] == reports[4]
    echo(format_table(
        ["jobs", "best (ms)", "port-kslots/s"], rows,
        title="Switch run — jobs=1 vs jobs=4 (8-port CFDS switch)"))
