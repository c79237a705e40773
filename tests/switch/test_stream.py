"""The switch's one path against the per-port trace oracle.

``SwitchModel.run`` streams the fabric's per-egress rows straight into
in-process port sessions; the merged report must nevertheless equal the
oracle (:mod:`repro.switch.oracle`), which runs each egress port as its own
``trace`` scenario from the whole fabric trace, for every chunk size and
engine — both build their ports from the same
:func:`~repro.switch.model.port_template`.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.switch.model import FabricStream, SwitchModel, run_fabric
from repro.switch.registry import get_switch_scenario, switch_scenario_names
from repro.switch.oracle import run_port_oracle


def small(name, ports=4, slots=600):
    return get_switch_scenario(name).with_overrides(num_ports=ports,
                                                    num_slots=slots)


@pytest.mark.parametrize("chunk_slots", [None, 100, 137, 600, 10_000])
def test_stream_matches_jobs_path(chunk_slots):
    scenario = small("hotspot-egress")
    report = SwitchModel(scenario).run(chunk_slots=chunk_slots)
    oracle = run_port_oracle(scenario)
    assert report.fabric == oracle.fabric
    assert report.ports == oracle.ports


@pytest.mark.parametrize("name", switch_scenario_names())
def test_stream_matches_jobs_path_on_every_registered_switch(name):
    """Port for port, on both engines."""
    scenario = small(name)
    for engine in ("array", "reference"):
        report = SwitchModel(scenario).run(engine=engine, chunk_slots=151)
        oracle = run_port_oracle(scenario, engine)
        assert report.fabric == oracle.fabric
        assert report.ports == oracle.ports


#: Both engines, plus ``batched``: the retired name runs the reference loop.
@pytest.mark.parametrize("engine", ["reference", "batched", "array"])
def test_stream_engines_agree(engine):
    scenario = small("uniform")
    report = SwitchModel(scenario).run(engine=engine, chunk_slots=211)
    baseline = SwitchModel(scenario).run(engine="array", chunk_slots=211)
    assert report.ports == baseline.ports
    assert report.fabric == baseline.fabric


def test_cfds_port_runs_one_main_span_per_window():
    """At the default chunk the flush windows join the arrival window's
    feed: an 8-port CFDS switch runs one main span per port, on the span
    kernel, and one drain span."""
    from repro.bench.suite import switch_bench_scenario

    registry = MetricsRegistry()
    with using_metrics(registry):
        report = SwitchModel(switch_bench_scenario(num_slots=2000)).run(
            jobs=1)
    assert report.fabric.flush_slots > 0
    assert registry.counter("engine.array.spans") == 2 * 8
    assert registry.counter("engine.array.kernel_spans") == 8


def test_fabric_stream_chunks_concatenate_to_run_fabric():
    scenario = small("incast", ports=5, slots=500)
    whole_traces, whole_stats = run_fabric(scenario)

    stream = FabricStream(scenario, chunk_slots=73)
    rebuilt = [[] for _ in range(scenario.num_ports)]
    seen_starts = []
    for start, rows in stream.chunks():
        seen_starts.append(start)
        lengths = {len(row) for row in rows}
        assert len(lengths) == 1  # every egress advances in lockstep
        assert lengths.pop() <= 73
        for egress, row in enumerate(rows):
            assert row.typecode == "i"
            rebuilt[egress].extend(None if src == -1 else src
                                   for src in row)
    assert rebuilt == whole_traces
    assert stream.stats == whole_stats
    assert seen_starts == sorted(seen_starts)
    # The chunk starts tile the stage exactly.
    assert seen_starts[0] == 0
    assert sum(len(c) for c in rebuilt) // scenario.num_ports \
        == whole_stats.total_slots


def test_fabric_stream_stats_only_after_exhaustion():
    scenario = small("uniform")
    stream = FabricStream(scenario, chunk_slots=100)
    iterator = stream.chunks()
    next(iterator)
    assert stream.stats is None
    for _ in iterator:
        pass
    assert stream.stats is not None
