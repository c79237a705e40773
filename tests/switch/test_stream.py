"""Streamed switch execution vs the sharded jobs path.

``SwitchModel.run_stream`` feeds the fabric's per-egress trace chunks
straight into open-ended port sessions, never materialising a full egress
trace; the merged report must nevertheless be bit-identical to the two-stage
jobs path for every chunk size — both modes build their ports from the same
:func:`~repro.switch.model.port_template`.
"""

import pytest

from repro.switch.model import FabricStream, SwitchModel, run_fabric
from repro.switch.registry import get_switch_scenario, switch_scenario_names


def small(name, ports=4, slots=600):
    return get_switch_scenario(name).with_overrides(num_ports=ports,
                                                    num_slots=slots)


@pytest.mark.parametrize("chunk_slots", [None, 100, 137, 600, 10_000])
def test_stream_matches_jobs_path(chunk_slots):
    scenario = small("hotspot-egress")
    model = SwitchModel(scenario)
    jobs_report = model.run(jobs=1)
    stream_report = model.run_stream(chunk_slots=chunk_slots)
    assert stream_report.fabric == jobs_report.fabric
    assert stream_report.ports == jobs_report.ports
    assert stream_report.summary() == jobs_report.summary()


@pytest.mark.parametrize("name", switch_scenario_names())
def test_stream_matches_jobs_path_on_every_registered_switch(name):
    scenario = small(name)
    model = SwitchModel(scenario)
    jobs_report = model.run(jobs=1)
    stream_report = model.run_stream(chunk_slots=151)
    assert stream_report.fabric == jobs_report.fabric
    assert stream_report.ports == jobs_report.ports


#: Both engines, plus ``batched``: the retired name runs the reference loop.
@pytest.mark.parametrize("engine", ["reference", "batched", "array"])
def test_stream_engines_agree(engine):
    scenario = small("uniform")
    report = SwitchModel(scenario).run_stream(engine=engine, chunk_slots=211)
    baseline = SwitchModel(scenario).run_stream(engine="array",
                                                chunk_slots=211)
    assert report.ports == baseline.ports
    assert report.fabric == baseline.fabric


def test_fabric_stream_chunks_concatenate_to_run_fabric():
    scenario = small("incast", ports=5, slots=500)
    whole_traces, whole_stats = run_fabric(scenario)

    stream = FabricStream(scenario, chunk_slots=73)
    rebuilt = [[] for _ in range(scenario.num_ports)]
    seen_starts = []
    for start, chunk_traces in stream.chunks():
        seen_starts.append(start)
        lengths = {len(chunk) for chunk in chunk_traces}
        assert len(lengths) == 1  # every egress advances in lockstep
        assert lengths.pop() <= 73
        for egress, chunk in enumerate(chunk_traces):
            rebuilt[egress].extend(chunk)
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
