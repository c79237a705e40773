"""How the span kernel is built: its flags are part of its cache key, and
the two forms of its bitset select give one report.

``select64`` is ``ctz(pdep(1 << k, x))`` in a build that targets BMI2
(``-march=native`` on such a host) and the broadword select elsewhere.  The
fallback flag set (no ``-march=native``) compiles the broadword form, so a
kernel built with it alone must report what the default build reports.
"""

import dataclasses

import pytest

from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel
from repro.sim.engine import ClosedLoopSimulation
from repro.switch import get_switch_scenario
from repro.switch.model import FabricStream
from repro.traffic.arbiters import RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals

#: RandomArbiter's queue counts: one word of the bitset, each side of a
#: word boundary, three words, and OC-3072's eight.
SELECT_QUEUES = (1, 63, 64, 65, 130, 512)


def test_cache_path_hashes_the_flag_sets(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    default = kernel._cache_path()
    monkeypatch.setattr(kernel, "_FLAG_SETS", kernel._FLAG_SETS[-1:])
    fallback = kernel._cache_path()
    assert fallback != default
    assert fallback.parent == default.parent
    monkeypatch.setattr(kernel, "_FLAG_SETS", (("-O2",),))
    assert kernel._cache_path() not in (default, fallback)


def test_production_flags_add_no_floating_point_licence():
    """The kernel reproduces CPython's doubles exactly: no flag set may
    relax IEEE-754 semantics."""
    for flags in kernel._FLAG_SETS:
        assert not any(flag.startswith(("-ffast-math", "-Ofast",
                                        "-funsafe-math"))
                       for flag in flags)


def _reports():
    """RandomArbiter's report at each of SELECT_QUEUES, and the random
    fabric's windows at 64 ports, on the loaded kernel."""
    reports = []
    registry = MetricsRegistry()
    with using_metrics(registry):
        for num_queues in SELECT_QUEUES:
            sim = ClosedLoopSimulation(
                RADSPacketBuffer(RADSConfig(num_queues=num_queues,
                                            granularity=4)),
                BernoulliArrivals(num_queues, load=0.9, seed=num_queues),
                RandomArbiter(num_queues, load=0.95, seed=num_queues + 1))
            reports.append(sim.run(1500, engine="array"))
        scenario = dataclasses.replace(
            get_switch_scenario("uniform").with_overrides(num_ports=64,
                                                          num_slots=100),
            fabric={"type": "random", "params": {}})
        stream = FabricStream(scenario, chunk_slots=64, engine="array")
        reports.append((list(stream.chunks()), stream.stats,
                        stream.fabric._rng.getstate()))
    assert registry.counter("engine.array.kernel_slots") == \
        registry.counter("engine.array.span_slots") > 0
    assert registry.counter("switch.fabric.kernel_windows") > 0
    return reports


def test_both_select_forms_give_one_report(monkeypatch, tmp_path):
    if kernel._compiler() is None:
        pytest.skip("no C compiler")
    if kernel.load_kernel() is None:
        pytest.skip("the span kernel does not load")
    default = _reports()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(kernel, "_FLAG_SETS", kernel._FLAG_SETS[-1:])
    for name in ("_kernel", "_release", "_fabric"):
        monkeypatch.setattr(kernel, name, None)
    monkeypatch.setattr(kernel, "_kernel_tried", False)
    assert kernel.load_kernel() is not None
    assert kernel._cache_path().is_file()
    assert _reports() == default
