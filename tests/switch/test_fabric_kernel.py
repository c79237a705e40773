"""The fabric stage on the compiled kernel against the python loop.

``engine="array"`` runs every window of a stock policy (``islip``,
``random``, ``priority``) on the span kernel's fabric entry;
``engine="reference"`` runs the python loop, the oracle.  Window by window
the two must agree on the traces, the :class:`FabricStats` and the
arbiter's state afterwards, for every port count, traffic type and window
size, and every window the kernel cannot run (or aborts) must fall back to
the python loop from untouched state.
"""

import dataclasses
import random
from array import array

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.sim import kernel
from repro.switch import (
    FABRIC_TYPES,
    ISLIPFabricArbiter,
    SwitchModel,
    get_switch_scenario,
)
from repro.switch.model import FabricStream
from repro.traffic.arrivals import ArrivalProcess

pytestmark = pytest.mark.skipif(kernel.load_fabric_kernel() is None,
                                reason="span kernel unavailable")

POLICIES = ("islip", "random", "priority")

TRAFFIC = {
    "bernoulli": {"type": "bernoulli", "params": {"load": 0.9}},
    "hotspot": {"type": "hotspot",
                "params": {"hot_queues": [0], "hot_fraction": 0.5,
                           "load": 0.9}},
    "incast": {"type": "incast",
               "params": {"period": 16, "burst": 3, "load": 0.6}},
    "permutation": {"type": "permutation",
                    "params": {"shift": 1, "load": 0.95}},
    "zipf": {"type": "zipf", "params": {"exponent": 1.2, "load": 0.9}},
}


def scenario(policy="islip", traffic="bernoulli", ports=8, slots=120):
    base = get_switch_scenario("uniform").with_overrides(num_ports=ports,
                                                         num_slots=slots)
    return dataclasses.replace(base, traffic=TRAFFIC[traffic],
                               fabric={"type": policy, "params": {}})


def arbiter_state(fabric):
    if isinstance(fabric, ISLIPFabricArbiter):
        return list(fabric._grant), list(fabric._accept)
    rng = getattr(fabric, "_rng", None)
    return rng.getstate() if rng is not None else None


def run_windows(scn, engine, chunk_slots=None):
    """Every window of the stage, its stats, the arbiter state afterwards
    and the routing counters."""
    registry = MetricsRegistry()
    stream = FabricStream(scn, chunk_slots=chunk_slots, engine=engine)
    with using_metrics(registry):
        windows = [(start, traces) for start, traces in stream.chunks()]
    return (windows, stream.stats, arbiter_state(stream.fabric),
            registry.counters())


def assert_kernel_matches_python(scn, chunk_slots=None):
    windows, stats, state, counters = run_windows(scn, "array", chunk_slots)
    want = run_windows(scn, "reference", chunk_slots)
    assert windows == want[0]
    assert stats == want[1]
    assert state == want[2]
    assert counters["switch.fabric.kernel_windows"] == len(windows)
    assert counters["switch.fabric.kernel_slots"] == stats.total_slots
    assert not any(name.startswith("switch.fabric.fallback.")
                   for name in counters)
    assert want[3]["switch.fabric.fallback.reference"] == len(windows)
    assert stats.transferred_cells == stats.offered_cells
    return stats


@pytest.mark.parametrize("chunk_slots", [1, 7, None])
@pytest.mark.parametrize("ports", [1, 2, 8])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
@pytest.mark.parametrize("policy", POLICIES)
def test_small_switches(policy, traffic, ports, chunk_slots):
    assert_kernel_matches_python(scenario(policy, traffic, ports),
                                 chunk_slots)


@pytest.mark.parametrize("chunk_slots", [7, None])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC))
@pytest.mark.parametrize("policy", POLICIES)
def test_64_ports(policy, traffic, chunk_slots):
    assert_kernel_matches_python(scenario(policy, traffic, 64, slots=80),
                                 chunk_slots)


@pytest.mark.parametrize("traffic", ["bernoulli", "incast"])
@pytest.mark.parametrize("policy", POLICIES)
def test_256_ports(policy, traffic):
    """Four 64-bit words per request bitset: no 64-port ceiling."""
    stats = assert_kernel_matches_python(
        scenario(policy, traffic, 256, slots=40))
    assert stats.flush_slots > 0


def test_flush_windows_of_one_slot():
    """A flush of many 1-slot windows, each its own kernel call."""
    stats = assert_kernel_matches_python(
        scenario("random", "incast", 16, slots=40), chunk_slots=1)
    assert stats.flush_slots > 10


def test_python_and_kernel_windows_interleave(monkeypatch):
    """Windows 0-2 run on python, 3-5 on the kernel, 6-8 on python, ...:
    the VOQ image and the arbiter state round-trip both ways."""
    fabric_fn = kernel.load_fabric_kernel()
    for policy in POLICIES:
        scn = scenario(policy, "incast", 8, slots=200)
        stream = FabricStream(scn, chunk_slots=9)
        registry = MetricsRegistry()
        monkeypatch.setattr(kernel, "_fabric", None)
        windows = []
        with using_metrics(registry):
            for index, window in enumerate(stream.chunks()):
                windows.append(window)
                monkeypatch.setattr(kernel, "_fabric", fabric_fn
                                    if (index + 1) // 3 % 2 else None)
        want = run_windows(scn, "reference", 9)
        assert windows == want[0]
        assert stream.stats == want[1]
        assert arbiter_state(stream.fabric) == want[2]
        counters = registry.counters()
        assert counters["switch.fabric.kernel_windows"] >= 3
        assert counters["switch.fabric.fallback.unavailable"] >= 3
        assert (counters["switch.fabric.kernel_windows"]
                + counters["switch.fabric.fallback.unavailable"]
                == len(windows))


# --------------------------------------------------------------------- #
# Fallbacks
# --------------------------------------------------------------------- #

def fallback_counters(scn, **kwargs):
    windows, stats, state, counters = run_windows(scn, "array", **kwargs)
    assert (windows, stats, state) == run_windows(scn, "reference",
                                                  **kwargs)[:3]
    assert "switch.fabric.kernel_windows" not in counters
    return {name.rsplit(".", 1)[1]: value for name, value in counters.items()
            if name.startswith("switch.fabric.fallback.")}, len(windows)


def test_subclassed_policy_runs_on_python(monkeypatch):
    class Subclassed(ISLIPFabricArbiter):
        pass

    monkeypatch.setitem(FABRIC_TYPES, "subclassed", Subclassed)
    counters, windows = fallback_counters(scenario("subclassed"))
    assert counters == {"policy": windows}


def test_wide_switch_runs_on_python(monkeypatch):
    monkeypatch.setattr(kernel, "MAX_FABRIC_PORTS", 4)
    counters, windows = fallback_counters(scenario(ports=8), chunk_slots=50)
    assert counters == {"wide_ports": windows}
    assert windows > 2


def test_unavailable_kernel_runs_on_python(monkeypatch):
    monkeypatch.setattr(kernel, "_fabric", None)
    counters, windows = fallback_counters(scenario("random"), chunk_slots=50)
    assert counters == {"unavailable": windows}


def test_kernel_rejects_ports_past_its_cap():
    n = kernel.MAX_FABRIC_PORTS + 1
    pointers = ([0] * n, [0] * n)
    assert kernel.run_fabric_window(
        n, "islip", 0, 1, [[None]] * n, array("q"), 0,
        pointers=pointers) == "abort"
    assert pointers == ([0] * n, [0] * n)


def test_kernel_abort_leaves_arbiter_state_untouched():
    """A malformed VOQ image (indices not ascending) aborts before any
    write-back."""
    rng = random.Random(5)
    before = rng.getstate()
    image = array("q", [3, 1, 0, 2, 1, 0])
    assert kernel.run_fabric_window(
        2, "random", 5, 4, None, image, 1, rng=rng) == "abort"
    assert rng.getstate() == before


# --------------------------------------------------------------------- #
# Error parity
# --------------------------------------------------------------------- #

class Planned(ArrivalProcess):
    """Replays a fixed destination list, entries unchecked."""

    def __init__(self, plan):
        self.plan = plan

    def next_arrival(self, slot):
        return self.plan[slot] if slot < len(self.plan) else None


def raised(engine, bad_entry, policy):
    scn = scenario(policy, ports=4, slots=30)
    stream = FabricStream(scn, chunk_slots=10, engine=engine)
    plan = [None, 1, 2, None] * 5 + [3, 2, bad_entry, 0]
    stream.sources[2] = Planned(plan)
    stream.sources[3] = Planned([0] * 22 + [bad_entry])
    registry = MetricsRegistry()
    windows = []
    with using_metrics(registry), pytest.raises(Exception) as info:
        for window in stream.chunks():
            windows.append(window)
    return (type(info.value), str(info.value), windows,
            arbiter_state(stream.fabric), stream._peak_backlog,
            registry.counters())


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bad_entry", [4, 9, -1, -7, 2 ** 40, 1.0])
def test_bad_plan_entry_raises_as_the_python_loop(bad_entry, policy):
    """The window holding the bad entry falls back to the python loop,
    which raises the reference's error at the same slot and ingress."""
    got = raised("array", bad_entry, policy)
    want = raised("reference", bad_entry, policy)
    assert got[:5] == want[:5]
    assert len(got[2]) == 2  # two clean windows ran, the third raised
    if isinstance(bad_entry, int):
        assert got[0] is ConfigurationError
        assert got[1] == (f"ingress 2 generated destination {bad_entry}, "
                          f"but the switch has only 4 ports")
    counters = got[5]
    assert counters["switch.fabric.kernel_windows"] == 2
    assert counters["switch.fabric.fallback.plan"] == 1


# --------------------------------------------------------------------- #
# Whole switch runs
# --------------------------------------------------------------------- #

def test_metrics_do_not_change_reports():
    scn = get_switch_scenario("hotspot-egress").with_overrides(num_slots=300)
    plain = SwitchModel(scn).run()
    streamed = SwitchModel(scn).run_stream(chunk_slots=64)
    registry = MetricsRegistry()
    with using_metrics(registry):
        observed = SwitchModel(scn).run()
        observed_stream = SwitchModel(scn).run_stream(chunk_slots=64)
    assert observed == plain
    assert observed_stream.fabric == streamed.fabric == plain.fabric
    assert observed_stream.ports == streamed.ports == plain.ports
    assert registry.counter("switch.fabric.kernel_windows") >= 6


def test_engines_agree_through_the_switch_model():
    scn = get_switch_scenario("incast").with_overrides(num_slots=300)
    registry = MetricsRegistry()
    with using_metrics(registry):
        reference = SwitchModel(scn).run(engine="reference")
    assert not registry.counter("switch.fabric.kernel_windows")
    array_run = SwitchModel(scn).run(engine="array")
    assert array_run.fabric == reference.fabric
    assert array_run.ports == reference.ports
