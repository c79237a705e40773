"""The fabric stage on the compiled kernel against the python loop.

``engine="array"`` runs every window of a stock policy (``islip``,
``random``, ``priority``) on the span kernel's fabric entry;
``engine="reference"`` runs the python loop, the oracle.  Window by window
the two must agree on the traces, the :class:`FabricStats` and the
arbiter's state afterwards, for every port count, traffic type and window
size.  A stream picks its path once, when it is built; on the kernel path
the VOQ image each window returns is the next window's input and the
stream's only copy of the VOQs, and a window the kernel stops raises the
reference's exception with nothing written back, not replayed.
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


def test_64_ports_in_one_slot_windows():
    """One full word of request bits a port, carried through 1-slot
    arrival and flush windows."""
    stats = assert_kernel_matches_python(
        scenario("random", "incast", 64, slots=60), chunk_slots=1)
    assert stats.flush_slots > 0


def test_each_window_takes_the_image_the_last_one_returned(monkeypatch):
    """The kernel path keeps one copy of the VOQs: the image each window
    returns goes untouched into the next, and no python VOQ is filled."""
    real = kernel.run_fabric_window
    handed, returned = [], []

    def recording(n, policy, start, count, plans, voqs, peak, **kwargs):
        handed.append(voqs)
        window = real(n, policy, start, count, plans, voqs, peak, **kwargs)
        returned.append(window.voqs)
        return window

    monkeypatch.setattr(kernel, "run_fabric_window", recording)
    for policy in POLICIES:
        handed.clear()
        returned.clear()
        scn = scenario(policy, "incast", 8, slots=200)
        stream = FabricStream(scn, chunk_slots=9)
        windows = list(stream.chunks())
        assert len(handed) == len(windows) > 20
        assert handed[0] == array("q")
        assert all(voqs is last for voqs, last in zip(handed[1:], returned))
        assert any(len(voqs) for voqs in handed)
        assert len(returned[-1]) == 0
        assert stream._voq == [{} for _ in range(8)]
        assert stream._requests == [[] for _ in range(8)]
        assert stream._ingress_backlog == [0] * 8
        assert (windows, stream.stats) == run_windows(scn, "reference",
                                                      9)[:2]


@pytest.mark.parametrize("engine", ["array", "reference"])
def test_the_path_is_chosen_once_per_stream(monkeypatch, engine):
    calls = []
    real = FabricStream._kernel_miss

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(FabricStream, "_kernel_miss", counted)
    stream = FabricStream(scenario("random", "incast", 8, slots=100),
                          chunk_slots=7, engine=engine)
    assert sum(1 for _ in stream.chunks()) > 14
    assert calls == [stream]


@pytest.mark.parametrize("traffic", ["bernoulli", "incast"])
@pytest.mark.parametrize("policy", ["islip", "random"])
def test_256_ports_in_short_windows(policy, traffic):
    """A wide image read back across many windows: four-word request
    bitsets, 7-slot windows, flush windows included."""
    stats = assert_kernel_matches_python(
        scenario(policy, traffic, 256, slots=30), chunk_slots=7)
    assert stats.flush_slots > 7


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
    pointers = ([1] * n, [2] * n)
    with pytest.raises(ConfigurationError,
                       match=r"^the fabric kernel stopped at slot 3 "
                             r"\(error arg\)$"):
        kernel.run_fabric_window(n, "islip", 3, 1, [[None]] * n, array("q"),
                                 0, pointers=pointers)
    assert pointers == ([1] * n, [2] * n)


def test_kernel_abort_leaves_arbiter_state_untouched():
    """A malformed VOQ image (indices not ascending) aborts before any
    write-back."""
    rng = random.Random(5)
    before = rng.getstate()
    image = array("q", [3, 1, 0, 2, 1, 0])
    with pytest.raises(ConfigurationError, match="error arg"):
        kernel.run_fabric_window(2, "random", 5, 4, None, image, 1, rng=rng)
    assert rng.getstate() == before


def test_kernel_names_the_policies_it_runs():
    """A policy the kernel does not run is a one-line configuration error
    that lists those it does; ``FabricStream`` never asks for one (a
    non-stock policy runs on python, as ``policy``)."""
    with pytest.raises(ConfigurationError,
                       match=r"^the fabric kernel runs no 'wfq' policy "
                             r"\(known: islip, random, priority\)$"):
        kernel.run_fabric_window(4, "wfq", 0, 1, [[None]] * 4, array("q"), 0)


@pytest.mark.parametrize("plans, pointers, message", [
    ([[None] * 4], ([0, 0], [0, 0]), "the fabric kernel takes 2 ingress"),
    ([[None] * 4, [None] * 3], ([0, 0], [0, 0]),
     "the fabric kernel takes 2 ingress"),
    ([[None] * 4] * 2, ([0, 0], [0]), "iSLIP's grant and accept"),
])
def test_kernel_inputs_of_the_wrong_shape_raise(plans, pointers, message):
    with pytest.raises(ConfigurationError, match=f"^{message}"):
        kernel.run_fabric_window(2, "islip", 0, 4, plans, array("q"), 0,
                                 pointers=pointers)
    assert pointers[0] == [0, 0]


# --------------------------------------------------------------------- #
# Error parity
# --------------------------------------------------------------------- #

class Planned(ArrivalProcess):
    """Replays a fixed destination list, entries unchecked."""

    def __init__(self, plan):
        self.plan = plan

    def next_arrival(self, slot):
        return self.plan[slot] if slot < len(self.plan) else None


def planned_stream(engine, bad_entry, policy):
    scn = scenario(policy, ports=4, slots=30)
    stream = FabricStream(scn, chunk_slots=10, engine=engine)
    plan = [None, 1, 2, None] * 5 + [3, 2, bad_entry, 0]
    stream.sources[2] = Planned(plan)
    stream.sources[3] = Planned([0] * 22 + [bad_entry])
    return stream


def raised(engine, bad_entry, policy):
    stream = planned_stream(engine, bad_entry, policy)
    registry = MetricsRegistry()
    windows = []
    with using_metrics(registry), pytest.raises(Exception) as info:
        for window in stream.chunks():
            windows.append(window)
    return (type(info.value), str(info.value), windows,
            arbiter_state(stream.fabric), stream._peak_backlog,
            registry.counters())


def after_two_windows(bad_entry, policy):
    stream = planned_stream("reference", bad_entry, policy)
    windows = stream.chunks()
    next(windows)
    next(windows)
    return arbiter_state(stream.fabric), stream._peak_backlog


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("bad_entry",
                         [4, 9, -1, -7, 2 ** 40, 1.0, True, "x"])
def test_bad_plan_entry_raises_as_the_python_loop(bad_entry, policy):
    """The kernel stops at the bad entry and raises the reference's error,
    read back from the plan at the abort record's slot and ingress, after
    the same two windows; it writes nothing of the third window back."""
    got = raised("array", bad_entry, policy)
    want = raised("reference", bad_entry, policy)
    assert got[:3] == want[:3]
    assert len(got[2]) == 2  # two clean windows ran, the third raised
    assert got[0] is ConfigurationError
    assert got[1] == (f"ingress 2 generated destination {bad_entry!r}, "
                      f"but the switch has only 4 ports")
    assert got[3:5] == after_two_windows(bad_entry, policy)
    counters = got[5]
    assert counters["switch.fabric.kernel_windows"] == 2
    assert not any(name.startswith("switch.fabric.fallback.")
                   for name in counters)


@pytest.mark.parametrize("engine", ["array", "reference"])
def test_short_ingress_window_raises(engine):
    class Short(ArrivalProcess):
        def next_arrival(self, slot):
            return None

        def arrivals_slice(self, start_slot, num_slots):
            return [None] * (num_slots - (start_slot > 0))

    stream = FabricStream(scenario(ports=4, slots=30), chunk_slots=10,
                          engine=engine)
    stream.sources[1] = Short()
    windows = stream.chunks()
    next(windows)
    with pytest.raises(ConfigurationError,
                       match=r"^ingress 1 generated 9 arrivals for the "
                             r"10-slot window at slot 10$"):
        next(windows)


@pytest.mark.parametrize("engine", ["array", "reference"])
@pytest.mark.parametrize("bad_entry", [-1, 1.5])
def test_bad_trace_pattern_raises(engine, bad_entry):
    """A trace pattern folds only its port ids onto the switch; any other
    entry reaches the fabric stage, which rejects it."""
    scn = dataclasses.replace(
        scenario(ports=4, slots=6),
        traffic={"type": "trace",
                 "params": {"pattern": [1, 2, None, bad_entry, 3, 0]}})
    with pytest.raises(ConfigurationError,
                       match=f"^ingress 0 generated destination "
                             f"{bad_entry!r}, but"):
        SwitchModel(scn).run(engine=engine)


# --------------------------------------------------------------------- #
# Whole switch runs
# --------------------------------------------------------------------- #

def test_metrics_do_not_change_reports():
    scn = get_switch_scenario("hotspot-egress").with_overrides(num_slots=300)
    plain = SwitchModel(scn).run()
    streamed = SwitchModel(scn).run(chunk_slots=64)
    registry = MetricsRegistry()
    with using_metrics(registry):
        observed = SwitchModel(scn).run()
        observed_stream = SwitchModel(scn).run(chunk_slots=64)
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


def test_cfds_ports_run_the_rows_the_fabric_kernel_draws():
    """An 8-port switch of CFDS linecards in 250-slot fabric windows: the
    fabric kernel draws every ingress plan, and each port's CFDS entry runs
    the ``int32`` rows it hands on as an explicit plan.  The fabric and the
    ports equal the reference engine's."""
    scn = dataclasses.replace(
        get_switch_scenario("uniform").with_overrides(num_slots=600),
        ports=({"scheme": "cfds",
                "buffer": {"dram_access_slots": 8, "granularity": 2,
                           "num_banks": 32},
                "arbiter": {"type": "longest_queue", "params": {}}},))
    reference = SwitchModel(scn).run(engine="reference", chunk_slots=250)
    registry = MetricsRegistry()
    with using_metrics(registry):
        array_run = SwitchModel(scn).run(engine="array", chunk_slots=250)
    assert array_run.fabric == reference.fabric
    assert array_run.ports == reference.ports
    assert registry.counter("switch.fabric.kernel_plan_slots") == 8 * 600
    assert registry.counter("engine.array.kernel_spans") > 0
    assert registry.counter("engine.array.kernel_slots") == \
        registry.counter("engine.array.span_slots")


# --------------------------------------------------------------------- #
# Ingress plans the kernel draws
# --------------------------------------------------------------------- #

def ingress_windows(scn, engine, chunk_slots, prepare=None, between=None):
    """Every window with every ingress generator's state after it, the
    stage's stats, the routing counters and the arbiter's state at the
    end; ``prepare(stream)`` runs before the first window and
    ``between(stream)`` after it."""
    registry = MetricsRegistry()
    stream = FabricStream(scn, chunk_slots=chunk_slots, engine=engine)
    if prepare is not None:
        prepare(stream)
    windows = []
    with using_metrics(registry):
        for start, rows in stream.chunks():
            windows.append((start, rows, [source._rng.getstate()
                                          for source in stream.sources]))
            if between is not None and len(windows) == 1:
                between(stream)
    return (windows, stream.stats, registry.counters(),
            arbiter_state(stream.fabric))


@pytest.mark.parametrize("chunk_slots", [1, 73, None])
@pytest.mark.parametrize("traffic", ["bernoulli", "hotspot", "zipf"])
def test_kernel_draws_ingress_plans_as_python_does(traffic, chunk_slots):
    """Window by window, the kernel-drawn plans leave the rows and every
    ingress generator where python's draw leaves them."""
    scn = scenario("random", traffic, 8, slots=150)
    got = ingress_windows(scn, "array", chunk_slots)
    want = ingress_windows(scn, "reference", chunk_slots)
    assert got[:2] == want[:2]
    assert got[2]["switch.fabric.kernel_plan_slots"] == 8 * 150
    assert "switch.fabric.kernel_plan_slots" not in want[2]


def test_aborted_window_leaves_ingress_generators_untouched(monkeypatch):
    """A window the kernel aborts after loading the ingress generators
    raises and writes none of them back: every generator stays where
    window 1 left it."""
    real = kernel.run_fabric_window
    starts = []

    def abort_second(n, policy, start, count, plans, voqs, peak, **kwargs):
        starts.append(start)
        if len(starts) == 2:
            voqs = array("q", [n * n, 1, 0])  # names no VOQ: ERR_ARG
        return real(n, policy, start, count, plans, voqs, peak, **kwargs)

    scn = scenario("islip", "bernoulli", 8, slots=150)
    want = ingress_windows(scn, "reference", 50)[0][0]
    monkeypatch.setattr(kernel, "run_fabric_window", abort_second)
    stream = FabricStream(scn, chunk_slots=50)
    windows = stream.chunks()
    assert next(windows) == want[:2]
    with pytest.raises(ConfigurationError,
                       match=r"^the fabric kernel stopped at slot 50 "
                             r"\(error arg\)$"):
        next(windows)
    assert starts == [0, 50]
    assert [source._rng.getstate() for source in stream.sources] == want[2]


def test_kernel_abort_leaves_ingress_generators_untouched():
    rngs = [random.Random(seed) for seed in range(3)]
    before = [rng.getstate() for rng in rngs]
    bern = [(rng, kernel.gate_threshold(0.9), [1.0, 2.0, 3.0], 3.0)
            for rng in rngs]
    image = array("q", [3, 1, 0, 2, 1, 0])
    with pytest.raises(ConfigurationError, match="error arg"):
        kernel.run_fabric_window(3, "priority", 5, 4, None, image, 1,
                                 bern=bern)
    assert [rng.getstate() for rng in rngs] == before


@pytest.mark.parametrize("engine", ["array", "reference"])
@pytest.mark.parametrize("traffic", sorted(TRAFFIC) + ["trace-driven"])
def test_kernel_plan_slots_counter(traffic, engine):
    """Ports x arrival slots for bernoulli, zipf and hotspot traffic on the
    kernel; 0 for incast, permutation and trace-driven traffic, and on the
    reference engine.  Counting leaves the report as it was."""
    if traffic == "trace-driven":
        scn = get_switch_scenario("trace-driven").with_overrides(
            num_slots=200)
    else:
        scn = scenario("islip", traffic, 8, slots=200)
    plain = SwitchModel(scn).run(engine=engine, chunk_slots=64)
    registry = MetricsRegistry()
    with using_metrics(registry):
        observed = SwitchModel(scn).run(engine=engine, chunk_slots=64)
    assert observed == plain
    drawn = (engine == "array"
             and traffic in ("bernoulli", "hotspot", "zipf"))
    assert registry.counter("switch.fabric.kernel_plan_slots") == (
        scn.num_ports * 200 if drawn else 0)


def test_shared_ingress_generator_keeps_python_plans():
    """Ingress plans go to the kernel only when every ingress has its own
    generator: two ingresses drawing from one generator draw in python."""
    scn = scenario("islip", "bernoulli", 4, slots=100)
    got, want = (FabricStream(scn, engine=engine) for engine in
                 ("array", "reference"))
    for stream in (got, want):
        stream.sources[1]._rng = stream.sources[0]._rng
    registry = MetricsRegistry()
    with using_metrics(registry):
        rows = [window for window in got.chunks()]
    assert rows == [window for window in want.chunks()]
    assert registry.counter("switch.fabric.kernel_windows") >= 1
    assert not registry.counter("switch.fabric.kernel_plan_slots")


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_ingress_weight_made_non_finite_raises(value):
    """An ingress whose weight total is not finite is no plan the kernel
    draws: python draws every ingress's window and raises ``choices()``'s
    error at that ingress's first arrival, on either engine, leaving the
    generators in the same places."""
    states = []
    for engine in ("array", "reference"):
        stream = FabricStream(scenario("islip", "bernoulli", 4, slots=60),
                              chunk_slots=20, engine=engine)
        stream.sources[2].weights[1] = value
        with pytest.raises(ValueError,
                           match="^Total of weights must be finite$"):
            list(stream.chunks())
        states.append([source._rng.getstate() for source in stream.sources])
    assert states[0] == states[1]


# --------------------------------------------------------------------- #
# Edges of the guided ingress draw and of the match, each against the
# python fabric
# --------------------------------------------------------------------- #

#: Ingress weights over 16 egresses that the guided draw must search as
#: python's bisect does: all on the last egress, zeros at both ends, and a
#: last egress lighter than a bucket (the last bucket's search must still
#: reach it).
EDGE_WEIGHTS = {
    0: [0.0] * 15 + [1.0],
    1: [0.0, 0.0] + [1.0, 3.0, 0.5] * 4 + [0.0, 0.0],
    2: [1.0] * 15 + [0.5],
}


def set_edge_weights(stream):
    for ingress, values in EDGE_WEIGHTS.items():
        stream.sources[ingress].weights[:] = values


def assert_edge_matches_python(scn, chunk_slots=None, prepare=None,
                               between=None):
    """Window by window, the kernel's rows and generators are the python
    fabric's, as are the stats and the arbiter's state; the kernel drew
    every ingress plan.  Returns the kernel's windows."""
    got = ingress_windows(scn, "array", chunk_slots, prepare, between)
    want = ingress_windows(scn, "reference", chunk_slots, prepare, between)
    assert (got[0], got[1], got[3]) == (want[0], want[1], want[3])
    assert got[2]["switch.fabric.kernel_plan_slots"] == (scn.num_ports
                                                         * scn.num_slots)
    assert got[1].offered_cells > 0
    return got[0]


@pytest.mark.parametrize("chunk_slots", [15, 16, 17])
def test_edge_guided_draw_windows(chunk_slots):
    """Windows shorter than the 16 ports search each ingress's whole
    range; windows of 16 slots or more search within its guide."""
    windows = assert_edge_matches_python(
        scenario("random", "bernoulli", 16, slots=200),
        chunk_slots=chunk_slots, prepare=set_edge_weights)
    # ingress 2 reached its light last egress
    assert any(2 in rows[15] for _, rows, _ in windows)


def test_edge_weight_made_negative_between_windows():
    """The next window finds that ingress's cumulative weights not
    monotone: it builds no guide for it and searches its whole range."""
    def negate(stream):
        stream.sources[3].weights[5] = -0.75

    assert_edge_matches_python(scenario("islip", "bernoulli", 16, slots=60),
                               chunk_slots=20, between=negate)


@pytest.mark.parametrize("ports", [63, 64, 65])
def test_edge_random_policy_at_word_boundaries(ports):
    """The random policy's k-th set bit in request bitsets of one word,
    one full word and two words, in one window long enough for guides."""
    assert_edge_matches_python(scenario("random", "bernoulli", ports,
                                        slots=80))


@pytest.mark.parametrize("ports", [1, 8, 65])
def test_edge_islip_pointers_through_the_wrap(ports):
    """Every pointer starts at the last port, so the first matches wrap
    them to port 0."""
    def last_port(stream):
        stream.fabric._grant[:] = [ports - 1] * ports
        stream.fabric._accept[:] = [ports - 1] * ports

    assert_edge_matches_python(
        scenario("islip", "bernoulli", ports, slots=40), chunk_slots=ports,
        prepare=last_port)


@pytest.mark.parametrize("ports", [1, 2, 63, 64, 65])
@pytest.mark.parametrize("policy", POLICIES)
def test_edge_policies_at_word_boundaries(policy, ports):
    """Every policy's grant and accept picks on request sets of one word (1,
    2 and 63 ports), one full word (64) and two words (65): the one-word
    match and the multiword one, in 20-slot arrival windows and the flush
    windows after them (a 1-port switch moves every cell in the slot it
    arrives, so it has none)."""
    scn = scenario(policy, "bernoulli", ports, slots=60)
    windows = assert_edge_matches_python(scn, chunk_slots=20)
    flushed = [start for start, _, _ in windows if start >= scn.num_slots]
    assert bool(flushed) == (ports > 1)


def test_edge_waits_past_the_first_histogram_bins():
    """Every ingress sends nine tenths of its cells to egress 0, which
    takes one a slot: its VOQs grow through one 1200-slot arrival window,
    outgrowing their first allocation several times over, and the last
    cells wait past the wait histogram's first 1024 bins."""
    scn = dataclasses.replace(
        scenario("islip", "bernoulli", 4, slots=1200),
        traffic={"type": "hotspot",
                 "params": {"hot_queues": [0], "hot_fraction": 0.9,
                            "load": 0.9}})
    windows = assert_edge_matches_python(scn, chunk_slots=1200)
    stats = ingress_windows(scn, "array", 1200)[1]
    assert len(windows) > 2
    assert stats.peak_voq_backlog > 64
    assert stats.wait_max > 1024


@pytest.mark.parametrize("cells, stopped", [
    ([6], 5), ([5, 7], 6), ([5, 6, 2 ** 40], 7)])
def test_edge_image_arrival_after_the_window_start_raises(cells, stopped):
    """A VOQ image holding a cell that arrived after the slot it is moved
    in would wait a negative number of slots: the wait histogram's inline
    add sends it to the growth path, which rejects it, and the flush window
    from slot 5 raises ``ConfigurationError`` at that slot with nothing
    written back."""
    voqs = array("q", [0 * 2 + 1, len(cells), *cells])
    pointers = ([0, 0], [0, 0])
    with pytest.raises(ConfigurationError,
                       match=f"stopped at slot {stopped} .error arg.$"):
        kernel.run_fabric_window(2, "islip", 5, 4, None, voqs, len(cells),
                                 pointers=pointers)
    assert pointers == ([0, 0], [0, 0])
