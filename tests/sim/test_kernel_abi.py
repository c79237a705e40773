"""The span kernel's interface: written once, in ``_spankernel.c``.

Each struct and code table the kernel shares with python is one list in
the C source, which expands into its declaration and into the description
``kernel_interface`` returns.  :mod:`repro.sim.kernel` builds its ctypes
structures, its role lists and its codes from that description when it
loads the kernel, and a description it cannot read, or whose layout it
builds otherwise, leaves the kernel unavailable (``abi``): array runs go
to the reference engine, as without a compiler.

These tests pin python's side to the kernel's: every offset and size,
every ``conf`` and ``core`` field as an attribute of the core it names
(fresh cores and the version-4 snapshots of ``tests/fixtures``), every
name python maps, and the limits python needs before any kernel loads.
They need the kernel only when a compiler can build it: a kernel that
compiles but does not load fails them.
"""

import base64
import ctypes
import json
import pickle
from array import array
from pathlib import Path

import pytest

from repro.core.buffer import CFDSPacketBuffer
from repro.core.config import CFDSConfig
from repro.obs.metrics import MetricsRegistry, using_metrics
from repro.rads.buffer import RADSPacketBuffer
from repro.rads.config import RADSConfig
from repro.sim import kernel
from repro.sim.array_engine import build_array_core
from repro.sim.engine import ClosedLoopSimulation
from repro.switch.model import _KERNEL_POLICIES
from repro.traffic.arbiters import RandomArbiter
from repro.traffic.arrivals import BernoulliArrivals

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "checkpoints"

#: The version-4 snapshots, by the core's scheme.
V4_FIXTURES = {"rads": "rads-random-v4", "cfds": "cfds-renaming-v4"}

UNAVAILABLE = "engine.array.kernel_unavailable"


@pytest.fixture
def abi():
    """The loaded kernel; without a compiler to build it, a skip."""
    if kernel._compiler() is None:
        pytest.skip("no C compiler: the span kernel is never built")
    loaded = kernel.load_kernel()
    assert loaded is not None, "the span kernel compiles but does not load"
    return loaded


@pytest.fixture
def reload(monkeypatch):
    """Load the kernel afresh under metrics, the loaded one restored after
    the test; returns the kernel and the registry."""

    def load():
        for name in ("_kernel", "_release", "_fabric"):
            monkeypatch.setattr(kernel, name, None)
        monkeypatch.setattr(kernel, "_kernel_tried", False)
        registry = MetricsRegistry()
        with using_metrics(registry):
            loaded = kernel.load_kernel()
        return loaded, registry

    return load


def _unavailable(registry):
    """The ``engine.array.kernel_unavailable.<reason>`` counters."""
    prefix = UNAVAILABLE + "."
    return {name[len(prefix):]: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith(prefix)}


def _rads_sim(**overrides):
    return ClosedLoopSimulation(
        RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4,
                                    **overrides)),
        BernoulliArrivals(8, load=0.9, seed=3),
        RandomArbiter(8, load=0.95, seed=4))


def _cfds_sim(renaming=True):
    return ClosedLoopSimulation(
        CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                    granularity=2, num_banks=32,
                                    strict=False),
                         use_renaming=renaming, group_capacity_cells=48),
        BernoulliArrivals(8, load=0.9, seed=3),
        RandomArbiter(8, load=0.7, seed=4))


def _fixture_core(name):
    document = json.loads((FIXTURES / f"{name}.ckpt.json").read_text(
        encoding="utf-8"))
    return pickle.loads(base64.b64decode(document["state_b64"]))["core"]


def test_python_lays_out_every_struct_as_the_kernel_does(abi):
    """Every field's ctypes offset and size, and every structure's size,
    are the description's, read afresh from the kernel."""
    fields, checked = [], set()
    for owner, name, ctype, role, value, size in kernel._rows(
            ctypes.CDLL(str(kernel._cache_path()))):
        if owner == "const":
            continue
        if not owner:
            fields.append((name, ctype, role, value, size))
            continue
        struct = abi.structs[owner]
        assert ctypes.sizeof(struct) == size, owner
        assert [name for name, *_ in fields] == [
            name for name, _ in struct._fields_], owner
        for name, ctype, role, value, size in fields:
            field = getattr(struct, name)
            assert (field.offset, field.size) == (value, size), (owner, name)
            if role == "base":
                assert dict(struct._fields_)[name] is abi.structs[ctype]
        checked.add(owner)
        fields = []
    assert checked == set(abi.structs) == {
        "kcfg", "kptrs", "ccfg", "cptrs", "fcfg", "fptrs"}


@pytest.mark.parametrize("scheme", sorted(V4_FIXTURES))
def test_every_core_field_is_an_attribute_of_its_core(abi, scheme):
    """Each ``conf`` and ``core`` field of a span entry's structs names an
    attribute of its scheme's core: of fresh cores, and of the core a
    version-4 snapshot restores, so no snapshot loses a field the kernel
    reads."""
    entry = abi.spans[scheme]
    # Each is a field of the entry's own structures, a base's included.
    for struct, names in ((entry.cfg, entry.conf + entry.scalars),
                          (entry.ptrs, entry.arrays)):
        assert all(name in vars(struct) for name in names), struct
    if scheme == "rads":
        sims = [_rads_sim(), _rads_sim(strict=True)]
    else:
        sims = [_cfds_sim(renaming=True), _cfds_sim(renaming=False)]
    cores = [build_array_core(sim) for sim in sims]
    cores.append(_fixture_core(V4_FIXTURES[scheme]))
    assert entry.conf and entry.scalars and entry.arrays
    for core in cores:
        assert core.scheme == scheme
        for name in entry.conf:
            value = getattr(core, name)
            assert value is None or isinstance(value, int), name
        for name in entry.scalars:
            assert isinstance(getattr(core, name), int), name
        for name in entry.arrays:
            assert isinstance(getattr(core, name), array), name
            assert getattr(core, name).typecode == "q", name
    # The names both entries share are the shared struct's, in one order.
    rads, cfds = abi.spans["rads"], abi.spans["cfds"]
    for names in ("conf", "scalars", "arrays"):
        shared = getattr(rads, names)
        assert getattr(cfds, names)[:len(shared)] == shared


def test_every_name_python_maps_is_in_the_description(abi):
    consts = abi.consts
    arbiters = {kernel.span_arbiter(None, 8), *kernel._ARB_NAMES.values()}
    assert arbiters == {name for name in consts if name.startswith("ARB_")}
    assert set(kernel._STRUCTURES) == {name for name in consts
                                       if name.startswith("OV_")}
    assert set(_KERNEL_POLICIES.values()) == set(abi.policies)
    for name in ("HEAD_ECQF", "HEAD_ECQF_FALLBACK", "HEAD_MDQF",
                 "PLAN_EXPLICIT", "PLAN_BERNOULLI", "PLAN_NONE"):
        assert name in consts
    assert abi.errors[consts["ERR_OK"]] == "ok"
    assert set(abi.errors.values()) >= {
        "oom", "arg", "plan", "state", "overflow", "miss", "conflict", "bus",
        "arbiter"}


def test_limits_python_needs_before_loading_are_the_kernels(abi):
    consts = abi.consts
    assert kernel.MAX_KERNEL_QUEUES == consts["MAX_QUEUES"]
    assert kernel.MAX_FABRIC_PORTS == consts["MAX_PORTS"]
    assert kernel.CRIT_INF == consts["CRIT_INF"]
    assert kernel.NO_SLOT == consts["NO_SLOT"]


def test_the_kernel_loads_and_counts_it(abi, reload):
    loaded, registry = reload()
    assert loaded is not None and kernel._fabric is not None
    assert registry.counter("engine.array.kernel_loaded") == 1
    assert registry.counter(UNAVAILABLE) == 0


def test_a_wrong_type_map_leaves_the_kernel_unavailable(abi, reload,
                                                       monkeypatch):
    """Python reading ``int64_t`` as 32 bits lays every struct out unlike
    the kernel: the kernel is unavailable (``abi``), and an array run goes
    to the reference engine, with the same report."""
    monkeypatch.setitem(kernel._CTYPES, "int64_t", ctypes.c_int32)
    loaded, registry = reload()
    assert loaded is None and kernel.load_kernel() is None
    assert registry.counter(UNAVAILABLE) == 1
    assert _unavailable(registry) == {"abi": 1}
    registry = MetricsRegistry()
    with using_metrics(registry):
        array_run = _rads_sim().run(600, engine="array")
    reference = _rads_sim().run(600, engine="reference")
    assert array_run.throughput == reference.throughput
    assert array_run.latency == reference.latency
    assert array_run.buffer_result == reference.buffer_result
    assert registry.counter("engine.array.fallback.unavailable") == \
        array_run.throughput.slots > 600
    assert registry.counter("engine.array.kernel_spans") == 0


def test_a_description_python_cannot_read_leaves_the_kernel_unavailable(
        abi, reload, monkeypatch):
    """A C type python has no ctypes for is as unavailable (``abi``) as a
    layout that disagrees."""
    rows = kernel._rows

    def unknown_type(lib):
        return [(owner, name, "__int128" if name == "granularity" else ctype,
                 role, value, size)
                for owner, name, ctype, role, value, size in rows(lib)]

    monkeypatch.setattr(kernel, "_rows", unknown_type)
    loaded, registry = reload()
    assert loaded is None
    assert _unavailable(registry) == {"abi": 1}


def test_each_reason_the_kernel_is_unavailable(abi, reload, monkeypatch,
                                               tmp_path):
    """Nothing to build the kernel with, a build that fails, a cached
    ``.so`` we do not own and one ``CDLL`` cannot load each count their own
    reason beside the total."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_compiler", lambda: None)
        loaded, registry = reload()
    assert loaded is None and _unavailable(registry) == {"no_compiler": 1}

    with monkeypatch.context() as patch:
        patch.setattr(kernel, "_flag_sets", lambda: (("-no-such-flag",),))
        loaded, registry = reload()
    assert loaded is None and _unavailable(registry) == {"compile_failed": 1}

    cached = kernel._cache_path()
    cached.parent.mkdir(parents=True, mode=0o700, exist_ok=True)
    cached.write_bytes(b"not a shared object")
    cached.chmod(0o700)
    loaded, registry = reload()
    assert loaded is None and _unavailable(registry) == {"load_failed": 1}

    cached.chmod(0o770)
    loaded, registry = reload()
    assert loaded is None and _unavailable(registry) == {"untrusted": 1}
    assert registry.counter(UNAVAILABLE) == 1

