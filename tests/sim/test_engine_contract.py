"""The arbiter/engine contract, enforced identically on every engine.

The retired batched loop used to index ``backlog[request]`` straight off whatever a
custom arbiter returned: an index ``>= num_queues`` crashed with a bare
``IndexError``, ``-1`` silently read the *last* queue's backlog (diverging
from the reference loop's ``can_request`` gate), and a float or bool slipped
even deeper before failing.  The pinned contract: a request is ``None`` or a
plain ``int`` in ``[0, num_queues)``; anything else raises
:class:`~repro.errors.ArbiterContractError` with the same message on the
reference and array engines — and on the streaming path, which reuses them.
"""

import pytest

from repro.errors import ArbiterContractError
from repro.traffic.arbiters import Arbiter
from repro.workloads.registry import get_scenario

#: Both engines, plus ``batched``: the retired name runs the reference loop
#: and must enforce the same contract.
ENGINES = ("reference", "batched", "array")

#: Invalid returns and the slot at which the arbiter misbehaves.
BAD_REQUESTS = (
    pytest.param(8, id="out-of-range"),          # num_queues for an 8q buffer
    pytest.param(10 ** 9, id="way-out-of-range"),
    pytest.param(-1, id="negative"),             # would silently alias q7
    pytest.param(-5, id="very-negative"),
    pytest.param(True, id="bool"),               # bool is not a queue index
    pytest.param(2.0, id="float"),
    pytest.param("3", id="string"),
)


class MisbehavingArbiter(Arbiter):
    """Behaves like a fixed round-robin until ``bad_slot``, then returns
    ``bad_request`` once."""

    def __init__(self, num_queues, bad_request, bad_slot=57):
        self.num_queues = num_queues
        self.bad_request = bad_request
        self.bad_slot = bad_slot

    def next_request(self, slot, backlog):
        if slot == self.bad_slot:
            return self.bad_request
        queue = slot % self.num_queues
        return queue if backlog[queue] > 0 else None


def _sim_with(arbiter, record_trace=False):
    scenario = get_scenario("uniform-bernoulli")
    sim = scenario.build_simulation(record_trace=record_trace)
    sim.arbiter = arbiter
    return sim


@pytest.mark.parametrize("bad_request", BAD_REQUESTS)
@pytest.mark.parametrize("engine", ENGINES)
def test_invalid_request_raises_identically_on_every_engine(engine,
                                                            bad_request):
    sim = _sim_with(MisbehavingArbiter(8, bad_request))
    with pytest.raises(ArbiterContractError) as excinfo:
        sim.run(200, engine=engine)
    assert excinfo.value.num_queues == 8
    assert excinfo.value.slot == 57
    assert excinfo.value.request == bad_request or (
        excinfo.value.request is bad_request)


@pytest.mark.parametrize("bad_request", [8, -1, True])
def test_error_message_is_engine_independent(bad_request):
    """The differential guarantee: not just the same type, the same error."""
    messages = set()
    for engine in ENGINES:
        sim = _sim_with(MisbehavingArbiter(8, bad_request))
        with pytest.raises(ArbiterContractError) as excinfo:
            sim.run(200, engine=engine)
        messages.add(str(excinfo.value))
    assert len(messages) == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_streaming_path_enforces_the_same_contract(engine):
    sim = _sim_with(MisbehavingArbiter(8, 99))
    with pytest.raises(ArbiterContractError, match=r"\[0, 8\)"):
        sim.run_stream(200, engine=engine, chunk_slots=50)


@pytest.mark.parametrize("engine", ENGINES)
def test_well_behaved_custom_arbiter_still_runs(engine):
    """The validation must not reject the legal returns: ints in range and
    None, including requests for currently empty queues (gated to idle)."""

    class EagerArbiter(Arbiter):
        def next_request(self, slot, backlog):
            return slot % 8  # sometimes an empty queue: legal, gated to None

    sim = _sim_with(EagerArbiter())
    report = sim.run(200, engine=engine)
    assert report.throughput.departures > 0


def test_gating_still_matches_across_engines():
    """The differential check the bug report asked to pin: a custom arbiter
    whose requests are legal but often inadmissible produces bit-identical
    reports everywhere (no engine silently diverges on the gate)."""

    class EagerArbiter(Arbiter):
        def next_request(self, slot, backlog):
            return (slot * 5) % 8

    reports = {}
    for engine in ENGINES:
        sim = _sim_with(EagerArbiter(), record_trace=True)
        reports[engine] = sim.run(400, engine=engine)
    for engine in ("batched", "array"):
        assert reports[engine].throughput == reports["reference"].throughput
        assert reports[engine].latency == reports["reference"].latency
        assert (reports[engine].trace.events
                == reports["reference"].trace.events)


# --------------------------------------------------------------------- #
# Trace arbiters and arrival plans whose entries name no queue.
# --------------------------------------------------------------------- #

#: The scheme of each leg, and a machine of 8 queues on it.
SCHEMES = ("rads", "cfds")


def _traced_sim(scheme, arrivals, requests):
    from repro.core.buffer import CFDSPacketBuffer
    from repro.core.config import CFDSConfig
    from repro.rads.buffer import RADSPacketBuffer
    from repro.rads.config import RADSConfig
    from repro.sim.engine import ClosedLoopSimulation
    from repro.traffic.arbiters import TraceArbiter
    from repro.traffic.arrivals import TraceArrivals

    buffer = (RADSPacketBuffer(RADSConfig(num_queues=8, granularity=4))
              if scheme == "rads" else
              CFDSPacketBuffer(CFDSConfig(num_queues=8, dram_access_slots=8,
                                          granularity=2, num_banks=32)))
    return ClosedLoopSimulation(buffer, TraceArrivals(arrivals),
                                TraceArbiter(requests))


def _run(sim, mode, engine):
    if mode == "monolithic":
        return sim.run(300, engine=engine)
    return sim.run_stream(300, engine=engine, chunk_slots=37)


def _raised(make_sim, mode, engine, error):
    with pytest.raises(error) as excinfo:
        _run(make_sim(), mode, engine)
    return type(excinfo.value), str(excinfo.value)


#: Each queue once and again, one cell a slot, then idle.
FILL = [q % 8 for q in range(120)]


@pytest.mark.parametrize("mode", ["monolithic", "streamed"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("entry", [200, -1, 1.5, "x"],
                         ids=["past-last", "minus-one", "float", "string"])
def test_trace_arbiter_entry_naming_no_queue_raises(entry, scheme, mode):
    """A trace arbiter entry that is not a plain int in range is handed to
    the engines' contract check, which raises the same
    ``ArbiterContractError`` at its slot on both engines."""
    requests = [None] * 60 + [q % 8 for q in range(30)] + [entry]

    def make_sim():
        return _traced_sim(scheme, FILL, requests)

    reference = _raised(make_sim, mode, "reference", ArbiterContractError)
    assert reference[1] == (
        f"arbiter returned {entry!r} at slot 90, but a request must be "
        "None or an int in [0, 8)")
    assert _raised(make_sim, mode, "array", ArbiterContractError) \
        == reference


@pytest.mark.parametrize("engine", ["reference", "array"])
def test_trace_arbiter_minus_one_raises_with_the_last_queue_empty(engine):
    """-1 does not read queue 7's backlog: with queue 7 empty it still
    raises instead of idling."""
    sim = _traced_sim("rads", [q % 7 for q in range(70)],
                      [None] * 40 + [-1])
    with pytest.raises(ArbiterContractError, match="returned -1 at slot 40"):
        sim.run(100, engine=engine)


@pytest.mark.parametrize("mode", ["monolithic", "streamed"])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("entry", [8, -1, 2 ** 40],
                         ids=["past-last", "minus-one", "past-int32"])
def test_arrival_entry_naming_no_queue_raises(entry, scheme, mode):
    """An arrival entry that names no queue raises ``ValidationError``
    naming the slot and the entry, the same on both engines (the kernel
    from its abort record)."""
    from repro.errors import ValidationError

    def make_sim():
        return _traced_sim(scheme, FILL[:100] + [entry], FILL)

    reference = _raised(make_sim, mode, "reference", ValidationError)
    assert reference[1] == (
        f"arrival {entry!r} at slot 100 names no queue: an arrival must be "
        "None or an int in [0, 8)")
    assert _raised(make_sim, mode, "array", ValidationError) == reference
