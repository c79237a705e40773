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
