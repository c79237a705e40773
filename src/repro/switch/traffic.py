"""Ingress traffic for switch scenarios.

At switch scale an "arrival" is a cell entering an ingress port with a
*destination egress port*; the single-linecard arrival processes of
:mod:`repro.traffic.arrivals` model exactly that if their queue index is read
as the destination port.  Switch scenarios therefore reuse the whole arrival
library (``bernoulli`` over destinations is uniform traffic, ``hotspot`` is a
hot egress, ``zipf`` is skewed egress popularity, ...) and add the two
patterns that only exist with multiple correlated sources:

* :class:`IncastTraffic` — periodically, *every* ingress bursts at the same
  victim egress simultaneously (the synchronised fan-in of distributed
  storage/partition-aggregate workloads); between bursts the background is
  uniform.
* :class:`PermutationTraffic` — ingress ``i`` sends all its cells to egress
  ``(i + shift) mod N``: a fixed permutation, the contention-free best case
  every fabric should sustain at full load.

Both are ordinary :class:`~repro.traffic.arrivals.ArrivalProcess` subclasses;
the per-ingress context (``num_queues`` = port count, the ``ingress`` index,
a per-ingress seed) is injected by :func:`build_ingress_traffic` when the
spec does not pin it, mirroring the seed injection of
:mod:`repro.workloads.scenario`.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Mapping, Optional

from repro.errors import ConfigurationError, ValidationError
from repro.traffic.arrivals import ArrivalProcess
from repro.workloads.scenario import ARRIVAL_TYPES, accepts_param


class IncastTraffic(ArrivalProcess):
    """Synchronised periodic fan-in at one victim egress.

    Every ``period`` slots, the first ``burst`` slots are an *incast phase*:
    the source sends to ``victim`` in every one of them.  Because the phase
    is a pure function of the slot number, every ingress port built from the
    same spec bursts in lockstep — ``N`` cells per slot aimed at one egress
    that can accept only one, the worst fan-in the crossbar admits.  Outside
    the phase the source offers uniform background traffic at ``load``.
    """

    def __init__(self,
                 num_queues: int,
                 victim: int = 0,
                 period: int = 64,
                 burst: int = 8,
                 load: float = 0.5,
                 seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if not 0 <= victim < num_queues:
            raise ValidationError("victim must be a valid egress port")
        if period < 1 or not 0 <= burst <= period:
            raise ValidationError("need 0 <= burst <= period and period >= 1")
        if not 0.0 <= load <= 1.0:
            raise ValidationError("load must be in [0, 1]")
        self.num_queues = num_queues
        self.victim = victim
        self.period = period
        self.burst = burst
        self.load = load
        self._rng = random.Random(seed)

    def next_arrival(self, slot: int) -> Optional[int]:
        if slot % self.period < self.burst:
            return self.victim
        if self._rng.random() >= self.load:
            return None
        return self._rng.randrange(self.num_queues)


class PermutationTraffic(ArrivalProcess):
    """A fixed ingress-to-egress permutation at rate ``load``.

    With every ingress using the same ``shift`` the destinations form a
    cyclic permutation: no two ingress ports ever contend, so any
    work-conserving fabric must carry the full offered load with zero fabric
    queueing.  That makes this the calibration pattern for fabric-arbitrage
    overhead (and, with mismatched shifts, a building block for partial
    overlap studies).
    """

    def __init__(self,
                 num_queues: int,
                 ingress: int = 0,
                 shift: int = 1,
                 load: float = 1.0,
                 seed: int = 0) -> None:
        if num_queues <= 0:
            raise ValidationError("num_queues must be positive")
        if not 0.0 <= load <= 1.0:
            raise ValidationError("load must be in [0, 1]")
        self.num_queues = num_queues
        self.destination = (ingress + shift) % num_queues
        self.load = load
        self._rng = random.Random(seed)

    def next_arrival(self, slot: int) -> Optional[int]:
        if self._rng.random() >= self.load:
            return None
        return self.destination


#: Ingress traffic factories: every single-port arrival type (queue index
#: read as destination egress) plus the switch-only correlated patterns.
INGRESS_TRAFFIC_TYPES: Dict[str, type] = {
    **ARRIVAL_TYPES,
    "incast": IncastTraffic,
    "permutation": PermutationTraffic,
}


def build_ingress_traffic(spec: Mapping[str, Any],
                          num_ports: int,
                          ingress: int,
                          seed: int) -> ArrivalProcess:
    """Instantiate one ingress port's traffic source from its spec.

    Context the spec does not pin is injected when the generator accepts it:
    ``num_queues`` (the destination space is the port count), ``ingress``
    (so permutation-style sources know who they are) and a per-ingress
    ``seed`` (so sources built from one broadcast spec draw independent
    streams deterministically).
    """
    try:
        type_name = spec["type"]
    except (TypeError, KeyError):
        raise ConfigurationError(
            "ingress traffic spec must be a dict with a 'type' key")
    try:
        cls = INGRESS_TRAFFIC_TYPES[type_name]
    except KeyError:
        known = ", ".join(sorted(INGRESS_TRAFFIC_TYPES))
        raise ConfigurationError(
            f"unknown ingress traffic type {type_name!r} (known: {known})")
    params = dict(spec.get("params", {}))
    if accepts_param(cls, "num_queues") and "num_queues" not in params:
        params["num_queues"] = num_ports
    if accepts_param(cls, "ingress") and "ingress" not in params:
        params["ingress"] = ingress
    if accepts_param(cls, "seed") and "seed" not in params:
        params["seed"] = seed
    if "pattern" in params:
        # Replayed destination traces rescale with the port count by folding
        # (a trace captured on a larger switch drives a smaller one), the
        # same rule queue_row applies to ingress→queue mapping.  Only port
        # ids fold: anything but a non-negative plain int, like an
        # out-of-range destination from a stochastic generator, is an entry
        # the fabric stage must reject.
        params["pattern"] = [dest % num_ports
                             if type(dest) is int and dest >= 0 else dest
                             for dest in params["pattern"]]
    return cls(**params)
