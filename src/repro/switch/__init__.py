"""Switch-scale composition: many per-port buffers behind a crossbar fabric.

The paper dimensions one linecard buffer; a router composes many of them.
This package scales the reproduction to that system level:

* :mod:`repro.switch.fabric` — crossbar matching policies (iSLIP-style
  round-robin, random, static priority);
* :mod:`repro.switch.traffic` — ingress traffic (every single-port arrival
  process read as destination-port traffic, plus incast and permutation
  patterns that only exist with correlated sources);
* :mod:`repro.switch.scenario` — the declarative :class:`SwitchScenario`
  spec with JSON round-trip;
* :mod:`repro.switch.registry` — the named registry behind
  ``python -m repro switch``;
* :mod:`repro.switch.model` — the execution model (the fabric stage
  streamed into in-process port sessions, one job through the experiment
  runner) and the merged :class:`SwitchReport`;
* :mod:`repro.switch.oracle` — the same report the long way round, each
  port its own ``trace`` scenario: the tests' and the fuzzer's oracle.

A switch port is executed as an ordinary single-port
:class:`~repro.workloads.scenario.Scenario` fed the fabric's egress rows —
single-port scenarios are the degenerate one-port case, not a separate code
path.
"""

from repro.switch.fabric import (
    FABRIC_TYPES,
    FabricArbiter,
    ISLIPFabricArbiter,
    PriorityFabricArbiter,
    RandomFabricArbiter,
)
from repro.switch.model import (
    DEFAULT_ENGINE,
    FabricStats,
    FabricStream,
    SwitchModel,
    SwitchReport,
    port_template,
    run_fabric,
    run_switch_spec,
)
from repro.switch.registry import (
    all_switch_scenarios,
    get_switch_scenario,
    register_switch_scenario,
    switch_scenario_names,
)
from repro.switch.scenario import PORT_SEED_STRIDE, SwitchScenario
from repro.switch.traffic import (
    INGRESS_TRAFFIC_TYPES,
    IncastTraffic,
    PermutationTraffic,
    build_ingress_traffic,
)

__all__ = [
    "DEFAULT_ENGINE",
    "FABRIC_TYPES",
    "FabricArbiter",
    "FabricStats",
    "FabricStream",
    "INGRESS_TRAFFIC_TYPES",
    "ISLIPFabricArbiter",
    "IncastTraffic",
    "PORT_SEED_STRIDE",
    "PermutationTraffic",
    "PriorityFabricArbiter",
    "RandomFabricArbiter",
    "SwitchModel",
    "SwitchReport",
    "SwitchScenario",
    "all_switch_scenarios",
    "build_ingress_traffic",
    "get_switch_scenario",
    "port_template",
    "register_switch_scenario",
    "run_fabric",
    "run_switch_spec",
    "switch_scenario_names",
]
