"""Each egress port as its own ``trace`` scenario: the switch's oracle.

:meth:`~repro.switch.model.SwitchModel.run` streams the fabric's ``int32``
rows into in-process port sessions.  The oracle takes the long way round:
the whole fabric stage as ``Optional[int]`` traces
(:func:`~repro.switch.model.run_fabric`), each trace folded onto the port's
queues (:func:`~repro.switch.model.queue_row`) and attached to the port's
template (:func:`~repro.switch.model.port_template`) as a ``trace`` arrival
spec, and every port run as an ordinary single-port scenario through
:func:`~repro.workloads.scenario.run_scenario_spec`.  The tests and the
differential fuzzer compare the two paths port for port.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import List, Optional, Sequence

from repro.sim import DEFAULT_ENGINE, resolve_engine
from repro.sim.array_engine import row_plan
from repro.switch.model import (
    SwitchReport,
    port_template,
    queue_row,
    run_fabric,
)
from repro.switch.scenario import SwitchScenario
from repro.workloads.scenario import Scenario, run_scenario_spec


def port_scenarios(scenario: SwitchScenario,
                   traces: Sequence[Sequence[Optional[int]]],
                   ) -> List[Scenario]:
    """One single-port ``Scenario`` per egress, fed its fabric trace folded
    onto the port's queues (``ingress mod num_queues``)."""
    ports = []
    for egress, trace in enumerate(traces):
        template = port_template(scenario, egress)
        row = array("i", [-1 if src is None else src for src in trace])
        pattern = row_plan(queue_row(row, template.buffer["num_queues"],
                                     scenario.num_ports))
        ports.append(dataclasses.replace(
            template,
            arrivals={"type": "trace", "params": {"pattern": pattern}},
            num_slots=len(pattern)))
    return ports


def run_port_oracle(scenario: SwitchScenario,
                    engine: str = DEFAULT_ENGINE) -> SwitchReport:
    """The switch's report the long way round, in this process."""
    engine = resolve_engine(engine)
    traces, stats = run_fabric(scenario, engine=engine)
    ports = tuple(run_scenario_spec(port.to_spec(), engine=engine)
                  for port in port_scenarios(scenario, traces))
    return SwitchReport(name=scenario.name, num_ports=scenario.num_ports,
                        engine=engine, fabric=stats, ports=ports)


__all__ = ["port_scenarios", "run_port_oracle"]
