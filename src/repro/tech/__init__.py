"""Technology models used by the paper's evaluation (Sections 7 and 8).

The paper evaluates RADS and CFDS not by cycle simulation but by asking what
the required SRAM structures *cost* in a 0.13 um process — access time and
silicon area, estimated with CACTI 3.0 — and whether the DRAM-scheduler issue
logic is buildable (by analogy to the Alpha 21264 issue queue).  This package
provides the equivalents:

* :mod:`repro.tech.process` — the technology-process constants;
* :mod:`repro.tech.cacti` — a CACTI-style analytical access-time/area model
  for direct-mapped SRAM arrays and content-addressable memories, calibrated
  against the operating points the paper reports (see "Substitutions" in
  ``docs/architecture.md``);
* :mod:`repro.tech.sram_designs` — the two shared-buffer organisations of
  Section 7.1 (global CAM, time-multiplexed unified linked list) expressed as
  area/access-time models over a cell capacity;
* :mod:`repro.tech.line_rates` — OC line rates, slot times and access budgets;
* :mod:`repro.tech.dram_chips` — commodity DRAM parts and the guaranteed
  bandwidth analysis of the introduction;
* :mod:`repro.tech.issue_logic` — feasibility scaling of the Requests
  Register wake-up/select logic from the Alpha 21264 reference point.
"""

from repro.tech.process import TechnologyProcess
from repro.tech.cacti import CactiModel
from repro.tech.sram_designs import (
    SRAMBufferDesign,
    GlobalCAMDesign,
    UnifiedLinkedListDesign,
    best_design,
)
from repro.tech.line_rates import LineRate
from repro.tech.dram_chips import DRAMChip, COMMODITY_DRAM_CHIPS, guaranteed_buffer_bandwidth_gbps
from repro.tech.issue_logic import IssueLogicModel

__all__ = [
    "TechnologyProcess",
    "CactiModel",
    "SRAMBufferDesign",
    "GlobalCAMDesign",
    "UnifiedLinkedListDesign",
    "best_design",
    "LineRate",
    "DRAMChip",
    "COMMODITY_DRAM_CHIPS",
    "guaranteed_buffer_bandwidth_gbps",
    "IssueLogicModel",
]
