"""CACTI-style access-time and area model for SRAM arrays and CAMs.

This is the reproduction's substitute for CACTI 3.0 (see "Substitutions" in
``docs/architecture.md``).  Like
CACTI it is an *analytical* model: access time is the sum of a fixed term, a
decoder term growing with the logarithm of the array size, and a wire term
growing with the physical side length of the array (square-root of the bit
count); CAM search adds a search-line term that grows with the number of
entries and a priority-encoder term that grows with their logarithm.  Areas
come from bit-cell counts times per-cell area, times a periphery overhead,
with multi-port cells costing proportionally more in both time and area.

The coefficients live in :class:`repro.tech.process.TechnologyProcess` and are
calibrated against the operating points the paper reports, so the *shape* of
every curve in Figures 8, 10 and 11 (who meets the 3.2 ns OC-3072 budget, how
area compares between designs, where the optimum granularity lies) is
reproduced even though individual values are approximations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.tech.process import DEFAULT_PROCESS, TechnologyProcess


@dataclass(frozen=True)
class MemoryEstimate:
    """Result of one model evaluation."""

    access_time_ns: float
    area_cm2: float
    bits: int
    ports: int


class CactiModel:
    """Analytical access-time / area model."""

    def __init__(self, process: Optional[TechnologyProcess] = None) -> None:
        self.process = process if process is not None else DEFAULT_PROCESS

    # ------------------------------------------------------------------ #
    # Direct-mapped SRAM arrays
    # ------------------------------------------------------------------ #
    def sram_access_time_ns(self, capacity_bits: int, ports: int = 1) -> float:
        """Access time of a direct-mapped SRAM array."""
        self._check(capacity_bits, ports)
        p = self.process
        base = (p.t_fixed_ns
                + p.t_decode_ns_per_bit * math.log2(max(capacity_bits, 2))
                + p.t_wire_ns_per_sqrt_bit * math.sqrt(capacity_bits))
        return base * self._port_time_factor(ports)

    def sram_area_cm2(self, capacity_bits: int, ports: int = 1) -> float:
        """Silicon area of a direct-mapped SRAM array, in cm^2."""
        self._check(capacity_bits, ports)
        p = self.process
        cell_um2 = p.sram_cell_area_um2 * self._port_area_factor(ports)
        return capacity_bits * cell_um2 * p.periphery_overhead * 1e-8

    def sram_estimate(self, capacity_bits: int, ports: int = 1) -> MemoryEstimate:
        return MemoryEstimate(
            access_time_ns=self.sram_access_time_ns(capacity_bits, ports),
            area_cm2=self.sram_area_cm2(capacity_bits, ports),
            bits=capacity_bits, ports=ports)

    # ------------------------------------------------------------------ #
    # Content-addressable memories
    # ------------------------------------------------------------------ #
    def cam_access_time_ns(self, entries: int, tag_bits: int,
                           data_bits_per_entry: int, ports: int = 1) -> float:
        """Access time of a CAM: search-line drive across all entries,
        match-line evaluation over the tag and priority encoding.  The data
        read of the matched entry overlaps the tail of the priority encoding
        (its row is already selected), so it does not add a separate term.
        The calibration constants already describe a dual-ported (one read,
        one write) CAM cell, so the per-port penalty applies only to ports
        beyond the second."""
        if entries <= 0 or tag_bits <= 0 or data_bits_per_entry <= 0:
            raise ValueError("entries, tag_bits and data_bits_per_entry must be positive")
        self._check(entries * data_bits_per_entry, ports)
        p = self.process
        search = (p.t_cam_fixed_ns
                  + p.t_cam_encode_ns_per_bit * math.log2(max(entries, 2))
                  + p.t_cam_search_ns_per_entry * entries)
        return search * self._port_time_factor(max(ports - 1, 1))

    def cam_area_cm2(self, entries: int, tag_bits: int,
                     data_bits_per_entry: int, ports: int = 1) -> float:
        """Area of a CAM: tag bits in CAM cells, data bits in SRAM cells."""
        if entries <= 0 or tag_bits <= 0 or data_bits_per_entry <= 0:
            raise ValueError("entries, tag_bits and data_bits_per_entry must be positive")
        p = self.process
        tag_area = entries * tag_bits * p.cam_cell_area_um2
        data_area = entries * data_bits_per_entry * p.sram_cell_area_um2
        total_um2 = (tag_area + data_area) * self._port_area_factor(ports) * p.periphery_overhead
        return total_um2 * 1e-8

    def cam_estimate(self, entries: int, tag_bits: int,
                     data_bits_per_entry: int, ports: int = 1) -> MemoryEstimate:
        return MemoryEstimate(
            access_time_ns=self.cam_access_time_ns(entries, tag_bits,
                                                   data_bits_per_entry, ports),
            area_cm2=self.cam_area_cm2(entries, tag_bits, data_bits_per_entry, ports),
            bits=entries * (tag_bits + data_bits_per_entry), ports=ports)

    # ------------------------------------------------------------------ #
    def _port_time_factor(self, ports: int) -> float:
        return 1.0 + self.process.port_time_factor * (ports - 1)

    def _port_area_factor(self, ports: int) -> float:
        return 1.0 + self.process.port_area_factor * (ports - 1)

    @staticmethod
    def _check(capacity_bits: int, ports: int) -> None:
        if capacity_bits <= 0:
            raise ValueError("capacity_bits must be positive")
        if ports < 1:
            raise ValueError("ports must be at least 1")
