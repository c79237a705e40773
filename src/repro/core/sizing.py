"""CFDS dimensioning: equations (1)-(4) of the paper plus Table 2 helpers.

The printed formulas in the proceedings scan are partially illegible, so the
constants used here are reconstructed from (a) the intuition paragraphs the
paper gives below each equation and (b) Table 2, whose ten printed Requests
Register sizes are all reproduced exactly by

    ``R = (kQ / G) * (B/b - 1)``   rounded up to the next power of two,

where ``k`` is 2 when the DRAM Scheduler Subsystem manages both reads and
writes (the paper's final remark in Section 5.3) and 1 for a read-only
(head-side) analysis, and ``G = M / (B/b)`` is the number of bank groups.
The derivation and the verification against Table 2 are recorded under
"Substitutions" in ``docs/architecture.md``; the simulator-based property tests check that the measured
Requests-Register occupancy and reordering delay stay within these bounds.
"""

from __future__ import annotations


from repro.constants import CELL_SIZE_BYTES, next_power_of_two, slot_time_ns
from repro.errors import ConfigurationError
from repro.rads.sizing import rads_sram_size


# --------------------------------------------------------------------------- #
# Structure
# --------------------------------------------------------------------------- #
def banks_per_group(dram_access_slots: int, granularity: int) -> int:
    """Banks per group, ``B/b``."""
    _validate_b(dram_access_slots, granularity)
    return dram_access_slots // granularity


def num_groups(num_banks: int, dram_access_slots: int, granularity: int) -> int:
    """Number of bank groups, ``G = M / (B/b)``."""
    per_group = banks_per_group(dram_access_slots, granularity)
    if num_banks % per_group != 0:
        raise ConfigurationError(
            f"M ({num_banks}) must be a multiple of B/b ({per_group})")
    return num_banks // per_group


def queues_per_group(num_queues: int,
                     num_banks: int,
                     dram_access_slots: int,
                     granularity: int,
                     *,
                     account_writes: bool = True) -> int:
    """Queues sharing a group, ``ceil(kQ / G)`` with k=2 when the scheduler
    also carries the write stream."""
    if num_queues <= 0:
        raise ConfigurationError("num_queues must be positive")
    effective = 2 * num_queues if account_writes else num_queues
    groups = num_groups(num_banks, dram_access_slots, granularity)
    return -(-effective // groups)


def orr_size(dram_access_slots: int, granularity: int) -> int:
    """Ongoing Requests Register size: a bank is locked for ``B/b`` issue
    periods, so the last ``B/b - 1`` issued banks must be remembered."""
    return banks_per_group(dram_access_slots, granularity) - 1


# --------------------------------------------------------------------------- #
# Equation (1): Requests Register size
# --------------------------------------------------------------------------- #
def request_register_size(num_queues: int,
                          num_banks: int,
                          dram_access_slots: int,
                          granularity: int,
                          *,
                          account_writes: bool = True) -> int:
    """Analytical Requests Register size (equation 1).

    Intuition from the paper: at most ``kQ/G`` queues share a bank, the next
    access of each queue moves to the next bank of the group, and an access
    occupies its bank for ``B/b`` issue periods — so up to
    ``(kQ/G)(B/b - 1)`` requests can pile up waiting for locked banks.
    """
    qpg = queues_per_group(num_queues, num_banks, dram_access_slots,
                           granularity, account_writes=account_writes)
    per_group = banks_per_group(dram_access_slots, granularity)
    return qpg * (per_group - 1)


def request_register_hardware_size(num_queues: int,
                                   num_banks: int,
                                   dram_access_slots: int,
                                   granularity: int,
                                   *,
                                   account_writes: bool = True) -> int:
    """Requests Register size as a hardware structure (Table 2): the
    analytical size rounded up to the next power of two (zero stays zero)."""
    analytical = request_register_size(num_queues, num_banks, dram_access_slots,
                                       granularity, account_writes=account_writes)
    if analytical == 0:
        return 0
    return next_power_of_two(analytical)


# --------------------------------------------------------------------------- #
# Equation (2): maximum number of skips
# --------------------------------------------------------------------------- #
def max_skips(num_queues: int,
              num_banks: int,
              dram_access_slots: int,
              granularity: int,
              *,
              account_writes: bool = True) -> int:
    """Maximum number of issue opportunities a request can be skipped over
    (equation 2): each of the up to ``kQ/G`` requests headed to the same bank
    that are older than ours keeps that bank locked for ``B/b`` periods,
    costing ``B/b - 1`` lost opportunities each."""
    qpg = queues_per_group(num_queues, num_banks, dram_access_slots,
                           granularity, account_writes=account_writes)
    per_group = banks_per_group(dram_access_slots, granularity)
    return qpg * (per_group - 1)


# --------------------------------------------------------------------------- #
# Equation (3): latency register length
# --------------------------------------------------------------------------- #
def latency_slots(num_queues: int,
                  num_banks: int,
                  dram_access_slots: int,
                  granularity: int,
                  *,
                  account_writes: bool = True) -> int:
    """Length (in slots) of the latency shift register (equation 3).

    A replenishment can be delayed by at most ``R`` issue periods of FIFO
    drain plus ``d_max`` skipped periods (each period is ``b`` slots), and the
    data itself takes ``B`` instead of the ``b`` slots the MMA's illusion
    assumes — all of which the latency register must absorb so the arbiter
    still receives every cell in order.
    """
    rr = request_register_size(num_queues, num_banks, dram_access_slots,
                               granularity, account_writes=account_writes)
    skips = max_skips(num_queues, num_banks, dram_access_slots,
                      granularity, account_writes=account_writes)
    return (rr + skips) * granularity + (dram_access_slots - granularity)


# --------------------------------------------------------------------------- #
# Equation (4): SRAM size
# --------------------------------------------------------------------------- #
def cfds_sram_size(lookahead: int,
                   num_queues: int,
                   num_banks: int,
                   dram_access_slots: int,
                   granularity: int,
                   *,
                   account_writes: bool = True) -> int:
    """Head SRAM size (cells) for CFDS (equation 4): the RADS requirement at
    granularity ``b`` plus the slack needed to hold cells that arrive while
    their requests are still traversing the latency register."""
    base = rads_sram_size(lookahead, num_queues, granularity)
    extra = latency_slots(num_queues, num_banks, dram_access_slots,
                          granularity, account_writes=account_writes)
    return base + extra


def cfds_sram_bytes(lookahead: int,
                    num_queues: int,
                    num_banks: int,
                    dram_access_slots: int,
                    granularity: int,
                    *,
                    account_writes: bool = True) -> int:
    """CFDS head SRAM size in bytes."""
    return cfds_sram_size(lookahead, num_queues, num_banks, dram_access_slots,
                          granularity, account_writes=account_writes) * CELL_SIZE_BYTES


def cfds_total_delay_slots(lookahead: int,
                           num_queues: int,
                           num_banks: int,
                           dram_access_slots: int,
                           granularity: int,
                           *,
                           account_writes: bool = True) -> int:
    """Worst-case delay (slots) between a request entering the MMA subsystem
    and its cell being granted: lookahead plus the latency register.  This is
    the x-axis of Figure 10 for CFDS configurations."""
    return lookahead + latency_slots(num_queues, num_banks, dram_access_slots,
                                     granularity, account_writes=account_writes)


# --------------------------------------------------------------------------- #
# Table 2: time available to schedule one request
# --------------------------------------------------------------------------- #
def scheduling_time_ns(granularity: int, line_rate_bps: float) -> float:
    """Time available for the DSA to pick one request: one issue period, i.e.
    ``b`` slots at the line rate (Table 2)."""
    if granularity <= 0:
        raise ConfigurationError("granularity must be positive")
    return granularity * slot_time_ns(line_rate_bps)


# --------------------------------------------------------------------------- #
def _validate_b(dram_access_slots: int, granularity: int) -> None:
    if dram_access_slots <= 0 or granularity <= 0:
        raise ConfigurationError("B and b must be positive")
    if dram_access_slots % granularity != 0:
        raise ConfigurationError(
            f"B ({dram_access_slots}) must be a multiple of b ({granularity})")
