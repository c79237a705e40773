"""Analytical sizing of the RADS SRAMs and lookahead.

The paper cites reference [13] (Iyer, Kompella, McKeown, "Designing Buffers
for Router Line Cards") for the function ``rads_sram_size(L, Q, B)`` — the
head-SRAM size needed to guarantee zero misses given a lookahead of ``L``
slots, ``Q`` queues and granularity ``B``.  The two anchor points of that
trade-off are stated explicitly:

* ECQF with the maximal lookahead ``L = Q(B-1)+1`` needs exactly ``Q(B-1)``
  cells of head SRAM;
* with a minimal lookahead the requirement grows to roughly
  ``Q·B·ln Q`` cells (the MDQF bound of [13]).

Since the paper does not reprint the closed form, we use the interpolation

    ``rads_sram_size(L, Q, B) = max(Q(B-1), Q·B·ln(Q·B / L))``

which reproduces both anchor points the paper reports for both evaluated
configurations (OC-768: 300 kB -> 64 kB, OC-3072: 6.2 MB -> 1.0 MB) and decays
logarithmically in the lookahead, matching the shape of Figure 8.  The
substitution is recorded under "Substitutions" in ``docs/architecture.md``.
"""

from __future__ import annotations

import math

from repro.constants import CELL_SIZE_BYTES


def ecqf_max_lookahead(num_queues: int, granularity: int) -> int:
    """Lookahead (in slots) at which ECQF needs the minimum SRAM: Q(B-1)+1."""
    _validate(num_queues, granularity)
    return num_queues * (granularity - 1) + 1


def ecqf_safe_lookahead(num_queues: int, granularity: int) -> int:
    """ECQF lookahead including the decision-phase margin: Q(B-1)+B.

    The classical ``Q(B-1)+1`` bound assumes the adversary's burst is aligned
    with the MMA's decision grid (one decision every ``B`` slots).  A burst of
    ``Q`` fresh criticalities that starts just *after* a decision slot wastes
    up to ``B-1`` slots of that grid, so the slot-accurate simulators default
    to this value — the analytical sizing is unchanged because the head SRAM
    requirement is already flat beyond ``Q(B-1)+1``.
    ``tests/rads/test_lookahead_finding.py`` is the measurement behind this
    argument: under the round-robin adversary started 1 to ``B-1`` slots off
    the decision grid, ``Q(B-1)+1`` misses exactly once and ``Q(B-1)+B``
    never does.
    """
    _validate(num_queues, granularity)
    return num_queues * (granularity - 1) + granularity


def ecqf_min_sram_cells(num_queues: int, granularity: int) -> int:
    """Head SRAM size (cells) with the maximal ECQF lookahead: Q(B-1)."""
    _validate(num_queues, granularity)
    return num_queues * (granularity - 1)


def mdqf_sram_cells(num_queues: int, granularity: int) -> int:
    """Head SRAM size (cells) with no lookahead (MDQF bound ~ Q·B·ln Q)."""
    _validate(num_queues, granularity)
    if num_queues == 1:
        return granularity
    return int(math.ceil(num_queues * granularity * math.log(num_queues)))


def rads_sram_size(lookahead: int, num_queues: int, granularity: int) -> int:
    """Head SRAM size (cells) required for zero misses at a given lookahead.

    ``lookahead`` is clamped to the valid range ``[1, Q(B-1)+1]``; larger
    lookaheads do not reduce the SRAM below ``Q(B-1)``.
    """
    _validate(num_queues, granularity)
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1 slot")
    floor_cells = ecqf_min_sram_cells(num_queues, granularity)
    if granularity == 1:
        # With B = 1 every request can be fetched individually; one cell per
        # queue of slack suffices and the formula degenerates.
        return max(floor_cells, num_queues)
    max_lookahead = ecqf_max_lookahead(num_queues, granularity)
    effective = min(lookahead, max_lookahead)
    log_term = num_queues * granularity * math.log(
        (num_queues * granularity) / effective)
    return int(max(floor_cells, math.ceil(log_term)))


def rads_sram_bytes(lookahead: int, num_queues: int, granularity: int) -> int:
    """Head SRAM size in bytes (cells x 64 B)."""
    return rads_sram_size(lookahead, num_queues, granularity) * CELL_SIZE_BYTES


def tail_sram_cells(num_queues: int, granularity: int) -> int:
    """Tail SRAM size (cells): Q(B-1) unevictable cells plus one block."""
    _validate(num_queues, granularity)
    return num_queues * (granularity - 1) + granularity


def lookahead_sweep(num_queues: int, granularity: int, points: int = 32) -> list:
    """Evenly spaced lookahead values from the granularity up to the ECQF
    maximum, used by the Figure 8/10 sweeps."""
    _validate(num_queues, granularity)
    if points < 2:
        raise ValueError("points must be at least 2")
    low = max(1, granularity)
    high = ecqf_max_lookahead(num_queues, granularity)
    if high <= low:
        return [high]
    step = (high - low) / (points - 1)
    values = sorted({int(round(low + i * step)) for i in range(points)})
    values[-1] = high
    return values


def _validate(num_queues: int, granularity: int) -> None:
    if num_queues <= 0:
        raise ValueError("num_queues must be positive")
    if granularity <= 0:
        raise ValueError("granularity must be positive")
