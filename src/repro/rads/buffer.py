"""The assembled RADS VOQ packet buffer: tail SRAM + DRAM + head SRAM.

The full buffer wires the three stages together in FIFO order per queue
(arrivals -> tail SRAM -> DRAM -> head SRAM -> arbiter) and adds the
*cut-through* path every practical hybrid buffer needs: when the head MMA
replenishes a queue whose backlog is so short that part of it never reached
DRAM, the remaining cells are taken directly from the tail SRAM (they are
younger than anything in DRAM, so FIFO order is preserved).

The head-side worst-case dimensioning in the paper is done against an
always-backlogged DRAM (see :class:`repro.rads.head_buffer.RADSHeadBuffer`);
this class is the closed-loop system a user of the library would actually
instantiate to buffer traffic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.dram.store import DRAMQueueStore
from repro.errors import arrival_error
from repro.mma.base import HeadMMA
from repro.rads.config import RADSConfig
from repro.rads.head_buffer import RADSHeadBuffer
from repro.rads.tail_buffer import RADSTailBuffer
from repro.types import Cell, SimulationResult


class _CutThroughStore(DRAMQueueStore):
    """DRAM store that falls back to the tail SRAM when a queue's DRAM
    content is shorter than the requested block."""

    def __init__(self, num_queues: int, tail: RADSTailBuffer,
                 capacity_cells: Optional[int] = None) -> None:
        super().__init__(num_queues, capacity_cells)
        self._tail = tail

    def pop_block(self, queue: int, count: int) -> List[Cell]:
        cells = super().pop_block(queue, count)
        if len(cells) < count:
            cells.extend(self._tail.pop_direct(queue, count - len(cells)))
        return cells

    def has_cells(self, queue: int) -> bool:
        return super().has_cells(queue) or self._tail.occupancy(queue) > 0


class RADSPacketBuffer:
    """Complete RADS packet buffer.

    Typical use::

        config = RADSConfig(num_queues=8, granularity=4)
        buffer = RADSPacketBuffer(config)
        for slot in range(n_slots):
            buffer.step(arrival_queue_or_none, request_queue_or_none)

    One cell may arrive and one cell may be requested per slot (the 2x line
    rate assumption of Section 2).  Requests are only legal for cells that are
    already in the buffer and not yet promised to the arbiter; the
    :meth:`can_request` helper exposes that condition so traffic generators
    can stay admissible.
    """

    def __init__(self, config: RADSConfig, head_mma: Optional[HeadMMA] = None) -> None:
        self.config = config
        self.tail = RADSTailBuffer(config, evict_sink=self._evict_to_dram)
        self.dram = _CutThroughStore(config.num_queues, self.tail,
                                     capacity_cells=config.dram_cells)
        # The closed-loop buffer's head cache additionally reserves one block
        # per queue for the arrival cut-through path, on top of the worst-case
        # requirement of the head-side analysis.
        head_capacity = (config.effective_head_sram_cells
                         + config.num_queues * config.granularity)
        self.head = RADSHeadBuffer(config, mma=head_mma, dram=self.dram,
                                   bypass_source=self._tail_bypass,
                                   sram_capacity=head_capacity)
        self._arrival_seqno: Dict[int, int] = {q: 0 for q in range(config.num_queues)}
        self._outstanding_requests: Dict[int, int] = {q: 0 for q in range(config.num_queues)}
        self._dropped_cells = 0
        self._slot = 0

    # ------------------------------------------------------------------ #
    # Admissibility helpers
    # ------------------------------------------------------------------ #
    def backlog(self, queue: int) -> int:
        """Cells of ``queue`` in the buffer that are not yet promised to the
        arbiter (arrivals minus requests issued)."""
        return self._arrival_seqno[queue] - self._outstanding_requests[queue]

    def can_request(self, queue: int) -> bool:
        """True if the arbiter may legally request a cell of ``queue`` now."""
        return self.backlog(queue) > 0

    @property
    def dropped_cells(self) -> int:
        """Cells lost because an eviction found no DRAM room (only possible
        with a finite ``dram_cells`` capacity and ``strict=False``)."""
        return self._dropped_cells

    # ------------------------------------------------------------------ #
    # Per-slot operation
    # ------------------------------------------------------------------ #
    @property
    def slot(self) -> int:
        return self._slot

    def step(self,
             arrival: Optional[int] = None,
             request: Optional[int] = None) -> Optional[Cell]:
        """Advance one slot with at most one arrival and one request.

        Args:
            arrival: queue index of the cell arriving this slot, or ``None``.
            request: queue index the arbiter requests this slot, or ``None``.

        Returns:
            The cell granted to the arbiter this slot, if any.
        """
        if request is not None and not self.can_request(request):
            raise ValueError(
                f"inadmissible request: queue {request} has no unpromised cells")

        arrival_cell: Optional[Cell] = None
        if arrival is not None:
            if type(arrival) is not int or arrival not in self._arrival_seqno:
                raise arrival_error(arrival, len(self._arrival_seqno),
                                    self._slot)
            seqno = self._arrival_seqno[arrival]
            arrival_cell = Cell(queue=arrival, seqno=seqno, arrival_slot=self._slot)
            self._arrival_seqno[arrival] = seqno + 1

        if request is not None:
            self._outstanding_requests[request] += 1

        if arrival_cell is not None and self._route_direct_to_head(arrival_cell.queue):
            self.head.accept_direct(arrival_cell)
            arrival_cell = None
        self.tail.step(arrival_cell)
        served = self.head.step(request)
        self._slot += 1
        return served

    def _route_direct_to_head(self, queue: int) -> bool:
        """Arrival cut-through: a cell goes straight to the head cache when
        its queue holds nothing in the tail SRAM or DRAM and its head-cache
        share (one block) is not yet full."""
        return (self.dram.occupancy(queue) == 0
                and self.tail.occupancy(queue) == 0
                and self.head.sram.occupancy(queue) < self.config.granularity)

    def drain(self) -> List[Cell]:
        """Run idle slots until every request in flight has been served."""
        served: List[Cell] = []
        for _ in range(self.config.effective_lookahead + self.config.granularity):
            cell = self.step(None, None)
            if cell is not None:
                served.append(cell)
        return served

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def combined_result(self) -> SimulationResult:
        """Merge head- and tail-side statistics into one result object."""
        head, tail = self.head.result, self.tail.result
        merged = SimulationResult(
            slots_simulated=self._slot,
            cells_in=tail.cells_in,
            cells_out=head.cells_out,
            dram_reads=head.dram_reads,
            dram_writes=tail.dram_writes,
            misses=list(head.misses) + list(tail.misses),
            max_head_sram_occupancy=head.max_head_sram_occupancy,
            max_tail_sram_occupancy=tail.max_tail_sram_occupancy,
        )
        return merged

    # ------------------------------------------------------------------ #
    def _evict_to_dram(self, queue: int, cells: List[Cell]) -> None:
        capacity = self.dram.capacity_cells
        if capacity is not None and not self.config.strict:
            room = capacity - self.dram.occupancy()
            if room < len(cells):
                self._dropped_cells += len(cells) - max(room, 0)
                cells = cells[:max(room, 0)]
        self.dram.push_many(cells)

    def _tail_bypass(self, queue: int, expected_seqno: int) -> Optional[Cell]:
        """Serve a due request straight from the tail SRAM when the in-order
        cell never left it (short-queue cut-through)."""
        cell = self.tail.peek_direct(queue)
        if cell is None or cell.seqno != expected_seqno:
            return None
        popped = self.tail.pop_direct(queue, 1)
        return popped[0] if popped else None
