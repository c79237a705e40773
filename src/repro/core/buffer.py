"""The assembled CFDS VOQ packet buffer.

This wires together everything Section 5 and 6 describe:

* the tail SRAM with its threshold MMA (granularity ``b``);
* one DRAM Scheduler Subsystem shared by the read and the write streams, with
  the block-cyclic bank mapping built over the *physical* queue space;
* the head SRAM with the ECQF MMA, the lookahead and the latency register;
* optionally, the queue-renaming table that lets a logical queue spill across
  bank groups so the statically partitioned DRAM does not fragment.

The buffer is driven one slot at a time with at most one arriving cell and one
arbiter request per slot (the 2x line-rate assumption of Section 2).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import CFDSConfig
from repro.core.head_buffer import CFDSHeadBuffer
from repro.core.mapping import CFDSBankMapping
from repro.core.renaming import RenamingTable
from repro.core.scheduler import DRAMSchedulerSubsystem
from repro.core.tail_buffer import CFDSTailBuffer
from repro.dram.store import DRAMQueueStore
from repro.errors import RenamingError, arrival_error
from repro.mma.base import HeadMMA
from repro.types import Cell, ReplenishRequest, SimulationResult, TransferDirection


class CFDSPacketBuffer:
    """Complete CFDS packet buffer.

    Args:
        config: the CFDS parameters (``Q`` logical queues, ``B``, ``b``, ``M``
            and the register/SRAM sizes derived from them).
        use_renaming: enable the Section-6 renaming mechanism.  When disabled,
            each logical queue is statically bound to its own group, which is
            exactly the fragmentation scenario the paper motivates renaming
            with (exercised by the renaming ablation benchmark).
        oversubscription: ratio of physical to logical queue names when
            renaming is enabled (the paper's ``K``).
        group_capacity_cells: DRAM capacity of one bank group, in cells;
            ``None`` means unbounded groups (renaming then only matters for
            load balancing, not for correctness).
        head_mma: override for the head MMA policy (ECQF by default).
    """

    def __init__(self,
                 config: CFDSConfig,
                 *,
                 use_renaming: bool = True,
                 oversubscription: int = 2,
                 group_capacity_cells: Optional[int] = None,
                 head_mma: Optional[HeadMMA] = None) -> None:
        if oversubscription < 1:
            raise ValueError("oversubscription must be at least 1")
        self.config = config
        self.group_capacity_cells = group_capacity_cells
        num_logical = config.num_queues
        num_physical = num_logical * oversubscription if use_renaming else num_logical
        self.mapping = CFDSBankMapping(num_queues=num_physical,
                                       num_banks=config.num_banks,
                                       dram_access_slots=config.dram_access_slots,
                                       granularity=config.granularity)
        self.scheduler = DRAMSchedulerSubsystem(config, mapping=self.mapping,
                                                issues_per_period=2)
        self.renaming: Optional[RenamingTable] = None
        if use_renaming:
            self.renaming = RenamingTable(num_logical, num_physical,
                                          self.mapping.num_groups,
                                          group_capacity_cells=group_capacity_cells)
        self.dram_content = DRAMQueueStore(num_logical, capacity_cells=config.dram_cells)
        self.tail = CFDSTailBuffer(config, scheduler=self.scheduler,
                                   evict_sink=self._store_block)
        # The closed-loop head cache reserves one extra block per queue for
        # the arrival cut-through path (short queues live entirely on-chip).
        head_capacity = (config.effective_head_sram_cells
                         + num_logical * config.granularity)
        self.head = CFDSHeadBuffer(config, mma=head_mma, dram=self.dram_content,
                                   scheduler=self.scheduler,
                                   block_source=self._fetch_block,
                                   bypass_source=self._tail_bypass,
                                   sram_capacity=head_capacity)

        self._block_locations: Dict[int, Deque[Tuple[int, int]]] = {
            q: deque() for q in range(num_logical)}
        self._physical_write_count: Dict[int, int] = {}
        self._group_occupancy: List[int] = [0] * self.mapping.num_groups
        self._arrival_seqno: Dict[int, int] = {q: 0 for q in range(num_logical)}
        self._outstanding_requests: Dict[int, int] = {q: 0 for q in range(num_logical)}
        self._dropped_cells = 0
        self._slot = 0

    # ------------------------------------------------------------------ #
    # Admissibility helpers
    # ------------------------------------------------------------------ #
    def backlog(self, queue: int) -> int:
        """Cells of ``queue`` in the buffer and not yet promised to the arbiter."""
        return self._arrival_seqno[queue] - self._outstanding_requests[queue]

    def can_request(self, queue: int) -> bool:
        return self.backlog(queue) > 0

    @property
    def dropped_cells(self) -> int:
        """Cells lost because their eviction block found no DRAM room (only
        possible when groups have finite capacity and renaming is disabled or
        exhausted)."""
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
        """Advance one slot with at most one arrival and one request."""
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
        return (self.dram_content.occupancy(queue) == 0
                and self.tail.occupancy(queue) == 0
                and self.head.sram.occupancy(queue) < self.config.granularity)

    def drain(self) -> List[Cell]:
        """Run idle slots until every request in flight has been served."""
        served: List[Cell] = []
        idle_slots = (self.head.total_request_delay
                      + self.config.dram_access_slots + self.config.granularity)
        for _ in range(idle_slots):
            cell = self.step(None, None)
            if cell is not None:
                served.append(cell)
        return served

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def combined_result(self) -> SimulationResult:
        head, tail = self.head.result, self.tail.result
        return SimulationResult(
            slots_simulated=self._slot,
            cells_in=tail.cells_in,
            cells_out=head.cells_out,
            dram_reads=head.dram_reads,
            dram_writes=tail.dram_writes,
            misses=list(head.misses) + list(tail.misses),
            max_head_sram_occupancy=head.max_head_sram_occupancy,
            max_tail_sram_occupancy=tail.max_tail_sram_occupancy,
            max_request_register_occupancy=self.scheduler.peak_rr_occupancy,
            max_reorder_delay_slots=self.scheduler.max_total_delay_slots,
            bank_conflicts=self.scheduler.bank_conflicts,
        )

    def dram_group_occupancy(self) -> List[int]:
        """Cells stored per bank group — the DRAM-utilisation view used by the
        fragmentation/renaming experiments."""
        if self.renaming is not None:
            return self.renaming.group_occupancy()
        return list(self._group_occupancy)

    def dram_utilisation(self) -> float:
        """Fraction of the total group capacity currently holding cells
        (1.0 means the DRAM is completely usable; low values under load are
        the fragmentation symptom)."""
        if self.group_capacity_cells is None:
            return 0.0
        total_capacity = self.group_capacity_cells * self.mapping.num_groups
        return sum(self.dram_group_occupancy()) / total_capacity

    # ------------------------------------------------------------------ #
    # Write path (tail eviction sink)
    # ------------------------------------------------------------------ #
    def _store_block(self, queue: int, cells: List[Cell]) -> Optional[Tuple[int, int]]:
        location = self._place_block(queue, len(cells))
        if location is None:
            self._dropped_cells += len(cells)
            return None
        self.dram_content.push_many(cells)
        self._block_locations[queue].append(location)
        return location

    def _place_block(self, queue: int, cells: int) -> Optional[Tuple[int, int]]:
        if self.renaming is not None:
            try:
                physical = self.renaming.translate_write(queue, cells)
            except RenamingError:
                return None
        else:
            physical = queue
            group = self.mapping.group_of(physical)
            if (self.group_capacity_cells is not None
                    and self._group_occupancy[group] + cells > self.group_capacity_cells):
                return None
            self._group_occupancy[group] += cells
        index = self._physical_write_count.get(physical, 0)
        self._physical_write_count[physical] = index + 1
        return physical, index

    # ------------------------------------------------------------------ #
    # Read path (head block source)
    # ------------------------------------------------------------------ #
    def _fetch_block(self, queue: int, count: int, slot: int
                     ) -> Tuple[List[Cell], Optional[ReplenishRequest]]:
        if self.dram_content.occupancy(queue) > 0:
            cells = self.dram_content.pop_block(queue, count)
            physical, block_index = self._block_locations[queue].popleft()
            if self.renaming is not None:
                self.renaming.translate_read(queue, len(cells))
            else:
                group = self.mapping.group_of(physical)
                self._group_occupancy[group] -= len(cells)
            request = ReplenishRequest(queue=physical,
                                       direction=TransferDirection.READ,
                                       cells=len(cells),
                                       issue_slot=slot,
                                       block_index=block_index)
            return cells, request
        # Cut-through: the queue's backlog never reached DRAM.
        return self.tail.pop_direct(queue, count), None

    def _tail_bypass(self, queue: int, expected_seqno: int) -> Optional[Cell]:
        """Serve a due request straight from the tail SRAM when the in-order
        cell never left it (short-queue cut-through)."""
        cell = self.tail.peek_direct(queue)
        if cell is None or cell.seqno != expected_seqno:
            return None
        popped = self.tail.pop_direct(queue, 1)
        return popped[0] if popped else None
