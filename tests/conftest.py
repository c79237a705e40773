"""Shared pytest fixtures and helpers for the packet-buffer test suite."""

from __future__ import annotations

import pytest

from repro.core.config import CFDSConfig
from repro.rads.config import RADSConfig
from repro.sram.cell_store import SharedSRAM
from repro.types import Cell


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden-report fixtures under tests/fixtures/golden/ "
             "from the current engine output instead of comparing to them")


@pytest.fixture
def small_rads_config() -> RADSConfig:
    """A small but non-trivial RADS configuration used across tests."""
    return RADSConfig(num_queues=4, granularity=3)


@pytest.fixture
def small_cfds_config() -> CFDSConfig:
    """A small but non-trivial CFDS configuration (B/b = 4 banks per group)."""
    return CFDSConfig(num_queues=8, dram_access_slots=8, granularity=2, num_banks=32)


def make_cells(queue: int, count: int, start_seqno: int = 0):
    """Build ``count`` consecutive cells of one queue."""
    return [Cell(queue=queue, seqno=start_seqno + i) for i in range(count)]


@pytest.fixture
def late_landings(monkeypatch):
    """Every block landing on a reference head SRAM (``insert_block``)
    whose lowest seqno is below a cell the queue's SRAM already holds: a
    block that later cells overtook.  Each entry is the set of ways those
    held cells came in: ``"cell"`` alone (an arrival's cut-through) or in a
    ``"block"``.  A block fetched by cut-through carries its queue's
    newest cells, so a block that lands late is one read from DRAM."""
    landings = []
    origin = {}
    insert = SharedSRAM.insert

    def insert_cell(self, cell):
        origin[id(self), cell.queue, cell.seqno] = "cell"
        insert(self, cell)

    def insert_block(self, cells):
        cells = list(cells)
        if cells:
            queue = cells[0].queue
            low = min(cell.seqno for cell in cells)
            held = {origin[id(self), queue, seqno]
                    for seqno, _, _ in self._heaps[queue] if seqno > low}
            if held:
                landings.append(held)
        for cell in cells:
            origin[id(self), cell.queue, cell.seqno] = "block"
            insert(self, cell)

    monkeypatch.setattr(SharedSRAM, "insert", insert_cell)
    monkeypatch.setattr(SharedSRAM, "insert_block", insert_block)
    return landings
