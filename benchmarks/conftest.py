"""Shared helpers for the benchmark suite.

Every benchmark regenerates one exhibit of the paper (a table or a figure) or
one ablation of a design choice the paper argues for (the head MMA policy,
the DSA, block-cyclic interleaving, queue renaming).  The ``benchmark``
fixture times the computation; the assertions check that the regenerated
data still shows the paper's qualitative result (who wins, by roughly what
factor, where the crossovers fall).  Numeric rows are echoed so a
``pytest benchmarks/ --benchmark-only -s`` run doubles as a report generator.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def echo(capsys):
    """Print a block of text without it being swallowed by pytest capture."""

    def _echo(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _echo
