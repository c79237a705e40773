"""Fixture: violates no rule."""

import random
from array import array


def simulate(num_slots, seed, metrics):
    rng = random.Random(seed)
    total = 0
    for slot in range(num_slots):
        total += rng.randrange(4)
    metrics.inc("spans_run")  # after the loop: span granularity
    return total


def ordered(queues):
    return [q for q in sorted(set(queues))]


class _ArrayCoreBase:
    pass


class ImageCore(_ArrayCoreBase):
    """Kernel state held as ``array('q')`` images, which pickle without a
    loaded kernel."""

    def __init__(self, num_queues):
        self.backlog = array("q", bytes(8 * num_queues))
        self.image = array("q", bytes(16 * num_queues))


def keep_result(core, backlog, image):
    core.backlog[:] = backlog
    core.image = array("q", image)
