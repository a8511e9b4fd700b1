"""How fast the host runs Python right now, from a fixed reference kernel.

On a shared host the same single-threaded process runs 1.3 to 1.8 times
slower for minutes at a time, while other tenants load the machine.  Host
times taken in such a phase say more about the neighbours than about the
simulator.  The benchmark therefore runs :func:`kernel_s` next to every
timed repetition and reports each host time as it would read on a host
where the kernel takes :data:`REFERENCE_S`.

The kernel is a small Path ORAM of its own (objects, dicts, lists and a
seeded RNG, like the simulator's real-access path).  It lives here, not
under ``src/``, so no change to the simulator changes its cost.
"""

from __future__ import annotations

import random
import time

#: seconds :func:`kernel_s` takes on an unloaded 2.1 GHz Xeon vCPU
REFERENCE_S = 0.25

LEVELS = 16
ACCESSES = 7000
BUCKET_SLOTS = 4


class _Block:
    __slots__ = ("addr", "leaf")

    def __init__(self, addr: int, leaf: int) -> None:
        self.addr = addr
        self.leaf = leaf


class _ORAM:
    """Read a path into the stash, remap the block, evict greedily."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.leaves = 1 << (LEVELS - 1)
        self.tree = {}
        self.stash = {}
        self.position = {}

    def access(self, addr: int) -> None:
        leaves = self.leaves
        leaf = self.position.get(addr)
        if leaf is None:
            leaf = self.rng.randrange(leaves)
        nodes = []
        node = leaf + leaves
        while node:
            nodes.append(node)
            node >>= 1
        stash = self.stash
        for node in nodes:
            for block in self.tree.pop(node, ()):
                stash[block.addr] = block
        block = stash.get(addr) or _Block(addr, leaf)
        block.leaf = self.position[addr] = self.rng.randrange(leaves)
        stash[addr] = block
        for depth_from_leaf, node in enumerate(nodes):
            fits = [
                b for b in stash.values()
                if (b.leaf + leaves) >> depth_from_leaf == node
            ][:BUCKET_SLOTS]
            if fits:
                self.tree[node] = fits
                for b in fits:
                    del stash[b.addr]


def kernel_s() -> float:
    """Host seconds of one fixed, seeded run of the reference kernel."""
    oram = _ORAM(random.Random(7))
    rng = random.Random(8)
    span = 2 << (LEVELS - 1)
    start = time.perf_counter_ns()
    for _ in range(ACCESSES):
        oram.access(rng.randrange(span))
    return (time.perf_counter_ns() - start) / 1e9
