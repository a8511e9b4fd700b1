"""The controller state the execution-tier tests compare.

The tier tests run the same operations on the C kernels and on the Python
phases and compare the controllers after them, or check that a refused
kernel call touched nothing.  :func:`snapshot` takes the parts of the
state by name, so every test reads each part the same way;
:func:`sim_snapshot` adds the simulator's front end, which the slot drain
runs in C too: the processor, the LLC and the in-flight table.  The stash is
read through :meth:`Stash.items`, as a list: its insertion order is the
write phase's pool order, so two stashes with the same entries in another
order differ.
"""


def _events(controller):
    tracer = controller.stats.tracer
    if tracer is None:
        return None
    return [(e.kind, e.cycle, e.data) for e in tracer.memory_events()]


PARTS = {
    "tree": lambda c: (c.tree._slots.tobytes(), list(c.tree.level_used)),
    "stash": lambda c: (list(c.stash.items()), c.stash.peak_occupancy),
    "posmap": lambda c: (c.posmap._leaf_of.tobytes(), c.posmap.remap_count),
    "path_count": lambda c: c.path_count,
    "path_table": lambda c: c.layout.path_table.tobytes(),
    "dram": lambda c: (
        c.dram.bank_ready.tobytes(), c.dram.bank_open_row.tobytes(),
        c.dram.bus_free.tobytes(),
    ),
    "sstash": lambda c: (
        bytes(getattr(c.treetop, "_set_index", b"")),
        bytes(getattr(c.treetop, "_set_count", b"")),
    ),
    "plb": lambda c: (
        c.plb._blocks.tobytes(), c.plb._dirty.tobytes(),
        c.plb._fills.tobytes(),
    ),
    "victims": lambda c: (sorted(c._limbo), list(c.internal_queue)),
    "counters": lambda c: sorted(
        (key, type(value).__name__, value)
        for key, value in c.stats.counters.items()
    ),
    "histograms": lambda c: {
        key: dict(hist) for key, hist in c.stats.histograms.items()
    },
    "rng": lambda c: c.rng.getstate(),
    "events": _events,
}

#: What a path access reads and writes.
PATH = ("tree", "stash", "posmap", "path_count", "dram", "sstash",
        "counters", "rng", "events")
#: What a translation reads and writes besides.
TRANSLATION = PATH + ("plb", "victims")


def snapshot(controller, parts=PATH):
    """The named ``parts`` of ``controller``'s state, as a tuple."""
    return tuple(PARTS[name](controller) for name in parts)


def _requests(requests):
    return [
        None if r is None else (
            r.block, r.kind, r.arrival, r.is_write, r.completion, r.waiters,
            r.paths_used,
        )
        for r in requests
    ]


#: The simulator's front end, by part name.
SIM_PARTS = {
    "processor": lambda s: (
        s.processor._clock.tobytes(), s.processor._reads.tobytes(),
        s.processor._writes.tobytes(),
    ),
    "llc": lambda s: (
        s.llc._blocks.tobytes(), s.llc._dirty.tobytes(),
        s.llc._fills.tobytes(), s.llc._scan_set, s.llc._paused_until,
    ),
    "in_flight": lambda s: (
        s.hierarchy._flights.tobytes(), s.hierarchy._flight_dirty.tobytes(),
        s.hierarchy._state.tobytes(),
        _requests(s.hierarchy._flight_requests),
        _requests(s.controller.queue),
    ),
}
#: What the front end reads and writes.
FRONT_END = ("processor", "llc", "in_flight")
#: What a whole run writes: the translation state, the histograms the
#: kernel books (the hit levels among them) and the front end.
RUN = TRANSLATION + ("histograms",) + FRONT_END


def sim_snapshot(simulator, parts=RUN):
    """:func:`snapshot` over a simulator: controller parts read its
    controller, front-end parts the simulator."""
    return tuple(
        SIM_PARTS[name](simulator) if name in SIM_PARTS
        else PARTS[name](simulator.controller)
        for name in parts
    )
