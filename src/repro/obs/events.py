"""Typed trace events emitted by the instrumented simulator.

Every event is a :class:`TraceEvent`: a ``kind`` drawn from the constants
below, the simulation ``cycle`` it describes, and a flat ``data`` payload
of JSON-serializable values.  The schema of each kind's payload is
documented in ``docs/observability.md`` and exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

# -- event kinds --------------------------------------------------------------
#: an LLC-to-ORAM request entered the controller queue
ACCESS_START = "access.start"
#: a request completed (payload carries end-to-end latency)
ACCESS_END = "access.end"
#: the read phase of one path access (payload: leaf, path_type, finish)
PATH_READ = "path.read"
#: the write phase of one path access (payload: leaf, path_type, finish)
PATH_WRITE = "path.write"
#: the stash reached a new high-water mark (payload: occupancy)
STASH_HWM = "stash.hwm"
#: one DRAM batch serviced (payload: accesses, row_hits, row_conflicts, write)
DRAM_BATCH = "dram.batch"
#: a PosMap lookup was satisfied by the PLB
PLB_HIT = "plb.hit"
#: a PosMap lookup missed the PLB (a full path access will follow)
PLB_MISS = "plb.miss"
#: a PosMap block fetched through a full ORAM path access
POSMAP_FETCH = "posmap.fetch"
#: a demand miss left the LLC for the ORAM controller
LLC_MISS = "llc.miss"
#: periodic progress snapshot (payload: paths, stash, in flight)
PROGRESS = "progress"
#: one online conformance audit completed (payload: audits, paths, blocks)
AUDIT = "audit"
#: a mid-run simulator checkpoint was written (payload: path, paths, saves)
CHECKPOINT_SAVED = "checkpoint.saved"
#: a supervised engine task was re-dispatched (payload: index, attempt, cause)
ENGINE_RETRY = "engine.retry"
#: the warm pool was torn down and rebuilt (payload: cause, inflight)
ENGINE_RESPAWN = "engine.respawn"
#: a task ran past the caller's timeout (payload: index, deadline_s)
ENGINE_TIMEOUT = "engine.timeout"
#: the engine gave up on the pool and fell back to serial execution
ENGINE_DEGRADED = "engine.degraded"

#: every kind above, in a stable documentation order
ALL_KINDS = (
    ACCESS_START,
    ACCESS_END,
    PATH_READ,
    PATH_WRITE,
    STASH_HWM,
    DRAM_BATCH,
    PLB_HIT,
    PLB_MISS,
    POSMAP_FETCH,
    LLC_MISS,
    PROGRESS,
    AUDIT,
    CHECKPOINT_SAVED,
    ENGINE_RETRY,
    ENGINE_RESPAWN,
    ENGINE_TIMEOUT,
    ENGINE_DEGRADED,
)


@dataclass
class TraceEvent:
    """One observation: what happened, when, and its details."""

    kind: str
    cycle: int
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form: ``{"kind": ..., "cycle": ..., **data}``."""
        payload = {"kind": self.kind, "cycle": self.cycle}
        payload.update(self.data)
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "TraceEvent":
        data = {
            key: value
            for key, value in payload.items()
            if key not in ("kind", "cycle")
        }
        return TraceEvent(
            kind=payload["kind"], cycle=int(payload["cycle"]), data=data
        )
