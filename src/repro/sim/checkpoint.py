"""Mid-run simulator checkpoints.

A :class:`SimulatorCheckpoint` freezes a run *between* two controller
issue slots: the whole component graph (controller, stash, PosMap, PLB,
tree-top, DRAM, LLC, processor, per-scheme RNGs, stats) plus the
simulator's loop clock, pickled as one shared-reference object graph.
Resuming the pickle and calling :meth:`Simulator.resume` replays the
remainder of the run and produces cycles and counters bit-identical to
the uninterrupted run — the property tests in ``tests/test_checkpoint.py``
assert this against the golden-corpus digests for every scheme.

Two guards keep a resume honest:

* a ``version`` field, so format changes fail loudly instead of
  deserializing garbage, and
* the engine's *code salt* (a hash over the simulator sources), so a
  checkpoint taken by a different build of the simulator refuses to
  resume rather than silently producing numbers the current code would
  never have produced.

Checkpoint writes are atomic (temp file + ``os.replace``), so a crash
mid-write leaves the previous checkpoint intact, and a torn file raises
:class:`~repro.errors.CheckpointError` on load rather than resuming from
corrupt state.

The cadence hook is :class:`CheckpointManager`: it chains onto the
controller's ``slot_observer`` to *count* issued paths, but defers the
actual capture to the simulator's safe end-of-iteration point (the
observer fires inside :meth:`PathORAMController.step`, before the
hierarchy applies completions and the loop advances the clock — capturing
there would tear the state).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from ..errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..api import RunSpec
    from .simulator import Simulator

#: on-disk checkpoint format; bump on any layout change (2: the S-Stash
#: pickles as two arrays, not dicts; 3: the stash pickles as one slab;
#: 4: the processor, the LLC and the in-flight table pickle as arrays)
CHECKPOINT_VERSION = 4

_SALT: Optional[str] = None


def _salt_of(root: str) -> str:
    """The salt of the package at ``root``: the format version and the
    engine's digest over every ``*.py`` and ``*.c`` source under it.  A
    frozen simulator encodes what any of them computed, so an edit to
    any source, the C kernels included, refuses an older checkpoint."""
    # Imported here: the engine pulls in the process-pool machinery,
    # which a run that never checkpoints does not need in memory.
    from ..perf import engine

    return f"{CHECKPOINT_VERSION}-{engine._code_salt(root)}"


def _code_salt() -> str:
    """This package's salt, computed once per process."""
    global _SALT
    if _SALT is None:
        _SALT = _salt_of(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
    return _SALT


@dataclass
class SimulatorCheckpoint:
    """One frozen mid-run simulator plus the metadata needed to resume it."""

    version: int
    salt: str
    access_index: int
    spec: Optional["RunSpec"]
    sim: "Simulator"


class CheckpointManager:
    """Periodically checkpoints a running simulator.

    Chained onto the controller's ``slot_observer``, it counts issued
    paths and raises :attr:`pending` every ``every`` paths; the simulator
    loop then calls :meth:`take` at its inter-slot boundary.  ``limit``
    bounds how many checkpoints one run writes (0 = unbounded); each
    write replaces the previous file, so the newest checkpoint survives.
    """

    def __init__(
        self,
        every: int,
        path: str,
        spec: Optional["RunSpec"] = None,
        limit: int = 0,
    ) -> None:
        if every <= 0:
            raise CheckpointError("checkpoint_every must be positive")
        self.every = every
        self.path = path
        self.spec = spec
        self.limit = limit
        self.saves = 0
        self.pending = False
        self._since = 0

    # -- slot_observer chain target -----------------------------------------
    def observe(self, result: Any) -> None:
        if not result.issued_path:
            return
        self._since += 1
        if self._since >= self.every and not (
            self.limit and self.saves >= self.limit
        ):
            self.pending = True

    # -- called by Simulator._loop at the safe boundary ----------------------
    def take(self, sim: "Simulator") -> None:
        self.pending = False
        self._since = 0
        save_checkpoint(sim, self.path, spec=self.spec)
        self.saves += 1
        tracer = sim.stats.tracer
        if tracer is not None:
            from ..obs import events as ev

            tracer.emit(
                ev.CHECKPOINT_SAVED,
                sim._now,
                path=self.path,
                paths=sim.controller.path_count,
                saves=self.saves,
            )


def save_checkpoint(
    sim: "Simulator", path: str, spec: Optional["RunSpec"] = None
) -> None:
    """Atomically write ``sim`` (and optionally its spec) to ``path``."""
    payload = SimulatorCheckpoint(
        version=CHECKPOINT_VERSION,
        salt=_code_salt(),
        access_index=sim.controller.path_count,
        spec=spec,
        sim=sim,
    )
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(path: str) -> SimulatorCheckpoint:
    """Load a checkpoint, refusing torn, foreign, or stale-build files."""
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path!r}")
    except Exception as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is torn or unreadable: {exc}"
        ) from exc
    if not isinstance(payload, SimulatorCheckpoint):
        raise CheckpointError(
            f"checkpoint {path!r} does not contain a SimulatorCheckpoint"
        )
    if payload.version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has format version {payload.version}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    salt = _code_salt()
    if payload.salt != salt:
        raise CheckpointError(
            f"checkpoint {path!r} was taken by a different simulator build "
            f"(salt {payload.salt[:12]}… != {salt[:12]}…); rerun instead of "
            "resuming"
        )
    return payload
