"""Seed-replayable conformance fuzzer with trace shrinking.

Each fuzz case derives a random operation stream from ``(base_seed, i)``
and drives one scheme through the lockstep oracle with the invariant
auditor sweeping after every operation.  On failure the trace is shrunk
(greedy ddmin over operation chunks, preserving the failure signature)
and the minimal case is persisted as a JSON artifact that
:func:`replay` reproduces byte for byte — seeds, operations, and any
injected fault are all recorded.

Fault injection (``inject_faults=True``) is the fuzzer's self-test /
mutation-testing mode: a known corruption (dropping a stash block,
duplicating a tree block, corrupting a mapping, unmapping a held block)
is applied mid-run, and the auditor is expected to catch it.  The fault
is part of the artifact, so a persisted failure replays deterministically
with or without one.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SystemConfig
from ..errors import AuditError
from ..oram.tree import EMPTY
from ..perf.engine import cache_root
from . import oracle

ARTIFACT_SCHEMA = 1
SHRINK_BUDGET = 150


def default_artifact_dir() -> str:
    """Where fuzz failures persist unless told otherwise:
    ``validate/failures`` under the cache root (``REPRO_CACHE_DIR``)."""
    return os.path.join(cache_root(), "validate", "failures")


# ---------------------------------------------------------------------------
# fault catalog (the fuzzer's self-test corruptions)
# ---------------------------------------------------------------------------
def _first_tree_block(controller, min_level: int = 0) -> Optional[Tuple[int, int]]:
    for level, _, slots in controller.tree.iter_buckets():
        if level < min_level:
            continue
        for block in slots:
            if block != EMPTY:
                return block, level
    return None


def _fault_drop_block(controller) -> None:
    """Lose a block entirely (a mapped block with no holder)."""
    for block, _ in controller.stash.items():
        controller.stash.remove(block)
        return
    for level, position, slots in controller.tree.iter_buckets():
        for block in slots:
            if block != EMPTY:
                controller.tree.remove(level, position, block)
                return


def _fault_duplicate_block(controller) -> None:
    """Hold one block twice (tree resident copied into the stash)."""
    found = _first_tree_block(controller)
    if found is None:  # pragma: no cover - tree is never empty in practice
        return
    block, _ = found
    if block not in controller.stash:
        controller.stash.add(block, controller.posmap.leaf_of(block))


def _fault_corrupt_mapping(controller) -> None:
    """Point a held block's mapping at a path it does not sit on."""
    for block, leaf in controller.stash.items():
        controller.posmap._leaf_of[block] = (
            leaf ^ 1
        ) % controller.oram.leaves
        return
    found = _first_tree_block(controller, min_level=1)
    if found is None:  # pragma: no cover - deep levels always populated
        return
    block, level = found
    leaf = controller.posmap.leaf_of(block)
    flip = 1 << (controller.oram.levels - 1 - level)
    controller.posmap._leaf_of[block] = leaf ^ flip


def _fault_unmap_held_block(controller) -> None:
    """Discard the mapping of a block still held by the tree."""
    found = _first_tree_block(controller)
    if found is None:  # pragma: no cover - tree is never empty in practice
        return
    controller.posmap.discard(found[0])


FAULTS: Dict[str, Callable] = {
    "drop-block": _fault_drop_block,
    "duplicate-block": _fault_duplicate_block,
    "corrupt-mapping": _fault_corrupt_mapping,
    "unmap-held-block": _fault_unmap_held_block,
}


# ---------------------------------------------------------------------------
# cases, signatures, artifacts
# ---------------------------------------------------------------------------
@dataclass
class FuzzCase:
    """One reproducible fuzz input."""

    scheme: str
    seed: int
    ops: List[oracle.Op]
    fault: Optional[Tuple[str, int]] = None  # (fault name, after op index)

    def to_dict(self) -> Dict:
        return {
            "schema": ARTIFACT_SCHEMA,
            "config": "tiny",
            "scheme": self.scheme,
            "seed": self.seed,
            "ops": [list(op) for op in self.ops],
            "fault": list(self.fault) if self.fault else None,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "FuzzCase":
        fault = payload.get("fault")
        return FuzzCase(
            scheme=payload["scheme"],
            seed=int(payload["seed"]),
            ops=[(op[0], int(op[1]), bool(op[2])) for op in payload["ops"]],
            fault=(fault[0], int(fault[1])) if fault else None,
        )


@dataclass
class FuzzFailure:
    """A persisted, minimized failing case."""

    case: FuzzCase
    signature: str
    artifact_path: str


@dataclass
class FuzzReport:
    cases_run: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _signature(exc: BaseException) -> str:
    """Coarse failure identity, stable under trace shrinking."""
    head = str(exc).split("[", 1)[0]
    return f"{type(exc).__name__}: {re.sub(r'[0-9]+', 'N', head).strip()}"


def run_case(
    case: FuzzCase, config: Optional[SystemConfig] = None
) -> Optional[str]:
    """Execute one case; return its failure signature, or ``None`` if clean."""
    fault = None
    if case.fault is not None:
        name, after = case.fault
        fault = (after, FAULTS[name])
    try:
        oracle.drive_lockstep(
            case.scheme, case.ops, config=config, seed=case.seed,
            audit_every=1, fault=fault,
        )
    except Exception as exc:  # a raw crash is a failure too
        return _signature(exc)
    return None


def shrink(
    case: FuzzCase,
    signature: str,
    config: Optional[SystemConfig] = None,
    budget: int = SHRINK_BUDGET,
) -> FuzzCase:
    """Greedy ddmin: drop op chunks while the failure signature persists."""
    ops = list(case.ops)
    evaluations = 0
    improved = True
    while improved and evaluations < budget:
        improved = False
        chunk = max(1, len(ops) // 2)
        while chunk >= 1 and evaluations < budget:
            index = 0
            while index < len(ops) and evaluations < budget:
                trial_ops = ops[:index] + ops[index + chunk:]
                trial = replace(case, ops=trial_ops)
                if trial.fault is not None:
                    name, after = trial.fault
                    trial = replace(
                        trial, fault=(name, min(after, len(trial_ops)))
                    )
                evaluations += 1
                if run_case(trial, config) == signature:
                    ops = trial_ops
                    case = trial
                    improved = True
                else:
                    index += chunk
            chunk //= 2
    return replace(case, ops=ops)


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "_", name).strip("_")


def persist(case: FuzzCase, signature: str, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"fuzz-{_slug(case.scheme)}-{case.seed}.json"
    )
    payload = case.to_dict()
    payload["signature"] = signature
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def replay(path: str, config: Optional[SystemConfig] = None):
    """Re-run a persisted artifact; return ``(case, signature-or-None)``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != ARTIFACT_SCHEMA:
        raise AuditError(
            f"unknown fuzz artifact schema {payload.get('schema')!r} "
            f"in {path}"
        )
    case = FuzzCase.from_dict(payload)
    return case, run_case(case, config)


def fuzz(
    budget: int,
    base_seed: int = 1,
    schemes: Optional[Sequence[str]] = None,
    ops_count: int = 60,
    inject_faults: bool = False,
    artifact_dir: Optional[str] = None,
    config: Optional[SystemConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run ``budget`` random cases; shrink and persist every failure.

    Cases rotate deterministically through the scheme zoo.  With
    ``inject_faults`` every case also applies one corruption from
    :data:`FAULTS` mid-run (so a clean fuzz run *proves the auditor still
    catches all of them* — any uncaught fault is reported as a failure of
    the auditor itself).  Failures persist under ``artifact_dir``, by
    default :func:`default_artifact_dir`.
    """
    import random as _random

    if artifact_dir is None:
        artifact_dir = default_artifact_dir()
    if schemes is None:
        from ..core.schemes import SCHEMES

        schemes = sorted(SCHEMES)
    config = config if config is not None else SystemConfig.tiny()
    user = config.oram.user_blocks
    fault_names = sorted(FAULTS)
    report = FuzzReport(cases_run=0)
    for i in range(budget):
        seed = base_seed + i
        scheme = schemes[i % len(schemes)]
        ops = oracle.generate_ops(ops_count, user, seed)
        fault = None
        if inject_faults:
            rng = _random.Random(seed * 7919 + 13)
            fault = (
                fault_names[rng.randrange(len(fault_names))],
                rng.randrange(max(1, len(ops) // 2), len(ops)),
            )
        case = FuzzCase(scheme=scheme, seed=seed, ops=ops, fault=fault)
        report.cases_run += 1
        signature = run_case(case, config)
        if inject_faults and (
            signature is None or not signature.startswith("AuditError")
        ):
            # Either nothing noticed the corruption or the machine crashed
            # on it before the auditor flagged it — both are auditor misses.
            report.failures.append(
                FuzzFailure(
                    case=case,
                    signature="auditor missed injected fault "
                    f"{fault[0]!r} (got {signature!r})",
                    artifact_path=persist(
                        case, f"uncaught:{fault[0]}", artifact_dir
                    ),
                )
            )
            continue
        if not inject_faults and signature is not None:
            minimal = shrink(case, signature, config)
            path = persist(minimal, signature, artifact_dir)
            report.failures.append(
                FuzzFailure(
                    case=minimal, signature=signature, artifact_path=path
                )
            )
            if progress is not None:
                progress(
                    f"case {i}: FAILED ({signature}); minimized to "
                    f"{len(minimal.ops)} ops -> {path}"
                )
            continue
        if progress is not None and (i + 1) % 10 == 0:
            progress(f"{i + 1}/{budget} cases clean")
    return report
