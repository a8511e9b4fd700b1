"""The hybrid-controller family: Rho, Ring and Pyramid share one
two-tree scheduler (:class:`repro.oram.hybrid.HybridController`).

* Pinned digests: one per scheme and workload on the tiny config, over
  what the golden corpus does not hash — the traced event stream with
  its ``tree=`` labels and the ``AccessRecorder`` records — next to the
  cycles and every counter.  Any drift in the shared scheduler, the
  side-burst bookkeeping or an RNG draw's order moves a digest.
* The consolidated custody audit: corrupting a hybrid controller's
  custody (a pending main insert missing from its queue, a custody
  block still mapped in the main PosMap) raises :class:`AuditError`.
"""

import hashlib
import random

import pytest

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.errors import AuditError
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.security.obliviousness import AccessRecorder
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator
from repro.stats import Stats
from repro.validate.invariants import InvariantAuditor

RECORDS = 400
SEED = 5

#: sha256 prefixes of (cycles, counters, events, records)
PINNED = {
    ("Rho", "mix"): "e583fdaa3304cb6f",
    ("Rho", "random"): "16745806eede0999",
    ("Ring", "mix"): "aa36bbc3322e79b6",
    ("Ring", "random"): "591afd80f8293774",
    ("Pyramid", "mix"): "76dd0ce48af6f9d5",
    ("Pyramid", "random"): "833eda807ce6c87d",
}


def _components(scheme, stats=None):
    return build_scheme(
        scheme, SystemConfig.tiny(), stats, random.Random(SEED)
    )


def observed_digest(scheme, workload):
    stats = Stats()
    stats.tracer = Tracer([MemorySink(capacity=1_000_000)])
    components = _components(scheme, stats)
    recorder = AccessRecorder()
    components.controller.observer = recorder
    trace = make_workload(workload, components.config, RECORDS, SEED)
    result = Simulator(components, trace).run()
    events = [
        (event.kind, event.cycle, sorted(event.data.items()))
        for event in stats.tracer.memory_events()
    ]
    records = [
        (record.issue_cycle, record.leaf, record.path_type.value,
         record.read_addresses, record.write_addresses)
        for record in recorder.records
    ]
    payload = repr((
        result.cycles, sorted(result.counters.items()), events, records
    ))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("scheme,workload", sorted(PINNED))
def test_observed_run_matches_pinned_digest(scheme, workload):
    assert observed_digest(scheme, workload) == PINNED[scheme, workload]


class _Stop(Exception):
    pass


def _stopped_when(scheme, condition):
    """A controller halted between slots at the first slot after which
    ``condition(controller)`` holds, with a clean audit at that point."""
    components = _components(scheme)
    controller = components.controller

    def observe(result):
        if condition(controller):
            raise _Stop

    controller.slot_observer = observe
    trace = make_workload("random", components.config, 2000, SEED)
    with pytest.raises(_Stop):
        Simulator(components, trace).run()
    auditor = InvariantAuditor(controller)
    auditor.audit_now()
    return controller, auditor


HYBRIDS = ["Rho", "Ring", "Pyramid"]


@pytest.mark.parametrize("scheme", HYBRIDS)
def test_pending_insert_missing_from_queue_fails_audit(scheme):
    controller, auditor = _stopped_when(
        scheme, lambda c: bool(c.main_insert_queue)
    )
    block = controller.main_insert_queue.popleft()
    assert block in controller._pending_main_insert
    with pytest.raises(AuditError, match="main-insert queue"):
        auditor.audit_now()


@pytest.mark.parametrize("scheme", HYBRIDS)
def test_custody_block_mapped_in_main_posmap_fails_audit(scheme):
    controller, auditor = _stopped_when(
        scheme, lambda c: bool(c.side_map)
    )
    block = next(iter(controller.side_map))
    controller.posmap.restore(block)
    with pytest.raises(AuditError, match="still mapped in the main PosMap"):
        auditor.audit_now()
