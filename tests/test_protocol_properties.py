"""Stateful property tests: the controller under random request sequences.

Hypothesis drives random interleavings of reads, writes, write-backs, and
idle (dummy) slots against the tiny platform, with the online
:class:`~repro.validate.invariants.InvariantAuditor` attached at cadence 1
— every issued path triggers a full sweep of the protocol invariants
(block conservation, path residency, stash bounds, PosMap/PLB
consistency, queue mirrors), and a final strict sweep runs at the end.
The timing-rate check stays off: this harness drives the controller
directly rather than through the Simulator clock.

Depth is controlled by the hypothesis profiles in ``conftest.py``
(``HYPOTHESIS_PROFILE=nightly`` explores far more interleavings).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.tree import EMPTY
from repro.oram.types import Request, RequestKind
from repro.validate.invariants import attach_auditor

from tests.test_controller import assert_conservation

#: an operation is (kind, block seed, is_write)
operation = st.tuples(
    st.sampled_from(["read", "write", "idle"]),
    st.integers(0, 10_000),
    st.booleans(),
)


def run_operations(scheme, ops):
    config = SystemConfig.tiny()
    components = build_scheme(scheme, config)
    controller = components.controller
    # Direct drive bypasses the LLC, so attach to the bare controller
    # (skips the strict end-of-run LLC-residency leg) with the timing-rate
    # check off; cadence 1 sweeps on every issued path.
    auditor = attach_auditor(controller, every=1, check_rate=False)
    user = controller.namespace.user_blocks
    now, last_finish = 0, 0
    outside = set()  # blocks extracted by LLC-D semantics
    for kind, block_seed, is_write in ops:
        if kind == "idle":
            result = controller.step(now, allow_dummy=True)
        else:
            block = block_seed % user
            if block in outside:
                continue
            request = Request(
                block=block,
                kind=RequestKind.READ,
                arrival=now,
                is_write=(kind == "write") or is_write,
            )
            controller.enqueue(request)
            guard = 0
            result = None
            while request.completion is None and guard < 60:
                result = controller.step(now, allow_dummy=False)
                if result is None:
                    break
                now = max(now + 1, result.finish_write)
                guard += 1
            if controller.delayed_remap and request.completion is not None:
                outside.add(block)
        if result is not None:
            assert result.finish_write >= result.finish_read >= result.start
            last_finish = max(last_finish, result.finish_write)
            now = max(now + 1, result.finish_write)
    report = auditor.final_check()
    assert report.audits >= 1
    return controller, outside


class TestControllerStateMachine:
    @given(ops=st.lists(operation, min_size=5, max_size=60))
    def test_baseline_invariants(self, ops):
        controller, _ = run_operations("Baseline", ops)
        assert_conservation(controller)
        self._check_tree_consistency(controller)

    @given(ops=st.lists(operation, min_size=5, max_size=60))
    def test_ir_oram_invariants(self, ops):
        controller, _ = run_operations("IR-ORAM", ops)
        assert_conservation(controller)
        self._check_tree_consistency(controller)
        # the S-Stash mirror matches actual top-level residency
        resident = set()
        for level in range(controller.oram.top_cached_levels):
            for position in range(1 << level):
                for block in controller.tree.bucket(level, position):
                    if block != EMPTY:
                        resident.add(block)
        assert resident == set(controller.treetop.resident_blocks())

    @given(ops=st.lists(operation, min_size=5, max_size=60))
    def test_llcd_invariants(self, ops):
        controller, outside = run_operations("LLC-D", ops)
        assert_conservation(controller, allowed_external=outside)
        for block in outside:
            assert not controller.posmap.is_mapped(block)

    @given(ops=st.lists(operation, min_size=5, max_size=60))
    def test_rho_invariants(self, ops):
        # assert_conservation does not know Rho's small-tree custody; the
        # auditor's Rho-aware sweep inside run_operations covers it.
        controller, _ = run_operations("Rho", ops)
        self._check_tree_consistency(controller)

    @staticmethod
    def _check_tree_consistency(controller):
        tree, posmap = controller.tree, controller.posmap
        for level in range(tree.levels):
            for position in range(1 << level):
                for block in tree.bucket(level, position):
                    if block == EMPTY:
                        continue
                    leaf = posmap.leaf_of(block)
                    assert tree.path_position(leaf, level) == position
