"""Tests for the obliviousness checker (Section IV-E)."""

import pytest

from repro.config import SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.types import PathAccessRecord, PathType
from repro.security.obliviousness import (
    AccessRecorder,
    check_obliviousness,
    _uniformity_test,
)
from repro.sim.runner import make_workload
from repro.sim.simulator import Simulator


def run_with_recorder(scheme, config, records=400, workload="random"):
    components = build_scheme(scheme, config)
    recorder = AccessRecorder()
    components.controller.observer = recorder
    trace = make_workload(workload, config, records, seed=3)
    Simulator(components, trace).run()
    return recorder, components


@pytest.fixture
def config():
    return SystemConfig.tiny()


class TestRealRuns:
    @pytest.mark.parametrize(
        "scheme", ["Baseline", "IR-Alloc", "IR-Stash", "IR-DWB", "IR-ORAM",
                   "LLC-D"]
    )
    def test_scheme_is_oblivious(self, scheme, config):
        recorder, components = run_with_recorder(scheme, config)
        report = check_obliviousness(recorder, components.config.oram)
        assert report.ok, report.violations

    def test_issue_rate_respected(self, config):
        recorder, components = run_with_recorder("Baseline", config)
        report = check_obliviousness(recorder, components.config.oram)
        assert report.min_interval is None or (
            report.min_interval >= config.oram.issue_interval
        )

    def test_leaves_recorded_per_type(self, config):
        recorder, _ = run_with_recorder("Baseline", config)
        grouped = recorder.leaves_by_type()
        assert PathType.DATA in grouped
        assert all(leaves for leaves in grouped.values())


class TestViolationDetection:
    def _record(self, cycle, leaf, addresses, path_type=PathType.DATA):
        return PathAccessRecord(
            issue_cycle=cycle,
            leaf=leaf,
            path_type=path_type,
            read_addresses=list(addresses),
            write_addresses=list(addresses),
        )

    def test_rate_violation_flagged(self, config):
        oram = config.oram
        recorder = AccessRecorder()
        shape = list(range(oram.blocks_per_path()))
        recorder(self._record(0, 1, shape))
        recorder(self._record(10, 2, shape))  # far below the interval
        report = check_obliviousness(recorder, oram)
        assert not report.rate_uniform
        assert report.min_interval == 10

    def test_mismatched_read_write_sets_flagged(self, config):
        oram = config.oram
        recorder = AccessRecorder()
        record = self._record(0, 1, range(oram.blocks_per_path()))
        record.write_addresses = record.write_addresses[:-1] + [999999]
        recorder(record)
        report = check_obliviousness(recorder, oram)
        assert not report.shape_uniform

    def test_biased_leaves_flagged(self, config):
        oram = config.oram
        recorder = AccessRecorder()
        shape = list(range(oram.blocks_per_path()))
        for i in range(200):
            # all dummy paths go to one leaf: a detectable pattern
            recorder(
                self._record(
                    i * oram.issue_interval, 0, shape, PathType.DUMMY
                )
            )
        report = check_obliviousness(recorder, oram)
        assert not report.leaf_uniform_by_type[PathType.DUMMY.value]

    def test_uniformity_test_accepts_uniform(self):
        import random

        rng = random.Random(1)
        leaves = [rng.randrange(256) for _ in range(3000)]
        assert _uniformity_test(leaves, 256)

    def test_uniformity_test_rejects_point_mass(self):
        assert not _uniformity_test([7] * 500, 256)

    def test_small_sample_not_judged(self, config):
        recorder = AccessRecorder()
        shape = list(range(config.oram.blocks_per_path()))
        for i in range(10):
            recorder(self._record(i * 10**6, 0, shape, PathType.DUMMY))
        report = check_obliviousness(recorder, config.oram)
        assert report.leaf_uniform_by_type[PathType.DUMMY.value]


class TestUniformityFallback:
    """The no-scipy branch must mirror the scipy branch's verdicts.

    Regression: the old fallback only bounded the *maximum* bucket
    count, so a sample that never touched half the leaf space — or one
    too small to fill two buckets — passed vacuously.
    """

    def _uniform(self, n, space=256, seed=1):
        import random

        rng = random.Random(seed)
        return [rng.randrange(space) for _ in range(n)]

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_accepts_uniform(self, force_fallback):
        assert _uniformity_test(
            self._uniform(3000), 256, force_fallback=force_fallback
        )

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_rejects_point_mass(self, force_fallback):
        assert not _uniformity_test(
            [7] * 500, 256, force_fallback=force_fallback
        )

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_rejects_half_space_missing(self, force_fallback):
        leaves = [leaf % 128 for leaf in self._uniform(1000)]
        assert not _uniformity_test(
            leaves, 256, force_fallback=force_fallback
        )

    @pytest.mark.parametrize("force_fallback", [False, True])
    def test_tiny_sample_cannot_pass_vacuously(self, force_fallback):
        # fewer than two feedable buckets: fail, don't certify
        assert not _uniformity_test(
            self._uniform(9), 256, force_fallback=force_fallback
        )

    def test_bucket_shrink_keeps_chi_square_valid(self):
        # 80 samples -> 16 buckets of expected 5: exactly at the floor
        assert _uniformity_test(self._uniform(80), 256, force_fallback=True)


class TestRecorderEdgeCases:
    def test_empty_trace_passes_vacuously(self, config):
        report = check_obliviousness(AccessRecorder(), config.oram)
        assert report.ok
        assert report.total_paths == 0
        assert report.min_interval is None

    def test_single_record_has_no_rate_verdict(self, config):
        recorder = AccessRecorder()
        shape = list(range(config.oram.blocks_per_path()))
        recorder(
            PathAccessRecord(
                issue_cycle=0, leaf=1, path_type=PathType.DATA,
                read_addresses=shape, write_addresses=shape,
            )
        )
        report = check_obliviousness(recorder, config.oram)
        assert report.ok
        assert report.min_interval is None

    def test_single_type_trace(self, config):
        import random

        rng = random.Random(4)
        recorder = AccessRecorder()
        shape = list(range(config.oram.blocks_per_path()))
        for i in range(300):
            leaf = rng.randrange(config.oram.leaves)
            recorder(
                PathAccessRecord(
                    issue_cycle=i * config.oram.issue_interval,
                    leaf=leaf, path_type=PathType.DUMMY,
                    read_addresses=shape, write_addresses=shape,
                )
            )
        report = check_obliviousness(recorder, config.oram)
        assert report.ok
        assert list(report.leaf_uniform_by_type) == [PathType.DUMMY.value]


class TestMultiShapeSchemes:
    def test_decoupled_is_oblivious(self, config):
        recorder, components = run_with_recorder("Decoupled", config)
        report = check_obliviousness(recorder, components.config.oram)
        assert report.ok, report.violations

    def test_rho_is_oblivious_with_per_size_leaf_spaces(self, config):
        """Rho's small-tree paths are uniform over *their* leaf space.

        The path size is public, so the checker judges each size class
        against its own leaf space; without the override the small
        tree's (uniform) leaves would be flagged against the main
        tree's much larger space.
        """
        recorder, components = run_with_recorder("Rho", config)
        small = components.controller.small_oram
        small_size = sum(small.z_per_level)
        report = check_obliviousness(
            recorder, components.config.oram,
            leaf_spaces={small_size: small.leaves},
        )
        assert report.ok, report.violations
        assert any("@" in key for key in report.leaf_uniform_by_type)

    def test_ring_is_oblivious_with_pooled_leaf_spaces(self, config):
        """Ring's reshuffle-inflated ReadPaths pool into one size class.

        Early reshuffles append whole buckets to a ReadPath's footprint,
        fanning one protocol class across many observed sizes.  The
        controller's ``leaf_spaces`` maps every such size to the ring
        leaf space, and the checker pools same-space sizes so the class
        is judged on its combined sample instead of passing vacuously
        slice by slice (the ``size+n`` keys pin the pooling).
        """
        recorder, components = run_with_recorder(
            "Ring", config, records=600, workload="mix"
        )
        controller = components.controller
        report = check_obliviousness(
            recorder, components.config.oram,
            leaf_spaces=controller.leaf_spaces(),
        )
        assert all(report.leaf_uniform_by_type.values()), report.violations
        assert any(
            "+" in key for key in report.leaf_uniform_by_type
        ), report.leaf_uniform_by_type
        # like Pyramid, Ring's multi-shape footprint is outside the
        # path-shape marginal check; the distinguisher is the authority
        assert not report.shape_uniform

    def test_ring_leaves_flagged_against_wrong_space(self, config):
        """Without the override, pooled ring leaves are judged against
        the main tree's space and correctly fail — the regression the
        pooling fix guards: a vacuous pass would hide real bias."""
        recorder, components = run_with_recorder(
            "Ring", config, records=600, workload="mix"
        )
        report = check_obliviousness(recorder, components.config.oram)
        assert not all(report.leaf_uniform_by_type.values())

    def test_pyramid_shape_is_outside_the_marginal_checker(self, config):
        """Pyramid is not a path ORAM: its public footprint mixes level
        probes, full paths, and scheduled reshuffle bursts, so the
        path-shape marginal check does not apply — the definitional
        distinguisher (``repro validate --distinguish``) is the
        authority for Pyramid (see docs/security.md)."""
        recorder, components = run_with_recorder("Pyramid", config)
        report = check_obliviousness(recorder, components.config.oram)
        sizes = {len(r.read_addresses) for r in recorder.records}
        assert len(sizes) > 2
        assert not report.shape_uniform


class TestRecordingIsNonPerturbing:
    def test_recorded_run_keeps_the_unobserved_clock(self, config):
        """An attached recorder steps every slot in Python, where an
        unobserved run drains them in the kernel; the recorded run must
        end at the unobserved run's cycle."""
        recorder, components = run_with_recorder(
            "Baseline", config, records=200, workload="mcf"
        )
        cycles = components.stats.get("sim.cycles")
        components = build_scheme("Baseline", config)
        trace = make_workload("mcf", config, 200, seed=3)
        Simulator(components, trace).run()
        assert components.stats.get("sim.cycles") == cycles
