"""Unit tests for the IR-ORAM core: IR-Alloc, IR-Stash, IR-DWB, schemes."""

import gc
import random
import weakref

import pytest

from repro.config import ORAMConfig, SystemConfig
from repro.core.ir_alloc import (
    PAPER_ALLOC_CONFIGS,
    AllocPlan,
    apply_alloc_plan,
    find_z_allocation,
    scale_plan,
)
from repro.core.ir_dwb import DWBEngine
from repro.core.ir_stash import SStash, md5_set_index
from repro.core.schemes import SCHEMES, build_scheme
from repro.errors import ConfigError, ProtocolError
from repro.oram.rho import RhoController

from tests.conftest import make_oram


class TestAllocPlans:
    def test_paper_pl_values(self):
        assert PAPER_ALLOC_CONFIGS["IR-Alloc1"].blocks_per_path() == 43
        assert PAPER_ALLOC_CONFIGS["IR-Alloc2"].blocks_per_path() == 42
        assert PAPER_ALLOC_CONFIGS["IR-Alloc3"].blocks_per_path() == 37
        assert PAPER_ALLOC_CONFIGS["IR-Alloc4"].blocks_per_path() == 36
        assert PAPER_ALLOC_CONFIGS["IR-ORAM"].blocks_per_path() == 43

    def test_uniform_plan_pl(self):
        assert AllocPlan("u", ()).blocks_per_path() == 60
        assert AllocPlan("u0", (), top_cached=0).blocks_per_path() == 100

    def test_z_vector_ranges(self):
        plan = PAPER_ALLOC_CONFIGS["IR-Alloc4"]
        z = plan.z_vector()
        assert z[10] == 1 and z[15] == 1
        assert z[16] == 2 and z[18] == 2
        assert z[19] == 4 and z[9] == 4

    def test_invalid_range_rejected(self):
        plan = AllocPlan("bad", ((5, 12, 2),))  # starts above cached top
        with pytest.raises(ConfigError):
            plan.z_vector()

    def test_scale_plan_monotone_and_bounded(self):
        plan = PAPER_ALLOC_CONFIGS["IR-ORAM"]
        z = scale_plan(plan, levels=15, top_cached=6)
        assert len(z) == 15
        memory = z[6:]
        assert all(a <= b for a, b in zip(memory, memory[1:]))
        assert set(memory) <= {2, 3, 4}

    def test_scale_plan_identity_geometry(self):
        plan = PAPER_ALLOC_CONFIGS["IR-Alloc1"]
        assert scale_plan(plan, 25, 10) == plan.z_vector()

    def test_apply_alloc_plan_direct_and_scaled(self):
        paper_oram = ORAMConfig.uniform(
            levels=25, user_blocks=1 << 20, top_cached_levels=10
        )
        direct = apply_alloc_plan(paper_oram, PAPER_ALLOC_CONFIGS["IR-Alloc4"])
        assert direct.blocks_per_path() == 36
        scaled_oram = SystemConfig.scaled().oram
        scaled = apply_alloc_plan(scaled_oram, PAPER_ALLOC_CONFIGS["IR-Alloc4"])
        assert scaled.blocks_per_path() < scaled_oram.blocks_per_path()

    def test_space_constraint_paper_scale(self):
        paper_oram = ORAMConfig.uniform(
            levels=25, user_blocks=1 << 20, top_cached_levels=10
        )
        for name, plan in PAPER_ALLOC_CONFIGS.items():
            shrunk = apply_alloc_plan(paper_oram, plan)
            assert shrunk.space_reduction_vs_uniform() < 0.01, name


class TestZSearch:
    def test_greedy_search_reduces_blocks_under_constraints(self):
        config = make_oram(levels=9, top=3)

        def evaluate(candidate):
            # synthetic model: cycles proportional to PL, evictions grow as
            # slots shrink
            pl = candidate.blocks_per_path()
            reduction = candidate.space_reduction_vs_uniform()
            return {"cycles": 1000.0 * pl, "evictions": 100.0 * (1 + 40 * reduction)}

        best = find_z_allocation(
            config, evaluate, max_space_reduction=0.05, max_eviction_increase=0.5
        )
        assert best.blocks_per_path() < config.blocks_per_path()
        assert best.space_reduction_vs_uniform() <= 0.05
        memory = best.z_per_level[3:]
        assert all(a <= b for a, b in zip(memory, memory[1:]))

    def test_search_keeps_uniform_when_nothing_helps(self):
        config = make_oram(levels=9, top=3)

        def evaluate(candidate):
            return {"cycles": 1.0, "evictions": 1.0}  # no improvement possible

        best = find_z_allocation(config, evaluate)
        assert best.z_per_level == config.z_per_level


class TestSStash:
    @pytest.fixture
    def sstash(self):
        return SStash(make_oram(levels=9, top=3), ways=2)

    def test_md5_index_deterministic_and_bounded(self):
        values = {md5_set_index(block, 16) for block in range(200)}
        assert values <= set(range(16))
        assert md5_set_index(7, 16) == md5_set_index(7, 16)

    def test_set_of_hashes_each_block_once(self, sstash, monkeypatch):
        import repro.core.ir_stash as ir_stash

        hashed = []

        def counted(block, sets):
            hashed.append(block)
            return md5_set_index(block, sets)

        monkeypatch.setattr(ir_stash, "md5_set_index", counted)
        assert sstash._set_index[7] == -1
        assert sstash.set_of(7) == sstash.set_of(7) == md5_set_index(
            7, sstash.sets
        )
        assert sstash._set_index[7] == md5_set_index(7, sstash.sets)
        assert hashed == [7]

    def test_addressable(self, sstash):
        assert sstash.addressable_by_block

    def test_place_and_lookup(self, sstash):
        assert not sstash.lookup_by_address(5)
        sstash.on_place(5)
        assert sstash.lookup_by_address(5)
        assert sstash.resident_count() == 1

    def test_double_place_rejected(self, sstash):
        sstash.on_place(5)
        with pytest.raises(ProtocolError):
            sstash.on_place(5)

    def test_remove_missing_rejected(self, sstash):
        with pytest.raises(ProtocolError):
            sstash.on_remove(5)

    def test_set_conflict_constraint(self, sstash):
        target = md5_set_index(0, sstash.sets)
        conflicting = [
            b for b in range(3000) if md5_set_index(b, sstash.sets) == target
        ]
        sstash.on_place(conflicting[0])
        sstash.on_place(conflicting[1])
        assert not sstash.may_place(conflicting[2])
        sstash.on_remove(conflicting[0])
        assert sstash.may_place(conflicting[2])

    def test_tt_table_size(self, sstash):
        # (2^3 - 1) buckets x 4 pointers x 12 bits
        assert sstash.tt_table_bits() == 7 * 4 * 12

    def test_paper_tt_overhead(self):
        oram = ORAMConfig.uniform(
            levels=25, user_blocks=1 << 20, top_cached_levels=10
        )
        sstash = SStash(oram)
        # Section VI-F: (2^10 - 1) * 4 pointers of 12 bits ~ 6 KB
        assert sstash.tt_table_bits() == (2**10 - 1) * 4 * 12
        assert 5.9 < sstash.tt_table_bits() / 8 / 1024 < 6.1


class TestDWBEngine:
    @pytest.fixture
    def system(self):
        return build_scheme("IR-DWB", SystemConfig.tiny())

    def test_no_candidate_returns_none(self, system):
        assert system.controller.dwb.dummy_slot(system.controller, 0) is None

    def test_flush_cleans_line(self, system):
        controller, llc = system.controller, system.llc
        dwb = controller.dwb
        llc.access(3, is_write=True)
        now = 0
        slots = 0
        while llc.is_dirty(3) and slots < 10:
            result = dwb.dummy_slot(controller, now)
            assert result is not None
            now = max(now + 1000, result.finish_write)
            slots += 1
        assert not llc.is_dirty(3)
        assert llc.probe(3)  # still resident, just clean
        assert controller.stats.get("dwb.writebacks_completed") == 1
        assert 1 <= slots <= 3  # stage machine: up to three paths

    def test_abort_when_no_longer_lru(self, system):
        controller, llc = system.controller, system.llc
        dwb = controller.dwb
        sets = llc.config.sets
        llc.access(3, is_write=True)
        llc.access(3 + sets, is_write=True)
        first = dwb.dummy_slot(controller, 0)
        if dwb.stage != 0:
            # make the locked line MRU: flush must abort
            block = dwb.ptr[1]
            llc.access(block, is_write=False)
            other = 2 * sets + block
            llc.access(other, is_write=True)
            dwb.dummy_slot(controller, 5000)
            assert controller.stats.get("dwb.aborts") >= 1

    def test_tree_is_freed_when_the_run_returns(self, monkeypatch):
        """The engine keeps no reference to its controller, so with the
        cycle collector off an IR-ORAM run's controller and tree die as
        soon as ``api.run`` returns."""
        from repro import api
        from repro.core import schemes

        built = []
        build = schemes.build_scheme

        def spy(*args, **kwargs):
            components = build(*args, **kwargs)
            built.append(weakref.ref(components.controller))
            built.append(weakref.ref(components.controller.tree))
            return components

        monkeypatch.setattr(schemes, "build_scheme", spy)
        gc.collect()
        gc.disable()
        try:
            api.run(api.RunSpec(scheme="IR-ORAM", workload="mix",
                                records=200, seed=1, config_name="tiny"))
            assert len(built) == 2
            assert [ref() for ref in built] == [None, None]
        finally:
            gc.enable()

    def test_stage_recorded(self, system):
        controller, llc = system.controller, system.llc
        llc.access(3, is_write=True)
        controller.dwb.dummy_slot(controller, 0)
        start_stages = controller.stats.histogram("dwb.start_stage")
        assert sum(start_stages.values()) == 1
        assert set(start_stages) <= {1, 2, 3}


class TestSchemes:
    def test_all_schemes_build(self):
        config = SystemConfig.tiny()
        for name in SCHEMES:
            components = build_scheme(name, config)
            assert components.controller is not None
            assert components.llc is not None

    def test_unknown_scheme_lists_options(self):
        with pytest.raises(KeyError, match="Baseline"):
            build_scheme("nope", SystemConfig.tiny())

    def test_ir_oram_composition(self):
        components = build_scheme("IR-ORAM", SystemConfig.tiny())
        assert components.controller.dwb is not None
        assert components.controller.treetop.addressable_by_block
        oram = components.config.oram
        assert min(oram.z_per_level[oram.top_cached_levels:]) < 4

    def test_dwb_with_delayed_remap_rejected(self):
        from repro.core.schemes import _baseline
        from repro.stats import Stats

        with pytest.raises(ConfigError):
            _baseline(
                SystemConfig.tiny(), Stats(), random.Random(1),
                dwb=True, delayed_remap=True,
            )

    def test_rho_builds_small_tree(self):
        components = build_scheme("Rho", SystemConfig.tiny())
        controller = components.controller
        assert isinstance(controller, RhoController)
        assert controller.small_oram.levels < components.config.oram.levels
        assert controller.side_budget > 0
