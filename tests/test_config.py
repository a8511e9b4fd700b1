"""Unit tests for configuration objects and their derived quantities."""

import math

import pytest

from repro.config import (
    CacheConfig,
    CPUConfig,
    DRAMConfig,
    ORAMConfig,
    SystemConfig,
    env_number,
    posmap_fanout,
    scaled_user_blocks,
)
from repro.errors import ConfigError


class TestPosmapFanout:
    def test_standard(self):
        assert posmap_fanout(64, 4) == 16

    def test_larger_entries(self):
        assert posmap_fanout(64, 8) == 8

    def test_entry_larger_than_block_rejected(self):
        with pytest.raises(ConfigError):
            posmap_fanout(4, 64)

    def test_zero_entry_rejected(self):
        with pytest.raises(ConfigError):
            posmap_fanout(64, 0)


class TestORAMConfig:
    def test_uniform_builder(self):
        config = ORAMConfig.uniform(levels=10, user_blocks=512, z=4)
        assert config.z_per_level == (4,) * 10
        assert config.leaves == 512

    def test_levels_too_small(self):
        with pytest.raises(ConfigError):
            ORAMConfig.uniform(levels=1, user_blocks=4)

    def test_z_vector_length_mismatch(self):
        with pytest.raises(ConfigError):
            ORAMConfig(levels=5, user_blocks=8, z_per_level=(4, 4, 4))

    def test_negative_z_rejected(self):
        with pytest.raises(ConfigError):
            ORAMConfig(levels=3, user_blocks=4, z_per_level=(4, -1, 4))

    def test_top_cached_out_of_range(self):
        with pytest.raises(ConfigError):
            ORAMConfig.uniform(levels=5, user_blocks=8, top_cached_levels=5)

    def test_eviction_threshold_above_capacity(self):
        with pytest.raises(ConfigError):
            ORAMConfig.uniform(
                levels=8,
                user_blocks=64,
                stash_capacity=100,
                eviction_threshold=200,
            )

    @pytest.mark.parametrize(
        "sets, ways", [(0, 4), (3, 4), (12, 4), (-8, 4), (8, 0), (8, -1)]
    )
    def test_plb_geometry_rejected(self, sets, ways):
        """The PLB needs a power-of-two set count and at least one way,
        checked when the config is built rather than by a controller."""
        with pytest.raises(ConfigError):
            ORAMConfig.uniform(
                levels=5, user_blocks=8, plb_sets=sets, plb_ways=ways
            )

    def test_plb_geometry_accepted(self):
        oram = ORAMConfig.uniform(
            levels=5, user_blocks=8, plb_sets=1, plb_ways=1
        )
        assert (oram.plb_sets, oram.plb_ways) == (1, 1)

    def test_capacity_check(self):
        slots = 4 * ((1 << 5) - 1)  # 124
        with pytest.raises(ConfigError):
            ORAMConfig.uniform(levels=5, user_blocks=slots + 1)

    def test_tree_slots_uniform(self):
        config = ORAMConfig.uniform(levels=5, user_blocks=16)
        assert config.tree_slots() == 4 * 31

    def test_tree_slots_nonuniform(self):
        config = ORAMConfig(
            levels=3, user_blocks=4, z_per_level=(4, 2, 1)
        )
        assert config.tree_slots() == 4 + 4 + 4

    def test_posmap_sizing(self):
        config = ORAMConfig.uniform(levels=12, user_blocks=1600)
        assert config.posmap1_blocks == math.ceil(1600 / 16)
        assert config.posmap2_blocks == math.ceil(config.posmap1_blocks / 16)
        assert config.posmap3_entries == config.posmap2_blocks

    def test_total_blocks(self):
        config = ORAMConfig.uniform(levels=12, user_blocks=1600)
        assert config.total_blocks() == (
            1600 + config.posmap1_blocks + config.posmap2_blocks
        )

    def test_blocks_per_path_with_top_cache(self):
        config = ORAMConfig.uniform(
            levels=10, user_blocks=256, top_cached_levels=4
        )
        assert config.blocks_per_path() == 6 * 4

    def test_blocks_per_path_nonuniform_matches_paper(self):
        # the IR-ORAM allocation at paper geometry: PL=43
        z = [4] * 25
        for level in range(10, 17):
            z[level] = 2
        for level in range(17, 20):
            z[level] = 3
        config = ORAMConfig(
            levels=25,
            user_blocks=1 << 20,
            z_per_level=tuple(z),
            top_cached_levels=10,
        )
        assert config.blocks_per_path() == 43

    def test_zero_z_levels_excluded_from_path(self):
        z = (0, 0, 4, 4, 4)
        config = ORAMConfig(levels=5, user_blocks=16, z_per_level=z)
        assert config.blocks_per_path() == 12

    def test_with_z_vector_returns_new_config(self):
        config = ORAMConfig.uniform(levels=6, user_blocks=64)
        other = config.with_z_vector([4, 4, 4, 2, 4, 4])
        assert other.z_per_level[3] == 2
        assert config.z_per_level[3] == 4

    def test_space_reduction_vs_uniform(self):
        config = ORAMConfig.uniform(levels=6, user_blocks=64)
        assert config.space_reduction_vs_uniform() == pytest.approx(0.0)
        shrunk = config.with_z_vector([4, 4, 4, 4, 4, 2])
        expected = (2 << 5) / (4 * 63)
        assert shrunk.space_reduction_vs_uniform() == pytest.approx(expected)

    def test_utilization_target_near_half_for_scaled(self):
        config = SystemConfig.scaled().oram
        assert 0.4 < config.utilization_target() <= 0.55


class TestDRAMConfig:
    def test_row_blocks(self):
        assert DRAMConfig(row_bytes=2048).row_blocks == 32

    def test_bad_channels(self):
        with pytest.raises(ConfigError):
            DRAMConfig(channels=0)

    def test_bad_timing(self):
        with pytest.raises(ConfigError):
            DRAMConfig(t_cas=0)


class TestCacheConfig:
    def test_capacity(self):
        config = CacheConfig(sets=4096, ways=8)
        assert config.capacity_bytes == 2 * 1024 * 1024
        assert config.lines == 32768

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=12, ways=4)

    def test_zero_ways_rejected(self):
        with pytest.raises(ConfigError):
            CacheConfig(sets=8, ways=0)


class TestCPUConfig:
    def test_defaults_match_table1(self):
        config = CPUConfig()
        assert config.issue_width == 4
        assert config.rob_size == 128

    def test_bad_width(self):
        with pytest.raises(ConfigError):
            CPUConfig(issue_width=0)

    def test_bad_write_buffer(self):
        with pytest.raises(ConfigError):
            CPUConfig(write_buffer=0)


class TestSystemPresets:
    def test_paper_preset_matches_table1(self):
        config = SystemConfig.paper()
        assert config.oram.levels == 25
        assert config.oram.user_blocks == 1 << 26
        assert config.oram.top_cached_levels == 10
        assert config.llc.capacity_bytes == 2 * 1024 * 1024
        assert config.oram.blocks_per_path() == 60

    def test_scaled_preset_proportions(self):
        config = SystemConfig.scaled()
        oram = config.oram
        # cached fraction ~ 10/25
        assert oram.top_cached_levels == round(oram.levels * 10 / 25)
        # ~50% utilization provisioning
        assert 0.4 < oram.utilization_target() <= 0.55

    def test_scaled_custom_levels(self):
        config = SystemConfig.scaled(levels=13)
        assert config.oram.levels == 13
        assert config.oram.total_blocks() <= config.oram.tree_slots()

    def test_tiny_preset_valid(self):
        config = SystemConfig.tiny()
        assert config.oram.levels == 9
        assert config.oram.total_blocks() <= config.oram.tree_slots()

    def test_with_oram_replaces_only_oram(self):
        config = SystemConfig.tiny()
        other = config.with_oram(config.oram.with_z_vector(
            list(config.oram.z_per_level)))
        assert other.llc is config.llc

    def test_scaled_user_blocks_validation(self):
        with pytest.raises(ConfigError):
            scaled_user_blocks(1000, 1.5)

    def test_scaled_user_blocks_multiple_of_fanout(self):
        assert scaled_user_blocks(10000, 0.5) % 16 == 0


BAD_VALUES = ["2x", "-1", "nan"]


class TestEnvKnobs:
    """A malformed or negative setting fails loudly, naming the variable
    or the option, instead of silently running other code."""

    def test_unset_or_blank_is_the_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUDIT", raising=False)
        assert env_number("REPRO_AUDIT", 0) == 0
        monkeypatch.setenv("REPRO_AUDIT", " ")
        assert env_number("REPRO_AUDIT", 0) == 0
        monkeypatch.setenv("REPRO_AUDIT", "16")
        assert env_number("REPRO_AUDIT", 0) == 16

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_audit(self, value, monkeypatch):
        from repro import api

        monkeypatch.setenv("REPRO_AUDIT", value)
        spec = api.RunSpec(scheme="Baseline", workload="random",
                           records=50, config=SystemConfig.tiny())
        with pytest.raises(ConfigError, match="REPRO_AUDIT"):
            api.run(spec)

    @pytest.mark.parametrize(
        "value, expected",
        [("", (False, None)), (" ", (False, None)), ("0", (False, None)),
         ("1", (True, None)), ("16", (True, 16))],
    )
    def test_audit_cadence(self, value, expected, monkeypatch):
        from repro import api

        monkeypatch.setenv("REPRO_AUDIT", value)
        assert api._audit_options(api.ObsOptions()) == expected

    @staticmethod
    def _refused(option, value, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", option, value, "Table I"])
        assert exit_info.value.code == 2
        assert option in capsys.readouterr().err

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_experiment_records(self, value, capsys):
        self._refused("--records", value, capsys)

    @pytest.mark.parametrize("value", BAD_VALUES)
    def test_experiment_seed(self, value, capsys):
        self._refused("--seed", value, capsys)

    @pytest.mark.parametrize("value", BAD_VALUES)
    @pytest.mark.parametrize(
        "knob", ["REPRO_TASK_RETRIES", "REPRO_MAX_RESPAWNS",
                 "REPRO_TASK_TIMEOUT"],
    )
    def test_engine_knobs(self, knob, value, monkeypatch):
        """The supervision settings are ``engine_map`` arguments: a stale
        variable of the deleted knob is ignored, even a malformed one."""
        from repro.perf import engine

        monkeypatch.setenv(knob, value)
        assert engine.engine_map(abs, [1, -2, 3], jobs=2) == [1, 2, 3]
