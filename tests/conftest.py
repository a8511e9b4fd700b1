"""Shared fixtures for the test suite.

Determinism: every test runs with the global :mod:`random` state seeded
from a hash of its node id (XORed with ``REPRO_TEST_SEED`` when set), and
the ``rng`` fixture hands out a private generator derived the same way —
so any stray module-level randomness is reproducible per test, and a
failure replays by re-running that test alone.

The engine's disk cache lives in a per-session temp dir, never in the
checkout.

Hypothesis depth is profile-driven: the default ``ci`` profile keeps
property tests fast; ``HYPOTHESIS_PROFILE=nightly`` (the scheduled
deep-conformance CI job) explores much further.
"""

import hashlib
import os
import random

import pytest

from repro.config import CacheConfig, DRAMConfig, ORAMConfig, SystemConfig
from repro.core.schemes import build_scheme
from repro.oram.types import PathType
from repro.stats import Stats

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover - hypothesis ships with the image
    pass
else:
    _relaxed = dict(
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.data_too_large,
        ],
    )
    settings.register_profile("ci", max_examples=12, **_relaxed)
    settings.register_profile("nightly", max_examples=75, **_relaxed)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


#: global offset for derived per-test seeds (set to reproduce a CI shard)
REPRO_TEST_SEED = int(os.environ.get("REPRO_TEST_SEED", "0"))


def derived_seed(nodeid: str, salt: int = 0) -> int:
    digest = hashlib.sha256(nodeid.encode()).digest()
    return (int.from_bytes(digest[:8], "big") ^ REPRO_TEST_SEED) + salt


@pytest.fixture(scope="session", autouse=True)
def _private_cache_dir(tmp_path_factory):
    """Point the engine's disk cache (the Z-search memo) at a session
    temp dir, so no test reads or writes the checkout's ``.repro_cache``.
    Tests that set their own ``REPRO_CACHE_DIR`` override this one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(
            "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("repro-cache"))
        )
        yield


@pytest.fixture(autouse=True)
def _seed_global_random(request):
    """Pin the module-level random state per test, restored afterwards."""
    state = random.getstate()
    random.seed(derived_seed(request.node.nodeid))
    yield
    random.setstate(state)


@pytest.fixture
def rng(request):
    """A private, per-test-deterministic random generator."""
    return random.Random(derived_seed(request.node.nodeid, salt=1))


@pytest.fixture
def stats():
    return Stats()


@pytest.fixture
def tiny_config():
    """A small but fully functional platform (L=9)."""
    return SystemConfig.tiny()


@pytest.fixture
def tiny_oram(tiny_config):
    return tiny_config.oram


@pytest.fixture
def dram_config():
    return DRAMConfig()


@pytest.fixture
def cache_config():
    return CacheConfig(sets=8, ways=4)


@pytest.fixture
def baseline(tiny_config):
    """A freshly built Baseline scheme on the tiny platform."""
    return build_scheme("Baseline", tiny_config)


@pytest.fixture
def controller(baseline):
    return baseline.controller


def make_oram(levels=9, z=4, top=3, **kwargs) -> ORAMConfig:
    """Hand-rolled ORAM config helper for unit tests."""
    slots = z * ((1 << levels) - 1)
    defaults = dict(
        levels=levels,
        user_blocks=(slots // 2 * 15) // 16 // 16 * 16,
        z_per_level=(z,) * levels,
        top_cached_levels=top,
        stash_capacity=120,
        eviction_threshold=90,
        plb_sets=8,
        plb_ways=2,
    )
    defaults.update(kwargs)
    return ORAMConfig(**defaults)


class CountingKernels:
    """A controller's kernel module, counting the calls into each entry
    and the PosMap fetches ``drain_slots`` makes.  Assign one to a
    controller's ``_native`` to count its calls."""

    def __init__(self, module):
        self._module = module
        self.calls = {}
        self.served_fetches = 0

    def __getattr__(self, name):
        entry = getattr(self._module, name)
        posmap_codes = {
            code for code, path_type in enumerate(PathType)
            if path_type.is_posmap
        }

        def counted(*args):
            self.calls[name] = self.calls.get(name, 0) + 1
            result = entry(*args)
            if name == "drain_slots":
                self.served_fetches += sum(
                    code in posmap_codes for code in result[1][::5]
                )
            return result

        return counted
