"""Properties of the adversarial trace distinguisher.

Two bounds make the harness meaningful (see ``docs/security.md``):

- **false positives**: two arms running the *same* program on the same
  scheme differ only by seed, so the distinguisher may flag them only at
  its designed false-positive rate — checked over a fixed sweep of
  schemes, programs and base seeds against a binomial bound;
- **false negatives**: every registered leaky mutant must flag within
  the default small budget, or the clean verdicts are vacuous.
"""

import math

import pytest
from repro.security.mutants import MUTANTS, build_mutant
from repro.traces.adversarial import ADVERSARY_PROGRAMS, DEFAULT_PROGRAM_PAIR
from repro.validate.distinguish import (
    BUDGETS,
    FEATURE_NAMES,
    DistinguishSpec,
    _holm_correct,
    capture_trace,
    derive_seed,
    permutation_p_value,
    replay,
    run_game,
    save_report,
)

SMALL = BUDGETS["small"]

#: Reduced-record spec for the false-positive sweep: 6 seeds per arm
#: keeps the permutation test exact (and capable of flagging), fewer
#: records keep each game fast.
FP_RECORDS = 120

#: The false-positive sweep's schemes; every adversary program runs on
#: each, the i-th (scheme, program) game at base seed i.
FP_SCHEMES = ("Baseline", "IR-ORAM", "Pyramid", "Rho", "Ring")


def _spec(scheme, program_a, program_b, base_seed, records=None):
    return DistinguishSpec(
        scheme=scheme,
        program_a=program_a,
        program_b=program_b,
        seeds=SMALL.seeds,
        records=records if records is not None else SMALL.records,
        permutations=SMALL.permutations,
        base_seed=base_seed,
    )


def _binomial_bound(n, p, tail):
    """The smallest k with P(Binomial(n, p) > k) < ``tail``."""
    exceed = 1.0
    for k in range(n + 1):
        exceed -= math.comb(n, k) * p**k * (1 - p) ** (n - k)
        if exceed < tail:
            return k
    return n


class TestFalsePositiveBound:
    def test_same_program_flags_within_false_positive_bound(self):
        """Arms that differ only by seed flag at most at the designed rate.

        Each game's Holm correction holds its family-wise false-positive
        rate at ``alpha`` (the effect floor only lowers it), so over
        independent games the flag count is at most Binomial(n, alpha):
        exceeding the bound below has probability under 1e-3 for a sound
        harness, while one that flags same-program arms at even a few
        times ``alpha`` fails it.
        """
        games = [
            (scheme, program)
            for scheme in FP_SCHEMES
            for program in sorted(ADVERSARY_PROGRAMS)
        ]
        flagged = []
        for base_seed, (scheme, program) in enumerate(games):
            spec = _spec(scheme, program, program, base_seed,
                         records=FP_RECORDS)
            report = run_game(spec)
            if report.distinguishable:
                flagged.append((scheme, program, base_seed, [
                    f.name for f in report.features if f.flagged
                ]))
        bound = _binomial_bound(len(games), spec.alpha, 1e-3)
        assert len(flagged) <= bound, (
            f"{len(flagged)} of {len(games)} same-program games flagged "
            f"(bound {bound}): {flagged}"
        )


class TestMutantDetection:
    @pytest.mark.parametrize("name", sorted(MUTANTS))
    def test_mutant_flags_at_default_budget(self, name):
        mutant = MUTANTS[name]
        report = run_game(_spec(name, *mutant.programs, base_seed=1))
        assert report.distinguishable, (
            f"mutant {name} (leaks via {mutant.leaks_via}) escaped: "
            f"{[(f.name, f.statistic, f.corrected_p) for f in report.features]}"
        )

    def test_mutants_never_reach_scheme_registry(self):
        from repro.core.schemes import SCHEMES

        assert not set(MUTANTS) & set(SCHEMES)

    def test_unknown_mutant_lists_valid_names(self, tiny_config):
        with pytest.raises(KeyError, match="skip-dummies"):
            build_mutant("no-such-mutant", tiny_config)


class TestReplayDeterminism:
    def test_artifact_replays_bit_for_bit(self, tmp_path):
        spec = _spec("skip-dummies", *MUTANTS["skip-dummies"].programs,
                     base_seed=5, records=FP_RECORDS)
        report = run_game(spec)
        path = save_report(report, str(tmp_path))
        fresh, mismatches = replay(path)
        assert mismatches == []
        assert fresh.distinguishable == report.distinguishable

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)
        assert derive_seed(1, "a", 0) != derive_seed(1, "a", 1)
        assert derive_seed(1, "a", 0) != derive_seed(2, "a", 0)


class TestCaptureIsNonPerturbing:
    def test_recorded_run_matches_unrecorded_run(self):
        """The observer hook must not change a single cycle or counter.

        ``capture_trace`` attaches the recorder to a fresh build; an
        identical build driven by the identical trace without the
        recorder must land on the same clock and the same counters.
        """
        import random

        from repro.config import SystemConfig
        from repro.core.schemes import build_scheme
        from repro.sim.simulator import Simulator
        from repro.stats import Stats
        from repro.traces.adversarial import build_program
        from repro.validate.distinguish import DISTINGUISH_INTERVAL

        run_seed = derive_seed(1, "Baseline", "a", 0)
        records, recorded = capture_trace(
            "Baseline", "uniform-memory", FP_RECORDS, run_seed
        )
        assert records, "observer captured nothing"

        config = SystemConfig.tiny(issue_interval=DISTINGUISH_INTERVAL)
        plain = build_scheme(
            "Baseline", config, Stats(), random.Random(run_seed)
        )
        trace = build_program(
            "uniform-memory", config, FP_RECORDS,
            random.Random(derive_seed(run_seed, "trace")),
        )
        result = Simulator(plain, trace).run()

        assert result.cycles == recorded.stats.get("sim.cycles")
        assert dict(plain.stats.counters) == dict(recorded.stats.counters)


class TestStatisticalMachinery:
    def test_permutation_p_is_one_for_identical_arms(self):
        pooled = [[0.5, 0.5]] * 8
        assert permutation_p_value(pooled, 0.0, 100, seed=1) == 1.0

    def test_permutation_p_is_minimal_for_separated_arms(self):
        pooled = [[1.0, 0.0]] * 4 + [[0.0, 1.0]] * 4
        p = permutation_p_value(pooled, 1.0, 100, seed=1)
        # only the true labeling and its mirror reach TV = 1
        assert p == pytest.approx(2 / math.comb(8, 4))

    def test_holm_correction_is_monotone_and_clamped(self):
        raw = [0.001, 0.04, 0.5, 0.9]
        corrected = _holm_correct(raw)
        ordered = sorted(zip(raw, corrected))
        assert all(a <= b for (_, a), (_, b) in zip(ordered, ordered[1:]))
        assert all(0.0 <= p <= 1.0 for p in corrected)
        assert corrected[0] == pytest.approx(0.004)

    def test_feature_names_cover_extraction(self):
        records, components = capture_trace(
            "Baseline", "uniform-memory", 60, derive_seed(9, "cov")
        )
        from repro.validate.distinguish import extract_features

        features = extract_features(records, components)
        assert set(features) == set(FEATURE_NAMES)
        assert all(len(v) > 0 for v in features.values())

    def test_default_pair_registered(self):
        assert all(p in ADVERSARY_PROGRAMS for p in DEFAULT_PROGRAM_PAIR)
