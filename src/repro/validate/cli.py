"""``repro validate`` — the conformance suite's command-line face.

``--check`` (the default) replays the golden matrix with the online
auditor attached and diffs it against the committed corpus, then runs
the lockstep differential oracle across the scheme zoo; with
``--jobs > 1`` it also proves serial/parallel engine equivalence.
``--regen`` rewrites the golden corpus; ``--fuzz N`` runs the
seed-replayable fuzzer (``--inject-faults`` turns on the auditor
self-test mode); ``--replay FILE`` reproduces a persisted failure
artifact; ``--distinguish`` plays the adversarial trace
indistinguishability game over every scheme and leaky mutant
(``--distinguish --replay FILE`` re-runs a persisted game verdict).
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ReproError
from . import fuzz as fuzz_mod
from . import golden, oracle


def add_parser(sub) -> None:
    from ..__main__ import _non_negative, _positive

    parser = sub.add_parser(
        "validate",
        help="conformance suite: golden corpus, lockstep oracle, fuzzer",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="golden diff + lockstep oracle (default action)",
    )
    parser.add_argument(
        "--regen", action="store_true",
        help="re-run the golden matrix and rewrite the corpus file",
    )
    parser.add_argument(
        "--fuzz", type=_non_negative, default=0, metavar="N",
        help="run N seed-replayable fuzz cases",
    )
    parser.add_argument(
        "--inject-faults", action="store_true",
        help="fuzz with mid-run corruptions (auditor self-test)",
    )
    parser.add_argument(
        "--replay", default=None, metavar="FILE",
        help="reproduce a persisted fuzz failure artifact",
    )
    parser.add_argument(
        "--golden", default=golden.DEFAULT_PATH, metavar="FILE",
        help=f"golden corpus path (default {golden.DEFAULT_PATH})",
    )
    parser.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="where fuzz failures or distinguisher verdicts are persisted "
             "(default: validate/failures or validate/distinguish under "
             "the cache directory, REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--distinguish", action="store_true",
        help="adversarial trace distinguisher: clean schemes must be "
             "indistinguishable, every registered mutant must flag",
    )
    parser.add_argument(
        "--schemes", default=None, metavar="NAME[,NAME]",
        help="restrict --distinguish to these clean schemes",
    )
    parser.add_argument(
        "--mutants", default=None, metavar="NAME[,NAME]",
        help="restrict --distinguish to these leaky mutants",
    )
    parser.add_argument(
        "--chaos", action="store_true",
        help="fault-injection pass: worker crashes, hangs, and torn "
             "caches must recover bit-identical to the serial loop",
    )
    parser.add_argument(
        "--budget", choices=("small", "full"), default="small",
        help="chaos/distinguish sweep size",
    )
    parser.add_argument("--seed", type=_non_negative, default=1,
                        help="base seed for the fuzzer and chaos plans")
    parser.add_argument("--jobs", type=_positive, default=1,
                        help="matrix runs in parallel (also enables the "
                             "serial-vs-parallel engine oracle)")
    parser.set_defaults(func=run_validate)


def _do_regen(args) -> int:
    document = golden.snapshot(jobs=args.jobs)
    golden.save(document, args.golden)
    print(f"golden corpus written to {args.golden} "
          f"({len(document['entries'])} entries, audited)")
    return 0


def _do_replay(args) -> int:
    case, signature = fuzz_mod.replay(args.replay)
    recorded = None
    import json

    with open(args.replay, "r", encoding="utf-8") as handle:
        recorded = json.load(handle).get("signature")
    print(f"replayed {args.replay}: scheme={case.scheme} "
          f"seed={case.seed} ops={len(case.ops)} fault={case.fault}")
    if signature is None:
        print("replay did NOT reproduce a failure", file=sys.stderr)
        return 1
    print(f"reproduced: {signature}")
    if recorded and not recorded.startswith("uncaught:") \
            and signature != recorded:
        print(f"note: signature differs from recorded {recorded!r}",
              file=sys.stderr)
    return 0


def _do_fuzz(args) -> int:
    report = fuzz_mod.fuzz(
        args.fuzz,
        base_seed=args.seed,
        inject_faults=args.inject_faults,
        artifact_dir=args.artifact_dir,
        progress=print,
    )
    mode = "fault-injection" if args.inject_faults else "clean"
    print(f"fuzz: {report.cases_run} {mode} cases, "
          f"{len(report.failures)} failure(s)")
    for failure in report.failures:
        print(f"  {failure.signature}\n    -> {failure.artifact_path}",
              file=sys.stderr)
    return 0 if report.ok else 1


def _do_check(args) -> int:
    failed = False
    try:
        mismatches = golden.check(args.golden, jobs=args.jobs)
    except OSError as exc:
        print(f"cannot read golden corpus: {exc} "
              f"(run `repro validate --regen` first)", file=sys.stderr)
        return 1
    if mismatches:
        failed = True
        print(f"golden check FAILED ({len(mismatches)} mismatches):",
              file=sys.stderr)
        for line in mismatches:
            print(f"  {line}", file=sys.stderr)
    else:
        print(f"golden check OK ({args.golden})")
    try:
        results = oracle.zoo_lockstep()
    except ReproError as exc:
        failed = True
        print(f"lockstep oracle FAILED: {exc}", file=sys.stderr)
    else:
        sample = next(iter(results.values()))
        print(f"lockstep oracle OK ({len(results)} schemes, "
              f"{sample.ops_applied} ops each, read digest "
              f"{sample.read_digest()})")
    if args.jobs > 1:
        mismatches = oracle.engine_equivalence(jobs=args.jobs)
        if mismatches:
            failed = True
            print("engine equivalence FAILED:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
        else:
            print(f"engine equivalence OK (serial == --jobs {args.jobs})")
    print("validate: FAIL" if failed else "validate: PASS")
    return 1 if failed else 0


def _do_distinguish(args) -> int:
    from . import distinguish

    if args.replay:
        report, mismatches = distinguish.replay(args.replay)
        spec = report.spec
        print(f"replayed {args.replay}: scheme={spec.scheme} "
              f"{spec.program_a} vs {spec.program_b} seed={spec.base_seed}")
        _print_distinguish_report(report)
        if mismatches:
            print("replay did NOT reproduce the artifact:", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("replay reproduced the recorded verdict bit-for-bit")
        return 0

    schemes = args.schemes.split(",") if args.schemes else None
    mutants = args.mutants.split(",") if args.mutants else None
    suite = distinguish.run_suite(
        budget=args.budget,
        schemes=schemes,
        mutants=mutants,
        base_seed=args.seed,
        artifact_dir=args.artifact_dir,
    )
    for name in sorted(suite.reports):
        report = suite.reports[name]
        _print_distinguish_report(report, suite.artifact_paths.get(name))
    if suite.clean_failures:
        print(f"clean schemes DISTINGUISHABLE: "
              f"{', '.join(suite.clean_failures)}", file=sys.stderr)
    if suite.mutant_escapes:
        print(f"leaky mutants ESCAPED: {', '.join(suite.mutant_escapes)}",
              file=sys.stderr)
    print("distinguish: PASS" if suite.ok else "distinguish: FAIL")
    return 0 if suite.ok else 1


def _print_distinguish_report(report, artifact_path=None) -> None:
    from ..security.mutants import MUTANTS

    spec = report.spec
    kind = "mutant" if spec.scheme in MUTANTS else "scheme"
    verdict = "DISTINGUISHABLE" if report.distinguishable else "clean"
    flagged = [
        f"{f.name} (TV {f.statistic:.3f}, p {f.corrected_p:.4f})"
        for f in report.features if f.flagged
    ]
    detail = f" via {', '.join(flagged)}" if flagged else ""
    print(f"{kind} {spec.scheme}: {verdict}{detail}")
    if artifact_path:
        print(f"  artifact: {artifact_path}")


def _do_chaos(args) -> int:
    from . import chaos

    try:
        report = chaos.run_chaos(
            budget=args.budget,
            jobs=max(args.jobs, 3),
            seed=args.seed,
        )
    except ReproError as exc:
        print(f"chaos FAILED: {exc}", file=sys.stderr)
        print(f"  replay with: repro validate --chaos --budget "
              f"{args.budget} --seed {args.seed}", file=sys.stderr)
        return 1
    counters = report.get("counters", {})
    print(f"chaos OK ({report['points']} points, budget={args.budget}, "
          f"seed={report['seed']}): "
          f"crashes at {report['crash_indices']}, "
          f"hangs at {report['hang_indices']} — "
          f"{counters.get('engine.retries', 0)} retries, "
          f"{counters.get('engine.respawns', 0)} respawns, "
          f"{counters.get('engine.timeouts', 0)} timeouts, "
          f"{report['quarantined']} quarantined of "
          f"{report['torn_files']} torn files; all results bit-identical "
          "to the serial loop")
    return 0


def run_validate(args: argparse.Namespace) -> int:
    # --distinguish dispatches first so `--distinguish --replay FILE`
    # routes to the distinguisher's replay, not the fuzzer's.
    if args.distinguish:
        return _do_distinguish(args)
    if args.regen:
        return _do_regen(args)
    if args.replay:
        return _do_replay(args)
    if args.fuzz:
        return _do_fuzz(args)
    if args.chaos:
        return _do_chaos(args)
    return _do_check(args)
