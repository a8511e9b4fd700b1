"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
run         Run one scheme on one workload and print the result summary.
compare     Run several schemes on one workload, normalized to the first.
experiments Regenerate the paper's tables/figures (run_all, export).
inspect     Summarize a JSONL event trace written by ``--trace-out``.
schemes     List available schemes.
workloads   List available workloads.
zsearch     Run the IR-Alloc greedy Z-search on a given tree geometry.
validate    Conformance suite: golden corpus, lockstep oracle, fuzzer.

Every simulating command shares the same platform flags (``--config``,
``--levels``, ``--records``, ``--seed``, ``--jobs``) and builds its runs
through :mod:`repro.api`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import api
from .config import SystemConfig
from .core.schemes import SCHEMES
from .errors import ConfigError
from .experiments.common import ALL_WORKLOADS, CONFIG, RECORDS, SEED
from .traces.benchmarks import BENCHMARKS


def _add_platform_args(
    parser: argparse.ArgumentParser, jobs: bool = True
) -> None:
    parser.add_argument("--config", choices=("scaled", "paper"),
                        default="scaled",
                        help="named platform (default scaled)")
    parser.add_argument("--levels", type=_levels, default=None,
                        help="ORAM tree levels (scaled default 15; "
                             "paper uses 25)")
    parser.add_argument("--records", type=_positive, default=5000,
                        help="trace records to simulate")
    parser.add_argument("--seed", type=_non_negative, default=7,
                        help="simulation seed")
    if jobs:
        parser.add_argument("--jobs", type=_positive, default=1,
                            help="independent runs in parallel")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="stream the JSONL event trace here")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the final stats registry as JSON here")
    parser.add_argument("--progress-every", type=int, default=0,
                        metavar="N",
                        help="emit a progress snapshot every N paths "
                             "(requires tracing)")


def _spec(args: argparse.Namespace, scheme: str) -> api.RunSpec:
    return api.RunSpec(
        scheme=scheme,
        workload=args.workload,
        records=args.records,
        seed=args.seed,
        config_name=args.config,
        levels=args.levels,
        obs=api.ObsOptions(
            trace_out=getattr(args, "trace_out", None),
            metrics_out=getattr(args, "metrics_out", None),
            progress_every=getattr(args, "progress_every", 0),
        ),
    )


def _print_result(name: str, result, baseline=None) -> None:
    speedup = "" if baseline is None else (
        f"  speedup={baseline.cycles / result.cycles:5.2f}x"
    )
    mix = ", ".join(
        f"{key}={value:.1%}"
        for key, value in result.path_type_distribution().items()
        if value > 0.0005
    )
    print(f"{name:<26} cycles={result.cycles:>12,}{speedup}")
    print(f"{'':<26} paths={result.total_paths():>8,.0f}  [{mix}]")


def cmd_run(args: argparse.Namespace) -> int:
    if args.resume:
        out = api.resume_run(
            args.resume,
            obs=api.ObsOptions(
                trace_out=getattr(args, "trace_out", None),
                metrics_out=getattr(args, "metrics_out", None),
                progress_every=getattr(args, "progress_every", 0),
            ),
        )
        label = f"{out.spec.scheme} on {out.spec.workload} (resumed)"
    else:
        if not args.scheme or not args.workload:
            print("error: scheme and workload are required unless --resume "
                  "is given", file=sys.stderr)
            return 2
        out = api.run(
            _spec(args, args.scheme),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=(
                args.checkpoint_out
                if args.checkpoint_out or not args.checkpoint_every
                else "repro.ckpt"
            ),
        )
        label = f"{args.scheme} on {args.workload}"
    _print_result(label, out.result)
    if out.breakdown is not None:
        print(f"{'':<26} busy: " + ", ".join(
            f"{key}={value:.1%}"
            for key, value in out.breakdown.fractions().items()
            if value > 0.0005
        ))
    if args.trace_out:
        print(f"trace written to {args.trace_out}")
    if args.metrics_out:
        print(f"metrics written to {args.metrics_out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    specs = [_spec(args, scheme) for scheme in args.schemes]
    outs = api.run_many(specs, jobs=args.jobs)
    baseline = outs[0].result
    for scheme, out in zip(args.schemes, outs):
        _print_result(
            scheme, out.result, None if out.result is baseline else baseline
        )
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from .experiments import export, run_all

    settings = dict(
        jobs=args.jobs,
        records=args.records,
        seed=args.seed,
        config=args.config,
        workloads=args.workloads,
    )
    if args.markdown:
        path = export.export(args.markdown, args.ids, **settings)
        print(f"wrote {path}")
    else:
        run_all.main(args.ids, **settings)
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    from .obs.inspect import format_summary, summarize_trace

    import json

    summary = summarize_trace(args.trace)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print(format_summary(summary))
    return 0


def cmd_schemes(_args: argparse.Namespace) -> int:
    for name, scheme in SCHEMES.items():
        print(f"{name:<26} {scheme.description}")
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    for name, model in BENCHMARKS.items():
        print(f"{name:<6} {model.suite:<7} read={model.read_mpki:<6} "
              f"write={model.write_mpki:<6}")
    print(f"{'mix':<6} {'-':<7} three-benchmark mix (gcc/mcf/lbm)")
    print(f"{'random':<6} {'-':<7} uniform random accesses")
    return 0


def cmd_zsearch(args: argparse.Namespace) -> int:
    from .perf.engine import cached_z_allocation

    config = api.RunSpec(
        config_name=args.config, levels=args.levels
    ).resolve_config()
    print(f"searching Z allocation for L={config.oram.levels} "
          f"(uniform PL={config.oram.blocks_per_path()}) ...")
    best = cached_z_allocation(
        config,
        records=args.records,
        seed=args.seed,
        max_space_reduction=args.max_space_reduction,
        max_eviction_increase=args.max_eviction_increase,
    )
    print(f"z vector : {list(best.z_per_level)}")
    print(f"PL       : {best.blocks_per_path()} blocks per path")
    print(f"space    : -{best.space_reduction_vs_uniform():.2%} vs uniform")
    return 0


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not positive")
    return value


def _levels(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"{text}: an ORAM tree needs at least 2 levels"
        )
    return value


def _experiment_id(text: str) -> str:
    from .experiments.run_all import ALL_EXPERIMENTS

    names = [name for name, _, _ in ALL_EXPERIMENTS]
    if text not in names:
        raise argparse.ArgumentTypeError(
            f"unknown experiment {text!r}; options: {', '.join(names)}"
        )
    return text


def _workload_list(text: str) -> List[str]:
    names = [name.strip() for name in text.split(",") if name.strip()]
    unknown = [name for name in names if name not in ALL_WORKLOADS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload(s) {unknown or [text]}; "
            f"options: {','.join(ALL_WORKLOADS)}"
        )
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="IR-ORAM (HPCA 2022) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scheme on one workload")
    run_p.add_argument("scheme", nargs="?", choices=sorted(SCHEMES))
    run_p.add_argument("workload", nargs="?")
    _add_platform_args(run_p, jobs=False)
    _add_obs_args(run_p)
    run_p.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="write a resumable checkpoint every N issued "
                            "paths")
    run_p.add_argument("--checkpoint-out", default=None, metavar="FILE",
                       help="checkpoint destination "
                            "(default repro.ckpt; each write replaces it)")
    run_p.add_argument("--resume", default=None, metavar="CKPT",
                       help="resume a checkpointed run instead of starting "
                            "one; finishes bit-identical to the "
                            "uninterrupted run")
    run_p.set_defaults(func=cmd_run)

    cmp_p = sub.add_parser("compare", help="compare schemes on a workload")
    cmp_p.add_argument("workload")
    cmp_p.add_argument(
        "--schemes", nargs="+",
        default=["Baseline", "IR-Alloc", "IR-Stash", "IR-DWB", "IR-ORAM"],
    )
    _add_platform_args(cmp_p)
    cmp_p.set_defaults(func=cmd_compare)

    exp_p = sub.add_parser("experiments", help="regenerate tables/figures")
    exp_p.add_argument("ids", nargs="*", type=_experiment_id,
                       help='e.g. "Fig. 10" "Table II"')
    exp_p.add_argument("--jobs", type=_positive, default=1,
                       help="experiment regenerators run in parallel")
    exp_p.add_argument("--records", type=_positive, default=RECORDS,
                       help=f"trace records per workload (default {RECORDS})")
    exp_p.add_argument("--seed", type=_non_negative, default=SEED,
                       help=f"base seed of the matrix (default {SEED})")
    exp_p.add_argument("--config", choices=("scaled", "paper"),
                       default=CONFIG,
                       help=f"named platform (default {CONFIG})")
    exp_p.add_argument("--workloads", type=_workload_list,
                       default=ALL_WORKLOADS,
                       metavar="A,B,...",
                       help="comma-separated workload subset "
                            "(default: every workload and mix)")
    exp_p.add_argument("--markdown", default=None, metavar="PATH",
                       help="also write the tables as one Markdown report")
    exp_p.set_defaults(func=cmd_experiments)

    ins_p = sub.add_parser(
        "inspect", help="summarize a JSONL event trace"
    )
    ins_p.add_argument("trace", help="trace file written by --trace-out")
    ins_p.add_argument("--json", action="store_true",
                       help="print the raw summary dictionary as JSON")
    ins_p.set_defaults(func=cmd_inspect)

    sub.add_parser("schemes", help="list schemes").set_defaults(
        func=cmd_schemes
    )
    sub.add_parser("workloads", help="list workloads").set_defaults(
        func=cmd_workloads
    )

    zs_p = sub.add_parser("zsearch", help="greedy IR-Alloc Z-search")
    _add_platform_args(zs_p, jobs=False)
    zs_p.add_argument("--max-space-reduction", type=float, default=0.03)
    zs_p.add_argument("--max-eviction-increase", type=float, default=0.15)
    zs_p.set_defaults(func=cmd_zsearch)

    from .validate import cli as validate_cli

    validate_cli.add_parser(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "levels", None) is not None and args.config == "scaled":
        # Refuse a depth the scaled platform cannot hold before any run.
        try:
            SystemConfig.scaled(levels=args.levels)
        except ConfigError as exc:
            parser.error(f"argument --levels: {exc}")
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that is not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
