"""Command-line interface.

Subcommands: norm, abscissa, synth, bench.  Numeric output is printed with
17 significant digits so values round-trip double precision.  Exit codes:
0 success, 1 synthesis/analysis failure (e.g. no stabilizing controller,
unstable system, a closed loop that is ill posed or overflows, failed
eigenvalue iteration), 2 input errors, bad option values included.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import hinf_norm, spectral_abscissa
from .bench import BUILTIN_CASES, BenchOptions, case_names, run_suite
from .errors import EigenFailure, FixedHinfError, IllPosed, UnstableSystem
from .fileio import load_controller, load_plant, load_system, save_controller
from .statespace import Controller, Plant, StateSpace, lft_closed_loop
from .synthesis import SynthesisOptions, SynthesisStatus, synthesize

SUITE_DIR_ENV = "FIXEDHINF_SUITE_DIR"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _default_suite_dir() -> str:
    env = os.environ.get(SUITE_DIR_ENV)
    if env:
        return env
    # data directory shipped alongside the package
    packaged = Path(__file__).resolve().parent / "data" / "plants"
    return str(packaged)


def _closed_loop_from_args(args) -> StateSpace:
    sys_or_plant = load_system(args.file)
    if isinstance(sys_or_plant, Controller):
        raise FixedHinfError(f"{args.file} is a controller file, not a system")
    if isinstance(sys_or_plant, Plant):
        plant = sys_or_plant
        if args.controller:
            k = load_controller(args.controller)
        else:
            k = Controller.zero(0, plant.p2, plant.m2)
        return lft_closed_loop(plant, k)
    if getattr(args, "controller", None):
        raise FixedHinfError("--controller requires a generalized plant file")
    return sys_or_plant


def _cmd_norm(args) -> int:
    try:
        result = hinf_norm(_closed_loop_from_args(args), rel_tol=args.rel_tol)
    except (IllPosed, UnstableSystem, EigenFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    line = f"{_fmt(result.gamma)} {_fmt(result.omega_peak)}"
    if result.attained_at_infinity:
        line += " attained-at-infinity"
    if not result.converged:
        line += " tolerance-not-met"
    print(line)
    return 0


def _cmd_abscissa(args) -> int:
    try:
        result = spectral_abscissa(_closed_loop_from_args(args).A)
    except (IllPosed, EigenFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_fmt(result.alpha))
    return 0


def _cmd_synth(args) -> int:
    plant = load_plant(args.plant)
    warm = load_controller(args.warm_start) if args.warm_start else None
    opts = SynthesisOptions(
        order=args.order,
        runs=args.runs,
        cpumax_seconds=args.cpumax,
        init_scale=args.scale,
        stabilization_margin=args.margin,
        norm_rel_tol=args.norm_rel_tol,
        rng_seed=args.seed,
        warm_start=warm,
    )
    result = synthesize(plant, opts)
    if result.status is not SynthesisStatus.SUCCESS:
        best = min((r.stage1_abscissa for r in result.per_run), default=float("inf"))
        print(
            f"error: no stabilizing controller of order {args.order} found "
            f"in {opts.runs} runs (best abscissa {best:.6g})",
            file=sys.stderr,
        )
        return 1
    print(f"norm {_fmt(result.norm)}")
    print(f"abscissa {_fmt(result.abscissa)}")
    for rr in result.per_run:
        norm_s = _fmt(rr.stage2_norm) if rr.stage2_norm != float("inf") else "failed"
        print(f"run seed={rr.seed} abscissa={_fmt(rr.stage1_abscissa)} norm={norm_s}")
    if args.out:
        save_controller(result.controller, args.out)
        print(f"controller written to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    if args.cases:
        names = [c.strip() for c in args.cases.split(",") if c.strip()]
    else:
        names = case_names(args.tier)
    opts = BenchOptions(
        suite_dir=args.suite,
        runs=args.runs,
        cpumax_seconds=args.cpumax,
        seed=args.seed,
        norm_rel_tol=args.norm_rel_tol,
        tolerance=args.tolerance,
    )
    try:
        report = run_suite(names, opts)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_text())
    if args.report:
        Path(args.report).write_text(report.to_json())
        print(f"report written to {args.report}")
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedhinf",
        description="Fixed-order H-infinity controller synthesis and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_norm = sub.add_parser("norm", help="H-infinity norm of a system or closed loop")
    p_norm.add_argument("file", help="plant or state-space JSON file")
    p_norm.add_argument("--controller", help="controller JSON to close the loop with")
    p_norm.add_argument("--rel-tol", type=float, default=1e-7, dest="rel_tol")
    p_norm.set_defaults(func=_cmd_norm)

    p_absc = sub.add_parser("abscissa", help="spectral abscissa of a system")
    p_absc.add_argument("file", help="plant or state-space JSON file")
    p_absc.add_argument("--controller", help="controller JSON to close the loop with")
    p_absc.set_defaults(func=_cmd_abscissa)

    p_synth = sub.add_parser("synth", help="synthesize a fixed-order controller")
    p_synth.add_argument("--plant", required=True)
    p_synth.add_argument("--order", required=True, type=int)
    p_synth.add_argument("--runs", type=int, default=SynthesisOptions.runs)
    p_synth.add_argument("--cpumax", type=float, default=SynthesisOptions.cpumax_seconds)
    p_synth.add_argument("--seed", type=int, default=SynthesisOptions.rng_seed)
    p_synth.add_argument("--warm-start", dest="warm_start")
    p_synth.add_argument("--out", help="write the best controller to this JSON file")
    p_synth.add_argument("--scale", type=float, default=SynthesisOptions.init_scale,
                         help="random start scale")
    p_synth.add_argument("--margin", type=float, default=SynthesisOptions.stabilization_margin,
                         help="stabilization margin for stage 1")
    p_synth.add_argument("--norm-rel-tol", dest="norm_rel_tol", type=float,
                         default=SynthesisOptions.norm_rel_tol)
    p_synth.set_defaults(func=_cmd_synth)

    p_bench = sub.add_parser("bench", help="run benchmark cases against references")
    p_bench.add_argument("--suite", default=_default_suite_dir(),
                         help=f"plant data directory (default ${SUITE_DIR_ENV} "
                              f"or the packaged data)")
    p_bench.add_argument("--cases", help="comma-separated case names "
                                         f"(known: {', '.join(sorted(BUILTIN_CASES))})")
    p_bench.add_argument("--tier", choices=["quick", "large", "all"], default="quick")
    p_bench.add_argument("--report", help="write the JSON report to this file")
    p_bench.add_argument("--runs", type=int, default=BenchOptions.runs)
    p_bench.add_argument("--cpumax", type=float, default=BenchOptions.cpumax_seconds)
    p_bench.add_argument("--seed", type=int, default=BenchOptions.seed)
    p_bench.add_argument("--tolerance", type=float, default=None,
                         help="override the pass tolerance (default 0.05)")
    p_bench.add_argument("--norm-rel-tol", dest="norm_rel_tol", type=float,
                         default=BenchOptions.norm_rel_tol)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (FixedHinfError, OSError, ValueError) as exc:
        # a ValueError is an option check rejecting an out-of-range value
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
