"""Run one benchmark workload of fixedhinf and print its metrics.

    python3 perfbench/run.py --workload synth-small --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  BLAS and OpenMP pools are
pinned to one thread before numpy loads.  `--seconds` sets the amount of
fixed work through a fixed number of rounds per second (ROUNDS_PER_SECOND),
so equal arguments always give equal work, whatever the machine's speed.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
the same work runs with timing wrappers at the package's module boundaries
and reports the per-layer metrics instead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  Run
records and span traces go to perfbench/out/.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Rounds per second of --seconds (rounded, at least 1).  A synthesis round
# takes about 4 s on a 2-core x86 host; the ladder runs more, shorter rounds
# because its per-round work varies with the fresh loops it draws.
ROUNDS_PER_SECOND = {"synth-small": 0.25, "synth-large": 0.25, "analysis-ladder": 0.35}
# Inputs and warm-ups are prepared this many times; setup_s takes the median.
SETUP_REPEATS = 3


def import_package():
    """Import fixedhinf from the checkout's src/."""
    if not (SRC / "fixedhinf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fixedhinf sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fixedhinf

    if Path(fixedhinf.__file__).resolve().parent != (SRC / "fixedhinf").resolve():
        raise SystemExit(f"perfbench: imported fixedhinf from {fixedhinf.__file__}, not {SRC}")
    return fixedhinf


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["synth-small", "synth-large", "analysis-ladder"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def trace_identities(metrics) -> list[str]:
    """Span accounting that must balance on every traced run."""
    v = {name: value for name, (value, _) in metrics.items()}
    problems = []
    if v["synthesis.stage1_evals"] + v["synthesis.stage2_evals"] != v["optimize.evals"]:
        problems.append("stage evaluations do not add up to optimize.evals")
    if v["optimize.bfgs_evals"] + v["optimize.bundle_evals"] + v["optimize.sampling_evals"] != v["optimize.evals"]:
        problems.append("phase evaluations do not add up to optimize.evals")
    return problems


def run(name: str, seed: int, seconds: float, trace: bool, *, reduced: bool = False):
    """Set up, run and check one workload; returns (result line, run record).

    The module-level start time _T0 marks the first statement of the process,
    so setup_s includes the imports when this runs as the entry point.
    """
    fh = import_package()
    import tracing
    import workloads

    t_import = time.perf_counter() - _T0
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND[name]))
    prep = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        wl = workloads.make_workload(name, rounds, reduced=reduced)
        wl.prepare(fh, seed)
        wl.warmup(fh)
        prep.append(time.perf_counter() - t)
    setup_s = t_import + statistics.median(prep)

    tracer = tracing.Tracer(fh) if trace else None
    ops_by_round, round_s = [], []
    for r in range(rounds):
        t = time.perf_counter()
        if tracer is not None:
            with tracer:
                ops = wl.round(fh, r)
        else:
            ops = wl.round(fh, r)
        round_s.append(time.perf_counter() - t)
        ops_by_round.append(ops)
    wall_s = statistics.median(round_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for r, ops in enumerate(ops_by_round):
        wl.check(r, ops)
    ops = [op for round_ops in ops_by_round for op in round_ops]
    problems = [f"{op.label}: {op.detail}" for op in ops if not op.ok]
    if tracer is not None:
        metrics = tracing.per_layer_metrics(tracer.spans)
        problems += trace_identities(metrics)
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "rounds": rounds,
        "result": result, "problems": problems, "norms": wl.norms(ops),
        "setup_s": setup_s, "wall_s": wall_s, "round_s": round_s,
        "ops": [{"label": op.label, "ok": op.ok, "detail": op.detail} for op in ops],
    }
    return result, record, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    result, record, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write_jsonl(f"{stem}.spans.jsonl")
    print(f"workload {args.workload} seed {args.seed} rounds {record['rounds']} trace {args.trace}")
    for value in record["norms"]:
        print(f"norm {value}")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
