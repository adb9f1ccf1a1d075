"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads synth-small,synth-large --seeds 1-10 --trace 0

Runs `perfbench/run.py` once per (workload, seed), one process at a time,
with the run length from BENCHMARK.json unless --seconds is given.  For each
metric it prints the median, the interquartile range as a share of the
median (`statistics.quantiles(values, n=4)`), and whether count metrics and
the failed share were identical across the seeds' reruns.  Results are
appended as JSON lines to perfbench/out/spread.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        rows = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(row)
            with open(out / "spread.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **row}) + "\n")
            values = " ".join(f"{k}={m['value']:.6g}" for k, m in row["metrics"].items() if m["unit"] != "count")
            print(f"{workload} seed {seed}: correct={row['correct']} failed={row['failed']}/{row['attempted']} {values}",
                  flush=True)
        print(f"{workload}: {len(rows)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in rows})}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            print(f"  {name:34s} median {med:.6g} {rows[0]['metrics'][name]['unit']:5s} "
                  f"IQR/median {spread:.4f}  min {min(values):.6g} max {max(values):.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
