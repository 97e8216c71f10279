"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a checkout):

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out perfbench/results/label.json

For every workload in BENCHMARK.json (or those given with --workloads) it
runs `run.py` once per seed, one run at a time, and prints per metric the
median, the quartiles and their distance as a share of the median, which
is the spread the benchmark's bounds are checked against. With --out it
also writes every run's result and environment lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return {"seed": seed, "wall_s": wall, "lines": lines[:-1], "result": lines[-1]}


def summarise(runs: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    out = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("nan"),
        }
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    p.add_argument("--workloads", help="comma-separated (default: all)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", help="write all results here as JSON")
    args = p.parse_args(argv)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for workload in workloads:
        runs = []
        for seed in seed_list(args.seeds):
            runs.append(run_once(spec["command"], workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f} s", file=sys.stderr)
        summary = summarise(runs)
        report[workload] = {"summary": summary, "runs": runs}
        print(f"\n{workload} ({len(runs)} runs)")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound}" + ("  OVER" if s["spread"] > bound else "")
            print(f"  {name:40s} median {s['median']:12.6g}  spread {s['spread']:.3f}{flag}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
