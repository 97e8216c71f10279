"""Sweep the sparsity schedule (s, r) of each variant over the benchmark's inputs.

    python tools/schedule_sweep.py --seeds 21-30
    python tools/schedule_sweep.py --seeds 1 --size tiny --steps 1,2 --rates 1

For each workload of `perfbench/workloads.py`, each seed, each variant and
each (s, r) of the grid (s in --steps, r in --rates; by default
{1, 2, 4, 8} x {1, 2}), declips every input with `declip_signal` at the
library defaults except s and r, against the input's clean reference. The
cli-short-files inputs are declipped in memory, not through the CLI: their
`y` is already what the CLI reads, and the restored samples are scored
before any rounding to the file format.

Each row compares one (s, r) with (1, 1), the paper's setting, of the same
variant on the same inputs:

* iters: total frame-iterations, as a ratio
* cpu: process CPU time of the declip calls, as a ratio; the seeds are the
  outer loop, so machine drift falls on every schedule alike
* mean: mean ΔSDR (SDR gain over the clipped input) at (s, r), in dB
* paired: median and quartiles of the per-input ΔSDR difference, in dB
* lose>1dB: inputs whose ΔSDR fell by more than 1 dB
* worst seed: the lowest, over seeds, relative change of a seed's mean ΔSDR
* nonconv: frames that stopped at the k cap without converging, of the
  frames solved

Frame-iterations and ΔSDR are exact, so they repeat from run to run; the
CPU ratio does not. Needs numpy alone.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from spadeclip import SolverParams, Variant, declip_signal  # noqa: E402
from workloads import GENERATORS, make_inputs  # noqa: E402

BASE = (1, 1)


@dataclass
class Tally:
    """One (workload, variant, s, r) cell, summed over seeds."""

    gains: list[float] = field(default_factory=list)  # ΔSDR per input, in input order
    seed_means: list[float] = field(default_factory=list)  # mean ΔSDR per seed
    iterations: int = 0
    cpu: float = 0.0
    nonconverged: int = 0
    solved: int = 0  # frames with at least one iteration

    def add(self, clips, params: SolverParams) -> None:
        gains = []
        for clip in clips:
            t0 = time.process_time()
            _, report = declip_signal(clip.y, clip.theta, params, reference=clip.x)
            self.cpu += time.process_time() - t0
            gains.append(report.sdr_restored - report.sdr_clipped_input)
            self.iterations += sum(f.iterations for f in report.per_frame)
            self.solved += sum(f.iterations > 0 for f in report.per_frame)
            self.nonconverged += sum(not f.converged for f in report.per_frame)
        self.gains += gains
        self.seed_means.append(float(np.mean(gains)))


def sweep(seeds, size="full", workloads=tuple(GENERATORS), variants=tuple(Variant),
          steps=(1, 2, 4, 8), rates=(1, 2)):  # fmt: skip
    """Yield one row per workload, variant and (s, r), (1, 1) first; see the module docstring.

    A workload's rows come once all its seeds are done.
    """
    grid = [BASE] + [(s, r) for s in steps for r in rates if (s, r) != BASE]
    for workload in workloads:
        tallies = {(v, sr): Tally() for v in variants for sr in grid}
        for seed in seeds:
            clips = make_inputs(workload, seed, size)
            for (variant, (s, r)), tally in tallies.items():
                tally.add(clips, SolverParams(s=s, r=r, variant=variant))
        for (variant, (s, r)), tally in tallies.items():
            base = tallies[variant, BASE]
            diff = np.subtract(tally.gains, base.gains)
            q1, median, q3 = np.percentile(diff, [25, 50, 75])
            yield {
                "workload": workload,
                "variant": variant.value,
                "s": s,
                "r": r,
                "iters": tally.iterations / base.iterations,
                "cpu": tally.cpu / base.cpu,
                "mean": float(np.mean(tally.gains)),
                "paired": (float(median), float(q1), float(q3)),
                "lose_1db": int(np.count_nonzero(diff < -1)),
                "inputs": len(diff),
                "worst_seed": min(np.divide(tally.seed_means, base.seed_means)) - 1,
                "nonconverged": tally.nonconverged,
                "solved": tally.solved,
            }  # fmt: skip


def format_row(row: dict) -> str:
    median, q1, q3 = row["paired"]
    return (
        f"{row['workload']:<16} {row['variant']:<9} {row['s']:>2} {row['r']:>2}"
        f" {row['iters']:>6.3f} {row['cpu']:>6.3f} {row['mean']:>6.2f}"
        f" {median:>+6.2f} [{q1:+6.2f}, {q3:+6.2f}]"
        f" {row['lose_1db']:>4}/{row['inputs']:<4} {100 * row['worst_seed']:>+7.1f} %"
        f" {row['nonconverged']:>5}/{row['solved']}"
    )


HEADER = (
    f"{'workload':<16} {'variant':<9} {'s':>2} {'r':>2} {'iters':>6} {'cpu':>6} {'mean':>6}"
    f" {'paired ΔSDR [q1, q3]':<22} {'lose>1dB':<9} {'worst seed':>9} {'nonconv':>8}"
)


def _ints(text: str) -> list[int]:
    """"1,2,4" as [1, 2, 4]; "21-30" as 21..30 inclusive."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=_ints, default=_ints("1-10"), help='e.g. "21-30" or "1,3"')
    p.add_argument("--size", choices=["full", "tiny"], default="full")
    p.add_argument("--workloads", default=",".join(GENERATORS))
    p.add_argument("--variants", default=",".join(v.value for v in Variant))
    p.add_argument("--steps", type=_ints, default=[1, 2, 4, 8], help="values of s")
    p.add_argument("--rates", type=_ints, default=[1, 2], help="values of r")
    args = p.parse_args(argv)
    print(f"seeds {args.seeds}, size {args.size}")
    print(HEADER, flush=True)
    rows = sweep(
        args.seeds,
        args.size,
        args.workloads.split(","),
        [Variant(v) for v in args.variants.split(",")],
        args.steps,
        args.rates,
    )
    for row in rows:
        print(format_row(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
