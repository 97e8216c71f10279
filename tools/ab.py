"""Compare sides of spadeclip, paired on the benchmark's inputs, in one process.

    mkdir /tmp/ref && git archive REF src | tar -x -C /tmp/ref
    taskset -c 0 python tools/ab.py time /tmp/ref/src [--seeds 1-10]
    taskset -c 0 python tools/ab.py schedule [--seeds 21-30] [--steps 1,2] [--rates 1]

A side is a package plus the sparsity schedule (s, r) its calls pass, or
the variant's default. `time` compares this tree with another version at
the defaults, change over parent. PARENT_SRC is a directory holding the
other version's `spadeclip/`; it is imported as `spadeclip_parent` (every
import inside the package is relative, so the copy loads beside this
tree's `spadeclip`). `schedule` compares each (s, r) of the grid (s in
--steps, r in --rates; by default {1, 2, 4, 8} x {1, 2}) with (1, 1), the
paper's setting, of this tree.

Both declip every input of the benchmark's workloads
(`perfbench/workloads.make_inputs`, size full, for each of --seeds) with
each variant, against the input's clean reference, through
`declip_signal`. The cli-short-files inputs are declipped in memory: their
`y` is already what the CLI reads. Within a pass the sides take turns call
by call, and the side that goes first rotates from pass to pass (`time`
runs 6 passes, `schedule` one). Each call is timed with `process_time`, so
run on one CPU. One row per workload, variant and side:

* s r: the side's schedule
* cpu: the side's summed CPU time over the other's, per pass; median and
  quartiles over passes
* iters: total frame-iterations, as a ratio
* same: whether every output and every `FrameStats` is byte for byte the
  other side's
* mean: the side's mean ΔSDR (SDR gain over the clipped input), in dB
* paired: median and quartiles of the per-input ΔSDR difference, in dB
* lose>1dB: inputs whose ΔSDR fell by more than 1 dB
* worst seed: the lowest, over seeds, relative change of a seed's mean ΔSDR
* nonconv: the side's frames that stopped at the k cap without
  converging, of the frames it solved

All but cpu are exact, so they repeat from run to run. Needs numpy alone.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from dataclasses import astuple
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spadeclip  # noqa: E402
from workloads import GENERATORS, make_inputs  # noqa: E402

PARENT = "spadeclip_parent"
SIZE, PASSES = "full", 6
VARIANTS = tuple(v.value for v in spadeclip.Variant)


class Side(NamedTuple):
    pkg: ModuleType
    schedule: tuple[int, int] | None = None  # (s, r); None: the variant's default


def load_parent(parent_src) -> ModuleType:
    """The package `spadeclip/` under parent_src, imported afresh as `spadeclip_parent`."""
    init = Path(parent_src) / "spadeclip" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"{init} not found")
    for name in [n for n in sys.modules if n.partition(".")[0] == PARENT]:
        del sys.modules[name]  # a copy loaded before from another directory
    spec = importlib.util.spec_from_file_location(
        PARENT, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[PARENT] = package
    spec.loader.exec_module(package)
    return package


def same_bytes(a, b) -> bool:
    """Outputs of the same dtype, shape and bytes, and the same FrameStats."""
    (out_a, rep_a), (out_b, rep_b) = a, b
    return (
        (out_a.dtype, out_a.shape, out_a.tobytes()) == (out_b.dtype, out_b.shape, out_b.tobytes())
        # repr keeps every float's bits, -0.0 included
        and repr([astuple(f) for f in rep_a.per_frame])
        == repr([astuple(f) for f in rep_b.per_frame])
    )


def _quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q1), float(q3)


def compare(sides, workload: str, variant: str, seeds, size: str, passes: int):
    """Yield one row per side, the side against sides[0]; see the module docstring."""
    inputs = [(k, c) for k, seed in enumerate(seeds) for c in make_inputs(workload, seed, size)]
    params = []
    for pkg, schedule in sides:
        s, r = schedule or (None, None)
        params.append(pkg.SolverParams(s=s, r=r, variant=pkg.Variant(variant)))
    cpu = np.zeros((passes, len(sides)))
    runs = [[] for _ in sides]  # (restored, report) per input, from the first pass
    for p in range(passes):
        order = np.roll(range(len(sides)), -p)
        for _, clip in inputs:
            for i in order:
                t0 = time.process_time()
                out = sides[i].pkg.declip_signal(clip.y, clip.theta, params[i], reference=clip.x)
                cpu[p, i] += time.process_time() - t0
                if p == 0:
                    runs[i].append(out)
    seed_of = np.array([k for k, _ in inputs])
    gains = [np.array([r.sdr_restored - r.sdr_clipped_input for _, r in run]) for run in runs]
    frames = [[f for _, r in run for f in r.per_frame] for run in runs]
    base_iterations = sum(f.iterations for f in frames[0])
    for i in range(len(sides)):
        diff = gains[i] - gains[0]
        seed_change = [
            np.mean(gains[i][seed_of == k]) / np.mean(gains[0][seed_of == k])
            for k in range(len(seeds))
        ]
        yield {
            "workload": workload,
            "variant": variant,
            "s": params[i].s,
            "r": params[i].r,
            "cpu": _quartiles(cpu[:, i] / cpu[:, 0]),
            "iters": sum(f.iterations for f in frames[i]) / base_iterations,
            "identical": all(map(same_bytes, runs[i], runs[0])),
            "mean": float(np.mean(gains[i])),
            "paired": _quartiles(diff),
            "lose_1db": int(np.count_nonzero(diff < -1)),
            "inputs": len(diff),
            "worst_seed": float(min(seed_change)) - 1,
            "nonconverged": sum(not f.converged for f in frames[i]),
            "solved": sum(f.iterations > 0 for f in frames[i]),
        }


def time_ab(parent_src, seeds=(1,), size=SIZE, passes=PASSES):
    """Yield one row per workload and variant: this tree over the parent, at the defaults."""
    sides = [Side(load_parent(parent_src)), Side(spadeclip)]
    for workload in GENERATORS:
        for variant in VARIANTS:
            _, row = compare(sides, workload, variant, seeds, size, passes)
            yield row


def schedules(seeds, size=SIZE, steps=(1, 2, 4, 8), rates=(1, 2)):
    """Yield one row per workload, variant and (s, r), each over (1, 1), which comes first."""
    grid = [(1, 1)] + [(s, r) for s in steps for r in rates if (s, r) != (1, 1)]
    sides = [Side(spadeclip, schedule) for schedule in grid]
    for workload in GENERATORS:
        for variant in VARIANTS:
            yield from compare(sides, workload, variant, seeds, size, passes=1)


HEADER = (
    f"{'workload':<16} {'variant':<9} {'s':>2} {'r':>2} {'cpu ×median [q1, q3]':<23}"
    f" {'iters':<6} {'same':<4} {'mean':>6} {'paired ΔSDR [q1, q3]':<22} {'lose>1dB':<9}"
    f" {'worst seed':>9} {'nonconv':>8}"
)


def format_row(row: dict) -> str:
    cpu = "×{:.3f} [×{:.3f}, ×{:.3f}]".format(*row["cpu"])
    paired = "{:+.2f} [{:+.2f}, {:+.2f}]".format(*row["paired"])
    return (
        f"{row['workload']:<16} {row['variant']:<9} {row['s']:>2} {row['r']:>2} {cpu:<23}"
        f" ×{row['iters']:.3f} {'yes' if row['identical'] else 'NO':<4} {row['mean']:>6.2f}"
        f" {paired:<22} {row['lose_1db']:>4}/{row['inputs']:<4}"
        f" {100 * row['worst_seed']:>+7.1f} % {row['nonconverged']:>5}/{row['solved']}"
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
    sub = p.add_subparsers(dest="mode", required=True)
    p_time = sub.add_parser("time", help="this tree over another version, at the defaults")
    p_time.add_argument("parent_src", help="a directory holding the parent's spadeclip/")
    p_schedule = sub.add_parser("schedule", help="each (s, r) over (1, 1), in this tree")
    p_schedule.add_argument("--steps", type=_ints, default=[1, 2, 4, 8], help="values of s")
    p_schedule.add_argument("--rates", type=_ints, default=[1, 2], help="values of r")
    for sp, seeds in ((p_time, "1"), (p_schedule, "1-10")):
        sp.add_argument("--seeds", type=_ints, default=_ints(seeds), help='e.g. "21-30" or "1,3"')
    args = p.parse_args(argv)
    if args.mode == "time":
        print(f"{args.parent_src}: seeds {args.seeds}, size {SIZE}, {PASSES} passes; change/parent")
        rows = time_ab(args.parent_src, args.seeds, SIZE, PASSES)
    else:
        print(f"seeds {args.seeds}, size {SIZE}, 1 pass; each (s, r) over (1, 1)")
        rows = schedules(args.seeds, SIZE, args.steps, args.rates)
    print(HEADER, flush=True)
    for row in rows:
        print(format_row(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
