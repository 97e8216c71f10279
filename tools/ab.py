"""Compare this tree's spadeclip with another version's, in one process.

    mkdir /tmp/ref && git archive REF src | tar -x -C /tmp/ref
    python tools/ab.py time /tmp/ref/src

PARENT_SRC is a directory holding the other version's `spadeclip/`. It is
imported as `spadeclip_parent`: every import inside the package is
relative, so the copy loads beside this tree's `spadeclip`.

`time` declips every input of the benchmark's workloads
(`perfbench/workloads.make_inputs`, seed 1, size full) with each variant at
the library defaults, against the input's clean reference, through
`declip_signal`. Per workload and variant it first runs one untimed pass
of both versions, which warms them up and gives:

* iters: the ratio of total frame-iterations, change over parent (exact)
* identical: whether every output and every `FrameStats` of the change is
  byte for byte the parent's

Then it runs timed passes. Within a pass the two versions alternate call
by call, and the version that goes first alternates from pass to pass.
Each call is timed with `process_time`, so run it on one CPU (`taskset -c
0`). Per pass, cpu is the change's summed CPU time over the parent's; the
line gives the median and quartiles over passes. Needs numpy alone.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time
from dataclasses import astuple
from pathlib import Path
from types import ModuleType

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import spadeclip  # noqa: E402
from workloads import GENERATORS, make_inputs  # noqa: E402

PARENT = "spadeclip_parent"
SEED, SIZE, PASSES = 1, "full", 6


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


def declip(pkg, clip, variant: str):
    """(CPU seconds, restored, report) of one library call of pkg."""
    params = pkg.SolverParams(variant=pkg.Variant(variant))
    t0 = time.process_time()
    restored, report = pkg.declip_signal(clip.y, clip.theta, params, reference=clip.x)
    return time.process_time() - t0, restored, report


def same_bytes(a, b) -> bool:
    """Outputs of the same dtype, shape and bytes, and the same FrameStats."""
    (out_a, rep_a), (out_b, rep_b) = a, b
    return (
        (out_a.dtype, out_a.shape, out_a.tobytes()) == (out_b.dtype, out_b.shape, out_b.tobytes())
        # repr keeps every float's bits, -0.0 included
        and repr([astuple(f) for f in rep_a.per_frame])
        == repr([astuple(f) for f in rep_b.per_frame])
    )


def time_ab(parent_src, size=SIZE, passes=PASSES):
    """Yield one row per workload and variant; see the module docstring."""
    versions = (spadeclip, load_parent(parent_src))
    for workload in GENERATORS:
        clips = make_inputs(workload, SEED, size)
        for variant in (v.value for v in spadeclip.Variant):
            runs = [[declip(pkg, clip, variant)[1:] for clip in clips] for pkg in versions]
            iters = [
                sum(f.iterations for _, report in run for f in report.per_frame) for run in runs
            ]
            ratios = []
            for p in range(passes):
                cpu = [0.0, 0.0]
                for clip in clips:
                    for i in (0, 1) if p % 2 == 0 else (1, 0):
                        cpu[i] += declip(versions[i], clip, variant)[0]
                ratios.append(cpu[0] / cpu[1])
            q1, median, q3 = np.percentile(ratios, [25, 50, 75])
            yield {
                "workload": workload,
                "variant": variant,
                "cpu": (float(median), float(q1), float(q3)),
                "iters": iters[0] / iters[1],
                "identical": all(map(same_bytes, *runs)),
            }


HEADER = f"{'workload':<16} {'variant':<9} {'cpu ×median [q1, q3]':<26} {'iters':>7}  identical"


def format_row(row: dict) -> str:
    median, q1, q3 = row["cpu"]
    return (
        f"{row['workload']:<16} {row['variant']:<9}"
        f" ×{median:.3f} [×{q1:.3f}, ×{q3:.3f}]    ×{row['iters']:.3f}"
        f"  {'yes' if row['identical'] else 'NO'}"
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="mode", required=True)
    p_time = sub.add_parser("time", help="CPU and frame-iteration ratios, change over parent")
    p_time.add_argument("parent_src", help="a directory holding the parent's spadeclip/")
    args = p.parse_args(argv)
    print(f"{args.parent_src}: seed {SEED}, size {SIZE}, {PASSES} timed passes; change over parent")
    print(HEADER, flush=True)
    for row in time_ab(args.parent_src, SIZE, PASSES):
        print(format_row(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
