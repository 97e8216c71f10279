"""Command-line interface: clip simulation, declipping, benchmarks, verification.

Exit codes: 0 success, 1 verification failure, 2 invalid input (an
argparse usage error, or a ValueError from a command: a bad WAV file or
setting), 3 I/O error, 130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .feasible import DEFAULT_DELTA_DETECT, auto_theta, hard_clip
from .pipeline import DEFAULT_FRAME_LEN, DEFAULT_HOP, DEFAULT_REDUNDANCY, declip_signal
from .solvers import SCHEDULES, SolverParams, Variant
from .wavio import read_wav, write_wav

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 2
EXIT_IO = 3

def _per_variant(i: int) -> str:
    """Item i of each variant's `SCHEDULES` entry, for help text."""
    return ", ".join(f"{v.value} {entry[i]}" for v, entry in SCHEDULES.items())


def _add_solver_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--frame-len", type=int, default=DEFAULT_FRAME_LEN)
    p.add_argument("--hop", type=int, default=DEFAULT_HOP)
    # left at None, SolverParams takes the variant's entry of SCHEDULES
    p.add_argument("--s", type=int, help=f"sparsity step (default: {_per_variant(0)})")
    p.add_argument(
        "--r", type=int, help=f"iterations between sparsity increments (default: {_per_variant(1)})"
    )
    p.add_argument("--epsilon", type=float, default=SolverParams.epsilon, help="termination residual")
    p.add_argument("--delta-detect", type=float, default=DEFAULT_DELTA_DETECT)


def _csv_row(variant: str, theta, redundancy, report) -> dict:
    # the CSV schema: the keys, in order, are the header
    return {
        "variant": variant,
        "theta": theta,
        "redundancy": redundancy,
        "sdr_in_db": f"{report.sdr_clipped_input:.4f}",
        "sdr_out_db": f"{report.sdr_restored:.4f}",
        "sdr_clipped_db": f"{report.sdr_on_clipped_samples:.4f}",
        "mean_iters": f"{report.mean_iterations:.2f}",
        "runtime_s": f"{report.runtime:.3f}",
    }


def _declip(args, variant, y, theta, redundancy, reference=None):
    """`declip_signal` with the solver and framing settings of args."""
    params = SolverParams(s=args.s, r=args.r, epsilon=args.epsilon, variant=Variant(variant))
    return declip_signal(
        y,
        theta,
        params,
        frame_len=args.frame_len,
        hop=args.hop,
        redundancy=redundancy,
        delta_detect=args.delta_detect,
        reference=reference,
    )


def _as_written(samples: np.ndarray, source: np.ndarray, theta: float) -> np.ndarray:
    """`samples` as the CLI writes them for an input file read as `source`.

    float32 when float32 holds every sample of `source`, float64 otherwise,
    so a sample passed through unchanged reads back bit-exact and no file is
    wider than its input. A sample at or beyond +-theta that rounding pulls
    inside (0.7 becomes 0.69999999) steps one float32 ulp away from zero.
    """
    with np.errstate(over="ignore"):  # a sample beyond float32's range casts to inf: not held
        if not np.array_equal(source.astype(np.float32), source):
            return samples.astype(np.float64, copy=False)
    out = samples.astype(np.float32)
    # compared in float64: a float comparison against float32 samples would round theta too
    inside = (np.abs(samples) >= theta) & (np.abs(out.astype(float)) < theta)
    out[inside] = np.nextafter(out[inside], np.copysign(np.inf, out[inside]))
    return out


def _write_csv(fh, rows) -> None:
    writer = csv.DictWriter(fh, fieldnames=rows[0])  # rows are never empty
    writer.writeheader()
    writer.writerows(rows)


def _refuse_same_file(args, written: str, *others: str) -> None:
    """Refuse a run whose --<written> file is the file of one of the --<others>,
    however the two paths are spelled: the write would destroy it."""
    path = getattr(args, written)
    for other in others:
        other_path = getattr(args, other)
        if os.path.realpath(other_path) == os.path.realpath(path):
            raise ValueError(f"--{written} {path} and --{other} {other_path} name the same file")


def cmd_clip(args) -> int:
    rate, x = read_wav(args.input)
    clipped = hard_clip(x, args.theta)
    write_wav(args.output, rate, _as_written(clipped, x, args.theta))
    frac = np.mean(np.abs(x) >= args.theta)
    print(f"clipped {frac:.4f} of {x.size} samples at theta={args.theta}")
    return EXIT_OK


def cmd_declip(args) -> int:
    # the CSV is written after the WAV and would overwrite it, or the input
    if args.csv:
        _refuse_same_file(args, "csv", "output", "input")
    rate, y = read_wav(args.input)
    channels = np.ascontiguousarray(np.atleast_2d(y.T))  # one row per channel
    theta = auto_theta(y, args.delta_detect) if args.theta == "auto" else float(args.theta)
    restored, reports = [], []
    for channel in channels:
        out, report = _declip(args, args.variant, channel, theta, args.redundancy)
        restored.append(out)
        reports.append(report)
    restored = np.stack(restored, axis=-1).reshape(y.shape)
    write_wav(args.output, rate, _as_written(restored, y, theta))
    if args.csv:
        try:
            with open(args.csv, "w", newline="") as fh:
                _write_csv(
                    fh, [_csv_row(args.variant, theta, args.redundancy, r) for r in reports]
                )
        except OSError:
            os.remove(args.output)  # a failing declip leaves neither file
            raise
    for c, report in enumerate(reports):
        prefix = f"channel {c}: " if len(channels) > 1 else ""
        print(f"{prefix}clipped samples: {report.num_clipped} of {len(y)}")
        for line in report.as_table().splitlines():
            print(prefix + line)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.output:
        _refuse_same_file(args, "output", "input")
    _, x = read_wav(args.input)
    if x.ndim > 1:
        raise ValueError(f"bench needs a mono reference; {args.input} has {x.shape[1]} channels")
    peak = float(np.max(np.abs(x)))
    if peak == 0:  # every theta, a fraction of the peak, would be 0
        raise ValueError(f"{args.input}: reference is silent (all samples are zero)")
    variants = [Variant(v) for v in args.variants.split(",")]
    thetas = [float(t) for t in args.thetas.split(",")]
    redundancies = [float(r) for r in args.redundancies.split(",")]
    rows = []
    for variant in variants:
        for theta_rel in thetas:
            theta = theta_rel * peak
            y = hard_clip(x, theta)
            for red in redundancies:
                _, report = _declip(args, variant, y, theta, red, reference=x)
                rows.append(_csv_row(variant.value, theta_rel, red, report))
    # every cell is computed before the output is opened: a failing bench writes nothing
    if args.output:
        with open(args.output, "w", newline="") as fh:
            _write_csv(fh, rows)
    else:
        _write_csv(sys.stdout, rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    # imported here: clip, declip and bench never load the oracles
    from .verification import OracleConfig, run_all_checks

    config = OracleConfig(n_trials=args.trials, seed=args.seed)
    reports = run_all_checks(config)
    for rep in reports:
        print(rep.line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spadeclip", description="Sparse audio declipping toolkit", allow_abbrev=False
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_clip = sub.add_parser("clip", help="hard-clip a WAV file for experiments", allow_abbrev=False)
    p_clip.add_argument("--input", required=True)
    p_clip.add_argument("--output", required=True)
    p_clip.add_argument("--theta", type=float, required=True)
    p_clip.set_defaults(func=cmd_clip)

    p_declip = sub.add_parser("declip", help="restore a clipped WAV file", allow_abbrev=False)
    p_declip.add_argument("--input", required=True)
    p_declip.add_argument("--output", required=True)
    p_declip.add_argument("--variant", choices=[v.value for v in Variant], default=SolverParams.variant.value)
    p_declip.add_argument(
        "--theta", default="auto", help='clip threshold, or "auto" (the peak |y|)'
    )
    p_declip.add_argument("--csv", help="also write the report as CSV, one row per channel")
    p_declip.add_argument("--redundancy", type=float, default=DEFAULT_REDUNDANCY)
    _add_solver_args(p_declip)
    p_declip.set_defaults(func=cmd_declip)

    p_bench = sub.add_parser(
        "bench", help="clip a clean WAV over a grid and declip; CSV per cell", allow_abbrev=False
    )
    p_bench.add_argument("--input", required=True, help="clean reference WAV")
    p_bench.add_argument("--output", help="CSV path (default stdout)")
    p_bench.add_argument("--variants", default=",".join(v.value for v in Variant))
    p_bench.add_argument("--thetas", default="0.1,0.3,0.5,0.7,0.9", help="fractions of peak amplitude")
    p_bench.add_argument("--redundancies", default=str(DEFAULT_REDUNDANCY))
    _add_solver_args(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="run the oracle checks", allow_abbrev=False)
    # OracleConfig's defaults, retyped: reading it here would load the oracles for every command
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_INVALID
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
