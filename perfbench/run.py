"""Layered declipping benchmark for spadeclip.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload bursty --seed 1 --seconds 55 --trace 0

It generates seeded synthetic audio (see workloads.py), declips it with
every variant through the public API (`declip_signal`) or the CLI
(`cli.main(["declip", ...])`), checks every timed call's output, and prints
one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` counts frame solves and `failed` those that did not converge or
whose call raised. With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` the run alternates untraced and traced passes over the
same inputs and reports the per-layer ones (tracing.py). Lines before the
last one describe the environment, the inputs, the timing samples and the
per-input SDR gains.

The package is imported from `src/` of the checkout this file sits in; the
run fails (exit 2, no result) when it is not there.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "spadeclip"
VARIANTS = ("aspade", "sspade", "sspade-dr")
WORKLOADS = ("bursty", "cli-short-files")
# Set-up is measured this many times per run (once in this process, the
# rest in fresh interpreters) and reported as the median.
SETUP_RUNS = {"full": 5, "tiny": 1}
EXIT_FAILED = 1
EXIT_NO_PACKAGE = 2


class GateError(Exception):
    """A timed call produced an output that breaks the program's promises."""


class NoPackageError(Exception):
    pass


class CallError(Exception):
    """A timed call raised; carries the traceback and the tallies so far."""

    def __init__(self, text: str, *tallies):
        super().__init__(text)
        self.tallies = [t for t in tallies if t is not None]


def load_package():
    """Import spadeclip from this checkout's src/ and nowhere else."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise NoPackageError(f"{init} not found")
    sys.path.insert(0, str(SRC))
    try:
        import spadeclip
        import spadeclip.cli  # noqa: F401  (loads every module the tracer wraps)
    except ImportError as exc:
        raise NoPackageError(f"cannot import {PACKAGE}: {exc}") from exc
    if Path(spadeclip.__file__).resolve() != init.resolve():
        raise NoPackageError(f"imported {spadeclip.__file__}, expected {init}")
    return spadeclip


# -- correctness gate ---------------------------------------------------------


def check_output(name: str, y, theta: float, out) -> None:
    """Raise GateError unless `out` is a valid restoration of `y`.

    Reliable samples must equal the input bit for bit (compared in the
    output's dtype, so float32 for a written WAV), clipped samples must lie
    beyond +-theta, and every sample must be finite.
    """
    import numpy as np

    from workloads import clip_masks

    out = np.asarray(out)
    if out.shape != np.shape(y):
        raise GateError(f"{name}: output shape {out.shape} != input shape {np.shape(y)}")
    if out.dtype not in (np.float32, np.float64):
        raise GateError(f"{name}: output dtype {out.dtype}")
    if not np.all(np.isfinite(out)):
        raise GateError(f"{name}: {int(np.sum(~np.isfinite(out)))} non-finite samples")
    high, low = clip_masks(y, theta)
    reliable = ~(high | low)
    expected = np.asarray(y, dtype=out.dtype)[reliable]
    uint = np.uint32 if out.dtype == np.float32 else np.uint64
    changed = np.flatnonzero(reliable)[out[reliable].view(uint) != expected.view(uint)]
    if changed.size:
        k = changed[0]
        raise GateError(
            f"{name}: {changed.size} reliable samples changed"
            f" (first at {k}: {out[k]!r} != {np.asarray(y, dtype=out.dtype)[k]!r})"
        )
    bad = np.count_nonzero(out[high] < theta) + np.count_nonzero(out[low] > -theta)
    if bad:
        raise GateError(f"{name}: {bad} clipped samples inside +-theta")


# -- inputs and the calls under test ------------------------------------------


class Workbench:
    """One workload's inputs and the calls that declip them.

    `declip(clip, variant)` makes one call, checks its output and returns
    (seconds, restored, report).
    """

    def __init__(self, pkg, workload: str, seed: int, size: str, workdir: Path):
        import workloads

        self.pkg = pkg
        self.clips = workloads.make_inputs(workload, seed, size)
        self.workdir = workdir
        self.is_cli = workload == "cli-short-files"
        if self.is_cli:
            self._write_inputs()
            self._reports: list = []
            self._install_report_capture()

    def _write_inputs(self) -> None:
        import numpy as np
        from scipy.io import wavfile

        from workloads import PCM16_SCALE, RATE

        for clip in self.clips:
            if clip.pcm16:
                data = np.round(clip.y * PCM16_SCALE).astype(np.int16)
            else:
                data = clip.y.astype(np.float32)
            wavfile.write(self._path(clip, "in"), RATE, data)

    def _path(self, clip, kind: str, variant: str = "") -> str:
        return str(self.workdir / f"{clip.name}.{kind}{variant}.wav")

    def _install_report_capture(self) -> None:
        # The CLI prints its report but does not return it; the benchmark
        # keeps the DeclipReport of each call by wrapping the CLI's binding
        # of declip_signal. The pipeline's binding is looked up per call, so
        # a traced declip_signal is still the one that runs.
        cli, pipeline = self.pkg.cli, self.pkg.pipeline
        reports = self._reports

        def declip_signal(*args, **kwargs):
            restored, report = pipeline.declip_signal(*args, **kwargs)
            reports.append(report)
            return restored, report

        self._cli_binding = cli.declip_signal
        cli.declip_signal = declip_signal

    def close(self) -> None:
        if self.is_cli:
            self.pkg.cli.declip_signal = self._cli_binding

    def declip(self, clip, variant: str):
        if self.is_cli:
            return self._declip_cli(clip, variant)
        params = self.pkg.SolverParams(variant=self.pkg.Variant(variant))
        t0 = perf_counter()
        restored, report = self.pkg.declip_signal(clip.y, clip.theta, params, reference=clip.x)
        seconds = perf_counter() - t0
        check_output(f"{clip.name}/{variant}", clip.y, clip.theta, restored)
        return seconds, restored, report

    def _declip_cli(self, clip, variant: str):
        from scipy.io import wavfile

        out = self._path(clip, "out", variant)
        argv = [
            "declip", "--input", self._path(clip, "in"), "--output", out,
            "--variant", variant, "--theta", repr(clip.theta),
        ]  # fmt: skip
        del self._reports[:]
        t0 = perf_counter()
        with redirect_stdout(io.StringIO()):
            code = self.pkg.cli.main(argv)
        seconds = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"{clip.name}/{variant}: cli exited with {code}")
        if len(self._reports) != 1:
            raise RuntimeError(
                f"{clip.name}/{variant}: expected one declip_signal call, saw {len(self._reports)}"
            )
        _, data = wavfile.read(out)
        check_output(f"{clip.name}/{variant}", clip.y, clip.theta, data)
        return seconds, data.astype(float), self._reports[0]


def setup(workload: str, seed: int, size: str, workdir: Path) -> tuple[Workbench, float]:
    """Import, generate inputs, write files and make one warm-up call.

    Returns the bench and the seconds since this interpreter started running
    this file.
    """
    pkg = load_package()
    bench = Workbench(pkg, workload, seed, size, workdir)
    first = bench.clips[0]
    bench.declip(first if bench.is_cli else _head(first), "sspade")
    return bench, perf_counter() - T_START


def _head(clip):
    """The first frame of a clip, as a cheap warm-up input."""
    from dataclasses import replace

    from workloads import FRAME_LEN

    return replace(clip, x=clip.x[:FRAME_LEN], y=clip.y[:FRAME_LEN])


def setup_seconds(args, first: float) -> list[float]:
    """Set-up times: this process's, plus fresh interpreters' (median taken later)."""
    times = [first]
    for _ in range(SETUP_RUNS[args.size] - 1):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
            "--size", args.size,
        ]  # fmt: skip
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- the timed loop -----------------------------------------------------------


class Tally:
    """What the timed calls did, per variant."""

    def __init__(self):
        self.rtf = {v: [] for v in VARIANTS}  # seconds per audio second, one per call
        self.call_s = {v: 0.0 for v in VARIANTS}
        self.audio_s = {v: 0.0 for v in VARIANTS}
        self.input_s = {v: {} for v in VARIANTS}  # clip name -> seconds of each call
        self.input_audio = {}  # clip name -> audio seconds
        self.iterations = {v: [] for v in VARIANTS}
        self.useful_iterations = 0
        self.attempted = 0
        self.failed = 0

    def add(self, variant, clip, seconds, report):
        import workloads

        self.rtf[variant].append(seconds / clip.seconds)
        self.call_s[variant] += seconds
        self.audio_s[variant] += clip.seconds
        self.input_s[variant].setdefault(clip.name, []).append(seconds)
        self.input_audio[clip.name] = clip.seconds
        frames = report.per_frame
        flags = workloads.clipped_frames(clip.y, clip.theta)
        if len(frames) != len(flags):
            raise RuntimeError(f"{clip.name}: {len(frames)} frames reported, {len(flags)} expected")
        its = [f.iterations for f in frames]
        self.iterations[variant].extend(its)
        self.useful_iterations += sum(i for i, f in zip(its, flags) if f)
        self.attempted += len(frames)
        self.failed += sum(not f.converged for f in frames)

    def pass_rtf(self, variant) -> float:
        """Seconds per audio second of one pass over the inputs.

        Each input's mean call time, summed over the inputs and divided by
        their audio: the inputs weigh the same in it however often the run
        got round to each, so a run that stops mid-pass is not skewed
        towards the short or the long inputs.
        """
        times = self.input_s[variant]
        seconds = sum(statistics.fmean(t) for t in times.values())
        return seconds / sum(self.input_audio[name] for name in times)

    def add_raised(self, clip):
        import workloads

        n = workloads.num_frames(len(clip.y))
        self.attempted += n
        self.failed += n


def run_loop(bench: Workbench, seconds: float, trace: bool):
    """Closed loop over the inputs, every variant on each input, until time is up.

    One caller makes one call at a time. The variant order rotates from
    input to input, so a slow spell on the machine does not fall on one
    variant. Untraced: one full pass over the inputs, so the quality figures
    always cover every input, then on until the first call that ends past
    `seconds`. Traced: pairs of passes over one input, the first untraced
    and the second traced, until a pair ends past `seconds`.
    Returns (plain tally, traced tally or None, first outputs, tracer).
    """
    import tracing

    tracer = tracing.Tracer(PACKAGE) if trace else None
    plain, traced = Tally(), (Tally() if trace else None)
    first_outputs = {v: {} for v in VARIANTS}  # variant -> clip name -> restored
    clips = bench.clips
    t0 = perf_counter()
    step = 0
    while True:
        clip = clips[(step // 2 if trace else step) % len(clips)]
        is_traced = trace and step % 2 == 1
        tally = traced if is_traced else plain
        if is_traced:
            tracer.install()
        try:
            for k in range(len(VARIANTS)):
                variant = VARIANTS[(step + k) % len(VARIANTS)]
                if is_traced:
                    tracer.begin(variant)
                try:
                    call_s, restored, report = bench.declip(clip, variant)
                except GateError:
                    raise
                except Exception:
                    tally.add_raised(clip)
                    raise CallError(traceback.format_exc(), plain, traced)
                if is_traced:
                    tracer.end()
                tally.add(variant, clip, call_s, report)
                first_outputs[variant].setdefault(clip.name, restored)
                time_up = perf_counter() - t0 >= seconds
                if time_up and not trace and step >= len(clips):
                    return plain, traced, first_outputs, tracer
        finally:
            if is_traced:
                tracer.uninstall()
        step += 1
        if time_up and (step % 2 == 0 if trace else step >= len(clips)):
            return plain, traced, first_outputs, tracer


# -- metrics -------------------------------------------------------------------


def sdr_db(reference, estimate) -> float:
    import numpy as np

    return float(20 * np.log10(np.linalg.norm(reference) / np.linalg.norm(reference - estimate)))


def dsdr_per_input(bench: Workbench, outputs: dict) -> list[float]:
    """SDR gain of each restored input over its clipped observation."""
    return [sdr_db(c.x, outputs[c.name]) - sdr_db(c.x, c.y) for c in bench.clips]


def timing_summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    import numpy as np

    out = {"n": len(samples), "median": statistics.median(samples), "samples": samples}
    if len(samples) >= 20:
        q = int(100 * (1 - 10 / len(samples)))
        out[f"p{q}"] = float(np.percentile(samples, q))
    return out


def end_to_end_metrics(bench, plain: Tally, outputs, setup_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    for v in VARIANTS:
        metrics[f"rtf.{v}"] = (plain.pass_rtf(v), "s/s")
    for v in VARIANTS:
        metrics[f"dsdr_db.{v}"] = (statistics.fmean(dsdr_per_input(bench, outputs[v])), "dB")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer_metrics(plain: Tally, traced: Tally, tracer) -> dict:
    import numpy as np

    stats = tracer.stats()
    frames = max(traced.attempted, 1)

    def per_frame(name, field):  # field 0: calls, 1: self seconds, 2: elements
        return stats.get(name, (0, 0.0, 0))[field] / frames

    m = {}
    for name, work in (
        ("frames.analyze", "coeffs"),
        ("frames.synthesize", "samples"),
        ("solvers.hard_threshold", "elements"),
    ):
        m[f"{name}.calls"] = (per_frame(name, 0), "calls/frame")
        m[f"{name}.self_s"] = (per_frame(name, 1), "s/frame")
        m[f"{name}.{work}"] = (per_frame(name, 2), f"{work}/frame")
    for name in ("solvers.run_solver", "feasible.detect_masks", "feasible.project_gamma",
                 "feasible.project_gamma_coef"):  # fmt: skip
        m[f"{name}.calls"] = (per_frame(name, 0), "calls/frame")
        m[f"{name}.self_s"] = (per_frame(name, 1), "s/frame")
    for name in ("segmentation.plan_segmentation", "segmentation.restrict_model",
                 "segmentation.overlap_add", "pipeline.declip_signal", "metrics.sdr",
                 "wavio.read_wav", "wavio.write_wav", "cli.main"):  # fmt: skip
        m[f"{name}.self_s"] = (per_frame(name, 1), "s/frame")
    for q in (50, 90):
        for v in VARIANTS:
            durations = tracer.frame_s.get(v, [])
            value = float(np.percentile(durations, q)) if durations else 0.0
            m[f"solvers.frame_s.p{q}.{v}"] = (value, "s")
    all_iterations = 0
    for v in VARIANTS:
        its = plain.iterations[v] + traced.iterations[v]
        all_iterations += sum(its)
        m[f"solvers.iterations.mean.{v}"] = (float(np.mean(its)), "iterations")
        m[f"solvers.iterations.max.{v}"] = (int(np.max(its)), "iterations")
        m[f"solvers.us_per_iteration.{v}"] = (
            1e6 * plain.call_s[v] / max(sum(plain.iterations[v]), 1),
            "us",
        )
    useful = plain.useful_iterations + traced.useful_iterations
    m["solvers.useful_iter_frac"] = (useful / max(all_iterations, 1), "ratio")
    failed, attempted = plain.failed + traced.failed, plain.attempted + traced.attempted
    m["solvers.nonconverged_frac"] = (failed / max(attempted, 1), "ratio")
    m["pipeline.solver_threads"] = (statistics.median(tracer.threads_per_call), "threads")
    rtf_traced = sum(traced.call_s.values()) / sum(traced.audio_s.values())
    rtf_plain = sum(plain.call_s.values()) / sum(plain.audio_s.values())
    m["trace.overhead_frac"] = (rtf_traced / rtf_plain - 1, "ratio")
    return m


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def emit(line: dict) -> None:
    print(json.dumps(line), flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke test")
    p.add_argument("--setup-only", action="store_true", help="measure one set-up and exit")
    return p.parse_args(argv)


def pin_to_one_cpu() -> set[int]:
    """Run this process (and the set-up runs it starts) on one CPU.

    With two CPUs, the pipeline's thread pool hands the interpreter lock
    back and forth between them, and the wall time of one call varies by
    about +-20%; on one CPU it varies by about +-2%. Returns the CPUs the
    process was allowed before, to restore when the run ends.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def main(argv=None) -> int:
    args = parse_args(argv)
    allowed_cpus = pin_to_one_cpu()
    sys.path.insert(0, str(HERE))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    bench = None
    try:
        try:
            bench, first_setup = setup(args.workload, args.seed, args.size, workdir)
        except NoPackageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_NO_PACKAGE
        except GateError as exc:
            print(f"correctness gate (warm-up call): {exc}", file=sys.stderr)
            emit({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
            return EXIT_FAILED
        if args.setup_only:
            emit({"setup_s": first_setup})
            return 0
        setup_s = statistics.median(setup_seconds(args, first_setup))
        import workloads

        emit({"env": environment(args)})
        emit({"inputs": workloads.properties(bench.clips)})
        try:
            plain, traced, outputs, tracer = run_loop(bench, args.seconds, bool(args.trace))
        except GateError as exc:
            print(f"correctness gate: {exc}", file=sys.stderr)
            emit({"correct": False, "attempted": 1, "failed": 0, "metrics": {}})
            return EXIT_FAILED
        except CallError as exc:
            print(f"a timed call raised:\n{exc}", file=sys.stderr)
            attempted = sum(t.attempted for t in exc.tallies)
            failed = sum(t.failed for t in exc.tallies)
            emit({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}})
            return EXIT_FAILED
        emit({"rtf": {v: timing_summary(plain.rtf[v]) for v in VARIANTS}})
        emit(
            {
                "us_per_iteration": {
                    v: 1e6 * plain.call_s[v] / max(sum(plain.iterations[v]), 1) for v in VARIANTS
                },
                "iterations": {v: sum(plain.iterations[v]) for v in VARIANTS},
            }
        )
        if not args.trace:
            emit({"dsdr_db": {v: dsdr_per_input(bench, outputs[v]) for v in VARIANTS}})
        if args.trace:
            metrics = per_layer_metrics(plain, traced, tracer)
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            metrics = end_to_end_metrics(bench, plain, outputs, setup_s)
            attempted, failed = plain.attempted, plain.failed
        emit(
            {
                "correct": True,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
        return 0
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(workdir, ignore_errors=True)
        os.sched_setaffinity(0, allowed_cpus)


if __name__ == "__main__":
    import signal

    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
