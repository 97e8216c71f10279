"""End-to-end declipping of long signals: detect, segment, solve, recombine."""

from __future__ import annotations

import time

import numpy as np

from .feasible import DEFAULT_DELTA_DETECT, detect_masks, project_gamma
from .frames import make_frame
from .metrics import DeclipReport, FrameStats, sdr, sdr_masked
from .segmentation import overlap_add, plan_segmentation, restrict_frames
from .solvers import SolverParams, solve_batch

__all__ = ["declip_signal"]

# A frame with no clipped sample is pinned to y sample by sample by the
# consistency projection, whatever the solver does, so it is not solved.
UNSOLVED = FrameStats(iterations=0, final_residual=0.0, final_k=0, converged=True)


def declip_signal(
    y: np.ndarray,
    theta: float,
    params: SolverParams,
    frame_len: int = 1024,
    hop: int = 256,
    redundancy: float = 2,
    delta_detect: float = DEFAULT_DELTA_DETECT,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, DeclipReport]:
    """Declip a full-length signal frame by frame.

    Returns the restored signal and a report. SDR fields are computed
    against `reference` when given (clip-simulation experiments),
    otherwise against the observation itself, which makes the input-SDR
    field infinite. An empty `y` raises a ValueError.

    The frames holding a clipped sample are solved together as one batch
    (`solve_batch`); the others keep the observation and report 0
    iterations. Reliable samples of the output equal the observation
    exactly and clipped samples respect the threshold bounds: the
    overlap-add result is passed through the global consistency projection
    once more.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise ValueError("signal is empty")
    t0 = time.perf_counter()
    model = detect_masks(y, theta, delta_detect)
    plan = plan_segmentation(len(y), frame_len, hop)
    op = make_frame(frame_len, redundancy)
    frames = restrict_frames(model, plan)

    restored = frames.y.copy()
    per_frame = [UNSOLVED] * plan.num_frames
    clipped_frames = np.flatnonzero(~frames.mask_r.all(axis=1))
    if clipped_frames.size:
        restored[clipped_frames], stats = solve_batch(frames.select(clipped_frames), op, params)
        for m, frame_stats in zip(clipped_frames, stats):
            per_frame[m] = frame_stats

    restored = project_gamma(overlap_add(restored, plan, len(y)), model)
    runtime = time.perf_counter() - t0

    ref = y if reference is None else np.asarray(reference, dtype=float)
    clipped = ~model.mask_r
    report = DeclipReport(
        sdr_clipped_input=sdr(ref, y),
        sdr_restored=sdr(ref, restored),
        sdr_on_clipped_samples=(
            sdr_masked(ref, restored, clipped) if np.any(clipped) else np.inf
        ),
        per_frame=per_frame,
        runtime=runtime,
        num_clipped=model.num_clipped,
    )
    return restored, report
