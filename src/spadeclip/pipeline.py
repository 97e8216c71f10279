"""End-to-end declipping of long signals: detect, then restore.

`declip_signal` checks its input, builds the signal's clip model with
`detect_masks` and hands it to `restore`. `restore` takes the clip model
of any one signal: a `SegmentationPlan` lays frames over it,
`restrict_frames` gathers them, `solve_batch` solves the frames that hold
a sample `overlap_add` keeps and that is not reliable, and `overlap_add`
recombines every frame before a last consistency projection. Such a
sample is a clipped one or a free one inside the signal: a gap, which the
same iteration fills, as in sparse audio inpainting (SPAIN, Mokrý et al.,
EUSIPCO 2019). A frame that reaches past the signal's end leaves its tail
padding free, so the solve fits only observed samples.
"""

from __future__ import annotations

import time

import numpy as np

from .feasible import DEFAULT_DELTA_DETECT, ClipModel, detect_masks, project_gamma
from .frames import make_frame
from .metrics import DeclipReport, FrameStats, sdr
from .segmentation import SegmentationPlan, overlap_add, restrict_frames
from .solvers import SolverParams, solve_batch

__all__ = ["declip_signal", "restore"]

DEFAULT_FRAME_LEN = 1024
DEFAULT_HOP = 256
DEFAULT_REDUNDANCY = 2.0


def restore(
    model: ClipModel,
    params: SolverParams,
    frame_len: int = DEFAULT_FRAME_LEN,
    hop: int = DEFAULT_HOP,
    redundancy: float = DEFAULT_REDUNDANCY,
) -> tuple[np.ndarray, list[FrameStats]]:
    """Restore the signal of a one-signal clip model frame by frame.

    Returns the restored signal and each frame's stats. A frame is solved
    when one of the samples `overlap_add` keeps is not reliable: a clipped
    sample, or a free one inside the signal. Tail padding is dropped by
    `overlap_add`, so it calls for no solve. Every other frame keeps its y
    with `FrameStats(0, 0.0, True)`; when no frame is solved no transform
    runs. The overlap-add result is passed through the consistency
    projection once more, so the output lies in the model's box. Raises
    ValueError if the model's y is not one-dimensional.
    """
    if np.ndim(model.y) != 1:
        raise ValueError(f"restore takes the model of one signal, got y of shape {np.shape(model.y)}")
    plan = SegmentationPlan(len(model.y), frame_len, hop)
    op = make_frame(frame_len, redundancy)
    frames = restrict_frames(model, plan)
    restored = frames.y.copy()
    stats = [FrameStats(0, 0.0, True)] * plan.num_frames
    needs_solve = ~frames.mask_r & (plan.sample_index < plan.total_len)
    rows = np.flatnonzero(needs_solve.any(axis=-1))
    if rows.size:
        restored[rows], solved = solve_batch(frames.select(rows), op, params)
        for m, frame_stats in zip(rows, solved):
            stats[m] = frame_stats
    return project_gamma(overlap_add(restored, plan), model), stats


def declip_signal(
    y: np.ndarray,
    theta: float,
    params: SolverParams,
    frame_len: int = DEFAULT_FRAME_LEN,
    hop: int = DEFAULT_HOP,
    redundancy: float = DEFAULT_REDUNDANCY,
    delta_detect: float = DEFAULT_DELTA_DETECT,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, DeclipReport]:
    """Declip a full-length signal frame by frame.

    Returns the restored signal and a report. SDR fields are computed
    against `reference` when given (clip-simulation experiments),
    otherwise against the observation itself, which makes the input-SDR
    field infinite. A `y` that is empty, not one-dimensional or not
    finite, or a `reference` of another shape, holding a NaN or an
    infinity, or all-zero while `y` is not (no SDR against it is defined),
    raises a ValueError before detection. So does, after detection and
    before the solve, a `reference` that is zero on every clipped sample of
    a `y` with some: the SDR on the clipped samples is undefined. A silent
    `y` with a silent reference gives infinite SDRs.

    The clip model of `detect_masks` goes to `restore`, which solves the
    frames holding a clipped sample and passes the others through with 0
    iterations. Reliable samples of the output equal the observation
    exactly and clipped samples respect the threshold bounds. The report's
    runtime spans detection and restoration.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError(f"y must be one-dimensional, got shape {y.shape}")
    if y.size == 0:
        raise ValueError("signal is empty")
    ref = y  # y itself is checked once, by detect_masks
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != y.shape:
            raise ValueError(f"reference has shape {ref.shape}, y has shape {y.shape}")
        if not np.all(np.isfinite(ref)):
            raise ValueError("reference holds non-finite samples (NaN or inf)")
        if not ref.any() and y.any():
            raise ValueError("reference is all-zero but y is not: its SDR is undefined")
    t0 = time.perf_counter()
    model = detect_masks(y, theta, delta_detect)
    clipped = model.mask_clipped
    if reference is not None and clipped.any() and not ref[clipped].any():
        raise ValueError(f"reference is zero on all {model.num_clipped} clipped samples: no SDR on them")
    restored, per_frame = restore(model, params, frame_len, hop, redundancy)
    runtime = time.perf_counter() - t0

    report = DeclipReport(
        sdr_clipped_input=sdr(ref, y),
        sdr_restored=sdr(ref, restored),
        # inf when nothing is clipped: equal empty arrays
        sdr_on_clipped_samples=sdr(ref[clipped], restored[clipped]),
        per_frame=per_frame,
        runtime=runtime,
        num_clipped=model.num_clipped,
    )
    return restored, report
