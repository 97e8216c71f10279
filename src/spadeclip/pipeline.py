"""End-to-end declipping of long signals: detect, segment, solve, recombine.

`declip_signal` is four stage calls: `detect_masks` builds the signal's
clip model, a `SegmentationPlan` lays frames over it, `solve_batch` solves
the frames `restrict_frames` gathers (passing clip-free ones through), and
`overlap_add` recombines them before a last consistency projection.
"""

from __future__ import annotations

import time

import numpy as np

from .feasible import DEFAULT_DELTA_DETECT, detect_masks, project_gamma
from .frames import make_frame
from .metrics import DeclipReport, sdr
from .segmentation import SegmentationPlan, overlap_add, restrict_frames
from .solvers import SolverParams, solve_batch

__all__ = ["declip_signal"]

DEFAULT_FRAME_LEN = 1024
DEFAULT_HOP = 256
DEFAULT_REDUNDANCY = 2.0


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
    raises a ValueError before any solve. A silent `y` with a silent
    reference gives infinite SDRs.

    Every frame goes to one `solve_batch` call, which passes the frames
    with no clipped sample through with 0 iterations. Reliable samples of
    the output equal the observation exactly and clipped samples respect
    the threshold bounds: the overlap-add result is passed through the
    global consistency projection once more.
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
    plan = SegmentationPlan(len(y), frame_len, hop)
    op = make_frame(frame_len, redundancy)
    frames, per_frame = solve_batch(restrict_frames(model, plan), op, params)
    restored = project_gamma(overlap_add(frames, plan), model)
    runtime = time.perf_counter() - t0

    clipped = ~model.mask_r
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
