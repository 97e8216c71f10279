"""Clipping model and projections onto the set of clipping-consistent signals.

A clipped observation y with threshold theta admits the signals that equal
y on reliable samples, are >= theta on clipped-high samples and <= -theta
on clipped-low samples. That set is a box: every sample has a lower and an
upper bound (lo = hi = y, [theta, +inf) or (-inf, -theta]), and the
Euclidean projection onto it is an elementwise clamp. The bounds give the
set in full, so the clip model stores them and not theta. A fourth kind,
the free sample with bounds (-inf, +inf), is one nothing observed: the
tail padding of a frame past its signal's end, or a gap inside a signal,
which `pipeline.restore` fills. The projection leaves it as it is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClipModel",
    "hard_clip",
    "detect_masks",
    "auto_theta",
    "project_gamma",
]

DEFAULT_DELTA_DETECT = 1e-6


@dataclass(frozen=True)
class ClipModel:
    """Observed clipped signal and the box of signals consistent with it.

    Each sample x[n] must satisfy lo[n] <= x[n] <= hi[n]: a reliable sample
    has lo = hi = y, a clipped-high one [theta, +inf), a clipped-low one
    (-inf, -theta], a free one (-inf, +inf). theta lives only in the
    bounds; `detect_masks` checks it. The masks `mask_r`, `mask_h`,
    `mask_l`, `mask_free` (reliable / clipped-high / clipped-low / free)
    are read off the bounds and partition the samples; `num_clipped`
    counts the clipped-high and clipped-low ones. A batch of frames stacks
    `y` and the bounds along a leading axis.
    """

    y: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.y)
        if np.shape(self.lo) != shape or np.shape(self.hi) != shape:
            raise ValueError(f"lo and hi must have the shape of y, {shape}")
        if not np.all(self.lo <= self.hi):
            raise ValueError("lo must not exceed hi")

    @property
    def mask_r(self) -> np.ndarray:
        return self.lo == self.hi

    @property
    def mask_h(self) -> np.ndarray:
        return (self.hi == np.inf) & (self.lo > -np.inf)

    @property
    def mask_l(self) -> np.ndarray:
        return (self.lo == -np.inf) & (self.hi < np.inf)

    @property
    def mask_free(self) -> np.ndarray:
        return (self.lo == -np.inf) & (self.hi == np.inf)

    @property
    def mask_clipped(self) -> np.ndarray:
        """Clipped-high or clipped-low: exactly one bound is infinite."""
        return np.isinf(self.lo) != np.isinf(self.hi)

    @property
    def num_clipped(self) -> int:
        return int(np.count_nonzero(self.mask_clipped))

    def select(self, rows) -> ClipModel:
        """The model of the chosen frames of a batch (boolean or index rows).

        `np.newaxis` makes a one-frame model a batch of one.
        """
        return ClipModel(self.y[rows], self.lo[rows], self.hi[rows])


def hard_clip(x: np.ndarray, theta: float) -> np.ndarray:
    """Clamp every sample of x to the interval [-theta, theta]."""
    if not theta > 0:
        raise ValueError(f"theta must be positive, got {theta}")
    return np.clip(np.asarray(x, dtype=float), -theta, theta)


def detect_masks(
    y: np.ndarray, theta: float, delta_detect: float = DEFAULT_DELTA_DETECT
) -> ClipModel:
    """Classify samples of y against the clip threshold.

    Samples within `delta_detect` of +-theta count as clipped; the rest
    are reliable. theta must exceed `delta_detect`, or both bands would
    hold 0 and every sample would count as clipped. Raises ValueError if y
    holds a NaN or an infinity.
    """
    if not theta > 0:  # also rejects NaN
        raise ValueError(f"theta must be positive, got {theta}")
    if not delta_detect >= 0:
        raise ValueError(f"delta_detect must be nonnegative, got {delta_detect}")
    if not theta > delta_detect:
        raise ValueError(f"theta must exceed delta_detect ({delta_detect}), got {theta}")
    y = np.asarray(y, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("signal holds non-finite samples (NaN or inf)")
    high = y >= theta - delta_detect
    low = y <= -theta + delta_detect
    lo = np.where(high, theta, np.where(low, -np.inf, y))
    hi = np.where(high, np.inf, np.where(low, -theta, y))
    return ClipModel(y=y, lo=lo, hi=hi)


def auto_theta(y: np.ndarray, delta_detect: float = DEFAULT_DELTA_DETECT) -> float:
    """The peak |y| over every sample, or inf (nothing clipped) if not above `delta_detect`."""
    peak = float(np.max(np.abs(y)))
    return peak if peak > delta_detect else np.inf


def project_gamma(v: np.ndarray, model: ClipModel, out: np.ndarray | None = None) -> np.ndarray:
    """Euclidean projection of v onto the clipping-consistent set.

    Each sample is clamped into its box [lo, hi]: reliable samples are
    pinned to y, clipped-high samples raised to at least theta, clipped-low
    samples lowered to at most -theta, free samples left as they are. For
    a batched model, v holds one frame per row. The result goes to `out`,
    which may be v itself, else to a new array.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != model.y.shape:
        raise ValueError(f"expected shape {model.y.shape}, got {v.shape}")
    # the bounds go second: on a tie (0.0 against -0.0) numpy's maximum and
    # minimum return the second operand, so reliable samples keep y's bits
    out = np.maximum(v, model.lo, out=out)
    return np.minimum(out, model.hi, out=out)
