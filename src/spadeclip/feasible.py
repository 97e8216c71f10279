"""Clipping model and projections onto the set of clipping-consistent signals.

A clipped observation y with threshold theta partitions samples into
reliable, clipped-high and clipped-low sets. A signal is consistent with
the observation when it equals y on reliable samples, is >= theta on
clipped-high samples and <= -theta on clipped-low samples. The projection
onto this set is componentwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frames import FrameOperator

__all__ = [
    "ClipModel",
    "hard_clip",
    "detect_masks",
    "project_gamma",
    "project_gamma_coef",
]

DEFAULT_DELTA_DETECT = 1e-6


@dataclass(frozen=True)
class ClipModel:
    """Observed clipped signal together with its sample classification.

    `mask_r`, `mask_h`, `mask_l` are boolean arrays over the samples
    (reliable / clipped-high / clipped-low) that partition the signal.
    A batch of frames stacks `y` and the masks along a leading axis.
    """

    y: np.ndarray
    theta: float
    mask_r: np.ndarray
    mask_h: np.ndarray
    mask_l: np.ndarray

    def __post_init__(self):
        if self.theta <= 0:
            raise ValueError(f"theta must be positive, got {self.theta}")
        shape = np.shape(self.y)
        for name in ("mask_r", "mask_h", "mask_l"):
            m = getattr(self, name)
            if m.shape != shape or m.dtype != bool:
                raise ValueError(f"{name} must be a boolean array of shape {shape}")
        count = (
            self.mask_r.astype(int) + self.mask_h.astype(int) + self.mask_l.astype(int)
        )
        if not np.all(count == 1):
            raise ValueError("masks must partition the sample indices")

    def __len__(self) -> int:
        return len(self.y)

    @property
    def num_clipped(self) -> int:
        return int(np.count_nonzero(self.mask_h) + np.count_nonzero(self.mask_l))

    def select(self, rows) -> ClipModel:
        """The model of the chosen frames of a batch (boolean or index rows)."""
        return ClipModel(
            y=self.y[rows],
            theta=self.theta,
            mask_r=self.mask_r[rows],
            mask_h=self.mask_h[rows],
            mask_l=self.mask_l[rows],
        )


def hard_clip(x: np.ndarray, theta: float) -> np.ndarray:
    """Clamp every sample of x to the interval [-theta, theta]."""
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    return np.clip(np.asarray(x, dtype=float), -theta, theta)


def detect_masks(
    y: np.ndarray, theta: float, delta_detect: float = DEFAULT_DELTA_DETECT
) -> ClipModel:
    """Classify samples of y against the clip threshold.

    Samples within `delta_detect` of +-theta count as clipped; the rest
    are reliable.
    """
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if delta_detect < 0:
        raise ValueError(f"delta_detect must be nonnegative, got {delta_detect}")
    y = np.asarray(y, dtype=float)
    mask_h = y >= theta - delta_detect
    mask_l = y <= -theta + delta_detect
    # pathological theta <= delta_detect could classify a sample both ways
    mask_l &= ~mask_h
    mask_r = ~(mask_h | mask_l)
    return ClipModel(y=y, theta=theta, mask_r=mask_r, mask_h=mask_h, mask_l=mask_l)


def project_gamma(v: np.ndarray, model: ClipModel) -> np.ndarray:
    """Euclidean projection of v onto the clipping-consistent set.

    Reliable samples are pinned to y; clipped-high samples are raised to at
    least theta, clipped-low samples lowered to at most -theta. For a
    batched model, v holds one frame per row.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != model.y.shape:
        raise ValueError(f"expected shape {model.y.shape}, got {v.shape}")
    out = np.where(model.mask_r, model.y, v)
    np.maximum(out, model.theta, out=out, where=model.mask_h)
    np.minimum(out, -model.theta, out=out, where=model.mask_l)
    return out


def project_gamma_coef(
    c: np.ndarray, model: ClipModel, op: FrameOperator
) -> np.ndarray:
    """Project coefficients c onto the set whose synthesis is clipping-consistent.

    One-step closed form: c + analyze(project_gamma(synthesize(c)) - synthesize(c)).
    Exact because synthesis composed with analysis is the identity on signals.
    """
    c = np.asarray(c, dtype=complex)
    expected = model.y.shape[:-1] + (op.coeff_len,)
    if c.shape != expected:
        raise ValueError(f"expected coefficients of shape {expected}, got {c.shape}")
    v = op.synthesize(c)
    return c + op.analyze(project_gamma(v, model) - v)
