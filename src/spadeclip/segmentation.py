"""Overlapping frame extraction and weighted overlap-add reconstruction.

Frames are extracted rectangularly (no pre-windowing) so that the solver's
sample constraints and the tight-frame property are undisturbed; the
window only weights the recombination, with explicit per-sample
normalization. The window is fixed by the frame length: a half-sample-
shifted Hann, which is strictly positive so the normalization denominator
never vanishes. A plan is built with its constructor,
`SegmentationPlan(total_len, frame_len, hop)`, and holds its signal's
length, so `overlap_add` rebuilds exactly that signal. The last frame may
reach past the signal's end; `restrict_frames` makes those tail-padding
samples free, so no frame is fitted to samples nobody observed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasible import ClipModel
from .frames import require_integers

__all__ = [
    "SegmentationPlan",
    "overlap_add",
    "restrict_frames",
]


@dataclass(frozen=True)
class SegmentationPlan:
    """Frame geometry over a signal of `total_len` samples.

    Frames of `frame_len` samples start every `hop` samples and cover the
    signal; the last frame may reach past its end, into the tail padding.
    Raises ValueError if a length is not an integer (numpy integers pass)
    or not positive, or if hop exceeds frame_len.
    """

    total_len: int
    frame_len: int
    hop: int

    def __post_init__(self):
        require_integers(total_len=self.total_len, frame_len=self.frame_len, hop=self.hop)
        if self.total_len < 1:
            raise ValueError(f"total_len must be positive, got {self.total_len}")
        if self.frame_len < 1:
            raise ValueError(f"frame_len must be positive, got {self.frame_len}")
        if self.hop < 1 or self.hop > self.frame_len:
            raise ValueError(f"hop must be in 1..frame_len, got {self.hop}")

    @property
    def num_frames(self) -> int:
        return max(0, -(-(self.total_len - self.frame_len) // self.hop)) + 1

    @property
    def padded_len(self) -> int:
        return (self.num_frames - 1) * self.hop + self.frame_len

    @property
    def window(self) -> np.ndarray:
        """Synthesis weights of one frame: a Hann window sampled at
        half-integer points, so strictly positive."""
        n = np.arange(self.frame_len)
        return np.sin(np.pi * (n + 0.5) / self.frame_len) ** 2

    @property
    def sample_index(self) -> np.ndarray:
        """(num_frames, frame_len) positions in the padded signal:
        row m holds the samples of frame m."""
        starts = np.arange(self.num_frames) * self.hop
        return starts[:, None] + np.arange(self.frame_len)


def _frames_of(x: np.ndarray, plan: SegmentationPlan, fill: float) -> np.ndarray:
    """The plan's frames of x as rows of one array, padded with `fill` past the end."""
    padded = np.full(plan.padded_len, fill, dtype=x.dtype)
    padded[: len(x)] = x
    return padded[plan.sample_index]


def overlap_add(frames: np.ndarray, plan: SegmentationPlan) -> np.ndarray:
    """Recombine the plan's frames, one per row, into a signal of the plan's
    `total_len` samples by window weighting with per-sample normalization.

    Each sample sums its frames' contributions in frame order.
    """
    frames = np.asarray(frames, dtype=float)
    shape = (plan.num_frames, plan.frame_len)
    if frames.shape != shape:
        raise ValueError(f"expected frames of shape {shape}, got {frames.shape}")
    index = plan.sample_index.ravel()
    window = plan.window
    num = np.bincount(index, weights=(window * frames).ravel(), minlength=plan.padded_len)
    den = np.bincount(index, weights=np.tile(window, plan.num_frames), minlength=plan.padded_len)
    return num[: plan.total_len] / den[: plan.total_len]


def restrict_frames(model: ClipModel, plan: SegmentationPlan) -> ClipModel:
    """Clip model of every frame at once, one row per frame: the bounds
    restricted to the frame's range. Tail-padding samples beyond the signal
    are free, bounds (-inf, +inf), where the frames' y reads 0: nothing
    observed them, so the solve leaves them where the synthesis puts them
    and `overlap_add` drops them."""
    return ClipModel(
        lo=_frames_of(model.lo, plan, -np.inf),
        hi=_frames_of(model.hi, plan, np.inf),
    )
