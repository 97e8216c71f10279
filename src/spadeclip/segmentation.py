"""Overlapping frame extraction and weighted overlap-add reconstruction.

Frames are extracted rectangularly (no pre-windowing) so that the solver's
sample constraints and the tight-frame property are undisturbed; the
window only weights the recombination, with explicit per-sample
normalization. The default window is a half-sample-shifted Hann, which is
strictly positive so the normalization denominator never vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feasible import ClipModel

__all__ = [
    "SegmentationPlan",
    "shifted_hann",
    "plan_segmentation",
    "split",
    "overlap_add",
    "restrict_model",
    "restrict_frames",
]


def shifted_hann(frame_len: int) -> np.ndarray:
    """Hann-shaped window sampled at half-integer points; strictly positive."""
    n = np.arange(frame_len)
    return np.sin(np.pi * (n + 0.5) / frame_len) ** 2


@dataclass(frozen=True)
class SegmentationPlan:
    """Frame geometry and synthesis weights for one signal length."""

    frame_len: int
    hop: int
    window: np.ndarray
    num_frames: int

    def __post_init__(self):
        if self.hop < 1 or self.hop > self.frame_len:
            raise ValueError(f"hop must be in 1..frame_len, got {self.hop}")
        if self.window.shape != (self.frame_len,):
            raise ValueError("window length must equal frame_len")
        if np.any(self.window <= 0):
            raise ValueError("window must be strictly positive")

    @property
    def padded_len(self) -> int:
        return (self.num_frames - 1) * self.hop + self.frame_len


def plan_segmentation(
    total_len: int,
    frame_len: int = 1024,
    hop: int = 256,
    window: np.ndarray | None = None,
) -> SegmentationPlan:
    """Plan frames covering a signal of `total_len` samples.

    The last frame is filled by zero-padding the signal tail.
    """
    if total_len < 1:
        raise ValueError(f"total_len must be positive, got {total_len}")
    if hop < 1 or hop > frame_len:
        raise ValueError(f"hop must be in 1..frame_len, got {hop}")
    if window is None:
        window = shifted_hann(frame_len)
    num_frames = max(0, -(-(total_len - frame_len) // hop)) + 1
    return SegmentationPlan(
        frame_len=frame_len, hop=hop, window=np.asarray(window, float), num_frames=num_frames
    )


def _frames_of(x: np.ndarray, plan: SegmentationPlan, fill) -> np.ndarray:
    """The plan's frames of x as rows of one array; `fill` pads past the end."""
    padded = np.full(plan.padded_len, fill, dtype=x.dtype)
    padded[: len(x)] = x
    starts = np.arange(plan.num_frames) * plan.hop
    return padded[starts[:, None] + np.arange(plan.frame_len)]


def split(x: np.ndarray, plan: SegmentationPlan) -> list[np.ndarray]:
    """Extract the plan's frames from x, zero-padding past the signal end."""
    return list(_frames_of(np.asarray(x, dtype=float), plan, 0.0))


def overlap_add(
    frames: list[np.ndarray] | np.ndarray, plan: SegmentationPlan, original_len: int
) -> np.ndarray:
    """Recombine frames (a list, or the rows of an array) by window
    weighting with per-sample normalization."""
    if len(frames) == 0:
        raise ValueError("frame list is empty")
    num = np.zeros(plan.padded_len)
    den = np.zeros(plan.padded_len)
    for m, frame in enumerate(frames):
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (plan.frame_len,):
            raise ValueError(f"frame {m} has shape {frame.shape}")
        lo = m * plan.hop
        num[lo : lo + plan.frame_len] += plan.window * frame
        den[lo : lo + plan.frame_len] += plan.window
    return (num[:original_len] / den[:original_len]).copy()


def restrict_model(
    model: ClipModel, frame_index: int, plan: SegmentationPlan
) -> ClipModel:
    """Clip model for one frame: y and the global bounds restricted to its range.

    Tail-padding samples beyond the signal are reliable with y = 0.
    """
    if not 0 <= frame_index < plan.num_frames:
        raise ValueError(f"frame index {frame_index} out of range")
    n = plan.frame_len
    start = frame_index * plan.hop
    avail = max(0, min(len(model), start + n) - start)
    y, lo, hi = np.zeros(n), np.zeros(n), np.zeros(n)
    y[:avail] = model.y[start : start + avail]
    lo[:avail] = model.lo[start : start + avail]
    hi[:avail] = model.hi[start : start + avail]
    return ClipModel(y=y, theta=model.theta, lo=lo, hi=hi)


def restrict_frames(model: ClipModel, plan: SegmentationPlan) -> ClipModel:
    """Clip model of every frame at once: one row per frame, as `restrict_model`
    would give it."""
    return ClipModel(
        y=_frames_of(model.y, plan, 0.0),
        theta=model.theta,
        lo=_frames_of(model.lo, plan, 0.0),
        hi=_frames_of(model.hi, plan, 0.0),
    )
