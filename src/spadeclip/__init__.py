"""Sparse audio declipping over tight DFT frames.

Three ADMM-derived solver variants (analysis, original synthesis, and the
corrected synthesis formulation) restore hard-clipped audio by alternating
sparsity-enforcing hard thresholding with projections onto the set of
clipping-consistent signals.
"""

from .feasible import ClipModel, detect_masks, hard_clip, project_gamma
from .frames import FrameOperator, make_frame
from .metrics import DeclipReport, FrameStats, sdr
from .pipeline import declip_signal, restore
from .segmentation import SegmentationPlan, overlap_add, restrict_frames
from .solvers import SolverParams, SolverState, Variant, hard_threshold, solve_batch

__all__ = [
    "ClipModel",
    "DeclipReport",
    "FrameOperator",
    "FrameStats",
    "SegmentationPlan",
    "SolverParams",
    "SolverState",
    "Variant",
    "declip_signal",
    "detect_masks",
    "hard_clip",
    "hard_threshold",
    "make_frame",
    "overlap_add",
    "project_gamma",
    "restore",
    "restrict_frames",
    "sdr",
    "solve_batch",
]

__version__ = "0.1.0"
