"""Restoration quality metrics and per-run reporting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FrameStats", "DeclipReport", "sdr"]


def sdr(reference: np.ndarray, estimate: np.ndarray) -> float:
    """Signal-to-distortion ratio 20*log10(||ref|| / ||ref - est||) in dB.

    Returns +inf when the estimate matches the reference exactly, an
    all-zero one included; any other estimate of an all-zero reference
    raises. No alignment or gain is fitted. The value does not depend on
    the signals' level: sdr(x * 2**k, y * 2**k) == sdr(x, y) bit for bit.
    """
    reference = np.asarray(reference, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if reference.shape != estimate.shape:
        raise ValueError(
            f"length mismatch: {reference.shape} vs {estimate.shape}"
        )
    # one power of two, from the reference's peak, scales both exactly, so the
    # squares inside the norms neither overflow nor underflow at extreme levels
    _, exp = np.frexp(np.max(np.abs(reference), initial=0.0))
    reference = np.ldexp(reference, -exp)
    estimate = np.ldexp(estimate, -exp)
    err_norm = np.linalg.norm(reference - estimate)
    if err_norm == 0:
        return np.inf
    ref_norm = np.linalg.norm(reference)
    if ref_norm == 0:
        raise ValueError("reference signal is all-zero")
    return float(20 * np.log10(ref_norm / err_norm))


@dataclass(frozen=True)
class FrameStats:
    iterations: int
    final_residual: float
    final_k: int
    converged: bool


@dataclass(frozen=True)
class DeclipReport:
    """Aggregate and per-frame outcome of one declipping run.

    `per_frame` has one entry per planned frame; a frame with no clipped
    sample is not solved and reports 0 iterations.
    """

    sdr_clipped_input: float
    sdr_restored: float
    sdr_on_clipped_samples: float
    per_frame: list[FrameStats]
    runtime: float
    num_clipped: int = 0

    @property
    def mean_iterations(self) -> float:
        """Mean over all frames, the unsolved ones counting 0."""
        if not self.per_frame:
            return 0.0
        return float(np.mean([f.iterations for f in self.per_frame]))

    def as_table(self) -> str:
        lines = [
            f"SDR of clipped input : {_fmt_db(self.sdr_clipped_input)}",
            f"SDR of restoration   : {_fmt_db(self.sdr_restored)}",
            f"SDR on clipped samples: {_fmt_db(self.sdr_on_clipped_samples)}",
            f"frames               : {len(self.per_frame)}",
            f"mean iterations      : {self.mean_iterations:.1f}",
            f"runtime              : {self.runtime:.2f} s",
        ]
        return "\n".join(lines)


def _fmt_db(value: float) -> str:
    # a bare "inf" means exact recovery, so -inf keeps its sign and its unit
    return "inf" if value == np.inf else f"{value:.2f} dB"
