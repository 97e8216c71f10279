"""Restoration quality metrics and per-run reporting."""

from __future__ import annotations

import math
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
    # one scratch array: the error, then the scaled reference
    with np.errstate(over="ignore"):  # an error past the float range is redone below
        work = np.subtract(reference, estimate, out=np.empty_like(reference))
        err_norm, err_exp = _scaled_norm(work, out=work)
    if err_norm == np.inf:  # the halves' difference fits
        np.subtract(np.ldexp(reference, -1), np.ldexp(estimate, -1), out=work)
        err_norm, err_exp = _scaled_norm(work, out=work)
        err_exp += 1
    if err_norm == 0:
        return np.inf
    ref_norm, ref_exp = _scaled_norm(reference, out=work)
    if ref_norm == 0:
        raise ValueError("reference signal is all-zero")
    return 20 * (math.log10(ref_norm / err_norm) + (ref_exp - err_exp) * math.log10(2))


def _scaled_norm(x: np.ndarray, out: np.ndarray) -> tuple[float, int]:
    """(||x|| / 2**exp, exp) for the exp that brings the peak of |x| into [0.5, 1).

    |x| scaled by that power of two is written to `out`. The scaling is
    exact, so no square inside the norm overflows or underflows, whatever
    the level of x.
    """
    scaled = np.abs(x, out=out)
    _, exp = math.frexp(scaled.max(initial=0.0))
    exp = max(exp, -1023)  # 2.0**1023 is the largest power of two a float holds
    scaled *= 2.0**-exp
    scaled = scaled.ravel()
    return math.sqrt(scaled.dot(scaled)), exp


@dataclass(frozen=True)
class FrameStats:
    """A frame's iterations, last residual and convergence; a clip-free frame's are
    (0, 0.0, True). The k it stopped at is `params.sparsity(iterations - converged)`."""

    iterations: int
    final_residual: float
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
    num_clipped: int

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
