"""Parseval tight frame operators built from the (possibly redundant) DFT.

The analysis operator maps a real length-N signal to P >= N complex
coefficients by zero-padding to length P and taking the normalized DFT.
The synthesis operator is the exact adjoint under the stacked
real/imaginary inner product: inverse DFT, truncation to N samples,
real part. For any redundancy the pair satisfies synthesize(analyze(x)) = x
and ||synthesize(c)|| <= ||c||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["FrameOperator", "make_frame"]


@dataclass(frozen=True)
class FrameOperator:
    """Analysis/synthesis pair for a tight DFT frame.

    Immutable; `analyze` and `synthesize` are pure and act on one frame or
    on a batch of frames stacked along a leading axis. The frame is the
    unitary DFT when `coeff_len == signal_len`, redundant otherwise.
    """

    signal_len: int
    coeff_len: int

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """Map a real length-N signal to P complex coefficients.

        A 2-D input is a batch of frames, one per row; each row is
        transformed exactly as it would be alone.
        """
        x = np.asarray(x, dtype=float)
        _check_shape(x, self.signal_len, "signal")
        c = np.fft.fft(x, n=self.coeff_len, axis=-1)
        # numpy divides a complex array by a real scalar as a product with
        # its reciprocal, so scaling in place rounds the same, without a copy
        c *= 1 / math.sqrt(self.coeff_len)
        return c

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Map P complex coefficients back to a real length-N signal (adjoint of analyze).

        A 2-D input is a batch of coefficient vectors, one per row.
        """
        c = np.asarray(c, dtype=complex)
        _check_shape(c, self.coeff_len, "coefficients")
        x = np.real(np.fft.ifft(c, axis=-1))[..., : self.signal_len]
        return x * math.sqrt(self.coeff_len)


def _check_shape(a: np.ndarray, length: int, what: str) -> None:
    if a.ndim not in (1, 2) or a.shape[-1] != length:
        raise ValueError(
            f"expected {what} of length {length} (or a batch of them), got shape {a.shape}"
        )


def make_frame(signal_len: int, redundancy: float | Fraction = 1) -> FrameOperator:
    """Build a tight DFT frame with P = redundancy * signal_len coefficients.

    Redundancy 1 yields the unitary DFT; redundancy > 1 a redundant frame.
    Raises ValueError if signal_len < 1, redundancy < 1, or the implied
    coefficient count is not an integer.
    """
    if signal_len < 1:
        raise ValueError(f"signal_len must be positive, got {signal_len}")
    if redundancy < 1:
        raise ValueError(f"redundancy must be >= 1, got {redundancy}")
    p_exact = Fraction(redundancy).limit_denominator(10**9) * signal_len
    if p_exact.denominator != 1:
        raise ValueError(
            f"redundancy {redundancy} times N={signal_len} is not an integer"
        )
    return FrameOperator(signal_len=signal_len, coeff_len=int(p_exact))
