"""Parseval tight frame operators built from the (possibly redundant) real DFT.

Every signal here is real, so its DFT is conjugate symmetric and the bins
above P/2 repeat the ones below. The analysis operator maps a real
length-N signal to the P//2 + 1 non-negative-frequency bins of its
length-P DFT (P >= N, zero-padded), normalized by sqrt(P). Each interior
bin stands for a conjugate pair and is weighted by sqrt(2), so its
magnitude carries the energy of both halves; DC and, for even P, Nyquist
have no partner and keep weight 1. The synthesis operator is the exact
adjoint under the stacked real/imaginary inner product: undo the weights,
inverse real DFT (which ignores the imaginary parts of DC and Nyquist),
truncation to N samples. For any redundancy the pair satisfies
synthesize(analyze(x)) = x and ||synthesize(c)|| <= ||c||.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = ["FrameOperator", "make_frame"]


@dataclass(frozen=True)
class FrameOperator:
    """Analysis/synthesis pair for a tight half-spectrum DFT frame.

    `dft_len` is the DFT length P; a coefficient vector holds the
    `coeff_len` = P//2 + 1 bins from DC to P/2, and keeping k of them keeps
    k conjugate pairs (DC and Nyquist count one each). The frame is unitary
    when `dft_len == signal_len`, redundant otherwise. Raises ValueError if
    either length is not an integer (numpy integers pass), signal_len < 1
    or dft_len < signal_len.

    Immutable; `analyze` and `synthesize` are pure and act on one frame or
    on a batch of frames stacked along a leading axis.
    """

    signal_len: int
    dft_len: int
    # per-bin analysis weights (sqrt(2/P) interior, sqrt(1/P) at DC and
    # Nyquist) and their reciprocals: numpy divides a complex array by a real
    # one as complex division, about three times slower than a product. Both
    # are stored complex: numpy casts a real factor of a complex product to
    # complex, so the products are the same without a cast per call
    _weights: np.ndarray = field(init=False, repr=False, compare=False)
    _inverse_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_integers(signal_len=self.signal_len, dft_len=self.dft_len)
        if self.signal_len < 1:
            raise ValueError(f"signal_len must be positive, got {self.signal_len}")
        if self.dft_len < self.signal_len:
            raise ValueError(
                f"dft_len must be >= signal_len={self.signal_len}, got {self.dft_len}"
            )
        p = self.dft_len
        w = np.full(p // 2 + 1, math.sqrt(2 / p))
        w[0] = math.sqrt(1 / p)
        if p % 2 == 0:
            w[-1] = math.sqrt(1 / p)
        iw = (1 / w).astype(complex)
        w = w.astype(complex)
        w.flags.writeable = False
        iw.flags.writeable = False
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_inverse_weights", iw)

    @property
    def coeff_len(self) -> int:
        """Length of a coefficient vector: the P//2 + 1 bins from DC to P/2."""
        return self.dft_len // 2 + 1

    def analyze(self, x: np.ndarray) -> np.ndarray:
        """Map a real length-N signal to P//2 + 1 weighted complex coefficients.

        A 2-D input is a batch of frames, one per row; each row is
        transformed exactly as it would be alone.
        """
        x = np.asarray(x, dtype=float)
        _check_shape(x, self.signal_len, "signal")
        c = np.fft.rfft(x, n=self.dft_len, axis=-1)
        c *= self._weights
        return c

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        """Map P//2 + 1 complex coefficients back to a real length-N signal.

        The adjoint of `analyze`. A 2-D input is a batch of coefficient
        vectors, one per row.
        """
        c = np.asarray(c, dtype=complex)
        _check_shape(c, self.coeff_len, "coefficients")
        # undoing the weights also undoes the 1/P that irfft applies
        x = np.fft.irfft(c * self._inverse_weights, n=self.dft_len, axis=-1)
        return x[..., : self.signal_len]


def require_integers(**lengths) -> None:
    """Raise ValueError naming the first of `lengths` that is not an integer.

    Python and numpy integers pass; a float does not, even an integral one.
    """
    for name, value in lengths.items():
        if not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_shape(a: np.ndarray, length: int, what: str) -> None:
    if a.ndim not in (1, 2) or a.shape[-1] != length:
        raise ValueError(
            f"expected {what} of length {length} (or a batch of them), got shape {a.shape}"
        )


def make_frame(signal_len: int, redundancy: float | Fraction = 1) -> FrameOperator:
    """Build a tight DFT frame of DFT length P = redundancy * signal_len.

    Redundancy 1 yields a unitary frame; redundancy > 1 a redundant one.
    Raises ValueError if signal_len is not an integer, redundancy is not
    finite or < 1, or the implied DFT length is not an integer; the
    constructor checks the range of signal_len.
    """
    require_integers(signal_len=signal_len)
    if not 1 <= redundancy < math.inf:  # also rejects NaN
        raise ValueError(f"redundancy must be finite and >= 1, got {redundancy}")
    p_exact = Fraction(redundancy).limit_denominator(10**9) * signal_len
    if p_exact.denominator != 1:
        raise ValueError(
            f"redundancy {redundancy} times N={signal_len} is not an integer"
        )
    return FrameOperator(signal_len=signal_len, dft_len=int(p_exact))
