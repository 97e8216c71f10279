"""WAV ingestion and emission.

`read_wav` accepts PCM 8-, 16-, 24- and 32-bit and float32 / float64
files with any number of channels. It returns float64 samples, shape (n,)
for mono and (n, channels) otherwise, and rejects a file with no samples
or one holding a NaN or an infinity. A file cut short, in its header or
in its samples, is rejected too: scipy's parse errors and its "Reached
EOF prematurely" warning become a ValueError that starts with the path.
`write_wav` writes a float WAV with
the array's channel count: float32 for a float32 array, float64 for any
other, so a caller chooses the width by the array it passes.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np

__all__ = ["read_wav", "write_wav"]


def _to_float(data: np.ndarray) -> np.ndarray:
    """Scale PCM to [-1, 1); float samples are kept as they are."""
    if data.dtype == np.uint8:
        return (data.astype(np.float64) - 128.0) / 128.0
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:  # scipy left-justifies 24-bit PCM in int32
        return data.astype(np.float64) / 2.0**31
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64)
    raise ValueError(f"unsupported WAV sample type {data.dtype}")


def read_wav(path: str) -> tuple[int, np.ndarray]:
    """Read a WAV file as (sample_rate, float64 samples), one column per channel."""
    # imported here, not at module top: importing scipy.io costs ~0.2 s and ~15 MB
    from scipy.io import wavfile

    with warnings.catch_warnings():
        # scipy only warns when the data chunk is cut short, and returns the
        # samples before the cut: here that is an error, not a shorter signal
        warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
        try:
            rate, data = wavfile.read(path)
        except (struct.error, ValueError, wavfile.WavFileWarning) as exc:
            raise ValueError(f"{path}: cannot read as WAV: {exc}") from exc
    if len(data) == 0:
        raise ValueError(f"{path}: no samples")
    samples = _to_float(data)
    bad = np.count_nonzero(~np.isfinite(samples))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite samples (NaN or inf)")
    return int(rate), samples


def write_wav(path: str, rate: int, samples: np.ndarray) -> None:
    """Write (n,) or (n, channels) samples as a float WAV file: 32-bit for a
    float32 array, 64-bit for any other."""
    from scipy.io import wavfile  # deferred for the same reason as in read_wav

    samples = np.asarray(samples)
    if samples.dtype != np.float32:
        samples = samples.astype(np.float64, copy=False)
    wavfile.write(path, rate, samples)
