"""Inputs several test files build: sparse test tones, a three-sample clip
model, and WAV files written without `spadeclip.wavio`. A plain module, as
`contracts.py` is."""

import struct
import wave

import numpy as np
from scipy.io import wavfile

from spadeclip.feasible import detect_masks

RATE = 8000
# PCM bit depths; None for the float formats
WAV_FORMATS = {"pcm8": 8, "pcm16": 16, "pcm24": 24, "pcm32": 32, "float32": None, "float64": None}


def three_partials(n, period, phases=(0.2, 1.0, 2.1)):
    """n samples of partials at 4, 11 and 23 cycles per period, of amplitudes 1, 0.6 and 0.35."""
    t = np.arange(n)
    return (
        np.sin(2 * np.pi * 4 * t / period + phases[0])
        + 0.6 * np.sin(2 * np.pi * 11 * t / period + phases[1])
        + 0.35 * np.sin(2 * np.pi * 23 * t / period + phases[2])
    )


def sparse_signal(n=2048, amp=1.0):
    x = three_partials(n, n / 4)
    return amp * x / np.max(np.abs(x))


def simple_model():
    # y = [0.5, 1, -1], theta 1: reliable / clipped-high / clipped-low
    return detect_masks(np.array([0.5, 1.0, -1.0]), 1.0, delta_detect=0.0)


def whole_wav(path, dtype) -> bytes:
    """The bytes of a 4000-sample mono file in the given sample type."""
    x = sparse_signal(4000, amp=0.8)
    wavfile.write(path, RATE, (x * 32767).astype(dtype) if dtype is np.int16 else x.astype(dtype))
    return path.read_bytes()


def riff(*chunks: tuple[bytes, bytes], big: bool = False) -> bytes:
    """A RIFF WAVE file (RIFX if big) of (id, payload) chunks, each padded to an even size."""
    e = ">" if big else "<"
    body = b"WAVE" + b"".join(
        cid + struct.pack(e + "I", len(payload)) + payload + b"\0" * (len(payload) % 2)
        for cid, payload in chunks
    )
    return (b"RIFX" if big else b"RIFF") + struct.pack(e + "I", len(body)) + body


def pcm_fmt(channels=1, block_align=2, bits=16, tag=1, e="<") -> bytes:
    """A 16-byte `fmt ` payload whose byte rate agrees with its block_align."""
    return struct.pack(e + "HHIIHH", tag, channels, RATE, RATE * block_align, block_align, bits)


def write_pcm(path, bits: int, samples: np.ndarray) -> None:
    """Write (n, channels) samples in [-1, 1) as integer PCM with the stdlib."""
    ints = np.round(samples * 2 ** (bits - 1)).astype(np.int64)
    if bits == 8:
        raw = (ints + 128).astype(np.uint8).tobytes()  # 8-bit PCM is unsigned
    else:
        raw = b"".join(int(v).to_bytes(bits // 8, "little", signed=True) for v in ints.ravel())
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(samples.shape[1])
        fh.setsampwidth(bits // 8)
        fh.setframerate(RATE)
        fh.writeframes(raw)


def on_format_grid(x, fmt):
    """x rounded to the values a file of format fmt stores exactly."""
    bits = WAV_FORMATS[fmt]
    if bits is not None:
        return np.round(x * 2 ** (bits - 1)) / 2 ** (bits - 1)
    return x.astype(np.float32).astype(float) if fmt == "float32" else x


def write_in_format(path, fmt: str, x: np.ndarray) -> None:
    """Write (n, channels) samples on fmt's grid as a file of that format, without wavio."""
    if WAV_FORMATS[fmt] is None:
        wavfile.write(path, RATE, x.astype(fmt))
    else:
        write_pcm(path, WAV_FORMATS[fmt], x)  # 24-bit through the stdlib


def wav_chunks(blob: bytes) -> dict[bytes, bytes]:
    """The chunk payloads, by id, of a well-formed little-endian WAV file."""
    chunks, pos = {}, 12
    while pos < len(blob):
        size = int.from_bytes(blob[pos + 4 : pos + 8], "little")
        chunks[blob[pos : pos + 4]] = blob[pos + 8 : pos + 8 + size]
        pos += 8 + size + size % 2
    return chunks


# left and right channels on the grid every PCM width represents exactly
GRID = np.array([[-1.0, 0.25], [-0.5, 0.0], [0.0, -0.5], [0.25, -1.0]])
