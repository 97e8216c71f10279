"""WAV ingestion and emission, in numpy alone.

`read_wav` parses RIFF/WAVE files and their big-endian twin, RIFX. It
reads PCM in containers of 1 to 4 bytes and float32 / float64, from a
plain or a `WAVE_FORMAT_EXTENSIBLE` `fmt ` chunk, with any number of
channels; chunks it does not know are skipped, as is the pad byte after
an odd-sized chunk. It returns float64 samples, shape (n,) for mono and
(n, channels) otherwise. PCM is scaled to [-1, 1): 8-bit, which is
unsigned, as (u - 128) / 128, a wider container as its signed value over
2**(8 * width - 1), so 16-bit by 1/32768 and 24- and 32-bit by 1/2**31
once left-justified in 32 bits.

A `ValueError` that starts with the path rejects a file that is not
RIFF/WAVE (RF64 by name); one with no `fmt ` or `data` chunk or with a
chunk cut short; a header with no channels or a `block_align` that is
not channels x container width; a `data` chunk that ends inside a frame;
A-law, μ-law, PCM wider than 4 bytes and any other format but PCM and
float32 / float64, each named; and a file with no samples or one holding
a NaN or an infinity.

`write_wav` writes a float WAV with the array's channel count: float32
for a float32 array, float64 for any other, so a caller chooses the width
by the array it passes. The layout is RIFF, an 18-byte `fmt ` chunk, a
`fact` chunk holding the frame count, then `data`.
"""

from __future__ import annotations

import struct

import numpy as np

__all__ = ["read_wav", "write_wav"]

PCM, IEEE_FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
_KINDS = {PCM: "PCM", IEEE_FLOAT: "float", 0x0006: "A-law", 0x0007: "μ-law"}
_BITS = {PCM: range(1, 33), IEEE_FLOAT: (32, 64)}  # the supported bits per sample
# the last 8 bytes of every KSDATAFORMAT_SUBTYPE GUID; a format tag leads it
_GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _chunks(riff: memoryview, e: str) -> dict[bytes, memoryview]:
    """The chunks after a RIFF form's 12-byte header, the first of each id; a
    `fmt ` chunk of at least 16 bytes must come before the `data` chunk."""
    pos, chunks = 12, {}
    while pos < len(riff):
        if pos + 8 > len(riff):
            raise ValueError("chunk header cut short")
        cid, (size,) = bytes(riff[pos : pos + 4]), struct.unpack(e + "I", riff[pos + 4 : pos + 8])
        if pos + 8 + size > len(riff):
            raise ValueError(f"{cid!r} chunk cut short: {len(riff) - pos - 8} of {size} bytes")
        if cid == b"data" and len(chunks.get(b"fmt ", b"")) < 16:
            raise ValueError("no 'fmt ' chunk of 16 bytes or more before the 'data' chunk")
        chunks.setdefault(cid, riff[pos + 8 : pos + 8 + size])
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    return chunks


def _decode(blob: memoryview) -> tuple[int, np.ndarray]:
    """(rate, float64 samples of shape (n, channels)) of a WAV file's bytes."""
    if len(blob) < 12 or blob[:4] not in (b"RIFF", b"RIFX") or blob[8:12] != b"WAVE":
        rf64 = blob[:4] == b"RF64"
        raise ValueError("RF64 files are not supported" if rf64 else "not a RIFF/WAVE file")
    e = "<" if blob[:4] == b"RIFF" else ">"
    (size,) = struct.unpack(e + "I", blob[4:8])
    if 8 + size > len(blob):
        raise ValueError(f"RIFF chunk cut short: {len(blob) - 8} of {size} bytes")
    chunks = _chunks(blob[: 8 + size], e)
    if b"data" not in chunks:
        raise ValueError("no 'data' chunk")
    fmt, data = chunks[b"fmt "], chunks[b"data"]
    # the byte rate, rate x block_align by definition, is not read
    tag, channels, rate, _, block_align, bits = struct.unpack(e + "HHIIHH", fmt[:16])
    if tag == EXTENSIBLE:  # the format tag leads the subformat GUID
        if len(fmt) < 40 or fmt[28:40] != struct.pack(e + "HH", 0, 16) + _GUID_TAIL:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE with an unknown subformat")
        (tag,) = struct.unpack(e + "I", fmt[24:28])
    if bits not in _BITS.get(tag, ()):
        raise ValueError(f"{bits}-bit {_KINDS.get(tag, f'format {tag:#06x}')} is not supported")
    if channels == 0:
        raise ValueError("the header declares 0 channels")
    width = (bits + 7) // 8  # bytes per sample container
    if block_align != channels * width:
        raise ValueError(f"block_align {block_align} is not {channels} channels x {width} bytes")
    if len(data) % block_align:
        raise ValueError(f"'data' chunk of {len(data)} bytes ends inside a frame")
    if tag == IEEE_FLOAT:
        return rate, np.frombuffer(data, f"{e}f{width}").astype(np.float64).reshape(-1, channels)
    raw = np.frombuffer(data, np.uint8).reshape(-1, width)[:, :: 1 if e == "<" else -1]
    word = np.zeros((len(raw), 4), np.uint8)  # little-endian int32, sample in the high bytes
    for j in range(width):  # a column at a time: numpy copies rows of 1 to 3 bytes slowly
        word[:, 4 - width + j] = raw[:, j]
    word[:, 3] ^= 0x80 if width == 1 else 0  # 8-bit PCM is unsigned: u - 128 as a signed byte
    return rate, (word.view("<i4") / 2.0**31).reshape(-1, channels)


def read_wav(path: str) -> tuple[int, np.ndarray]:
    """Read a WAV file as (sample_rate, float64 samples), one column per channel."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        rate, samples = _decode(memoryview(blob))
    except ValueError as exc:
        raise ValueError(f"{path}: cannot read as WAV: {exc}") from exc
    if len(samples) == 0:
        raise ValueError(f"{path}: no samples")
    bad = np.count_nonzero(~np.isfinite(samples))
    if bad:
        raise ValueError(f"{path}: {bad} non-finite samples (NaN or inf)")
    return rate, samples[:, 0] if samples.shape[1] == 1 else samples


def write_wav(path: str, rate: int, samples: np.ndarray) -> None:
    """Write (n,) or (n, channels) samples as a float WAV file: 32-bit for a
    float32 array, 64-bit for any other."""
    samples = np.asarray(samples)
    data = np.ascontiguousarray(samples, "<f4" if samples.dtype == np.float32 else "<f8")
    channels, width = 1 if data.ndim == 1 else data.shape[1], data.itemsize
    # RIFF; fmt with tag, channels, rate, byte rate, block_align, bits, cbSize; fact; data
    header = struct.pack(
        "<4sI4s4sIHHIIHHH4sII4sI", b"RIFF", 50 + data.nbytes, b"WAVE", b"fmt ", 18, IEEE_FLOAT,
        channels, rate, rate * channels * width, channels * width, 8 * width, 0,
        b"fact", 4, len(data), b"data", data.nbytes,
    )  # fmt: skip
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
