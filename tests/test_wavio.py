import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from inputs import (
    GRID, RATE, WAV_FORMATS, on_format_grid, pcm_fmt, riff, wav_chunks, whole_wav,
    write_in_format, write_pcm,
)  # fmt: skip
from spadeclip.wavio import read_wav, write_wav


def test_read_wav_skips_unknown_chunks(tmp_path):
    # an odd-sized unknown chunk before the data is skipped with its pad byte, not refused
    chunks = wav_chunks(whole_wav(tmp_path / "whole.wav", np.int16))
    src = tmp_path / "junk.wav"
    src.write_bytes(pcm_file(chunks[b"fmt "], chunks[b"data"], (b"junk", b"\1" * 3)))
    _, loaded = read_wav(str(src))
    assert loaded.tobytes() == read_wav(str(tmp_path / "whole.wav"))[1].tobytes()


def pcm_file(fmt: bytes, data: bytes = bytes(4), *extra: tuple[bytes, bytes]) -> bytes:
    """A WAV file of the given `fmt ` and `data` payloads, the chunks of extra between them."""
    return riff((b"fmt ", fmt), *extra, (b"data", data))


@pytest.mark.parametrize(
    "blob,message",
    [
        (b"RF64" + bytes(4) + b"WAVE", "RF64"),
        (b"RIFF" + struct.pack("<I", 4) + b"AVI ", "not a RIFF/WAVE file"),
        (riff((b"data", bytes(4))), "no 'fmt ' chunk of 16 bytes"),
        (riff((b"fmt ", pcm_fmt())), "no 'data' chunk"),
        (pcm_file(pcm_fmt(block_align=1, bits=8, tag=6)), "A-law"),
        (pcm_file(pcm_fmt(block_align=1, bits=8, tag=7)), "μ-law"),
        (pcm_file(pcm_fmt(block_align=3, bits=24, tag=3), bytes(6)), "24-bit float"),
        (pcm_file(pcm_fmt(tag=2)), "format 0x0002"),
        # a 5-byte container, two whole samples of it
        (pcm_file(pcm_fmt(block_align=5, bits=33), bytes(10)), "33-bit PCM"),
        (
            # a GUID whose tail is not KSDATAFORMAT_SUBTYPE's
            pcm_file(pcm_fmt(tag=0xFFFE) + struct.pack("<HHIIHH", 22, 16, 0, 1, 0, 16) + bytes(8)),
            "unknown subformat",
        ),
        (pcm_file(pcm_fmt()[:14]), "no 'fmt ' chunk of 16 bytes"),
        (pcm_file(pcm_fmt(channels=2, block_align=4), bytes(6)), "inside a frame"),
        # inside a whole RIFF chunk: a data chunk of 4 bytes that declares 8, a bare chunk size
        (pcm_file(pcm_fmt()).replace(b"data\x04", b"data\x08"), "4 of 8 bytes"),
        (riff((b"fmt ", pcm_fmt()), (b"data", bytes(4)), (b"", b"")), "chunk header cut short"),
        # every chunk whole, but the RIFF chunk declares 2 bytes more than the file holds
        (
            b"RIFF" + struct.pack("<I", 42) + pcm_file(pcm_fmt())[8:],
            "RIFF chunk cut short: 40 of 42 bytes",
        ),
    ],
    ids=["rf64", "avi", "no-fmt", "no-data", "a-law", "mu-law", "float24", "adpcm", "pcm33",
         "extensible-unknown", "fmt-short", "partial-frame", "data-cut", "header-cut",
         "riff-cut"],
)  # fmt: skip
def test_read_wav_names_what_it_rejects(tmp_path, blob, message):
    src = tmp_path / "bad.wav"
    src.write_bytes(blob)
    prefix = f"^{re.escape(str(src))}: cannot read as WAV: "
    with pytest.raises(ValueError, match=f"{prefix}.*{message}"):
        read_wav(str(src))


@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_pcm_widths_decode_to_the_grid(tmp_path, bits):
    path = tmp_path / f"pcm{bits}.wav"
    write_pcm(path, bits, GRID)
    rate, loaded = read_wav(str(path))
    assert rate == RATE
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, GRID)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_wav_rejects_non_finite(tmp_path, bad):
    y = np.zeros((64, 2), dtype=np.float32)
    y[10, 1] = bad
    src = tmp_path / "bad.wav"
    wavfile.write(src, RATE, y)
    with pytest.raises(ValueError, match="1 non-finite"):
        read_wav(str(src))


def test_read_wav_rejects_empty_float_file(tmp_path):
    src = tmp_path / "empty.wav"
    wavfile.write(src, RATE, np.zeros((0, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="no samples"):
        read_wav(str(src))


@pytest.mark.parametrize("dtype", [np.int16, np.float32], ids=["pcm16", "float32"])
def test_read_wav_rejects_every_truncation(tmp_path, dtype):
    blob = whole_wav(tmp_path / "whole.wav", dtype)
    cut = tmp_path / "cut.wav"
    # every cut inside the header, then an odd stride: cuts fall at every byte of a sample
    for size in [*range(64), *range(64, len(blob), 97), len(blob) - 1]:
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "):
            read_wav(str(cut))


SUBFORMAT_TAIL = bytes.fromhex("800000aa00389b71")  # a KSDATAFORMAT_SUBTYPE GUID's last 8 bytes


def scipy_decode(path) -> np.ndarray:
    """The samples scipy reads from path, scaled as read_wav documents."""
    _, data = wavfile.read(path)
    if data.dtype == np.uint8:
        return (data - 128.0) / 128.0
    if data.dtype.kind == "i":  # scipy left-justifies 24-bit PCM in int32
        return data / 2.0 ** (8 * data.dtype.itemsize - 1)
    return data.astype(np.float64)


def rewrap(blob: bytes, *, extensible=False, extra=(), big=False) -> bytes:
    """The samples of blob, a plain little-endian WAV file, in another file:
    a WAVE_FORMAT_EXTENSIBLE `fmt ` chunk if extensible, the (id, payload)
    chunks of extra before the data, and RIFX byte order if big."""
    chunks, e = wav_chunks(blob), ">" if big else "<"
    tag, *fields = struct.unpack("<HHIIHH", chunks[b"fmt "][:16])
    fmt = struct.pack(e + "HHIIHH", 0xFFFE if extensible else tag, *fields)
    bits = fields[-1]
    if extensible:  # cbSize, valid bits, channel mask, the GUID {tag-0000-0010-8000-00AA00389B71}
        fmt += struct.pack(e + "HHIIHH", 22, bits, 0, tag, 0, 0x10) + SUBFORMAT_TAIL
    data = chunks[b"data"]
    if big:  # every sample's bytes reversed
        data = np.frombuffer(data, np.uint8).reshape(-1, bits // 8)[:, ::-1].tobytes()
    return riff((b"fmt ", fmt), *extra, (b"data", data), big=big)


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(sorted(WAV_FORMATS)),
    channels=st.integers(1, 3),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    extensible=st.booleans(),
    junk=st.integers(0, 3),
    big=st.booleans(),
)
def test_read_wav_decodes_as_scipy(fmt, channels, n, seed, extensible, junk, big):
    x = on_format_grid(np.random.default_rng(seed).uniform(-1, 0.99, (n, channels)), fmt)
    with tempfile.TemporaryDirectory() as tmp:
        plain, src = Path(tmp) / "plain.wav", Path(tmp) / "src.wav"
        write_in_format(plain, fmt, x)
        odd = (b"odd ", bytes(range(2 * junk + 1)))  # an unknown chunk followed by a pad byte
        src.write_bytes(rewrap(plain.read_bytes(), extensible=extensible, extra=[odd], big=big))
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):  # the odd chunk
            expected = scipy_decode(src)
        rate, samples = read_wav(str(src))
    assert rate == RATE
    assert samples.shape == expected.shape
    assert samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("fmt", sorted(WAV_FORMATS))
def test_read_wav_reads_rifx_as_its_riff_twin(tmp_path, fmt):
    riff_path, rifx_path = tmp_path / "riff.wav", tmp_path / "rifx.wav"
    write_in_format(riff_path, fmt, GRID)
    rifx_path.write_bytes(rewrap(riff_path.read_bytes(), big=True))
    assert rifx_path.read_bytes()[:4] == b"RIFX"
    rate, samples = read_wav(str(rifx_path))
    assert rate == RATE
    assert samples.tobytes() == read_wav(str(riff_path))[1].tobytes() == GRID.tobytes()


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int16])
def test_write_wav_writes_scipys_bytes(tmp_path, dtype, channels):
    x = (np.random.default_rng(channels).standard_normal((5, channels)) * 1000).astype(dtype)
    x = x[:, 0] if channels == 1 else x
    write_wav(str(tmp_path / "ours.wav"), RATE, x)
    # any array but a float32 one is written as float64
    wavfile.write(tmp_path / "scipy.wav", RATE, x if dtype is np.float32 else x.astype(np.float64))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
