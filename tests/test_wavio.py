import re
import struct

import numpy as np
import pytest

from inputs import GRID, RATE, pcm_fmt, riff, wav_chunks, whole_wav, write_pcm
from spadeclip.wavio import read_wav


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
