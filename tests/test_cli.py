import csv
import importlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import wave
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import spadeclip
from contracts import assert_in_box
from spadeclip.cli import main
from spadeclip.feasible import DEFAULT_DELTA_DETECT, detect_masks, hard_clip, project_gamma
from spadeclip.frames import make_frame
from spadeclip.metrics import sdr
from spadeclip.pipeline import declip_signal
from spadeclip.segmentation import SegmentationPlan, overlap_add, restrict_frames
from spadeclip.solvers import SolverParams, Variant, solve_batch
from spadeclip.verification import CheckReport
from spadeclip.wavio import read_wav, write_wav

RATE = 8000
# the CSV schema README documents, for `declip --csv` and `bench`
CSV_HEADER = (
    "variant,theta,redundancy,sdr_in_db,sdr_out_db,sdr_clipped_db,mean_iters,runtime_s"
).split(",")


def sparse_signal(n=2048, amp=1.0):
    t = np.arange(n)
    x = (
        np.sin(2 * np.pi * 16 * t / n + 0.2)
        + 0.6 * np.sin(2 * np.pi * 44 * t / n + 1.0)
        + 0.35 * np.sin(2 * np.pi * 92 * t / n + 2.1)
    )
    return amp * x / np.max(np.abs(x))


@pytest.fixture
def clean_wav(tmp_path):
    path = tmp_path / "clean.wav"
    # a float32 file: write_wav keeps the width of the array it is given
    write_wav(str(path), RATE, sparse_signal(amp=0.8).astype(np.float32))
    return path


def run_cli(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([str(a) for a in args])
    return code, buf.getvalue()


def assert_refused(workdir, code, pattern, *args):
    """The CLI's failure contract for a run on args: exit code (2 for a bad input
    file or setting, 3 for an I/O error), nothing on stdout, one stderr line
    `error: <message>` with the message matching pattern in full, and workdir
    holding the files it held before the run."""
    before = sorted(workdir.rglob("*"))
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_cli(*args) == (code, "")
    assert re.fullmatch(f"error: {pattern}\n", err.getvalue()), err.getvalue()
    assert sorted(workdir.rglob("*")) == before


@pytest.fixture
def refused(monkeypatch):
    """`refused(pattern, y, theta, **kwargs)`: declip_signal(y, theta, SolverParams(),
    **kwargs) raises a ValueError matching pattern before it solves any frame."""

    def no_solve(*args, **kwargs):
        raise AssertionError("a frame was solved before the input was refused")

    def check(pattern, y, theta, **kwargs):
        with pytest.raises(ValueError, match=pattern):
            declip_signal(y, theta, SolverParams(), **kwargs)

    monkeypatch.setattr(spadeclip.pipeline, "solve_batch", no_solve)
    return check


def test_clip_no_op_above_peak(clean_wav, tmp_path):
    out = tmp_path / "copy.wav"
    code, text = run_cli("clip", "--input", clean_wav, "--output", out, "--theta", 0.9)
    assert code == 0
    assert "clipped 0.0000" in text


def test_clip_then_detect_recovers_masks(clean_wav, tmp_path):
    out = tmp_path / "clipped.wav"
    run_cli("clip", "--input", clean_wav, "--output", out, "--theta", 0.3)
    _, x = read_wav(str(clean_wav))
    _, y = read_wav(str(out))
    model = detect_masks(y, 0.3)
    np.testing.assert_array_equal(model.mask_h, x >= 0.3)
    np.testing.assert_array_equal(model.mask_l, x <= -0.3)


def no_such_file(path) -> str:
    """The pattern of the error an open of the missing path raises."""
    return re.escape(f"[Errno 2] No such file or directory: '{path}'")


def test_declip_missing_input(tmp_path):
    src = tmp_path / "nope.wav"
    assert_refused(
        tmp_path, 3, no_such_file(src), "declip", "--input", src, "--output", tmp_path / "o.wav"
    )


@pytest.mark.parametrize("unwritable", ["--csv", "--output"])
def test_declip_that_cannot_write_leaves_neither_file(clean_wav, tmp_path, unwritable):
    paths = {"--output": tmp_path / "out.wav", "--csv": tmp_path / "report.csv"}
    paths[unwritable] = tmp_path / "missing" / paths[unwritable].name
    assert_refused(
        tmp_path, 3, no_such_file(paths[unwritable]),
        "declip", "--input", clean_wav, "--frame-len", 256, "--hop", 64,
        *[a for option, path in paths.items() for a in (option, path)],
    )


@pytest.mark.parametrize("command", ["clip", "bench"])
def test_clip_and_bench_that_cannot_write_leave_nothing(clean_wav, tmp_path, command):
    out = tmp_path / "missing" / "out"
    args = ["--theta", 0.4] if command == "clip" else ["--thetas", 0.5, "--variants", "aspade"]
    assert_refused(
        tmp_path, 3, no_such_file(out), command, "--input", clean_wav, "--output", out, *args
    )


def nan_wav(tmp_path):
    """A float32 file clipped at 0.4 with a NaN at sample 100; the pattern of its error."""
    y = np.clip(sparse_signal(512), -0.4, 0.4).astype(np.float32)
    y[100] = np.nan
    src = tmp_path / "nan.wav"
    wavfile.write(src, RATE, y)
    return src, re.escape(f"{src}: 1 non-finite samples (NaN or inf)")


@pytest.mark.parametrize("theta", ["auto", "0.4"])
def test_declip_rejects_nan_wav(tmp_path, theta):
    src, message = nan_wav(tmp_path)
    args = ["--input", src, "--output", tmp_path / "out.wav", "--theta", theta]
    assert_refused(tmp_path, 2, message, "declip", *args)


@pytest.mark.parametrize("command", ["clip", "bench"])
def test_clip_and_bench_reject_nan_wav(tmp_path, command):
    src, message = nan_wav(tmp_path)
    args = ["--theta", 0.4] if command == "clip" else []
    assert_refused(
        tmp_path, 2, message, command, "--input", src, "--output", tmp_path / "out", *args
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_wav_rejects_non_finite(tmp_path, bad):
    y = np.zeros((64, 2), dtype=np.float32)
    y[10, 1] = bad
    src = tmp_path / "bad.wav"
    wavfile.write(src, RATE, y)
    with pytest.raises(ValueError, match="1 non-finite"):
        read_wav(str(src))


@pytest.mark.parametrize(
    "command,args",
    [
        ("clip", ["--theta", 0.4]),
        ("declip", ["--theta", "auto"]),
        ("declip", ["--theta", 0.4]),
        ("bench", []),
    ],
)
def test_cli_rejects_empty_wav(tmp_path, command, args):
    src = tmp_path / "empty.wav"
    with wave.open(str(src), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(b"")
    assert_refused(
        tmp_path, 2, re.escape(f"{src}: no samples"),
        command, "--input", src, "--output", tmp_path / "out", *args,
    )


def test_read_wav_rejects_empty_float_file(tmp_path):
    src = tmp_path / "empty.wav"
    wavfile.write(src, RATE, np.zeros((0, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="no samples"):
        read_wav(str(src))


def _whole_wav(path, dtype) -> bytes:
    """The bytes of a 4000-sample mono file in the given sample type."""
    x = sparse_signal(4000, amp=0.8)
    wavfile.write(path, RATE, (x * 32767).astype(dtype) if dtype is np.int16 else x.astype(dtype))
    return path.read_bytes()


@pytest.mark.parametrize("dtype", [np.int16, np.float32], ids=["pcm16", "float32"])
def test_read_wav_rejects_every_truncation(tmp_path, dtype):
    blob = _whole_wav(tmp_path / "whole.wav", dtype)
    cut = tmp_path / "cut.wav"
    # every cut inside the header, then an odd stride: cuts fall at every byte of a sample
    for size in [*range(64), *range(64, len(blob), 97), len(blob) - 1]:
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError, match=f"^{re.escape(str(cut))}: "):
            read_wav(str(cut))


@pytest.mark.parametrize("size", [30, 1001])
@pytest.mark.parametrize(
    "command,args",
    [("clip", ["--theta", 0.4]), ("declip", ["--csv", "r.csv"]), ("bench", [])],
    ids=["clip", "declip", "bench"],
)
def test_cli_rejects_a_truncated_wav(tmp_path, monkeypatch, command, args, size):
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "cut.wav"
    src.write_bytes(_whole_wav(tmp_path / "whole.wav", np.int16)[:size])
    message = f"{re.escape(str(src))}: cannot read as WAV: .*"
    assert_refused(tmp_path, 2, message, command, "--input", src, "--output", "out", *args)


def test_read_wav_skips_unknown_chunks(tmp_path):
    # an odd-sized unknown chunk before the data is skipped with its pad byte, not refused
    chunks = wav_chunks(_whole_wav(tmp_path / "whole.wav", np.int16))
    src = tmp_path / "junk.wav"
    src.write_bytes(pcm_file(chunks[b"fmt "], chunks[b"data"], (b"junk", b"\1" * 3)))
    _, loaded = read_wav(str(src))
    assert loaded.tobytes() == read_wav(str(tmp_path / "whole.wav"))[1].tobytes()


def riff(*chunks: tuple[bytes, bytes], big: bool = False) -> bytes:
    """A RIFF WAVE file (RIFX if big) of (id, payload) chunks, each padded to an even size."""
    e = ">" if big else "<"
    body = b"WAVE" + b"".join(
        cid + struct.pack(e + "I", len(payload)) + payload + b"\0" * (len(payload) % 2)
        for cid, payload in chunks
    )
    return (b"RIFX" if big else b"RIFF") + struct.pack(e + "I", len(body)) + body


def wav_chunks(blob: bytes) -> dict[bytes, bytes]:
    """The chunk payloads, by id, of a well-formed little-endian WAV file."""
    chunks, pos = {}, 12
    while pos < len(blob):
        size = int.from_bytes(blob[pos + 4 : pos + 8], "little")
        chunks[blob[pos : pos + 4]] = blob[pos + 8 : pos + 8 + size]
        pos += 8 + size + size % 2
    return chunks


def pcm_fmt(channels=1, block_align=2, bits=16, tag=1, e="<") -> bytes:
    """A 16-byte `fmt ` payload whose byte rate agrees with its block_align."""
    return struct.pack(e + "HHIIHH", tag, channels, RATE, RATE * block_align, block_align, bits)


@pytest.mark.parametrize(
    "channels,block_align,reason",
    [
        (0, 2, "the header declares 0 channels"),
        (2, 0, "block_align 0 is not 2 channels x 2 bytes"),
        (2, 3, "block_align 3 is not 2 channels x 2 bytes"),
    ],
    ids=["no-channels", "block-align-0", "block-align-3-for-2-channels"],
)
def test_declip_rejects_a_malformed_pcm_header(tmp_path, channels, block_align, reason):
    src = tmp_path / "bad.wav"
    src.write_bytes(riff((b"fmt ", pcm_fmt(channels, block_align)), (b"data", bytes(12))))
    message = re.escape(f"{src}: cannot read as WAV: {reason}")
    assert_refused(tmp_path, 2, message, "declip", "--input", src, "--output", tmp_path / "o.wav")


SUBFORMAT_TAIL = bytes.fromhex("800000aa00389b71")  # a KSDATAFORMAT_SUBTYPE GUID's last 8 bytes


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
    ],
    ids=["rf64", "avi", "no-fmt", "no-data", "a-law", "mu-law", "float24", "adpcm", "pcm33",
         "extensible-unknown", "fmt-short", "partial-frame", "data-cut", "header-cut"],
)  # fmt: skip
def test_read_wav_names_what_it_rejects(tmp_path, blob, message):
    src = tmp_path / "bad.wav"
    src.write_bytes(blob)
    prefix = f"^{re.escape(str(src))}: cannot read as WAV: "
    with pytest.raises(ValueError, match=f"{prefix}.*{message}"):
        read_wav(str(src))


@pytest.mark.parametrize("command", ["clip", "declip"])
def test_cli_rejects_nan_theta(clean_wav, tmp_path, command):
    assert_refused(
        tmp_path, 2, "theta must be positive, got nan",
        command, "--input", clean_wav, "--output", tmp_path / "out.wav", "--theta", "nan",
    )


@pytest.mark.parametrize(
    "option,value",
    [
        ("--epsilon", "nan"),
        ("--delta-detect", "nan"),
        ("--redundancy", "inf"),
        ("--redundancy", "nan"),
    ],
)
def test_declip_rejects_non_finite_settings(clean_wav, tmp_path, option, value):
    args = ["--input", clean_wav, "--output", tmp_path / "out.wav", "--theta", 0.5, option, value]
    message = f"{option[2:].replace('-', '_')} must be .*, got {value}"
    assert_refused(tmp_path, 2, message, "declip", *args)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_bench_rejects_non_finite_redundancy(clean_wav, tmp_path, value):
    assert_refused(
        tmp_path, 2, re.escape(f"redundancy must be finite and >= 1, got {value}"),
        "bench", "--input", clean_wav, "--output", tmp_path / "out.csv",
        "--variants", "aspade", "--thetas", 0.5, "--redundancies", value,
    )


def test_bench_has_no_redundancy_option(clean_wav):
    # bench reads only --redundancies
    with pytest.raises(SystemExit) as exc:
        run_cli("bench", "--input", clean_wav, "--redundancy", 1)
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--redundancies", "inf", "redundancy must be finite and >= 1, got inf"),
        ("--epsilon", "nan", "epsilon must be nonnegative, got nan"),
        ("--thetas", "0.5,nan", "theta must be positive, got nan"),  # after the first cell
        ("--variants", "foo", "'foo' is not a valid Variant"),
        ("--variants", "sspade-DR", "'sspade-DR' is not a valid Variant"),
    ],
    ids=["--redundancies-inf", "--epsilon-nan", "--thetas-0.5,nan", "--variants-foo",
         "--variants-sspade-DR"],
)  # fmt: skip
def test_failing_bench_writes_nothing(clean_wav, tmp_path, option, value, message):
    common = ["--input", clean_wav, "--frame-len", 256, "--hop", 64, option, value]
    assert_refused(tmp_path, 2, message, "bench", *common, "--output", tmp_path / "out.csv")
    assert_refused(tmp_path, 2, message, "bench", *common)


def test_declip_theta_auto_is_the_peak(tmp_path):
    # detection admits samples within delta of theta, so theta itself is the
    # peak: a sample 1.5 delta below it is reliable and passes through
    delta = 0.01
    y = np.clip(sparse_signal(512), -0.5, 0.5).astype(np.float32)
    y[200] = np.float32(0.5 - 1.5 * delta)
    src = tmp_path / "auto.wav"
    wavfile.write(src, RATE, y)
    out = tmp_path / "out.wav"
    code, text = run_cli(
        "declip", "--input", src, "--output", out, "--theta", "auto",
        "--delta-detect", delta, "--frame-len", 256, "--hop", 64,
    )
    assert code == 0
    model = detect_masks(y, 0.5, delta)
    assert np.abs(y[model.mask_clipped]).min() < 0.5  # unclipped samples near the peak count too
    assert f"clipped samples: {model.num_clipped} of" in text
    assert model.mask_r[200]
    assert_in_box(read_wav(str(out))[1], model)


def test_bench_defaults_run_every_variant_at_the_default_redundancy(clean_wav):
    code, text = run_cli(
        "bench", "--input", clean_wav, "--thetas", 0.5, "--frame-len", 256, "--hop", 64
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [row["variant"] for row in rows] == [v.value for v in Variant]
    assert [row["redundancy"] for row in rows] == ["2.0"] * len(Variant)


def test_bench_csv_schema_and_rows(clean_wav, tmp_path):
    out = tmp_path / "bench.csv"
    args = [
        "bench",
        "--input", clean_wav,
        "--variants", "aspade,sspade-dr",
        "--thetas", "0.3,0.5",
        "--redundancies", "2",
        "--frame-len", 256,
        "--hop", 64,
    ]
    code, _ = run_cli(*args, "--output", out)
    assert code == 0
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == CSV_HEADER
    assert len(rows) == 4
    for row in rows:
        rec = dict(zip(header, row))
        assert float(rec["sdr_out_db"]) >= float(rec["sdr_in_db"])
    # without --output the same CSV, runtime_s aside, goes to stdout
    code, text = run_cli(*args)
    assert code == 0
    t = CSV_HEADER.index("runtime_s")
    stdout_table = [r[:t] + r[t + 1 :] for r in csv.reader(io.StringIO(text))]
    assert stdout_table == [r[:t] + r[t + 1 :] for r in [header] + rows]


def test_verify_subcommand_passes():
    # the arguments README documents: six checks, each passing
    code, text = run_cli("verify", "--trials", 100, "--seed", 0)
    assert code == 0
    assert [line.partition(" max dev")[0].rstrip() for line in text.splitlines()] == [
        f"PASS  {name}"
        for name in (
            "scaled-form identity",
            "tight frame vs dense matrices",
            "sparse approximation bounds",
            "projection transposition (unitary)",
            "projection transposition (redundant)",
            "unitary variant equivalence",
        )
    ]


def test_verify_exits_1_on_a_check_over_its_tolerance(monkeypatch):
    import spadeclip.verification

    def one_failing_check(config):
        return [CheckReport("scaled-form identity", 2e-12, 1e-12)]

    monkeypatch.setattr(spadeclip.verification, "run_all_checks", one_failing_check)
    code, text = run_cli("verify")
    assert code == 1
    assert text.startswith("FAIL  scaled-form identity")


def test_main_exits_130_on_keyboard_interrupt(monkeypatch):
    import spadeclip.cli

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(spadeclip.cli, "cmd_verify", interrupted)  # build_parser reads it per call
    assert main(["verify"]) == 130


@pytest.mark.parametrize(
    "command,option,value",
    [
        ("declip", "--re", "1.5"),  # --redundancy
        ("declip", "--eps", "0.01"),  # --epsilon
        ("bench", "--var", "aspade"),  # --variants
        ("clip", "--th", "0.5"),  # --theta
        ("verify", "--tr", "2"),  # --trials
    ],
)
def test_options_take_their_full_names_only(clean_wav, tmp_path, capsys, command, option, value):
    out = tmp_path / "out.wav"
    files = {
        "declip": ["--input", clean_wav, "--output", out],
        "bench": ["--input", clean_wav, "--output", tmp_path / "out.csv"],
        "clip": ["--input", clean_wav, "--output", out],
        "verify": [],
    }[command]
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *files, option, value)
    assert exc.value.code == 2
    assert option in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [clean_wav]


# left and right channels on the grid every PCM width represents exactly
GRID = np.array([[-1.0, 0.25], [-0.5, 0.0], [0.0, -0.5], [0.25, -1.0]])


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


@pytest.mark.parametrize("bits", [8, 16, 24, 32])
def test_pcm_widths_decode_to_the_grid(tmp_path, bits):
    path = tmp_path / f"pcm{bits}.wav"
    write_pcm(path, bits, GRID)
    rate, loaded = read_wav(str(path))
    assert rate == RATE
    assert loaded.dtype == np.float64
    np.testing.assert_array_equal(loaded, GRID)


def test_unsupported_sample_type_is_named(tmp_path):
    src = tmp_path / "pcm64.wav"
    wavfile.write(src, RATE, np.zeros(64, dtype=np.int64))
    assert_refused(
        tmp_path, 2, re.escape(f"{src}: cannot read as WAV: 64-bit PCM is not supported"),
        "clip", "--input", src, "--output", tmp_path / "o.wav", "--theta", 0.5,
    )


STEREO_RATE = 44100


def clipped_stereo(n=8000, theta=0.5):
    # the left channel clips at theta, the right one stays far below it
    t = np.arange(n) / STEREO_RATE
    left = np.clip(0.9 * np.sin(2 * np.pi * 440 * t), -theta, theta)
    right = 0.2 * np.sin(2 * np.pi * 300 * t)
    return np.stack([left, right], axis=1).astype(np.float32)


@pytest.mark.parametrize("theta", ["0.5", "auto"])
def test_declip_keeps_channels(tmp_path, theta):
    y = clipped_stereo()
    src = tmp_path / "stereo.wav"
    wavfile.write(src, STEREO_RATE, y)
    out = tmp_path / "out.wav"
    report = tmp_path / "report.csv"
    code, text = run_cli(
        "declip", "--input", src, "--output", out, "--theta", theta,
        "--variant", "sspade", "--csv", report,
    )
    assert code == 0
    rate, restored = read_wav(str(out))
    assert rate == STEREO_RATE and restored.shape == y.shape
    for channel in range(2):  # auto takes the left channel's peak, 0.5
        assert_in_box(restored[:, channel], detect_masks(y[:, channel], 0.5))
    assert "channel 0: clipped samples: 5001 of 8000" in text
    assert "channel 1: clipped samples: 0 of 8000" in text
    with open(report) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 and list(rows[0]) == CSV_HEADER
    assert float(rows[0]["mean_iters"]) > 0 and float(rows[1]["mean_iters"]) == 0


def test_declip_csv_keeps_theta_exact(tmp_path):
    # a PCM16 peak of 9830 reads as 9830/32768, which 4 decimals would round to 0.3
    n = np.arange(4000)
    pcm = np.round(np.clip(1.2 * np.sin(2 * np.pi * 440 * n / RATE), -1, 1) * 9830)
    src = tmp_path / "pcm16.wav"
    wavfile.write(src, RATE, pcm.astype(np.int16))
    report = tmp_path / "report.csv"
    code, _ = run_cli(
        "declip", "--input", src, "--output", tmp_path / "out.wav", "--csv", report,
        "--frame-len", 256, "--hop", 64,
    )
    assert code == 0
    with open(report) as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["theta"]) == 9830 / 32768


@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
def test_declip_theta_auto_on_silence(tmp_path, channels):
    # a silent file has no clipped sample: auto takes theta = inf, as --theta inf does
    shape = (2000,) if channels == 1 else (2000, channels)
    src = tmp_path / "silence.wav"
    wavfile.write(src, RATE, np.zeros(shape, dtype=np.int16))
    rows = {}
    for theta in ("auto", "inf"):
        out, report = tmp_path / f"out-{theta}.wav", tmp_path / f"report-{theta}.csv"
        code, text = run_cli(
            "declip", "--input", src, "--output", out, "--theta", theta, "--csv", report
        )
        assert code == 0
        assert_in_box(read_wav(str(out))[1], detect_masks(np.zeros(shape), np.inf))
        assert text.count("clipped samples: 0 of 2000") == channels
        with open(report) as fh:
            rows[theta] = list(csv.DictReader(fh))
        assert len(rows[theta]) == channels
        for row in rows[theta]:
            for field in ("theta", "sdr_in_db", "sdr_out_db", "sdr_clipped_db"):
                assert row[field] == "inf"
            assert row["mean_iters"] == "0.00"
            del row["runtime_s"]
    assert rows["auto"] == rows["inf"]


def test_declip_of_a_file_within_delta_of_silence(tmp_path):
    # 24-bit dither of +-3 LSB peaks at 3.6e-7, below the default delta of 1e-6:
    # auto takes theta = inf, and an explicit theta within delta is refused
    lsb = np.random.default_rng(0).integers(-3, 4, size=(4000, 1))
    src, out = tmp_path / "dither24.wav", tmp_path / "out.wav"
    args = ["declip", "--input", src, "--output", out]
    write_pcm(src, 24, lsb / 2**23)
    _, y = read_wav(str(src))
    code, text = run_cli(*args)
    assert code == 0
    assert "clipped samples: 0 of 4000" in text
    assert_in_box(read_wav(str(out))[1], detect_masks(y, np.inf))  # every sample reliable
    out.unlink()
    message = re.escape("theta must exceed delta_detect (1e-06), got 5e-07")
    assert_refused(tmp_path, 2, message, *args, "--theta", 5e-7)


def test_bench_rejects_multichannel_reference(tmp_path):
    src = tmp_path / "stereo.wav"
    wavfile.write(src, RATE, clipped_stereo(512))
    message = re.escape(f"bench needs a mono reference; {src} has 2 channels")
    assert_refused(tmp_path, 2, message, "bench", "--input", src, "--output", tmp_path / "b.csv")


def test_bench_names_a_silent_reference(tmp_path):
    src = tmp_path / "silence.wav"
    wavfile.write(src, RATE, np.zeros(2000, dtype=np.int16))
    message = re.escape(f"{src}: reference is silent (all samples are zero)")
    assert_refused(tmp_path, 2, message, "bench", "--input", src, "--output", tmp_path / "b.csv")


def run_fresh(script):
    """Run script in a new interpreter on this checkout's package; the JSON
    value its last line of output prints."""
    src = str(Path(spadeclip.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_no_command_loads_scipy(clean_wav, tmp_path):
    # WAV files are read and written with numpy alone; scipy is a test dependency
    out = tmp_path / "out"
    commands = [
        ["clip", "--input", clean_wav, "--output", out / "clipped.wav", "--theta", "0.5"],
        ["declip", "--input", out / "clipped.wav", "--output", out / "restored.wav"],
        ["bench", "--input", clean_wav, "--output", out / "bench.csv", "--thetas", "0.5",
         "--variants", "sspade"],
        ["verify", "--trials", "2"],
    ]
    argvs = [[str(a) for a in argv] for argv in commands]
    out.mkdir()
    codes, mods = run_fresh(
        "import contextlib, io, json, sys, spadeclip.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [spadeclip.cli.main(argv) for argv in {argvs!r}]\n"
        "mods = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(json.dumps([codes, mods]))\n"
    )
    assert codes == [0, 0, 0, 0]
    assert mods == []


def test_declip_does_not_load_the_oracles(clean_wav, tmp_path):
    # only verify imports spadeclip.verification
    argv = ["declip", "--input", str(clean_wav), "--output", str(tmp_path / "out.wav")]
    code, loaded = run_fresh(
        "import json, sys, spadeclip.cli\n"
        f"code = spadeclip.cli.main({argv!r})\n"
        "print(json.dumps([code, 'spadeclip.verification' in sys.modules]))\n"
    )
    assert code == 0
    assert not loaded


@pytest.mark.parametrize(
    "module",
    ["spadeclip", "spadeclip.segmentation", "spadeclip.metrics", "spadeclip.feasible",
     "spadeclip.solvers", "spadeclip.verification", "spadeclip.frames",
     "spadeclip.pipeline", "spadeclip.wavio"],
)  # fmt: skip
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if getattr(mod, name, None) is None] == []


def test_declip_signal_sdr_fields_against_reference():
    x = sparse_signal(1024)
    y = np.clip(x, -0.4, 0.4)
    restored, report = declip_signal(y, 0.4, SolverParams(), frame_len=256, hop=64, reference=x)
    clipped = ~detect_masks(y, 0.4).mask_r
    assert report.sdr_on_clipped_samples == sdr(x[clipped], restored[clipped])
    assert np.isfinite(report.sdr_on_clipped_samples)
    assert report.sdr_restored == sdr(x, restored)
    assert report.sdr_clipped_input == sdr(x, y)
    # a silent y matches a silent reference exactly: every SDR is inf
    _, silent = declip_signal(
        np.zeros(512), 0.4, SolverParams(), frame_len=256, hop=64, reference=np.zeros(512)
    )
    assert silent.sdr_clipped_input == silent.sdr_restored == np.inf
    assert silent.sdr_on_clipped_samples == np.inf


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_declip_signal_rejects_non_finite(refused, bad):
    y = np.clip(sparse_signal(512), -0.4, 0.4)
    y[100] = bad
    refused("signal holds non-finite", y, 0.4, frame_len=256, hop=64)


def test_declip_signal_rejects_empty_signal(refused):
    refused("empty", np.zeros(0), 0.4)


def test_declip_signal_on_silence_returns_silence():
    restored, report = declip_signal(np.zeros(2000), 0.5, SolverParams())
    assert_in_box(restored, detect_masks(np.zeros(2000), 0.5))
    assert report.num_clipped == 0
    assert all(f.iterations == 0 for f in report.per_frame)
    for value in (
        report.sdr_clipped_input, report.sdr_restored, report.sdr_on_clipped_samples
    ):
        assert value == np.inf


def test_declip_signal_rejects_nan_theta(refused):
    y = np.clip(sparse_signal(512), -0.4, 0.4)
    refused("theta", y, float("nan"), frame_len=256, hop=64)


def test_declip_signal_rejects_a_multichannel_y(refused):
    y = np.clip(np.stack([sparse_signal(50), sparse_signal(50)], axis=1), -0.4, 0.4)
    refused(r"y must be one-dimensional, got shape \(50, 2\)", y, 0.4, frame_len=16, hop=8)


def test_declip_signal_rejects_a_reference_of_another_shape(refused, monkeypatch):
    def no_detection(*args, **kwargs):
        raise AssertionError("detection ran before the reference was checked")

    monkeypatch.setattr(spadeclip.pipeline, "detect_masks", no_detection)
    x = sparse_signal(512)
    y = np.clip(x, -0.4, 0.4)
    refused(r"reference has shape \(511,\), y has shape \(512,\)", y, 0.4, reference=x[:-1])
    # no SDR against a silent reference is defined unless y is silent too
    refused("reference is all-zero but y is not", y, 0.4, reference=np.zeros(512))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_declip_signal_rejects_a_non_finite_reference(refused, bad):
    # an SDR against it would be NaN, silently
    x = sparse_signal(512)
    y = np.clip(x, -0.4, 0.4)
    x[7] = bad
    refused("reference holds non-finite samples", y, 0.4, frame_len=256, hop=64, reference=x)


def test_declip_signal_rejects_a_reference_zero_on_every_clipped_sample(refused):
    x = sparse_signal(512)
    y = np.clip(x, -0.4, 0.4)
    x[np.abs(x) >= 0.4] = 0  # not all-zero, but no SDR on the clipped samples is defined
    clipped = np.count_nonzero(np.abs(y) >= 0.4)
    refused(f"reference is zero on all {clipped} clipped samples", y, 0.4, reference=x)


def test_pipeline_batch_equals_frames_solved_alone():
    # the batched solve gives each frame exactly what it gets solved alone, as a batch of one
    x = sparse_signal(1024)
    x[300:700] *= 0.3  # a quiet stretch: some frames hold no clipped sample
    y = np.clip(x, -0.4, 0.4)
    plan = SegmentationPlan(len(y), 256, 64)
    op = make_frame(256, 2)
    model = detect_masks(y, 0.4)
    frames = restrict_frames(model, plan)
    for variant in Variant:
        params = SolverParams(variant=variant)
        batched, report = declip_signal(y, 0.4, params, frame_len=256, hop=64)
        alone = [solve_batch(frames.select([m]), op, params) for m in range(plan.num_frames)]
        expected = project_gamma(overlap_add(np.array([out[0] for out, _ in alone]), plan), model)
        np.testing.assert_array_equal(batched, expected)
        assert report.per_frame == [stats[0] for _, stats in alone]
        assert 0 < sum(f.iterations == 0 for f in report.per_frame) < plan.num_frames


def _short_tones(count, frame_len, hop):
    """Seeded three-partial tones of peak 1, each below one frame or off the hop grid."""
    rng = np.random.default_rng(0)
    tones = []
    while len(tones) < count:
        n = int(rng.integers(frame_len // 4, 2 * frame_len))
        if n >= frame_len and (n - frame_len) % hop == 0:
            continue  # on the hop grid: no frame reaches past the end
        t = np.arange(n)
        p = rng.uniform(0, 2 * np.pi, 3)
        x = (
            np.sin(2 * np.pi * 4 * t / frame_len + p[0])
            + 0.6 * np.sin(2 * np.pi * 11 * t / frame_len + p[1])
            + 0.35 * np.sin(2 * np.pi * 23 * t / frame_len + p[2])
        )
        tones.append(x / np.max(np.abs(x)))
    return tones


@pytest.mark.parametrize(
    "variant,bar",
    [(Variant.ASPADE, 20.0), (Variant.SSPADE_ORIG, 14.0), (Variant.SSPADE_DR, 16.0)],
)
def test_declip_signal_median_sdr_gain_over_short_tones(variant, bar):
    # every tone's last frame reaches past its end; the SDR gain on one short
    # signal is chaotic, so the bar is on the family's median
    gains = []
    for x in _short_tones(24, frame_len=256, hop=64):
        y = hard_clip(x, 0.5)
        restored, _ = declip_signal(y, 0.5, SolverParams(variant=variant), frame_len=256, hop=64)
        gains.append(sdr(x, restored) - sdr(x, y))
    assert np.median(gains) >= bar


@pytest.mark.parametrize("theta", [0.7, 0.45])
@pytest.mark.parametrize("variant", ["aspade", "sspade", "sspade-dr"])
def test_declip_float32_output_keeps_clipped_samples_beyond_theta(tmp_path, variant, theta):
    # theta is not a float32 value: a restored sample of exactly theta rounds
    # inside (-theta, theta) when the output is narrowed to float32
    y = np.clip(sparse_signal(n=2000, amp=1.2), -theta, theta).astype(np.float32)
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    wavfile.write(src, RATE, y)
    code, _ = run_cli(
        "declip", "--input", src, "--output", out, "--variant", variant, "--theta", theta,
        "--frame-len", 256, "--hop", 64,
    )
    assert code == 0
    _, restored = wavfile.read(out)
    assert restored.dtype == np.float32
    model = detect_masks(y, theta)
    assert model.num_clipped > 0
    assert_in_box(restored, model)


# PCM bit depths; None for the float formats
WAV_FORMATS = {"pcm8": 8, "pcm16": 16, "pcm24": 24, "pcm32": 32, "float32": None, "float64": None}


def _on_format_grid(x, fmt):
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
    x = _on_format_grid(np.random.default_rng(seed).uniform(-1, 0.99, (n, channels)), fmt)
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


@st.composite
def declip_wav_cases(draw):
    fmt = draw(st.sampled_from(sorted(WAV_FORMATS)))
    channels = draw(st.integers(1, 3))
    frame_len = draw(st.sampled_from([16, 32]))
    hop = draw(st.integers(frame_len // 4, frame_len))
    n = draw(st.integers(1, 3 * frame_len))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, channels))
    x *= 0.9 / np.max(np.abs(x))
    if draw(st.booleans()):
        x[:, draw(st.integers(0, channels - 1))] = 0  # a silent channel
    if fmt.startswith("float") and draw(st.booleans()):  # PCM cannot store -0.0
        start = draw(st.integers(0, n - 1))
        run = x[start : start + draw(st.integers(1, n)), draw(st.integers(0, channels - 1))]
        run[:] = np.where(np.arange(run.size) % 2, 0.0, -0.0)  # reliable: theta > 2 delta
    # a clip level the format stores exactly, so clipped samples read back at +-theta
    theta = float(_on_format_grid(np.array(draw(st.floats(0.2, 1.2)) * 0.9), fmt))
    y = _on_format_grid(np.clip(x, -theta, theta), fmt)
    theta_arg = draw(st.sampled_from(["auto", repr(theta)]))
    variant = draw(st.sampled_from([v.value for v in Variant]))
    return fmt, y, frame_len, hop, theta_arg, variant


@settings(max_examples=100, deadline=None)
@given(declip_wav_cases())
def test_declip_wav_keeps_the_invariants(case):
    fmt, y, frame_len, hop, theta_arg, variant = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.wav", Path(tmp) / "out.wav"
        write_in_format(src, fmt, y)
        _, y = read_wav(str(src))  # as the CLI reads it: shape (n,) when mono
        code, _ = run_cli(
            "declip", "--input", src, "--output", out, "--theta", theta_arg,
            "--variant", variant, "--frame-len", frame_len, "--hop", hop,
        )
        assert code == 0
        _, raw = wavfile.read(out)
        _, restored = read_wav(str(out))
    if fmt not in ("pcm32", "float64"):  # float32 holds every sample of the others
        assert raw.dtype == np.float32
    assert restored.shape == y.shape
    peak = float(np.max(np.abs(y)))
    auto = peak if peak > DEFAULT_DELTA_DETECT else np.inf  # within delta of silence: inf
    theta = auto if theta_arg == "auto" else float(theta_arg)
    for channel, out_channel in zip(np.atleast_2d(y.T), np.atleast_2d(restored.T)):
        assert_in_box(out_channel, detect_masks(channel, theta))


@st.composite
def clip_wav_cases(draw):
    fmt = draw(st.sampled_from(sorted(WAV_FORMATS)))
    channels = draw(st.integers(1, 3))
    n = draw(st.integers(16, 200))  # enough samples that a PCM32 file is no float32 file
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, channels))
    x = _on_format_grid(x * 0.9 / np.max(np.abs(x)), fmt)
    # off every grid but float64's: clipping makes samples the input format does not hold
    theta = draw(st.floats(0.1, 0.85))
    assume(float(np.float32(theta)) != theta)
    assume(float(_on_format_grid(np.array(theta), "pcm32")) != theta)
    return fmt, x, theta


@settings(max_examples=100, deadline=None)
@given(clip_wav_cases())
def test_clip_wav_keeps_the_invariants(case):
    fmt, x, theta = case
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.wav", Path(tmp) / "out.wav"
        write_in_format(src, fmt, x)
        _, x = read_wav(str(src))  # as the CLI reads it: shape (n,) when mono
        code, _ = run_cli("clip", "--input", src, "--output", out, "--theta", repr(theta))
        assert code == 0
        _, raw = wavfile.read(out)
        _, y = read_wav(str(out))
    assert (raw.dtype == np.float32) == (fmt not in ("pcm32", "float64"))
    assert y.shape == x.shape
    clipped = np.abs(x) >= theta
    # compared in float64, bit for bit
    assert y[~clipped].tobytes() == x[~clipped].tobytes()
    assert np.all(np.sign(y[clipped]) == np.sign(x[clipped]))
    if raw.dtype == np.float64:
        assert np.all(np.abs(y[clipped]) == theta)
    else:  # theta is no float32 value: a clipped sample steps one float32 step outward
        assert np.all(np.abs(y[clipped]) >= theta)
        assert np.all(np.abs(y[clipped]) - theta <= np.spacing(np.float32(theta)))


def test_clip_then_declip_of_a_float64_file_is_the_in_memory_declip(tmp_path):
    theta = 0.7
    n = np.arange(4000)
    x = np.sin(2 * np.pi * 440 * n / RATE) + 0.6 * np.sin(2 * np.pi * 1100 * n / RATE + 1.0)
    x = 1.2 * x / np.max(np.abs(x))
    src, clipped, out = tmp_path / "in.wav", tmp_path / "clipped.wav", tmp_path / "out.wav"
    wavfile.write(src, RATE, x)
    assert run_cli("clip", "--input", src, "--output", clipped, "--theta", theta)[0] == 0
    code, _ = run_cli("declip", "--input", clipped, "--output", out, "--theta", theta)
    assert code == 0
    _, restored = wavfile.read(out)
    assert restored.dtype == np.float64
    expected, _ = declip_signal(hard_clip(x, theta), theta, SolverParams())
    assert restored.tobytes() == expected.tobytes()
