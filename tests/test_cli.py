import csv
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import spadeclip
from contracts import assert_in_box
from inputs import (
    RATE, WAV_FORMATS, on_format_grid, pcm_fmt, riff, sparse_signal, whole_wav, write_in_format,
    write_pcm,
)  # fmt: skip
from spadeclip.cli import main
from spadeclip.feasible import DEFAULT_DELTA_DETECT, detect_masks, hard_clip
from spadeclip.pipeline import declip_signal
from spadeclip.solvers import SolverParams, Variant
from spadeclip.verification import CheckReport
from spadeclip.wavio import read_wav, write_wav

# the CSV schema README documents, for `declip --csv` and `bench`
CSV_HEADER = (
    "variant,theta,redundancy,sdr_in_db,sdr_out_db,sdr_clipped_db,mean_iters,runtime_s"
).split(",")


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


SPELLINGS = ["same", "dot-segment", "symlinked-dir"]


def spelled(tmp_path, name, spelling):
    """(path, spelling): tmp_path/d/name, and that path spelled the given way."""
    (tmp_path / "d").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "d", target_is_directory=True)
    path = str(tmp_path / "d" / name)
    return path, {
        "same": path,
        "dot-segment": f"{tmp_path}/d/./{name}",  # a str: pathlib would drop the "."
        "symlinked-dir": str(tmp_path / "link" / name),
    }[spelling]


# a write at a path that is another option's file would destroy that file,
# however the path is spelled
@pytest.mark.parametrize("spelling", SPELLINGS)
def test_declip_refuses_a_csv_at_its_output_path(clean_wav, tmp_path, spelling):
    out, csv_path = spelled(tmp_path, "o.wav", spelling)
    message = re.escape(f"--csv {csv_path} and --output {out} name the same file")
    args = ["--input", clean_wav, "--output", out, "--theta", 0.5, "--csv", csv_path]
    assert_refused(tmp_path, 2, message, "declip", *args)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_declip_refuses_a_csv_at_its_input_path(clean_wav, tmp_path, spelling):
    src, csv_path = spelled(tmp_path, "in.wav", spelling)
    os.replace(clean_wav, src)
    message = re.escape(f"--csv {csv_path} and --input {src} name the same file")
    args = ["--input", src, "--output", tmp_path / "o.wav", "--theta", 0.5, "--csv", csv_path]
    assert_refused(tmp_path, 2, message, "declip", *args)


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("command", ["clip", "declip"])
def test_clip_and_declip_refuse_an_output_at_their_input_path(clean_wav, tmp_path, command, spelling):
    src, out = spelled(tmp_path, "in.wav", spelling)
    os.replace(clean_wav, src)
    data = Path(src).read_bytes()
    message = re.escape(f"--output {out} and --input {src} name the same file")
    assert_refused(tmp_path, 2, message, command, "--input", src, "--output", out, "--theta", 0.5)
    assert Path(src).read_bytes() == data


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_bench_refuses_an_output_at_its_input_path(clean_wav, tmp_path, spelling):
    src, out = spelled(tmp_path, "clean.wav", spelling)
    os.replace(clean_wav, src)
    message = re.escape(f"--output {out} and --input {src} name the same file")
    args = ["--input", src, "--output", out, "--thetas", 0.5, "--variants", "aspade"]
    assert_refused(tmp_path, 2, message, "bench", *args)


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
    write_pcm(src, 16, np.zeros((0, 1)))
    assert_refused(
        tmp_path, 2, re.escape(f"{src}: no samples"),
        command, "--input", src, "--output", tmp_path / "out", *args,
    )


@pytest.mark.parametrize("size", [30, 1001])
@pytest.mark.parametrize(
    "command,args",
    [("clip", ["--theta", 0.4]), ("declip", ["--csv", "r.csv"]), ("bench", [])],
    ids=["clip", "declip", "bench"],
)
def test_cli_rejects_a_truncated_wav(tmp_path, monkeypatch, command, args, size):
    monkeypatch.chdir(tmp_path)
    src = tmp_path / "cut.wav"
    src.write_bytes(whole_wav(tmp_path / "whole.wav", np.int16)[:size])
    message = f"{re.escape(str(src))}: cannot read as WAV: .*"
    assert_refused(tmp_path, 2, message, command, "--input", src, "--output", "out", *args)


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
    # each variant runs its own schedule, the one SolverParams gives it
    x = read_wav(str(clean_wav))[1]
    theta = 0.5 * np.max(np.abs(x))
    for row, variant in zip(rows, Variant):
        _, report = declip_signal(
            hard_clip(x, theta), theta, SolverParams(variant=variant), frame_len=256, hop=64
        )
        assert row["mean_iters"] == f"{report.mean_iterations:.2f}"


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
    import spadeclip.verification

    def interrupted(config):
        raise KeyboardInterrupt

    # verify looks the checks up when it runs; the parser is built once per process
    monkeypatch.setattr(spadeclip.verification, "run_all_checks", interrupted)
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
    theta = float(on_format_grid(np.array(draw(st.floats(0.2, 1.2)) * 0.9), fmt))
    y = on_format_grid(np.clip(x, -theta, theta), fmt)
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
    x = on_format_grid(x * 0.9 / np.max(np.abs(x)), fmt)
    # off every grid but float64's: clipping makes samples the input format does not hold
    theta = draw(st.floats(0.1, 0.85))
    assume(float(np.float32(theta)) != theta)
    assume(float(on_format_grid(np.array(theta), "pcm32")) != theta)
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


@pytest.mark.parametrize("schedule", [(), ("--s", 1, "--r", 1)], ids=["default", "paper"])
@pytest.mark.parametrize("variant", list(Variant), ids=[v.value for v in Variant])
def test_declip_runs_the_variants_schedule_unless_given_one(tmp_path, variant, schedule):
    # without --s/--r the variant's own schedule; --s 1 --r 1 is the paper's setting
    theta = 0.5
    y = np.clip(sparse_signal(2000, amp=1.2), -theta, theta)
    src, out = tmp_path / "in.wav", tmp_path / "out.wav"
    wavfile.write(src, RATE, y)
    code, _ = run_cli(
        "declip", "--input", src, "--output", out, "--variant", variant.value, "--theta", theta,
        "--frame-len", 256, "--hop", 64, *schedule,
    )  # fmt: skip
    assert code == 0
    params = SolverParams(s=1, r=1, variant=variant) if schedule else SolverParams(variant=variant)
    expected, _ = declip_signal(y, theta, params, frame_len=256, hop=64)
    assert wavfile.read(out)[1].tobytes() == expected.tobytes()


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
