"""Smoke test of the benchmark at a tiny size.

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that the correctness gate trips on a corrupted output, and that the
benchmark refuses to run without the package source.
"""

from __future__ import annotations

import importlib.util
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


def _bench(workload, trace):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0",
             "--trace", str(trace), "--size", "tiny"]
        )  # fmt: skip
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def test_spec_lists_the_benchmark_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    code, result = _bench(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"])
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] != 0


def _corrupt_first_reliable(y, restored):
    restored = np.array(restored, copy=True)
    k = int(np.flatnonzero(np.abs(y) < 0.1)[0])
    restored[k] += 1e-3
    return restored


def test_gate_trips_on_corrupted_library_output(monkeypatch):
    import spadeclip

    declip = spadeclip.declip_signal

    def corrupted(y, *args, **kwargs):
        restored, report = declip(y, *args, **kwargs)
        return _corrupt_first_reliable(y, restored), report

    monkeypatch.setattr(spadeclip, "declip_signal", corrupted)
    code, result = _bench("bursty", 0)
    assert code == run.EXIT_FAILED
    assert result["correct"] is False


def test_gate_trips_on_corrupted_cli_output(monkeypatch):
    import spadeclip.cli

    write = spadeclip.cli.write_wav

    def corrupted(path, rate, samples):
        write(path, rate, _corrupt_first_reliable(samples, samples))

    monkeypatch.setattr(spadeclip.cli, "write_wav", corrupted)
    code, result = _bench("cli-short-files", 0)
    assert code == run.EXIT_FAILED
    assert result["correct"] is False


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda y, out: out.__setitem__(0, out[0] + 1e-9), "reliable"),
        (lambda y, out: out.__setitem__(int(np.argmax(y)), 0.0), "clipped"),
        (lambda y, out: out.__setitem__(1, np.nan), "non-finite"),
    ],
)
def test_gate_names_each_violation(change, message):
    theta = 0.5
    y = np.clip(np.sin(np.linspace(0, 6, 200)), -theta, theta)
    out = y.copy()
    out[y >= theta] = 0.7
    out[y <= -theta] = -0.7
    run.check_output("ok", y, theta, out)
    change(y, out)
    with pytest.raises(run.GateError, match=message):
        run.check_output("bad", y, theta, out)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "bursty",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
