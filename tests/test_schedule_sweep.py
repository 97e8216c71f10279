"""Smoke test of `tools/schedule_sweep.py` at the benchmark's tiny size."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP = runpy.run_path(str(ROOT / "tools" / "schedule_sweep.py"))


def test_sweep_compares_each_schedule_with_the_papers():
    rows = list(SWEEP["sweep"]([1], "tiny", steps=(1, 2), rates=(1,)))
    assert [(r["workload"], r["variant"], r["s"]) for r in rows] == [
        (w, v, s)
        for w in ("bursty", "cli-short-files")
        for v in ("aspade", "sspade", "sspade-dr")
        for s in (1, 2)
    ]
    for row in rows:
        assert row["inputs"] == {"bursty": 1, "cli-short-files": 2}[row["workload"]]
        assert 0 <= row["nonconverged"] <= row["solved"]
        if row["s"] == 1:  # the paper's setting against itself
            assert (row["iters"], row["cpu"], row["paired"]) == (1, 1, (0, 0, 0))
            assert (row["lose_1db"], row["worst_seed"]) == (0, 0)
        else:  # k grows twice as fast: about half the iterations
            assert 0.4 < row["iters"] < 0.7


def test_main_prints_a_header_and_one_line_per_schedule(capsys):
    argv = ["--seeds", "1", "--size", "tiny", "--workloads", "bursty", "--variants", "aspade"]
    assert SWEEP["main"]([*argv, "--steps", "1,4", "--rates", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == SWEEP["HEADER"]
    assert [line.split()[:4] for line in lines[2:]] == [
        ["bursty", "aspade", "1", "1"],
        ["bursty", "aspade", "4", "1"],
    ]
