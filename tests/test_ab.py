"""`tools/ab.py` at the benchmark's tiny size."""

import runpy
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AB = runpy.run_path(str(ROOT / "tools" / "ab.py"))
CELLS = [(w, v) for w in ("bursty", "cli-short-files") for v in ("aspade", "sspade", "sspade-dr")]


def test_time_sees_a_changed_schedule_in_its_variant_only(tmp_path):
    # the parent's A-SPADE steps k by 1, as the paper does, where this tree's steps it by 4
    shutil.copytree(ROOT / "src" / "spadeclip", tmp_path / "spadeclip")
    solvers = tmp_path / "spadeclip" / "solvers.py"
    text = solvers.read_text()
    assert text.count("Variant.ASPADE: (4, 1),") == 1
    solvers.write_text(text.replace("Variant.ASPADE: (4, 1),", "Variant.ASPADE: (1, 1),"))
    rows = list(AB["time_ab"](tmp_path, size="tiny", passes=2))
    assert [(row["workload"], row["variant"]) for row in rows] == CELLS
    for row in rows:
        if row["variant"] == "aspade":
            assert row["iters"] < 1 and not row["identical"]
        else:
            assert (row["iters"], row["identical"], row["paired"]) == (1.0, True, (0, 0, 0))


def test_main_reads_this_tree_against_itself_as_identical(monkeypatch, capsys):
    monkeypatch.setitem(AB["main"].__globals__, "SIZE", "tiny")
    assert AB["main"](["time", str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("seeds [1], size tiny, 6 passes; change/parent")
    assert lines[1] == AB["HEADER"]
    assert [line.split()[:2] for line in lines[2:]] == [[w, v] for w, v in CELLS]
    for line in lines[2:]:
        assert "×1.000 yes" in line and "+0.00 [+0.00, +0.00]" in line


def test_schedule_compares_each_schedule_with_the_papers():
    rows = list(AB["schedules"]([1], "tiny", steps=(1, 2), rates=(1,)))
    assert [(r["workload"], r["variant"], r["s"], r["r"]) for r in rows] == [
        (w, v, s, 1) for w, v in CELLS for s in (1, 2)
    ]
    for row in rows:
        assert row["inputs"] == {"bursty": 1, "cli-short-files": 2}[row["workload"]]
        assert 0 <= row["nonconverged"] <= row["solved"]
        if row["s"] == 1:  # the paper's setting against itself
            assert (row["iters"], row["cpu"], row["paired"]) == (1, (1, 1, 1), (0, 0, 0))
            assert (row["identical"], row["lose_1db"], row["worst_seed"]) == (True, 0, 0)
        else:  # k grows twice as fast: about half the iterations
            assert 0.4 < row["iters"] < 0.7 and not row["identical"]


def test_main_schedule_prints_a_header_and_one_line_per_schedule(monkeypatch, capsys):
    monkeypatch.setitem(AB["main"].__globals__, "SIZE", "tiny")
    assert AB["main"](["schedule", "--seeds", "1", "--steps", "1,4", "--rates", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seeds [1], size tiny, 1 pass; each (s, r) over (1, 1)"
    assert lines[1] == AB["HEADER"]
    assert [line.split()[:4] for line in lines[2:]] == [
        [w, v, s, "1"] for w, v in CELLS for s in ("1", "4")
    ]
