"""`tools/ab.py time` at the benchmark's tiny size."""

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
            assert (row["iters"], row["identical"]) == (1.0, True)


def test_main_reads_this_tree_against_itself_as_identical(monkeypatch, capsys):
    monkeypatch.setitem(AB["main"].__globals__, "SIZE", "tiny")
    assert AB["main"](["time", str(ROOT / "src")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("size tiny, 6 timed passes; change over parent")
    assert lines[1] == AB["HEADER"]
    assert [line.split()[:2] + line.split()[-2:] for line in lines[2:]] == [
        [w, v, "×1.000", "yes"] for w, v in CELLS
    ]
