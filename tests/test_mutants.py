"""The mutant catalogue stays applicable: no mutant is run here (`tools/run_mutants.py` runs them)."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_old_text_occurs_once_and_its_tests_exist(mutant):
    # a change that rewrites a mutated line restates its mutant
    assert (ROOT / "src" / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.kills
    for test in mutant.kills:
        path, _, name = test.partition("::")
        name = re.sub(r"\[.*\]$", "", name)  # a parametrized case names its function
        assert f"def {name}(" in (ROOT / path).read_text(), test
