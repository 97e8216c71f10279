"""The mutant catalogue stays applicable: no mutant is run here (`tools/run_mutants.py` runs them)."""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_MUTANTS = runpy.run_path(str(ROOT / "tools" / "run_mutants.py"))
MUTANTS = RUN_MUTANTS["MUTANTS"]


@pytest.fixture(scope="session")
def collected_kills():
    """The catalogue's kill IDs that pytest collects, as `tools/run_mutants.py` finds them."""
    return RUN_MUTANTS["collected"](ROOT, {t for m in MUTANTS for t in m.kills})


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_old_text_occurs_once_and_its_tests_exist(mutant, collected_kills):
    # a change that rewrites a mutated line restates its mutant
    assert (ROOT / "src" / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.kills
    assert [t for t in mutant.kills if t not in collected_kills] == []
    # spadeclip/<m>.py is tested in tests/test_<m>.py, and that file kills the module's mutants
    assert any(t.startswith(f"tests/test_{Path(mutant.file).stem}.py::") for t in mutant.kills)
