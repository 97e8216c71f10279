"""Run the mutant catalogue of `tools/mutants.py` against the test suite.

    python tools/run_mutants.py

Copies `src/`, `tests/` and `pyproject.toml` (which holds the pytest
settings) of the tree this script sits in to a temporary directory, and
checks that every catalogued test that pytest collects there passes.
Then, one mutant at a time, it applies the mutant to the copy, runs each
of the mutant's test IDs with pytest, and restores the file. A mutant is

* killed when every one of its tests fails,
* survived when one of them passes,
* stale when its old text does not occur exactly once in its file, or
  when one of its test IDs is not collected (the line names the IDs).

Hypothesis runs its fixed example sequence (the "ci" profile of
`tests/conftest.py`), so a result repeats from run to run. Exits 1 if a
mutant survived or is stale, or if a pytest run ended in neither a pass
nor a failure. Needs pytest and the package's own dependencies, nothing
else.
"""

from __future__ import annotations

import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = runpy.run_path(str(ROOT / "tools" / "mutants.py"))["MUTANTS"]


def run_pytest(tree: Path, *ids: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=ci", *ids],
        cwd=tree, env=env, capture_output=True, text=True,
    )  # fmt: skip


def collected(tree: Path, ids: set[str]) -> set[str]:
    """The test IDs among `ids` that pytest collects in tree; a parametrized
    function's ID counts when its cases are collected."""
    files = {t.partition("::")[0] for t in ids}
    files = sorted(f for f in files if (tree / f).is_file())  # pytest exits 4 on a missing path
    nodes = set(run_pytest(tree, "--collect-only", *files).stdout.splitlines())
    return ids & (nodes | {n.partition("[")[0] for n in nodes})


def run_mutant(tree: Path, mutant) -> str:
    """"killed", "survived" or "stale"; raises RuntimeError if pytest errs."""
    path = tree / "src" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new))
    try:
        for test in mutant.kills:
            run = run_pytest(tree, test)
            if run.returncode == 0:
                return "survived"
            if run.returncode != 1:  # 1: tests failed; anything else is no verdict
                raise RuntimeError(f"{mutant.id}: pytest {test} exited {run.returncode}\n{run.stdout}")
        return "killed"
    finally:
        path.write_text(text)


def main() -> int:
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        shutil.copytree(ROOT / "src", tree / "src")
        shutil.copytree(ROOT / "tests", tree / "tests")
        shutil.copy(ROOT / "pyproject.toml", tree)
        known = collected(tree, {t for m in MUTANTS for t in m.kills})
        # pytest exits 4, running nothing, on an ID it cannot collect
        baseline = run_pytest(tree, *sorted(known))
        if baseline.returncode != 0:
            print(f"the catalogued tests do not pass unmutated:\n{baseline.stdout}")
            return 1
        verdicts = []
        for mutant in MUTANTS:
            missing = [t for t in mutant.kills if t not in known]
            verdict = "stale" if missing else run_mutant(tree, mutant)
            verdicts.append(verdict)
            note = f": not collected: {', '.join(missing)}" if missing else ""
            print(f"{verdict:9} {mutant.id} ({mutant.file}){note}", flush=True)
    counts = ", ".join(f"{verdicts.count(v)} {v}" for v in ("killed", "survived", "stale"))
    print(f"{len(MUTANTS)} mutants: {counts} in {time.perf_counter() - t0:.1f} s")
    return 0 if verdicts.count("killed") == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
