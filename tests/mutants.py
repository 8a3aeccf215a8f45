"""Committed mutants of the audited code paths: each one must make its named tests fail.

Run from the repository root, for every mutant or for those named:

    python tests/mutants.py [NAME ...]

A mutant is a file under `src/`, an exact text that occurs in it once, its
replacement, and the test node ids that must catch it.  First the named
tests of the chosen mutants run once on the unchanged `src/`, and must
pass.  Then, for each mutant, the runner copies `src/` to a temporary
directory, makes the one replacement there, and runs that mutant's tests
with the copy first on the path.  The checkout is never written: the tests
run from the temporary directory, with no bytecode or pytest cache written.
A mutant survives when its tests pass; the runner names every survivor and
exits 1.  It exits 2 if a mutant's text does not occur exactly once or the
unchanged tests fail, and 0 when every mutant is killed.

The standard library alone runs it, and pytest does not collect it.  A
surviving mutant is a gap in the tests: close it with a test that kills the
mutant, and keep the mutant.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


EJ = "src/jaco_gutman/edge_joint.py"
TEST_EJ = "tests/test_edge_joint.py"

MUTANTS = (
    Mutant(
        "ball sums widened one round late",
        EJ,
        "if (r + 1) * most >= _INT64_SAFE and acc.dtype != object:",
        "if r * most >= _INT64_SAFE and acc.dtype != object:",
        (f"{TEST_EJ}::test_ball_sums_widen_at_the_first_round_past_the_int64_bound",),
    ),
    Mutant(
        "a check's ok compares the direct value with itself",
        EJ,
        "return self.closed_form == self.direct",
        "return self.direct == self.direct",
        (
            "tests/test_cli.py::TestErratumNamesTheFirstFailure::test_joint_point",
            "tests/test_cli.py::TestErratumNamesTheFirstFailure::test_anchor_check",
        ),
    ),
    Mutant(
        "the own anchor's bridge weight dropped from the balls",
        EJ,
        "        inside += has_v\n",
        "",
        (
            f"{TEST_EJ}::TestClosedForm::test_grid_closed_matches_direct",
            f"{TEST_EJ}::test_audit_stacks_are_the_composed_graphs",
        ),
    ),
    Mutant(
        "the published constant 4 printed as 3",
        EJ,
        "+ s_g * s_h + 4",
        "+ s_g * s_h + 3",
        (f"{TEST_EJ}::TestClosedForm::test_frozen_trivial_rows",),
    ),
    Mutant(
        "m's anchor drawn before n's",
        EJ,
        "vi, uj = randint(1, g.order), randint(1, h.order)",
        "uj, vi = randint(1, h.order), randint(1, g.order)",
        (f"{TEST_EJ}::TestJointCheck::test_anchor_grid_draws_n_then_m",),
    ),
)


def _pytest(src: Path, tests: list[str], work: Path) -> bool:
    """Whether `tests` pass with `src` first on the path, run from `work`."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]).rstrip(os.pathsep)}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *(str(ROOT / t) for t in tests)]
    return subprocess.run(argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutant {unknown[0]!r}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    for mutant in chosen:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            print(f"mutant {mutant.name!r}: its text occurs {count} times in {mutant.path}", file=sys.stderr)
            return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if not _pytest(ROOT / "src", sorted({t for m in chosen for t in m.tests}), work):
            print("the mutants' tests fail on the unchanged source", file=sys.stderr)
            return 2
        for mutant in chosen:
            copy = work / "src"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = work / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            killed = not _pytest(copy, list(mutant.tests), work)
            print(f"{'killed' if killed else 'SURVIVED'}: {mutant.name}")
            if not killed:
                survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
