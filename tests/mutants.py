"""Mutation gate: each seeded mutant of `src/` must be killed by its tests.

Run from anywhere in a checkout::

    python tests/mutants.py

Each mutant names a file under `src/`, an exact source snippet, its
replacement, and the test files expected to kill it. For each one, a
fresh copy of `src/` is made in a temporary directory, the snippet is
replaced there (never in the tree), and the named test files run with
`-x` against that copy. The gate exits 1 if a snippet does not occur
exactly once in its file, or if the tests pass on a mutant (it
survives). A test said to fail without a check adds its mutant here.

pytest does not collect this file: its name does not match `test_*.py`.
Only the standard library and pytest are needed.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (name, file under src/, snippet, replacement, test files that must fail)
MUTANTS: list[tuple[str, str, str, str, tuple[str, ...]]] = [
    ("no duplicate activity connection report", "sopra/validate.py",
     "        if edge in seen_edges:\n",
     "        if False:\n",
     ("tests/test_validate.py",)),
    ("no sequential-takes-PartOf report", "sopra/validate.py",
     "        elif ptype is ActivityType.SEQUENTIAL and c.relation is not RelationType.PART_OF:\n",
     "        elif False:\n",
     ("tests/test_validate.py",)),
    ("values name no pool", "sopra/model.py",
     '_VALUE = _Field("value", "ident", "value")',
     '_VALUE = _Field("value", "ident")',
     ("tests/test_malformed_reports.py",)),
    ("a habitual connection's agent and activity fields swapped", "sopra/model.py",
     "(_AGENT, _ACTIVITY, _ELEMENT, *_VIEWS)",
     "(_ACTIVITY, _AGENT, _ELEMENT, *_VIEWS)",
     ("tests/test_malformed_reports.py",)),
    ("habitual connections cited by their activity", "sopra/model.py",
     '(_AGENT, _ACTIVITY, _ELEMENT, *_VIEWS), "[{0.agent}]"',
     '(_AGENT, _ACTIVITY, _ELEMENT, *_VIEWS), "[{0.activity}]"',
     ("tests/test_malformed_reports.py",)),
    ("an agent's location reported before its parent", "sopra/validate.py",
     '_REFS["agents"] = _REFS["agents"][::-1]\n',
     "\n",
     ("tests/test_malformed_reports.py",)),
    ("a None reference skipped at a required site", "sopra/validate.py",
     "if token is None and fl.optional or token in pool(fl.refs, row):",
     "if token is None or token in pool(fl.refs, row):",
     ("tests/test_validate.py",)),
    ("a parent of its own kind may be any element", "sopra/validate.py",
     'return pools.get(row.kind, set()) if refs == "own kind"',
     'return pools["element"] if refs == "own kind"',
     ("tests/test_malformed_reports.py", "tests/test_validate.py")),
]


def run_mutant(source: str, rel: str, tests: tuple[str, ...]) -> tuple[bool, str]:
    """(killed, pytest output) for one mutant source of `src/<rel>`."""
    with tempfile.TemporaryDirectory(prefix="sopra-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / rel).write_text(source, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src)}
        where = subprocess.run([sys.executable, "-c", "import sopra; print(sopra.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).is_relative_to(src):
            raise RuntimeError(f"the mutant copy is shadowed by {where.stdout.strip()}")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            env=env, cwd=ROOT, capture_output=True, text=True)
    out = run.stdout + run.stderr
    # Exit code 1 is "tests failed"; any other non-zero code is an error.
    return run.returncode == 1 and re.search(r"\d+ failed", out) is not None, out


def main() -> int:
    problems = []
    for name, rel, snippet, replacement, tests in MUTANTS:
        source = (ROOT / "src" / rel).read_text(encoding="utf-8")
        count = source.count(snippet)
        if count != 1:
            problems.append(f"{name}: the snippet occurs {count} times in src/{rel}")
            print(f"STALE     {name}", flush=True)
            continue
        killed, out = run_mutant(source.replace(snippet, replacement), rel, tests)
        print(f"{'killed' if killed else 'SURVIVED':9} {name}", flush=True)
        if not killed:
            problems.append(f"{name}: {' '.join(tests)} did not fail\n{out[-2000:]}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
