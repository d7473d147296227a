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
    ("no duplicate activity connection report", "sopra/model.py",
     '("child", "parent", "relation"), "activity connection")',
     '("child", "parent", "relation"))',
     ("tests/test_validate.py",)),
    ("no sequential-takes-PartOf report", "sopra/validate.py",
     "        elif c.relation is not _CHILD_RELATION[ptype]:\n",
     "        elif ptype is ActivityType.ABSTRACT and c.relation is not _CHILD_RELATION[ptype]:\n",
     ("tests/test_validate.py",)),
    ("a cycle's path not closed", "sopra/validate.py",
     "cycle = trail[trail.index(node):] + [node]",
     "cycle = trail[trail.index(node):]",
     ("tests/test_malformed_reports.py",)),
    ("the frontier walk passes over a childless composite", "sopra/hierarchy.py",
     "        elif not kids:\n            raise ScenarioError(",
     "        elif not kids:\n            continue\n            raise ScenarioError(",
     ("tests/test_hierarchy.py",)),
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
    ("reference fields walked against declared order (an agent's parent first)",
     "sopra/validate.py",
     "for fl in sec.fields if fl.refs is not None)\n",
     "for fl in sec.fields if fl.refs is not None)[::-1]\n",
     ("tests/test_malformed_reports.py",)),
    ("row sections walked in reverse order", "sopra/validate.py",
     "    for sec in ROW_SECTIONS:\n        rows = attrgetter(sec.attr)(s)\n"
     "        refs = []\n",
     "    for sec in ROW_SECTIONS[::-1]:\n        rows = attrgetter(sec.attr)(s)\n"
     "        refs = []\n",
     ("tests/test_malformed_reports.py",)),
    ("a None reference skipped at a required site", "sopra/validate.py",
     "if token is None and fl.optional:\n                    continue",
     "if token is None:\n                    continue",
     ("tests/test_validate.py",)),
    ("a parent of its own kind may be any element", "sopra/validate.py",
     'pool = row.kind if fl.refs == "own kind" else fl.refs',
     'pool = "element" if fl.refs == "own kind" else fl.refs',
     ("tests/test_malformed_reports.py", "tests/test_validate.py")),
    ("the row reader takes unknown keys", "sopra/scenario.py",
     "            if not known.issuperset(obj):\n",
     "            if False:\n",
     ("tests/test_malformed_reports.py",)),
    ("the column reader takes unknown keys", "sopra/scenario.py",
     "                or not known.issuperset(set().union(*raw))):",
     "                or False):",
     ("tests/test_malformed_reports.py",)),
    ("decayRate's interval [0, 1) read as [0, 1]", "sopra/model.py",
     '_Field("decayRate", "number", within="[0, 1)")',
     '_Field("decayRate", "number", within="[0, 1]")',
     ("tests/test_validate.py",)),
    ("an open low end read as closed", "sopra/validate.py",
     "lo = math.nextafter(lo, math.inf)",
     "lo = lo",
     ("tests/test_validate.py",)),
    ("no resources-over-budget report", "sopra/validate.py",
     "if type(resources) is int and type(budget) is int and resources > budget:",
     "if False:",
     ("tests/test_validate.py",)),
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
