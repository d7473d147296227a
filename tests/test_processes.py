"""Determinism across processes: the same document gives byte-identical
logs and reports in interpreters started with different hash seeds, so
no output depends on the iteration order of a str-keyed set or dict."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from test_golden_logs import TICKS, _generated_document

import sopra
from sopra.scenarios import bundled_document

HASH_SEEDS = ("0", "1")


def _sopra(args: list[str], hash_seed: str) -> subprocess.CompletedProcess:
    # `python -m sopra` in a fresh interpreter, on the package under test.
    src = str(Path(sopra.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "sopra", *args],
                          capture_output=True, text=True, env=env)


def _write(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_run_logs_do_not_depend_on_the_hash_seed(tmp_path):
    # Relocations, feasibility extensions and uniform tie-breaks.
    doc = _generated_document("mean")
    assert doc["environment"]["relocations"]
    assert doc["globals"]["extensionsEnabled"] is True
    assert doc["globals"]["tieBreak"] == "uniform"
    scenario = _write(tmp_path, doc)
    logs = []
    for seed in HASH_SEEDS:
        out = tmp_path / f"out-{seed}"
        proc = _sopra(["run", "--scenario", scenario, "--ticks", str(TICKS),
                       "--seed", "3", "--out", str(out)], seed)
        assert proc.returncode == 0, proc.stderr
        logs.append([(out / name).read_bytes() for name in ("events.csv", "metrics.csv")])
    assert logs[0] == logs[1]
    assert logs[0][0].count(b"\n") == 1 + TICKS * len(doc["agents"])


def test_validate_report_does_not_depend_on_the_hash_seed(tmp_path):
    doc = bundled_document("commuting")
    doc["habitualConnections"][0]["strength"] = 1.7
    doc["valuePriorities"][1]["personalView"] = -0.25
    doc["agents"][0]["location"] = "bobs_car"
    doc["activityConnections"].append(
        {"child": "commuting", "parent": "go_to_work", "relation": "IsA"})
    doc["habitualConnections"].append(
        {"agent": "bob", "activity": "teleport_to_work", "contextElement": "Home",
         "strength": 0.5, "personalView": 0.5})
    scenario = _write(tmp_path, doc)
    reports = []
    for seed in HASH_SEEDS:
        proc = _sopra(["validate", scenario], seed)
        assert proc.returncode == 2, proc.stderr
        reports.append(proc.stdout)
    assert reports[0] == reports[1]
    kinds = {line.split(":", 1)[0] for line in reports[0].splitlines()}
    assert {"view-range", "disjointness", "cycle", "dangling-reference"} <= kinds
