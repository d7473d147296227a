"""Determinism across processes and kernels: the same document gives
byte-identical logs and reports in interpreters started with different
hash seeds, on every available kernel backend, so no output depends on
the iteration order of a str-keyed set or dict, or on the kernel."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_golden_logs import TICKS, _generated_document
from test_malformed_reports import DEEP_MIXED

import sopra
from sopra import ScenarioError, build_scenario
from sopra._kernel import available_backends
from sopra.scenarios import bundled_document

HASH_SEEDS = ("0", "1")
BACKENDS = sorted(available_backends())

# `python -m sopra` after loading the compiled kernel from the file named
# by the first argument, if any: tests/conftest.py may have built it
# outside the package, where a fresh interpreter would not find it.
_BOOTSTRAP = """\
import importlib.util, runpy, sys
kernel = sys.argv.pop(1)
if kernel:
    spec = importlib.util.spec_from_file_location("sopra._kernel._chabits", kernel)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[spec.name] = module
runpy.run_module("sopra", run_name="__main__", alter_sys=True)
"""


def _sopra(args: list[str], hash_seed: str, backend: str) -> subprocess.CompletedProcess:
    # A fresh interpreter, on the package under test and the kernel this
    # session loaded, with SOPRA_KERNEL forcing `backend`.
    src = str(Path(sopra.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path, SOPRA_KERNEL=backend)
    compiled = sys.modules.get("sopra._kernel._chabits")
    kernel = compiled.__file__ if compiled is not None else ""
    return subprocess.run([sys.executable, "-c", _BOOTSTRAP, kernel, *args],
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
    logs = {}
    for backend in BACKENDS:
        for seed in HASH_SEEDS:
            out = tmp_path / f"out-{backend}-{seed}"
            proc = _sopra(["run", "--scenario", scenario, "--ticks", str(TICKS),
                           "--seed", "3", "--out", str(out)], seed, backend)
            assert proc.returncode == 0, proc.stderr
            logs[backend, seed] = [(out / name).read_bytes()
                                   for name in ("events.csv", "metrics.csv")]
    first = logs["python", HASH_SEEDS[0]]
    assert all(log == first for log in logs.values())
    assert first[0].count(b"\n") == 1 + TICKS * len(doc["agents"])


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
    for backend in BACKENDS:
        for seed in HASH_SEEDS:
            proc = _sopra(["validate", scenario], seed, backend)
            assert proc.returncode == 2, proc.stderr
            reports.append(proc.stdout)
    assert all(report == reports[0] for report in reports)
    kinds = {line.split(":", 1)[0] for line in reports[0].splitlines()}
    assert {"view-range", "disjointness", "cycle", "dangling-reference"} <= kinds


def test_build_report_does_not_depend_on_the_hash_seed(tmp_path):
    # Large view sections with problems in every one of them: the builder
    # reads such sections a column at a time, through sets of ids, and
    # its report must still follow the document.
    doc = bundled_document("commuting")
    DEEP_MIXED(doc)
    with pytest.raises(ScenarioError) as exc:
        build_scenario(doc, check_refs=False)
    assert len(exc.value.problems) == 11
    want = f"error: {exc.value}\n"
    scenario = _write(tmp_path, doc)
    for backend in BACKENDS:
        for seed in HASH_SEEDS:
            proc = _sopra(["validate", scenario], seed, backend)
            assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", want)
