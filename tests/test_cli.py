from __future__ import annotations

import csv
import gc
import json
import os
import shutil
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import pytest
from helpers import mutation_fixtures
from test_golden_logs import _generated_document

import sopra
from sopra import build_scenario
from sopra.cli import main
from sopra.engine import EVENTS_HEADER
from sopra.scenarios import bundled_document, list_bundled


@pytest.fixture
def scenario_file(tmp_path, commuting_doc):
    path = tmp_path / "commuting.json"
    path.write_text(json.dumps(commuting_doc), encoding="utf-8")
    return str(path)


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", scenario_file]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_reports_violations(tmp_path, capsys):
    doc, _ = mutation_fixtures()["view-range"]
    assert main(["validate", _write(tmp_path, doc)]) == 2
    assert "view-range:" in capsys.readouterr().out


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path):
    assert main(["validate", str(tmp_path / "absent.json")]) == 1


def test_validate_non_object_document(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    assert main(["validate", str(path)]) == 1


def test_run_writes_outputs(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario_file, "--ticks", "8",
                 "--out", str(out)]) == 0
    events = (out / "events.csv").read_text()
    metrics = (out / "metrics.csv").read_text()
    assert events.startswith("tick,agent,activity,mode,pressure,score,location,timepoint\n")
    assert len(events.rstrip("\n").split("\n")) == 1 + 16
    assert metrics.startswith("tick,habitual_fraction,count_")
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("ticks=8 agents=2 final_habitual_fraction=0.")


def _csv_records(path: Path) -> list[list[str]]:
    # Every line of the file must be exactly one CSV record.
    with path.open(encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    assert len(records) == path.read_text(encoding="utf-8").count("\n")
    return records


@pytest.mark.parametrize("name", [*list_bundled(), "generated"])
def test_run_csvs_read_back_one_record_per_line(name, tmp_path):
    doc = _generated_document("mean") if name == "generated" else bundled_document(name)
    out = tmp_path / "out"
    assert main(["run", "--scenario", _write(tmp_path, doc), "--ticks", "40",
                 "--out", str(out)]) == 0
    agents = {a["id"] for a in doc["agents"]}
    elements = {e["id"] for e in doc["contextElements"]}
    atomic_ids = build_scenario(doc).index.atomic_ids

    header, *rows = _csv_records(out / "events.csv")
    assert header == EVENTS_HEADER.split(",")
    assert len(rows) == 40 * len(agents)
    for row in rows:
        assert len(row) == len(header)
        _, agent, activity, _, _, _, location, timepoint = row
        assert agent in agents
        assert activity in atomic_ids
        assert location in elements
        assert timepoint == "" or timepoint in elements

    header, *rows = _csv_records(out / "metrics.csv")
    assert header[2:-3] == [f"count_{a}" for a in atomic_ids]
    assert [row[0] for row in rows] == [str(t) for t in range(40)]
    assert all(len(row) == len(header) for row in rows)


def test_run_rejects_negative_ticks_before_anything_else(tmp_path, capsys):
    missing = str(tmp_path / "absent.json")
    assert main(["run", "--scenario", missing, "--ticks", "-1"]) == 1
    assert "--ticks" in capsys.readouterr().err


def test_run_refuses_overwrite_without_force(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    args = ["run", "--scenario", scenario_file, "--ticks", "2", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert main(args + ["--force"]) == 0


def test_run_leaves_files_named_like_its_temp_files(scenario_file, tmp_path):
    # The outputs go through temp files beside them; a user's files with
    # the names such a temp file could take must survive, and the outputs
    # get the permissions a plain write gives.
    out = tmp_path / "out"
    out.mkdir()
    mine = ["events.csv.tmp", "events.csv.0.tmp", "metrics.csv.0.tmp"]
    for name in mine:
        (out / name).write_text(f"{name} is mine\n", encoding="utf-8")
    assert main(["run", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(out)]) == 0
    for name in mine:
        assert (out / name).read_text(encoding="utf-8") == f"{name} is mine\n"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        mine + ["events.csv", "metrics.csv"])
    plain = tmp_path / "plain.csv"
    plain.write_text("", encoding="utf-8")
    for name in ("events.csv", "metrics.csv"):
        assert (out / name).stat().st_mode == plain.stat().st_mode


def test_run_zero_ticks(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario_file, "--ticks", "0",
                 "--out", str(out)]) == 0
    assert (out / "events.csv").read_text().count("\n") == 1  # header only
    assert "final_habitual_fraction=0.000000" in capsys.readouterr().out


def test_run_override_changes_behavior(scenario_file, tmp_path):
    base = tmp_path / "base"
    high = tmp_path / "high"
    main(["run", "--scenario", scenario_file, "--ticks", "40", "--out", str(base)])
    assert main(["run", "--scenario", scenario_file, "--ticks", "40",
                 "--out", str(high), "--override", "habitThreshold=0.95"]) == 0
    a = (base / "events.csv").read_text()
    b = (high / "events.csv").read_text()
    assert a != b
    # Raising the bar can only shift choices toward the intentional mode.
    assert b.count("Intentional") > a.count("Intentional")


def test_run_rejects_out_of_range_override(scenario_file, tmp_path, capsys):
    assert main(["run", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(tmp_path / "x"),
                 "--override", "habitThreshold=1.1"]) == 1
    assert "habitThreshold" in capsys.readouterr().err


def test_run_rejects_malformed_override(scenario_file, tmp_path, capsys):
    assert main(["run", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(tmp_path / "x"), "--override", "habitThreshold"]) == 1
    assert "override must look like key=value" in capsys.readouterr().err


def test_string_override_accepted(scenario_file, tmp_path):
    assert main(["run", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(tmp_path / "x"),
                 "--override", "pressureAggregation=max"]) == 0


@pytest.mark.parametrize("globals_", [[["decayRate", 0.05]], [1, 2], "abc", None])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_override_leaves_non_object_globals_to_the_builder(tmp_path, commuting_doc, capsys,
                                                            command, globals_):
    doc = dict(commuting_doc, globals=globals_)
    out = tmp_path / "out"
    flag = "--override" if command == "run" else "--param"
    assert main([command, "--scenario", _write(tmp_path, doc), "--ticks", "2",
                 "--out", str(out), flag, "habitThreshold=0.4"]) == 1
    assert capsys.readouterr().err == "error: 'globals' must be an object\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["", "sub"])
def test_run_out_under_a_file_is_an_error(scenario_file, tmp_path, capsys, monkeypatch, sub):
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    monkeypatch.setattr("sopra.cli.World", None)  # must fail before simulating
    assert main(["run", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(afile / sub)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and f"{afile} is not a directory" in err
    assert afile.read_text() == "keep me\n"


def test_run_write_failure_is_an_error(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    (out / "events.csv").mkdir(parents=True)
    assert main(["run", "--scenario", scenario_file, "--ticks", "2", "--out", str(out),
                 "--force"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_out_that_is_a_file_fails_before_simulating(scenario_file, tmp_path, capsys,
                                                          monkeypatch):
    afile = tmp_path / "afile"
    afile.write_text("keep me\n")
    monkeypatch.setattr("sopra.cli.World", None)
    args = ["sweep", "--scenario", scenario_file, "--ticks", "2",
            "--param", "decayRate=0.0,0.1"]
    assert main(args + ["--out", str(afile)]) == 1
    assert f"{afile} is not a directory" in capsys.readouterr().err
    # A run directory that is a file is caught the same way.
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "run_001").write_text("keep me\n")
    assert main(args + ["--out", str(out), "--force"]) == 1
    assert f"{out / 'run_001'} is not a directory" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["run_001"]
    assert afile.read_text() == "keep me\n"


def test_run_dangling_reference_is_a_validation_failure(tmp_path, capsys):
    doc, _ = mutation_fixtures()["dangling-reference"]
    assert main(["run", "--scenario", _write(tmp_path, doc), "--ticks", "2",
                 "--out", str(tmp_path / "x")]) == 2
    assert "dangling-reference:" in capsys.readouterr().out


def test_infer_leaves(scenario_file, capsys):
    assert main(["infer", "--scenario", scenario_file, "--op", "leaves",
                 "--activity", "commuting"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == sorted(lines)
    assert len(lines) == 8
    assert "drive_car_to_school" in lines


def test_infer_leaves_unknown_activity(scenario_file, capsys):
    assert main(["infer", "--scenario", scenario_file, "--op", "leaves",
                 "--activity", "teleport"]) == 1


def test_infer_propagate(scenario_file, capsys):
    assert main(["infer", "--scenario", scenario_file, "--op", "propagate",
                 "--activity", "bring_kids_to_school", "--value", "boring",
                 "--agent", "bob"]) == 0
    assert capsys.readouterr().out.strip() == "bring_kids_to_school boring 0.600000"


def test_infer_propagate_needs_value_and_agent(scenario_file, capsys):
    assert main(["infer", "--scenario", scenario_file, "--op", "propagate",
                 "--activity", "commuting"]) == 1
    assert main(["infer", "--scenario", scenario_file, "--op", "propagate",
                 "--activity", "commuting", "--value", "boring",
                 "--agent", "nobody"]) == 1


def test_sweep_grid(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "10",
                 "--out", str(out),
                 "--param", "habitThreshold=0.3,0.9",
                 "--param", "decayRate=0.0,0.05"]) == 0
    text = (out / "sweep.csv").read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "run,habitThreshold,decayRate,final_habitual_fraction,final_mean_strength"
    assert len(lines) == 5
    assert [l.split(",")[0] for l in lines[1:]] == [f"run_{i:03d}" for i in range(4)]
    for i in range(4):
        assert (out / f"run_{i:03d}" / "events.csv").exists()
        assert (out / f"run_{i:03d}" / "metrics.csv").exists()
    assert "runs=4" in capsys.readouterr().out


def test_sweep_jobs_parity(scenario_file, tmp_path):
    seq = tmp_path / "seq"
    par = tmp_path / "par"
    common = ["sweep", "--scenario", scenario_file, "--ticks", "15",
              "--param", "habitThreshold=0.3,0.6,0.9"]
    assert main(common + ["--out", str(seq)]) == 0
    assert main(common + ["--out", str(par), "--jobs", "3"]) == 0
    assert (seq / "sweep.csv").read_text() == (par / "sweep.csv").read_text()
    for i in range(3):
        assert ((seq / f"run_{i:03d}" / "events.csv").read_text()
                == (par / f"run_{i:03d}" / "events.csv").read_text())


def test_sweep_writes_each_run_before_the_next_starts(scenario_file, tmp_path, monkeypatch):
    # Runs go one at a time: when a run starts, the one before it is on
    # disk, and neither its World nor its logs are reachable any more.
    out = tmp_path / "sweep"
    started: list[tuple[weakref.ref, ...]] = []

    class Logs(list):  # a list that can be weakly referenced
        pass

    class ProbeWorld(sopra.cli.World):
        def run(self, ticks):
            if started:
                previous = out / f"run_{len(started) - 1:03d}"
                assert (previous / "events.csv").read_text().startswith("tick,agent,")
                assert (previous / "metrics.csv").read_text().startswith("tick,")
                gc.collect()
                assert [ref() for ref in started[-1]] == [None, None, None]
            assert not (out / "sweep.csv").exists()
            events, metrics = super().run(ticks)
            events, metrics = Logs(events), Logs(metrics)
            started.append((weakref.ref(self), weakref.ref(events), weakref.ref(metrics)))
            return events, metrics

    monkeypatch.setattr(sopra.cli, "World", ProbeWorld)
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "5", "--out", str(out),
                 "--param", "habitThreshold=0.3,0.6,0.9"]) == 0
    assert len(started) == 3
    assert (out / "sweep.csv").exists()


def test_sweep_jobs_starts_no_thread(scenario_file, tmp_path, monkeypatch):
    common = ["sweep", "--scenario", scenario_file, "--ticks", "15",
              "--param", "habitThreshold=0.3,0.6,0.9", "--param", "decayRate=0.0,0.05"]
    assert main(common + ["--out", str(tmp_path / "seq")]) == 0

    def no_thread(self):
        raise AssertionError("sweep started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(common + ["--out", str(tmp_path / "par"), "--jobs", "3"]) == 0

    def tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes()
                for p in sorted(root.rglob("*")) if p.is_file()}

    seq, par = tree(tmp_path / "seq"), tree(tmp_path / "par")
    assert len(seq) == 1 + 2 * 6
    assert seq == par


def test_sweep_failure_while_simulating_keeps_the_earlier_runs(scenario_file, tmp_path,
                                                               monkeypatch, capsys):
    # Past the up-front checks a failure stops the sweep: the runs already
    # written stay, and sweep.csv is not written.
    out = tmp_path / "sweep"
    runs = []

    class FailingWorld(sopra.cli.World):
        def run(self, ticks):
            runs.append(ticks)
            if len(runs) == 2:
                raise OSError("disk gone")
            return super().run(ticks)

    monkeypatch.setattr(sopra.cli, "World", FailingWorld)
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "3", "--out", str(out),
                 "--param", "decayRate=0.0,0.05,0.1"]) == 1
    assert capsys.readouterr().err == "error: disk gone\n"
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "run_000", "run_000/events.csv", "run_000/metrics.csv"]


def test_sweep_reads_the_document_once(scenario_file, tmp_path, monkeypatch):
    # Every run is built from one read, so an edit during the build loop
    # cannot give runs different base documents.
    calls = []
    load = sopra.cli._load_document

    def counting(path):
        calls.append(path)
        return load(path)

    monkeypatch.setattr(sopra.cli, "_load_document", counting)
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "3",
                 "--out", str(tmp_path / "sweep"),
                 "--param", "habitThreshold=0.3,0.9",
                 "--param", "decayRate=0.0,0.05"]) == 0
    assert calls == [scenario_file]


def test_sweep_bad_param(scenario_file, tmp_path):
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(tmp_path / "x"), "--param", "habitThreshold"]) == 1


def test_sweep_rejects_repeated_param(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(out), "--param", "habitThreshold=0.4,0.6",
                 "--param", "decayRate=0.0", "--param", "habitThreshold=0.9"]) == 1
    assert "--param habitThreshold is given more than once" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_overwrite(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    args = ["sweep", "--scenario", scenario_file, "--ticks", "2",
            "--out", str(out), "--param", "decayRate=0.0,0.1"]
    assert main(args) == 0
    assert main(args) == 1
    assert main(args + ["--force"]) == 0


def test_sweep_rejects_negative_ticks(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "-3",
                 "--out", str(out), "--param", "decayRate=0.0,0.1"]) == 1
    assert "--ticks must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(scenario_file, tmp_path, capsys, jobs):
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(out), "--param", "decayRate=0.0,0.1",
                 "--jobs", jobs]) == 1
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_dangling_reference_is_a_validation_failure(tmp_path, capsys):
    doc, _ = mutation_fixtures()["dangling-reference"]
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", _write(tmp_path, doc), "--ticks", "2",
                 "--out", str(out), "--param", "decayRate=0.0,0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("dangling-reference:")
    assert captured.err == ""
    assert not out.exists()


def test_sweep_validates_every_run_before_simulating(scenario_file, tmp_path, capsys):
    # The second run's override is out of range: nothing may be written,
    # not even the first run's outputs.
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", scenario_file, "--ticks", "2",
                 "--out", str(out), "--param", "decayRate=0.0,1.5"]) == 1
    assert "decayRate" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_refuses_overwrite_before_simulating(scenario_file, tmp_path, capsys):
    out = tmp_path / "sweep"
    existing = out / "run_001" / "events.csv"
    existing.parent.mkdir(parents=True)
    existing.write_text("keep me\n")
    args = ["sweep", "--scenario", scenario_file, "--ticks", "2",
            "--out", str(out), "--param", "decayRate=0.0,0.1"]
    assert main(args) == 1
    assert f"refusing to overwrite {existing}" in capsys.readouterr().err
    assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == [
        "run_001", "run_001/events.csv"]
    assert existing.read_text() == "keep me\n"
    assert main(args + ["--force"]) == 0
    assert (out / "run_000" / "events.csv").exists()
    assert existing.read_text().startswith("tick,")


def test_unknown_command_and_empty_argv():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_console_script_installed(scenario_file, tmp_path):
    # Checks this tree's [project.scripts] declaration, not whatever `sopra`
    # is on PATH: writes the wrapper an installer generates for the entry
    # point and runs it against the package under test. That an install
    # really places the script on PATH is checked in CI after `pip install`.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, _, attr = scripts["sopra"].partition(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    wrapper = bindir / "sopra"
    wrapper.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    wrapper.chmod(0o755)

    exe = shutil.which("sopra", path=str(bindir))
    assert exe, "the declared console script should resolve by name"
    env = dict(os.environ, PYTHONPATH=str(Path(sopra.__file__).parent.parent))
    proc = subprocess.run([exe, "validate", scenario_file],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "OK"
