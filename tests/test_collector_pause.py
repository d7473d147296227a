"""`build_scenario`, `validate_scenario`, a world's state construction,
`World.run` and each CLI command run with the cyclic collector paused:
they leave its state as they found it, no pass starts while they run,
and what they make is never cyclic garbage."""

from __future__ import annotations

import gc
import json
import random
import sys
from contextlib import nullcontext

import pytest
from helpers import make_doc

import sopra.cli
import sopra.engine
import sopra.scenario
import sopra.validate
from sopra import World, build_scenario, validate_scenario
from sopra._gc import gc_paused
from sopra.cli import main
from sopra.errors import ScenarioError
from sopra.scenarios import bundled_document
from sopra.testing import random_scenario_document
from sopra.validate import InvalidScenarioError


def _set_collector(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture()
def collector():
    """Restores the collector's state after the test."""
    was = gc.isenabled()
    yield
    _set_collector(was)


def _bad_document():
    doc = bundled_document("commuting")
    doc["agents"][0]["habitRate"] = "fast"
    return doc


def _invalid_scenario():
    # Builds, but the root is not an activity.
    doc = bundled_document("commuting")
    doc["roots"] = ["nowhere"]
    return build_scenario(doc, check_refs=False)


def _failing_score_cache(state, scenario):
    raise RuntimeError("score cache")


def _failing_personal_view(state, scenario):
    raise RuntimeError("personal view")


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_builders_leave_the_collector_as_they_found_it(enabled, collector, monkeypatch,
                                                       tmp_path):
    _set_collector(enabled)
    scenario = build_scenario(bundled_document("commuting"))
    assert gc.isenabled() is enabled
    with pytest.raises(ScenarioError):
        build_scenario(_bad_document())
    assert gc.isenabled() is enabled
    assert validate_scenario(scenario) == []
    assert gc.isenabled() is enabled
    assert validate_scenario(_invalid_scenario()) != []
    assert gc.isenabled() is enabled
    world = World(scenario, 0)
    assert gc.isenabled() is enabled
    world.run(2)
    assert gc.isenabled() is enabled
    with pytest.raises(InvalidScenarioError):
        World(_invalid_scenario(), 0)
    assert gc.isenabled() is enabled

    # sopra commands, by exit code.
    path = _write(tmp_path / "commuting.json", bundled_document("commuting"))
    out = tmp_path / "out"
    run = ["run", "--scenario", path, "--ticks", "2", "--out", str(out)]
    assert main(run) == 0
    assert gc.isenabled() is enabled
    assert main(run + ["--force", "--override", "habitThreshold"]) == 1
    assert gc.isenabled() is enabled
    assert main(["validate", str(tmp_path / "absent.json")]) == 1
    assert gc.isenabled() is enabled
    invalid = bundled_document("commuting")
    invalid["roots"] = ["nowhere"]
    assert main(["validate", _write(tmp_path / "invalid.json", invalid)]) == 2
    assert gc.isenabled() is enabled
    (out / "events.csv").unlink()
    (out / "events.csv").mkdir()
    assert main(run + ["--force"]) == 1  # an OSError while writing
    assert gc.isenabled() is enabled

    # An exception raised inside a paused run, mid-tick.
    monkeypatch.setattr(sopra.engine, "update_personal_view", _failing_personal_view)
    with pytest.raises(RuntimeError):
        world.run(1)
    assert gc.isenabled() is enabled
    # An exception raised inside the paused state construction.
    monkeypatch.setattr(sopra.engine, "build_score_cache", _failing_score_cache)
    with pytest.raises(RuntimeError):
        World(scenario, 0)
    assert gc.isenabled() is enabled


def test_pauses_nest(collector):
    gc.enable()
    with gc_paused():
        assert not gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        scenario = build_scenario(make_doc())
        assert not gc.isenabled()
        World(scenario, 0)
        assert not gc.isenabled()
    assert gc.isenabled()


def _passes_started_in(bodies, build) -> int:
    """How many collection passes `build()` starts while a frame of one
    of the `bodies` code objects is on the stack."""
    started = []

    def note(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in bodies:
                started.append(info["generation"])
                return
            frame = frame.f_back

    gc.collect()
    gc.callbacks.append(note)
    try:
        build()
    finally:
        gc.callbacks.remove(note)
    return len(started)


def test_no_collection_starts_inside_the_paused_builders(collector, monkeypatch):
    gc.enable()
    doc = random_scenario_document(random.Random(3), max_activities=16, n_agents=400,
                                   n_locations=100, n_values=3, n_timepoints=4)
    bodies = {sopra.scenario._build_scenario.__code__, sopra.engine._agent_states.__code__}

    def build():
        World(build_scenario(doc), 0)

    assert _passes_started_in(bodies, build) == 0
    # Unpaused, the same builds start passes inside those bodies.
    monkeypatch.setattr(sopra.scenario, "gc_paused", nullcontext)
    monkeypatch.setattr(sopra.engine, "gc_paused", nullcontext)
    scenario = build_scenario(doc)
    assert _passes_started_in(bodies, lambda: build_scenario(doc)) > 0
    assert _passes_started_in(bodies, lambda: World(scenario, 0)) > 0


def test_no_collection_starts_inside_a_cli_run(collector, monkeypatch, tmp_path):
    gc.enable()
    doc = random_scenario_document(random.Random(3), max_activities=16, n_agents=400,
                                   n_locations=100, n_values=3, n_timepoints=4)
    argv = ["run", "--scenario", _write(tmp_path / "world.json", doc), "--ticks", "4",
            "--out", str(tmp_path / "out"), "--force"]
    bodies = {sopra.cli.main.__code__}
    assert _passes_started_in(bodies, lambda: main(argv)) == 0
    # Unpaused, the same command starts passes inside main.
    for module in (sopra.cli, sopra.engine, sopra.scenario, sopra.validate):
        monkeypatch.setattr(module, "gc_paused", nullcontext)
    assert _passes_started_in(bodies, lambda: main(argv)) > 0


def test_a_run_leaves_no_cyclic_garbage(collector):
    # The premise of the pause: nothing a build or a run makes is freed
    # only by the cyclic collector, so deferring its passes frees nothing
    # later than plain reference counting does.
    gc.disable()
    gc.collect()
    for doc in (bundled_document("commuting"),
                random_scenario_document(random.Random(3), n_agents=40, n_locations=8)):
        world = World(build_scenario(doc), 0)
        world.run(30)
        del world
    assert gc.collect() == 0


def test_a_cli_command_leaves_no_cyclic_garbage(collector, tmp_path):
    path = _write(tmp_path / "commuting.json", bundled_document("commuting"))
    commands = [
        ["run", "--scenario", path, "--ticks", "30", "--out", str(tmp_path / "run")],
        ["sweep", "--scenario", path, "--ticks", "10", "--param", "habitThreshold=0.3,0.6",
         "--out", str(tmp_path / "sweep")],
    ]
    for argv in commands:  # warm-up: fills the process's one-off caches
        assert main(argv) == 0
    gc.disable()
    gc.collect()
    for argv in commands:
        assert main(argv + ["--force"]) == 0
    assert gc.collect() == 0
