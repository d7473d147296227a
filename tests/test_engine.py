from __future__ import annotations

import dataclasses

import pytest
from helpers import make_doc, mutation_fixtures, snapshot_of

from sopra import (
    DecisionMode,
    InvalidScenarioError,
    UnknownIdError,
    World,
    build_scenario,
    collect_metrics,
    events_csv,
    metrics_csv,
    run,
    snapshot_context,
)
from sopra.engine import EVENTS_HEADER, write_text_atomic
from sopra.scenarios import bundled_document


def _two_agents_doc():
    doc = make_doc()
    doc["agents"].append(
        {"id": "ag2", "habitRate": 0.1, "attentionBudget": 1, "location": "Home"}
    )
    doc["contextElements"].append({"id": "Evening", "kind": "Timepoint"})
    doc["contextElements"].append({"id": "mat", "kind": "Resource"})
    doc["environment"]["timepoints"] = ["Morning", "Evening"]
    doc["environment"]["placements"] = {"Home": ["mat"]}
    return doc


def test_snapshot_contents():
    w = World(build_scenario(_two_agents_doc()))
    eidx = w.scenario.index.eidx
    ag1, ag2 = eidx["ag1"], eidx["ag2"]
    assert snapshot_context(w, ag1).present == {"Home", "Morning", "mat", "ag2"}
    w.states["ag1"].last_activity = eidx["opt_b"]
    assert snapshot_context(w, ag1).present == {"Home", "Morning", "mat", "ag2", "opt_b"}
    # Timepoints cycle with the tick; other locations drop co-location.
    w.tick = 1
    w.states["ag2"].location = eidx["Away"]
    assert snapshot_context(w, ag1).present == {"Home", "Evening", "mat", "opt_b"}
    assert snapshot_context(w, ag2).present == {"Away", "Evening"}
    w.tick = 2
    assert "Morning" in snapshot_context(w, ag1).present



def test_snapshot_interns_its_elements_when_taken():
    s = build_scenario(_two_agents_doc())
    idx = s.index
    snap = snapshot_of(idx, ["ag2", "Morning", "Home", "Morning"])
    assert snap.present == {"Home", "Morning", "ag2"}
    assert snap.ids == tuple(sorted(idx.element_index(e) for e in snap.present))
    assert snap == snapshot_of(idx, {"Home", "Morning", "ag2"})
    w = World(s)
    taken = snapshot_context(w, idx.eidx["ag1"])
    assert taken.ids == tuple(sorted(idx.element_index(e) for e in taken.present))


def test_snapshot_with_unknown_element_fails_to_intern():
    s = build_scenario(_two_agents_doc())
    with pytest.raises(UnknownIdError, match="nowhere"):
        snapshot_of(s.index, {"Home", "nowhere"})


def test_event_rows_per_tick(commuting):
    events, metrics = run(commuting, 5)
    assert len(events) == 10  # 2 agents x 5 ticks
    assert [e.tick for e in events] == [t for t in range(5) for _ in range(2)]
    assert [e.agent for e in events[:2]] == ["alice", "bob"]  # sorted ids
    assert len(metrics) == 5


def test_events_csv_format(commuting):
    events, _ = run(commuting, 3)
    text = events_csv(events)
    lines = text.split("\n")
    assert lines[0] == EVENTS_HEADER
    assert lines[0] == "tick,agent,activity,mode,pressure,score,location,timepoint"
    assert text.endswith("\n") and "\r" not in text
    assert len(lines) == 1 + 6 + 1  # header + rows + trailing newline
    for row in lines[1:-1]:
        cells = row.split(",")
        assert len(cells) == 8
        assert cells[3] in ("Habitual", "Intentional")
        float(cells[4]), float(cells[5])
        assert len(cells[4].split(".")[1]) == 6


def test_empty_timepoint_column(cascade):
    events, _ = run(cascade, 1)
    line = events_csv(events).split("\n")[1]
    assert line.endswith(",Home,")


def test_metrics_csv_format(commuting):
    events, metrics = run(commuting, 4)
    atomic = commuting.index.atomic_ids
    text = metrics_csv(metrics, atomic)
    lines = text.split("\n")
    want_header = (
        "tick,habitual_fraction,"
        + ",".join(f"count_{a}" for a in atomic)
        + ",mean_strength,mean_personal_view,mean_collective_view"
    )
    assert lines[0] == want_header
    assert list(atomic) == sorted(atomic)
    for row in lines[1:-1]:
        cells = row.split(",")
        assert len(cells) == 2 + len(atomic) + 3
        assert sum(int(c) for c in cells[2:-3]) == 2  # one activity per agent


def test_metrics_csv_refuses_counts_that_do_not_match_the_ids(commuting):
    _, metrics = run(commuting, 1)
    atomic = commuting.index.atomic_ids
    short = dataclasses.replace(metrics[0], counts=metrics[0].counts[1:])
    with pytest.raises(TypeError):
        metrics_csv([short], atomic)
    with pytest.raises(TypeError):
        metrics_csv(metrics, atomic[1:])
    assert metrics_csv([], ()) == (
        "tick,habitual_fraction,mean_strength,mean_personal_view,mean_collective_view\n")


def test_failed_write_leaves_no_temp_file(tmp_path):
    target = tmp_path / "events.csv"
    # A lone surrogate cannot be encoded as UTF-8.
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic("tick\nbo\ud800b\n", target)
    assert list(tmp_path.iterdir()) == []
    # The rename fails when the target is a directory.
    target.mkdir()
    with pytest.raises(OSError):
        write_text_atomic("tick\n", target)
    assert [p.name for p in tmp_path.iterdir()] == ["events.csv"]
    write_text_atomic("tick\n", tmp_path / "ok.csv")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.csv", "ok.csv"]
    assert (tmp_path / "ok.csv").read_bytes() == b"tick\n"


def test_metrics_match_events(commuting):
    events, metrics = run(commuting, 20)
    atomic = commuting.index.atomic_ids
    for row in metrics:
        tick_events = [e for e in events if e.tick == row.tick]
        assert sum(row.counts) == len(tick_events) == 2
        habitual = sum(e.mode is DecisionMode.HABITUAL for e in tick_events)
        assert row.habitual_fraction == habitual / 2
        for a, n in zip(atomic, row.counts):
            assert n == sum(e.activity == a for e in tick_events)
        assert 0.0 <= row.mean_strength <= 1.0
        assert 0.0 <= row.mean_personal_view <= 1.0
        assert 0.0 <= row.mean_collective_view <= 1.0


def test_run_is_deterministic(commuting):
    a_events, a_metrics = run(commuting, 50, seed=3)
    b_events, b_metrics = run(commuting, 50, seed=3)
    atomic = commuting.index.atomic_ids
    assert events_csv(a_events) == events_csv(b_events)
    assert metrics_csv(a_metrics, atomic) == metrics_csv(b_metrics, atomic)


def test_zero_ticks(commuting):
    events, metrics = run(commuting, 0)
    assert events == [] and metrics == []


def test_world_refuses_invalid_scenario():
    doc, _ = mutation_fixtures()["view-range"]
    s = build_scenario(doc, check_refs=False)
    with pytest.raises(InvalidScenarioError) as exc:
        World(s)
    assert exc.value.report
    # Explicit opt-out skips the gate (for tooling that wants to poke around).
    World(s, validate=False)


def test_decisions_read_tick_start_strengths():
    # Strength 0.95 on one of two context elements averages to 0.475,
    # just under the 0.5 threshold. The tick-0 decision must therefore be
    # intentional even though reinforcement pushes the average over the
    # threshold within the same tick; the flip shows up at tick 1.
    doc = make_doc()
    doc["agents"][0]["habitRate"] = 1.0
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "opt_a", "contextElement": "Home",
         "strength": 0.95, "personalView": 0.95}
    ]
    events, _ = run(build_scenario(doc), 2)
    assert events[0].mode is DecisionMode.INTENTIONAL
    assert events[0].activity == "opt_a"
    assert events[1].mode is DecisionMode.HABITUAL
    assert events[1].pressure == pytest.approx(2 / 3)  # (1 + 1 + 0) / 3


def test_attention_replenishes_each_tick(commuting):
    events, _ = run(commuting, 3)
    alice = [e for e in events if e.agent == "alice"]
    # Budget 2 covers both steps of every cycle; without the per-tick
    # replenish the second tick would fall back to habitual mode.
    assert all(e.mode is DecisionMode.INTENTIONAL for e in alice)
    assert [e.activity for e in alice] == [
        "drive_car_to_school", "drive_car_to_work", "drive_car_to_school"
    ]


def test_relocation_applies_at_end_of_its_tick(cascade):
    events, _ = run(cascade, 43)
    ana = {e.tick: e for e in events if e.agent == "ana"}
    assert ana[39].location == "Home"
    assert ana[40].location == "Home"  # still home during the scheduled tick
    assert ana[41].location == "Venue"
    assert ana[42].location == "Venue"


def test_assigned_location_equals_relocation_row():
    # The tick keeps its co-location layout between ticks; assigning
    # `state.location` between steps must rebuild it as a relocation row
    # does. Cascade moves ana from Home, where ben and cas stay, to Venue
    # at the end of tick 40; here that row is replaced by the assignment.
    doc = bundled_document("cascade")
    want = build_scenario(doc)
    moved = [r for r in doc["environment"]["relocations"] if r["tick"] == 40]
    assert [(r["agent"], r["location"]) for r in moved] == [("ana", "Venue")]
    doc["environment"]["relocations"] = [
        r for r in doc["environment"]["relocations"] if r["tick"] != 40
    ]
    w = World(build_scenario(doc), seed=5)
    for _ in range(41):
        w.step()
    w.states["ana"].location = w.scenario.index.eidx["Venue"]
    events, metrics = w.run(100 - 41)
    ref = World(want, seed=5)
    ref_events, ref_metrics = ref.run(100)
    atomic = want.index.atomic_ids
    assert events_csv(events) == events_csv(ref_events)
    assert metrics_csv(metrics, atomic) == metrics_csv(ref_metrics, atomic)
    assert w.observation_count == ref.observation_count


def test_observation_count_counts_ordered_pairs(cascade):
    w = World(cascade)
    w.run(50)
    # Three co-located agents give 3*2 ordered pairs per tick; after ana
    # leaves at the end of tick 40, only ben and cas see each other.
    assert w.observation_count == 41 * 6 + 9 * 2


def test_atomic_root_logs_without_spending_attention():
    doc = make_doc()
    doc["activities"] = [{"id": "only", "type": "Atomic"}]
    doc["activityConnections"] = []
    doc["valueConnections"] = []
    doc["roots"] = ["only"]
    w = World(build_scenario(doc))
    events = w.step()
    assert len(events) == 1
    e = events[0]
    assert e.activity == "only"
    assert e.mode is DecisionMode.HABITUAL
    assert e.pressure == 0.0 and e.score == 0.0
    assert w.states["ag1"].resources == 1


def test_atomic_root_logs_pinned():
    # Two agents who see each other, with habits and a value connection on
    # the root: pressures are sampled before the tick's strength dynamics,
    # scores come from the value table, and each observes the other.
    doc = make_doc()
    doc["activities"] = [{"id": "only", "type": "Atomic"}]
    doc["activityConnections"] = []
    doc["agents"].append(
        {"id": "ag2", "habitRate": 0.2, "attentionBudget": 2, "location": "Home"}
    )
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "only", "contextElement": "Home",
         "strength": 0.6, "personalView": 0.5},
        {"agent": "ag2", "activity": "only", "contextElement": "Morning",
         "strength": 0.3, "personalView": 0.3},
    ]
    doc["valueConnections"] = [
        {"agent": "ag1", "activity": "only", "value": "thrift",
         "strength": 0.8, "personalView": 0.7},
    ]
    doc["roots"] = ["only"]
    s = build_scenario(doc)
    w = World(s)
    events, rows = w.run(4)
    assert events_csv(events) == (
        "tick,agent,activity,mode,pressure,score,location,timepoint\n"
        "0,ag1,only,Habitual,0.200000,0.700000,Home,Morning\n"
        "0,ag2,only,Habitual,0.100000,0.000000,Home,Morning\n"
        "1,ag1,only,Habitual,0.210000,0.700000,Home,Morning\n"
        "1,ag2,only,Habitual,0.210000,0.000000,Home,Morning\n"
        "2,ag1,only,Habitual,0.289000,0.700000,Home,Morning\n"
        "2,ag2,only,Habitual,0.368000,0.000000,Home,Morning\n"
        "3,ag1,only,Habitual,0.360100,0.700000,Home,Morning\n"
        "3,ag2,only,Habitual,0.494400,0.000000,Home,Morning\n"
    )
    assert metrics_csv(rows, s.index.atomic_ids) == (
        "tick,habitual_fraction,count_only,mean_strength,mean_personal_view,"
        "mean_collective_view\n"
        "0,1.000000,2,0.210000,0.155000,0.295000\n"
        "1,1.000000,2,0.262800,0.193400,0.405200\n"
        "2,1.000000,2,0.341800,0.267600,0.523640\n"
        "3,1.000000,2,0.407844,0.337722,0.606548\n"
    )
    assert [w.states[ag].resources for ag in ("ag1", "ag2")] == [1, 2]


def test_module_run_equals_world_run(commuting):
    a = run(commuting, 10, seed=7)
    b = World(commuting, seed=7).run(10)
    assert a == b


def test_collect_metrics_on_empty():
    assert collect_metrics([], [], ["x"]) == []


def test_cascade_breaks_and_reforms_habits(cascade):
    w = World(cascade)
    events, _ = w.run(140)
    by_agent_tick = {(e.agent, e.tick): e for e in events}

    for t in range(6):
        for ag in ("ana", "ben", "cas"):
            e = by_agent_tick[(ag, t)]
            assert e.activity == "eat_meat" and e.mode is DecisionMode.HABITUAL

    # Alone at the venue the meat cue is gone, so ana deliberates to veg,
    # and within a few ticks the venue context hardens veg into a habit.
    assert by_agent_tick[("ana", 41)].mode is DecisionMode.INTENTIONAL
    for t in range(41, 86):
        e = by_agent_tick[("ana", t)]
        assert e.activity == "eat_veg"
        assert e.location == "Venue"
    assert by_agent_tick[("ana", 60)].mode is DecisionMode.HABITUAL

    # Back home her meat connections have decayed below the threshold;
    # she keeps eating veg and re-hardens it into a habit, while the
    # others never left the old practice.
    for t in range(95, 140):
        assert by_agent_tick[("ana", t)].activity == "eat_veg"
        assert by_agent_tick[("ben", t)].activity == "eat_meat"
        assert by_agent_tick[("cas", t)].activity == "eat_meat"
    assert by_agent_tick[("ana", 139)].mode is DecisionMode.HABITUAL
    assert by_agent_tick[("ben", 139)].mode is DecisionMode.HABITUAL

    # The others watched her: their collective view of veg at home formed.
    # Each tick ben sees ana act veg (up by 0.3 of the gap) and cas act
    # meat (down by factor 0.7), so the view settles at the fixed point of
    # c -> 0.7(c + 0.3(1 - c)), which is 0.21/0.51.
    idx = cascade.index
    veg = idx.activity_index("eat_veg")
    home = idx.element_index("Home")
    assert w.states["ben"].habits.get_views(veg, home)[2] == pytest.approx(
        0.21 / 0.51, rel=1e-9
    )
