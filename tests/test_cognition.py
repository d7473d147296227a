from __future__ import annotations

import math
import random

import pytest
from helpers import activity_names, make_doc, reference_argmax, reference_scores, snapshot_of
from hypothesis import given, settings, strategies as st

from sopra import (
    DecisionMode,
    DecisionStep,
    SequentialFrame,
    ViolationKind,
    World,
    build_scenario,
    build_score_cache,
    candidate_set,
    decide_step,
    decision_cycle,
    habitual_pressure,
    init_agent_state,
    validate_scenario,
)
from sopra.cognition import _pick
from sopra.testing import random_scenario_document


RNG = lambda: random.Random(0)


def _agent(scenario, agent_id):
    """An agent's initial state with its scores computed, as World makes it."""
    state = init_agent_state(scenario, agent_id)
    build_score_cache(state, scenario)
    return state


@pytest.fixture
def bob(commuting):
    return _agent(commuting, "bob")


def _pressure(state, activity, ctx, scenario):
    """`habitual_pressure` of the named activity."""
    return habitual_pressure(state, scenario.index.aidx[activity], ctx, scenario)


def _decide(state, node, ctx, scenario, rng):
    """`decide_step` at the named node."""
    return decide_step(state, scenario.index.aidx[node], ctx, scenario, rng)


def _candidates(node, pending, scenario):
    """`candidate_set` at the named node, as names."""
    idx = scenario.index
    return activity_names(idx, candidate_set(idx.activity_index(node), pending, scenario))


def _chosen(step, scenario):
    return scenario.index.activity_ids[step.chosen]


def test_pressure_is_mean_over_context(commuting, bob):
    ctx = snapshot_of(commuting.index, {"bobs_car", "Morning"})
    assert _pressure(bob, "drive_car_to_work", ctx, commuting) == pytest.approx(
        (0.8 + 0.4) / 2
    )
    # An element with no stored strength anywhere on its chain counts 0.
    ctx = snapshot_of(commuting.index, {"bobs_car", "Morning", "Home"})
    assert _pressure(bob, "drive_car_to_work", ctx, commuting) == pytest.approx(
        (0.8 + 0.4 + 0.0) / 3
    )


def test_pressure_aggregation_modes(commuting_doc):
    for mode, want in [("mean", 0.6), ("max", 0.8), ("sum", 1.2)]:
        doc = dict(commuting_doc, globals=dict(commuting_doc["globals"],
                                               pressureAggregation=mode))
        s = build_scenario(doc)
        state = init_agent_state(s, "bob")
        ctx = snapshot_of(s.index, {"bobs_car", "Morning"})
        assert _pressure(state, "drive_car_to_work", ctx, s) == pytest.approx(want)


def test_pressure_attenuates_along_ancestors():
    doc = make_doc()
    doc["contextElements"] += [
        {"id": "c1", "kind": "Resource"},
        {"id": "c2", "kind": "Resource", "parent": "c1"},
        {"id": "c3", "kind": "Resource", "parent": "c2"},
    ]
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "opt_a", "contextElement": "c1",
         "strength": 0.8, "personalView": 0.8}
    ]
    doc["globals"] = {"attenuation": 0.5}
    s = build_scenario(doc)
    state = init_agent_state(s, "ag1")
    one = lambda e: snapshot_of(s.index, {e})
    assert _pressure(state, "opt_a", one("c1"), s) == pytest.approx(0.8)
    assert _pressure(state, "opt_a", one("c2"), s) == pytest.approx(0.4)
    assert _pressure(state, "opt_a", one("c3"), s) == pytest.approx(0.2)


def test_pressure_skips_zero_strength_ancestors():
    # A stored-but-zero strength on the middle link must not shadow the
    # grandparent: lookup walks to the nearest ancestor with nonzero strength.
    doc = make_doc()
    doc["contextElements"] += [
        {"id": "c1", "kind": "Resource"},
        {"id": "c2", "kind": "Resource", "parent": "c1"},
        {"id": "c3", "kind": "Resource", "parent": "c2"},
    ]
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "opt_a", "contextElement": "c1",
         "strength": 0.8, "personalView": 0.8},
        {"agent": "ag1", "activity": "opt_a", "contextElement": "c2",
         "strength": 0.0, "personalView": 0.0},
    ]
    doc["globals"] = {"attenuation": 0.5}
    s = build_scenario(doc)
    state = init_agent_state(s, "ag1")
    ctx = snapshot_of(s.index, {"c3"})
    assert _pressure(state, "opt_a", ctx, s) == pytest.approx(0.2)


def test_empty_context_is_an_error(commuting, bob):
    with pytest.raises(ValueError):
        _pressure(bob, "drive_car_to_work", snapshot_of(commuting.index, ()), commuting)


def test_intentional_score_examples(commuting, bob):
    aidx = commuting.index.aidx
    # priorities: environmentalism 1.0, efficiency 0.2
    assert bob.score_raw[aidx["ride_bike_to_work"]] == pytest.approx(1.0)
    assert bob.score_raw[aidx["drive_car_to_work"]] == pytest.approx(0.2)
    assert bob.score_raw[aidx["take_train_to_work"]] == pytest.approx(0.14)
    assert len(bob.score_raw) == len(commuting.index.activity_ids)
    total = 1.0 + 0.2
    for a, raw in enumerate(bob.score_raw):
        assert bob.score_norm[a] == pytest.approx(raw / total)
    alice = _agent(commuting, "alice")
    assert alice.score_raw[aidx["drive_car_to_work"]] == pytest.approx(0.9 * 0.95)


def _assert_scores_match_reference(scenario):
    """Every agent's score lists equal `reference_scores`, compared by
    `float.hex`."""
    for agent in scenario.index.agent_ids:
        raw, norm = reference_scores(scenario, agent)
        state = _agent(scenario, agent)
        assert list(map(float.hex, state.score_raw)) == list(map(float.hex, raw)), agent
        assert list(map(float.hex, state.score_norm)) == list(map(float.hex, norm)), agent


def _off_grid(doc, rng):
    """`doc` with every value view redrawn at full float precision and
    about a fifth of the priority rows dropped, so that a change in the
    order or the set of a score's terms changes its bits."""
    for row in (*doc["valuePriorities"], *doc["valueConnections"]):
        row["strength"] = row["personalView"] = rng.random()
    doc["valuePriorities"] = [r for r in doc["valuePriorities"] if rng.random() < 0.8]
    return doc


def test_scores_match_the_reference_bit_for_bit():
    for seed in range(200):
        rng = random.Random(seed)
        doc = random_scenario_document(rng, n_agents=3, n_values=rng.randint(1, 5))
        _assert_scores_match_reference(build_scenario(_off_grid(doc, rng)))


def test_score_edge_cases_match_the_reference():
    # "speed" has no priority row and is opt_b's only value; ag2 has no
    # priorities; ag3's priorities sum to 0.
    doc = make_doc()
    doc["values"] += ["comfort", "speed"]
    doc["agents"] += [{"id": ag, "habitRate": 0.1, "attentionBudget": 1, "location": "Home"}
                      for ag in ("ag2", "ag3")]
    doc["valuePriorities"] = [
        {"agent": ag, "value": v, "strength": p, "personalView": p}
        for ag, v, p in (("ag1", "thrift", 0.1), ("ag1", "comfort", 0.3),
                         ("ag3", "thrift", 0.0), ("ag3", "comfort", 0.0))
    ]
    doc["valueConnections"] = [
        {"agent": ag, "activity": a, "value": v, "strength": w, "personalView": w}
        for ag in ("ag3", "ag2", "ag1")
        for a, v, w in (("opt_b", "speed", 0.5), ("opt_a", "thrift", 0.9),
                        ("opt_a", "speed", 0.7), ("opt_a", "comfort", 0.7))
    ]
    scenario = build_scenario(doc)
    assert validate_scenario(scenario) == []
    _assert_scores_match_reference(scenario)

    a, b = scenario.index.aidx["opt_a"], scenario.index.aidx["opt_b"]
    ag1 = _agent(scenario, "ag1")
    # comfort before thrift; speed has no priority and adds nothing
    assert ag1.score_raw[a] == 0.0 + 0.3 * 0.7 + 0.1 * 0.9
    assert ag1.score_raw[b] == 0.0
    for agent in ("ag2", "ag3"):
        state = _agent(scenario, agent)
        assert state.score_raw == state.score_norm == [0.0] * len(scenario.index.activity_ids)


def test_duplicate_value_connection_rows_each_add_to_the_score():
    doc = make_doc()
    doc["valueConnections"].append({"agent": "ag1", "activity": "opt_a", "value": "thrift",
                                    "strength": 0.5, "personalView": 0.5})
    scenario = build_scenario(doc)
    assert [v.kind for v in validate_scenario(scenario)] == [ViolationKind.MULTIPLICITY]
    state = World(scenario, validate=False).states["ag1"]
    assert state.score_raw[scenario.index.aidx["opt_a"]] == 0.0 + 0.25 * 0.9 + 0.25 * 0.5


def test_candidate_set(commuting):
    assert _candidates("commuting", [], commuting) == (
        "bring_kids_to_school", "go_to_work"
    )
    assert _candidates("go_to_work", [], commuting) == (
        "drive_car_to_work", "ride_bike_to_work", "take_train_to_work", "walk_to_work"
    )
    with pytest.raises(ValueError):
        _candidates("walk_to_work", [], commuting)


def test_candidate_set_excludes_completed_parts(commuting):
    aidx = commuting.index.aidx
    pending = [SequentialFrame(aidx["commuting"], completed={aidx["bring_kids_to_school"]})]
    assert _candidates("commuting", pending, commuting) == ("go_to_work",)


def _ctx(scenario, *extra):
    return snapshot_of(scenario.index, {"Home", "Morning", *extra})


def test_decide_step_habitual_above_threshold(commuting, bob):
    # bobs_car present: pressure over {Home, Morning, bobs_car} for
    # drive_car_to_work is (0 + 0.4 + 0.8) / 3 = 0.4 < 0.5 threshold, so
    # raise the car cue to Morning-only context instead.
    ctx = snapshot_of(commuting.index, {"bobs_car", "Morning"})
    step = _decide(bob, "go_to_work", ctx, commuting, RNG())
    assert step.mode is DecisionMode.HABITUAL
    assert _chosen(step, commuting) == "drive_car_to_work"
    assert step.pressure == pytest.approx(0.6)
    assert bob.resources == 2  # habitual picks are free


def test_decide_step_intentional_below_threshold(commuting, bob):
    step = _decide(bob, "go_to_work", _ctx(commuting), commuting, RNG())
    assert step.mode is DecisionMode.INTENTIONAL
    assert _chosen(step, commuting) == "ride_bike_to_work"  # score 1.0 beats 0.2/0.14/0.9
    assert step.score == pytest.approx(1.0 / 1.2)
    assert bob.resources == 1  # one deliberation spent


def test_decide_step_habitual_when_attention_exhausted(commuting, bob):
    bob.resources = 0
    step = _decide(bob, "go_to_work", _ctx(commuting), commuting, RNG())
    assert step.mode is DecisionMode.HABITUAL
    # Pressures over {Home, Morning}: drive_car (0 + 0.4) / 2, rest 0.
    assert _chosen(step, commuting) == "drive_car_to_work"
    assert step.pressure == pytest.approx(0.2)


def test_decide_step_lexicographic_ties():
    doc = make_doc()
    doc["valueConnections"][1]["strength"] = 0.9
    doc["valueConnections"][1]["personalView"] = 0.9
    s = build_scenario(doc)
    state = _agent(s, "ag1")
    step = _decide(state, "act_root", _ctx(s), s, RNG())
    assert step.mode is DecisionMode.INTENTIONAL
    assert _chosen(step, s) == "opt_a"


def test_decide_step_uniform_ties_use_rng():
    doc = make_doc()
    doc["valueConnections"][1]["strength"] = 0.9
    doc["valueConnections"][1]["personalView"] = 0.9
    doc["globals"] = {"tieBreak": "uniform"}
    s = build_scenario(doc)
    picks = set()
    for seed in range(12):
        state = _agent(s, "ag1")
        step = _decide(state, "act_root", _ctx(s), s, random.Random(seed))
        picks.add(_chosen(step, s))
    assert picks == {"opt_a", "opt_b"}


def test_uniform_tie_break_leaves_rng_untouched_without_ties():
    doc = make_doc()
    doc["globals"] = {"tieBreak": "uniform"}
    s = build_scenario(doc)
    state = _agent(s, "ag1")
    rng = random.Random(5)
    before = rng.getstate()
    step = _decide(state, "act_root", _ctx(s), s, rng)
    assert _chosen(step, s) == "opt_a"
    assert rng.getstate() == before


# Few distinct values, so ties (0.0 against -0.0 among them) are common.
_PICK_VALUES = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, -1.0, math.nan]) | st.floats(),
    min_size=1, max_size=8,
)


@pytest.mark.parametrize("uniform", [False, True])
@settings(max_examples=300, deadline=None)
@given(values=_PICK_VALUES, seed=st.integers(min_value=0, max_value=2**32))
def test_pick_matches_reference_argmax(uniform, values, seed):
    ref_rng, rng = random.Random(seed), random.Random(seed)
    want = reference_argmax(values, ref_rng, uniform)
    assert _pick(values, max(values), rng, uniform) == want
    # The RNG is drawn from exactly when the reference draws.
    assert rng.getstate() == ref_rng.getstate()


def test_decision_cycle_walks_to_atomic(commuting, bob):
    steps = decision_cycle(bob, _ctx(commuting), commuting, RNG())
    # Fresh cycle enters the sequential root, picks the lexicographically
    # planned part order by score: both parts tie at 0, so bring_kids wins.
    idx = commuting.index
    assert activity_names(idx, [s.node for s in steps]) == ("commuting", "bring_kids_to_school")
    assert _chosen(steps[-1], commuting) == "ride_bike_to_school"
    frame = bob.pending[-1]
    assert frame.activity == idx.aidx["commuting"]
    assert frame.completed == {idx.aidx["bring_kids_to_school"]}


def test_decision_cycle_resumes_pending_sequential(commuting, bob):
    decision_cycle(bob, _ctx(commuting), commuting, RNG())
    bob.resources = 2  # what the engine's per-tick replenish would do
    steps = decision_cycle(bob, _ctx(commuting), commuting, RNG())
    aidx = commuting.index.aidx
    assert steps[0].node == aidx["commuting"]
    assert steps[0].chosen == aidx["go_to_work"]
    assert steps[-1].chosen == aidx["ride_bike_to_work"]
    # All parts done: the stack unwinds and the next cycle starts fresh.
    assert bob.pending == []
    bob.resources = 2
    steps = decision_cycle(bob, _ctx(commuting), commuting, RNG())
    assert steps[0].node == aidx["commuting"]
    assert steps[-1].chosen == aidx["ride_bike_to_school"]


def test_decision_cycle_atomic_root():
    doc = make_doc()
    doc["activities"] = [{"id": "only", "type": "Atomic"}]
    doc["activityConnections"] = []
    doc["valueConnections"] = []
    doc["roots"] = ["only"]
    s = build_scenario(doc)
    state = _agent(s, "ag1")
    only = s.index.aidx["only"]
    # One habitual step with no choice: no attention is spent.
    assert decision_cycle(state, _ctx(s), s, RNG()) == [
        DecisionStep(only, only, DecisionMode.HABITUAL, 0.0, 0.0, (only,))
    ]
    assert state.resources == 1


def test_decision_cycle_attention_budget_depletes(commuting, bob):
    # Budget 2: the first cycle spends both steps, the second runs on habit.
    steps = decision_cycle(bob, _ctx(commuting), commuting, RNG())
    assert [s.mode for s in steps] == [DecisionMode.INTENTIONAL] * 2
    assert bob.resources == 0
    steps = decision_cycle(bob, _ctx(commuting), commuting, RNG())
    assert [s.mode for s in steps] == [DecisionMode.HABITUAL] * 2
    # only nonzero pressure via Morning cue
    assert _chosen(steps[-1], commuting) == "drive_car_to_work"


def test_last_step_candidates(commuting, bob):
    steps = decision_cycle(bob, _ctx(commuting), commuting, RNG())
    assert activity_names(commuting.index, steps[-1].candidates) == (
        "drive_car_to_school", "ride_bike_to_school",
        "take_train_to_school", "walk_to_school",
    )


def test_nested_sequential_completion():
    doc = make_doc()
    doc["activities"] = [
        {"id": "outer", "type": "Sequential"},
        {"id": "inner", "type": "Sequential"},
        {"id": "a1", "type": "Atomic"},
        {"id": "a2", "type": "Atomic"},
        {"id": "tail", "type": "Atomic"},
    ]
    doc["activityConnections"] = [
        {"child": "inner", "parent": "outer", "relation": "PartOf"},
        {"child": "tail", "parent": "outer", "relation": "PartOf"},
        {"child": "a1", "parent": "inner", "relation": "PartOf"},
        {"child": "a2", "parent": "inner", "relation": "PartOf"},
    ]
    doc["valueConnections"] = [
        {"agent": "ag1", "activity": "a1", "value": "thrift",
         "strength": 0.9, "personalView": 0.9},
        {"agent": "ag1", "activity": "inner", "value": "thrift",
         "strength": 0.8, "personalView": 0.8},
    ]
    doc["agents"][0]["attentionBudget"] = 10
    doc["roots"] = ["outer"]
    s = build_scenario(doc)
    state = _agent(s, "ag1")
    performed = [_chosen(decision_cycle(state, _ctx(s), s, RNG())[-1], s) for _ in range(3)]
    assert performed == ["a1", "a2", "tail"]
    assert state.pending == []
