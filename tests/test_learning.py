from __future__ import annotations

import pytest
from helpers import activity_ints, entry, equilibrium_strength, make_doc, snapshot_of

from sopra import (
    ObservationEvent,
    build_scenario,
    habit_tick,
    init_agent_state,
    observe,
    update_personal_view,
)
from sopra._kernel import get_backend


def _views(state, scenario, activity, element):
    idx = scenario.index
    return entry(state.habits, idx.activity_index(activity), idx.element_index(element))


def _keys(state):
    """The (activity, element) index pairs the agent's habit store holds."""
    return {(a, e) for a, e, *_ in state.habits.items()}


def _reinforce(state, scenario, activity, ctx):
    """Reinforce `activity` over `ctx` at the agent's habit rate: a habit
    tick at decay rate 0, which leaves every other entry as it is."""
    idx = scenario.index
    state.habits.habit_tick(idx.activity_index(activity), ctx.ids,
                            idx.agent_specs[state.agent_id].habit_rate, 0.0, False)


@pytest.fixture
def bob(commuting):
    return init_agent_state(commuting, "bob")


def test_reinforce_closes_gap_to_one(commuting, bob):
    ctx = snapshot_of(commuting.index, {"bobs_car", "Morning", "Home"})
    _reinforce(bob, commuting, "drive_car_to_work", ctx)
    assert _views(bob, commuting, "drive_car_to_work", "bobs_car")[0] == pytest.approx(
        0.8 + 0.1 * 0.2
    )
    assert _views(bob, commuting, "drive_car_to_work", "Morning")[0] == pytest.approx(
        0.4 + 0.1 * 0.6
    )
    # Absent pair is created at 0 and then reinforced.
    assert _views(bob, commuting, "drive_car_to_work", "Home")[0] == pytest.approx(0.1)
    # Untouched connection of another activity keeps its strength.
    assert _views(bob, commuting, "walk_to_school", "bring_kids_to_school")[0] == 0.7


def test_reinforce_leaves_personal_views_alone(commuting, bob):
    ctx = snapshot_of(commuting.index, {"bobs_car"})
    _reinforce(bob, commuting, "drive_car_to_work", ctx)
    assert _views(bob, commuting, "drive_car_to_work", "bobs_car")[1] == 0.8


def test_decay_skips_reinforced_pairs():
    doc = make_doc()
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "opt_a", "contextElement": "Home",
         "strength": 0.6, "personalView": 0.6},
        {"agent": "ag1", "activity": "opt_a", "contextElement": "Morning",
         "strength": 0.5, "personalView": 0.5},
        {"agent": "ag1", "activity": "opt_b", "contextElement": "Home",
         "strength": 0.4, "personalView": 0.4},
    ]
    doc["globals"] = {"decayRate": 0.5}
    s = build_scenario(doc)
    state = init_agent_state(s, "ag1")
    # Default-mode decay alone: a habit tick at habit rate 0.
    state.habits.habit_tick(s.index.activity_index("opt_a"),
                            [s.index.element_index("Home")], 0.0, 0.5, False)
    assert _views(state, s, "opt_a", "Home")[0] == 0.6  # reinforced pair kept
    assert _views(state, s, "opt_a", "Morning")[0] == 0.25
    assert _views(state, s, "opt_b", "Home")[0] == 0.2


def test_habit_tick_decay_all_uses_fused_update():
    doc = make_doc()
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "opt_a", "contextElement": "Home",
         "strength": 0.5, "personalView": 0.5}
    ]
    doc["agents"][0]["habitRate"] = 0.5
    doc["globals"] = {"decayRate": 0.1, "decayAll": True}
    s = build_scenario(doc)
    state = init_agent_state(s, "ag1")
    habit_tick(state, s.index.aidx["opt_a"], snapshot_of(s.index, {"Home"}), s)
    # (1-d)h + r(1-h) = 0.45 + 0.25, not the sequential 0.675.
    assert _views(state, s, "opt_a", "Home")[0] == pytest.approx(0.7)


def test_equilibrium_strength():
    assert equilibrium_strength(0.2, 0.05) == pytest.approx(0.8)
    assert equilibrium_strength(0.1, 0.1) == pytest.approx(0.5)
    assert equilibrium_strength(0.3, 0.0) == 1.0
    assert equilibrium_strength(0.2, 0.05, decay_all=False) == 1.0
    with pytest.raises(ValueError):
        equilibrium_strength(0.0, 0.05)
    with pytest.raises(ValueError):
        equilibrium_strength(0.2, 1.0)


def test_decay_all_converges_to_equilibrium():
    doc = make_doc()
    doc["agents"][0]["habitRate"] = 0.2
    doc["globals"] = {"decayRate": 0.05, "decayAll": True}
    s = build_scenario(doc)
    state = init_agent_state(s, "ag1")
    ctx = snapshot_of(s.index, {"Home"})
    star = equilibrium_strength(0.2, 0.05)
    gap = star  # starts at 0
    for _ in range(60):
        habit_tick(state, s.index.aidx["opt_a"], ctx, s)
        h = _views(state, s, "opt_a", "Home")[0]
        new_gap = abs(h - star)
        # The update contracts toward the fixed point by |1 - r - d|.
        assert new_gap <= gap * 0.75 + 1e-15
        gap = new_gap
    assert gap < 1e-6


def test_faster_habit_rate_reinforces_more():
    prev = 0.0
    for rate in (0.05, 0.1, 0.2, 0.4):
        doc = make_doc()
        doc["agents"][0]["habitRate"] = rate
        s = build_scenario(doc)
        state = init_agent_state(s, "ag1")
        habit_tick(state, s.index.aidx["opt_a"], snapshot_of(s.index, {"Home"}), s)
        h = _views(state, s, "opt_a", "Home")[0]
        assert h > prev
        prev = h


def test_update_personal_view_tracks_strength(commuting, bob):
    ctx = snapshot_of(commuting.index, {"bobs_car"})
    _reinforce(bob, commuting, "drive_car_to_work", ctx)  # s: 0.8 -> 0.82
    update_personal_view(bob, commuting)  # awareness 0.5
    s, p, _ = _views(bob, commuting, "drive_car_to_work", "bobs_car")
    assert p == pytest.approx(0.8 + 0.5 * (0.82 - 0.8))
    # Views of unreinforced pairs drift toward their unchanged strength.
    s2, p2, _ = _views(bob, commuting, "drive_car_to_work", "Morning")
    assert p2 == pytest.approx(0.4)


def _two_agent_scenario(**globals_overrides):
    doc = make_doc()
    doc["agents"].append(
        {"id": "ag2", "habitRate": 0.1, "attentionBudget": 1, "location": "Home"}
    )
    doc["habitualConnections"] = [
        {"agent": "ag2", "activity": "opt_b", "contextElement": "Home",
         "strength": 0.6, "personalView": 0.6},
    ]
    doc["globals"] = dict({"socialLearningRate": 0.3}, **globals_overrides)
    return build_scenario(doc)


def test_observe_strengthens_acted_and_weakens_competitors():
    s = _two_agent_scenario()
    states = {a.id: init_agent_state(s, a.id) for a in s.agents}
    ctx = snapshot_of(s.index, {"Home", "Morning"})
    ev = ObservationEvent(observers=("ag2",), actor="ag1", activity=s.index.aidx["opt_a"],
                          context=ctx, tick=3)
    observe(ev, s, states, candidates=activity_ints(s.index, ("opt_a", "opt_b")))
    # New collective views form at 0 and move up by the learning rate.
    assert _views(states["ag2"], s, "opt_a", "Home")[2] == pytest.approx(0.3)
    assert _views(states["ag2"], s, "opt_a", "Morning")[2] == pytest.approx(0.3)
    # The existing competing view weakens; its strength is untouched.
    got = _views(states["ag2"], s, "opt_b", "Home")
    assert got[2] == pytest.approx(0.6 * 0.7)
    assert got[0] == 0.6
    # Absent competing pairs are not created by the negative update.
    idx = s.index
    assert (idx.activity_index("opt_b"), idx.element_index("Morning")) not in _keys(states["ag2"])
    # The actor's own tables are untouched by someone else's observation.
    assert (idx.activity_index("opt_a"), idx.element_index("Home")) not in _keys(states["ag1"])


def test_observe_requires_co_location():
    s = _two_agent_scenario()
    states = {a.id: init_agent_state(s, a.id) for a in s.agents}
    states["ag1"].location = s.index.eidx["Away"]
    ev = ObservationEvent(observers=("ag2",), actor="ag1", activity=s.index.aidx["opt_a"],
                          context=snapshot_of(s.index, {"Away"}), tick=0)
    with pytest.raises(ValueError):
        observe(ev, s, states)


def test_observation_event_rejects_self():
    s = build_scenario(make_doc())
    with pytest.raises(ValueError):
        ObservationEvent(observers=("ag1",), actor="ag1", activity=s.index.aidx["opt_a"],
                         context=snapshot_of(s.index, {"Home"}), tick=0)


def test_observation_event_rejects_a_repeated_observer():
    # Listed twice, ag2 would learn the performance twice: 0.51, not 0.3.
    s = build_scenario(make_doc())
    with pytest.raises(ValueError):
        ObservationEvent(observers=("ag2", "ag2"), actor="ag1", activity=s.index.aidx["opt_a"],
                         context=snapshot_of(s.index, {"Home"}), tick=0)


def test_observe_ignores_acted_among_candidates():
    s = _two_agent_scenario()
    states = {a.id: init_agent_state(s, a.id) for a in s.agents}
    ctx = snapshot_of(s.index, {"Home"})
    ev = ObservationEvent(observers=("ag2",), actor="ag1", activity=s.index.aidx["opt_a"],
                          context=ctx, tick=0)
    observe(ev, s, states, candidates=activity_ints(s.index, ("opt_a",)))
    # One positive update only; the acted activity is not its own competitor.
    assert _views(states["ag2"], s, "opt_a", "Home")[2] == pytest.approx(0.3)


def test_repeated_observation_saturates():
    s = _two_agent_scenario()
    states = {a.id: init_agent_state(s, a.id) for a in s.agents}
    ctx = snapshot_of(s.index, {"Home"})
    last = 0.0
    for t in range(80):
        ev = ObservationEvent(observers=("ag2",), actor="ag1", activity=s.index.aidx["opt_a"],
                              context=ctx, tick=t)
        observe(ev, s, states)
        cur = _views(states["ag2"], s, "opt_a", "Home")[2]
        assert last < cur <= 1.0
        last = cur
    assert last == pytest.approx(1.0, abs=1e-9)


def test_store_observe_weakens_acted_listed_as_competing():
    # Strengthened first, then weakened as a competitor: 0 -> 0.5 -> 0.25.
    store = get_backend("python")([0, 1], [0, 1, 2])
    store.observe(0, [0], [1], 0.5)
    assert entry(store, 0, 1)[2] == 0.25


def test_views_stay_in_unit_interval_under_mixed_ops():
    store = get_backend("python")([0, 1, 2], [0, 1, 2, 3])
    store.set_views(0, 0, 0.999, 0.001, 0.5)
    store.set_views(1, 0, 0.001, 0.999, 0.5)
    for k in range(500):
        store.habit_tick(k % 2, [k % 3], 0.37, 0.0, False)
        store.habit_tick(k % 2, [(k + 1) % 3], 0.2, 0.15, bool(k % 2))
        store.track_personal(0.44)
        store.observe(k % 2, [(k + 1) % 2], [k % 3], 0.29)
        for _, _, s, p, c in store.items():
            assert 0.0 <= s <= 1.0
            assert 0.0 <= p <= 1.0
            assert 0.0 <= c <= 1.0


def _crowd_scenario():
    """Four agents at Home, one Away, with overlapping seeded habits."""
    doc = make_doc()
    for name, loc in (("ag2", "Home"), ("ag3", "Home"), ("ag4", "Home"), ("ag5", "Away")):
        doc["agents"].append(
            {"id": name, "habitRate": 0.1, "attentionBudget": 1, "location": loc}
        )
    doc["habitualConnections"] = [
        {"agent": "ag2", "activity": "opt_b", "contextElement": "Home",
         "strength": 0.6, "personalView": 0.6},
        {"agent": "ag3", "activity": "opt_a", "contextElement": "Morning",
         "strength": 0.3, "personalView": 0.2},
        {"agent": "ag3", "activity": "opt_b", "contextElement": "ag1",
         "strength": 0.5, "personalView": 0.7},
        {"agent": "ag4", "activity": "opt_a", "contextElement": "Home",
         "strength": 0.9, "personalView": 0.4},
    ]
    doc["globals"] = {"socialLearningRate": 0.37}
    s = build_scenario(doc)
    states = {a.id: init_agent_state(s, a.id) for a in s.agents}
    return s, states


# actor -> (performed activity, context, final candidates)
_PERFORMANCES = {
    "ag1": ("opt_a", {"Home", "Morning", "ag2", "ag3", "ag4"}, ("opt_a", "opt_b")),
    "ag2": ("opt_b", {"Home", "ag1", "ag3", "ag4", "opt_b"}, ("opt_a", "opt_b")),
    "ag3": ("opt_a", {"Home", "Morning", "ag1", "ag2", "ag4", "opt_a"}, ("opt_a",)),
    "ag4": ("opt_b", {"Home", "ag1", "ag2", "ag3"}, ("opt_b", "opt_a")),
}


def test_fan_out_equals_pairwise_observation_in_id_order():
    s, fanned = _crowd_scenario()
    _, paired = _crowd_scenario()
    here = ("ag1", "ag2", "ag3", "ag4")
    for actor in here:
        activity, ctx, cands = _PERFORMANCES[actor]
        observers = tuple(ag for ag in here if ag != actor)
        ev = ObservationEvent(observers=observers, actor=actor,
                              activity=s.index.aidx[activity],
                              context=snapshot_of(s.index, ctx), tick=0)
        observe(ev, s, fanned, candidates=activity_ints(s.index, cands))
    for observer in here:
        for actor in here:
            if actor == observer:
                continue
            activity, ctx, cands = _PERFORMANCES[actor]
            ev = ObservationEvent(observers=(observer,), actor=actor,
                                  activity=s.index.aidx[activity],
                                  context=snapshot_of(s.index, ctx), tick=0)
            observe(ev, s, paired, candidates=activity_ints(s.index, cands))
    for ag in fanned:
        assert fanned[ag].habits.items() == paired[ag].habits.items()
    # Each observer did learn something from the others.
    idx = s.index
    for observer in here:
        assert (idx.activity_index("opt_a"), idx.element_index("Home")) in _keys(fanned[observer])


def test_observation_event_rejects_actor_among_observers():
    s = build_scenario(make_doc())
    with pytest.raises(ValueError):
        ObservationEvent(observers=("ag2", "ag1", "ag3"), actor="ag1",
                         activity=s.index.aidx["opt_a"],
                         context=snapshot_of(s.index, {"Home"}), tick=0)


def test_fan_out_rejects_non_co_located_observer_and_updates_nobody():
    s, states = _crowd_scenario()
    before = {ag: states[ag].habits.items() for ag in states}
    ev = ObservationEvent(observers=("ag2", "ag5"), actor="ag1", activity=s.index.aidx["opt_a"],
                          context=snapshot_of(s.index, {"Home"}), tick=0)
    with pytest.raises(ValueError, match="ag5"):
        observe(ev, s, states, candidates=activity_ints(s.index, ("opt_a", "opt_b")))
    for ag in states:
        assert states[ag].habits.items() == before[ag]
