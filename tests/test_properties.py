from __future__ import annotations

import random
from unittest import mock

from helpers import ReferenceHabitStore
from hypothesis import given, settings, strategies as st

import sopra.engine
from sopra import (
    ActivityType,
    World,
    build_scenario,
    descendants,
    equilibrium_strength,
    run,
    serialize_scenario,
    snapshot_context,
    validate_scenario,
)
from sopra._kernel import AGG_MAX, AGG_MEAN, AGG_SUM, get_backend
from sopra.testing import random_scenario_document, scale_value_priorities

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
rate = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


@st.composite
def store_ops(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n):
        kind = draw(st.integers(min_value=0, max_value=5))
        a = draw(st.integers(min_value=0, max_value=3))
        elems = draw(st.lists(st.integers(min_value=0, max_value=2),
                              min_size=1, max_size=3, unique=True))
        if kind == 0:
            ops.append(("set", a, elems[0], draw(unit), draw(unit), draw(unit)))
        elif kind == 1:
            # Reinforcement alone: decay rate 0.
            ops.append(("tick", a, sorted(elems), draw(unit), 0.0, False))
        elif kind == 2:
            ops.append(("tick", a, sorted(elems), draw(unit),
                        draw(st.floats(min_value=0.0, max_value=0.99)),
                        draw(st.booleans())))
        elif kind == 3:
            ops.append(("track", draw(unit)))
        elif kind == 4:
            # The competing list may hold the acted activity itself.
            comp = draw(st.lists(st.integers(min_value=0, max_value=3),
                                 max_size=2, unique=True))
            ops.append(("observe", a, sorted(comp), sorted(elems), draw(unit)))
        else:
            # Default-mode decay alone: habit rate 0.
            ops.append(("tick", a, sorted(elems), 0.0, draw(unit), False))
    return ops


def _fresh_store(store_cls=None):
    # elements 0..2, 2 has parent 1 has parent 0
    return (store_cls or get_backend("python"))([0, 1, 0, 2, 1, 0], [0, 1, 3, 6])


def _apply(store, ops):
    for op in ops:
        getattr_map = {
            "set": store.set_views,
            "tick": store.habit_tick,
            "track": store.track_personal,
            "observe": store.observe,
        }
        getattr_map[op[0]](*op[1:])


@given(store_ops())
@settings(max_examples=120, deadline=None)
def test_views_stay_bounded(ops):
    store = _fresh_store()
    _apply(store, ops)
    for _, _, s, p, c in store.items():
        assert 0.0 <= s <= 1.0
        assert 0.0 <= p <= 1.0
        assert 0.0 <= c <= 1.0


@given(store_ops(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_pressures_bounded(ops, attenuation):
    store = _fresh_store()
    _apply(store, ops)
    stored_max = max((r[2] for r in store.items()), default=0.0)
    elems = [0, 1, 2]
    for agg in (AGG_MEAN, AGG_MAX):
        for v in store.pressures([0, 1, 2, 3], elems, attenuation, agg):
            assert 0.0 <= v <= stored_max + 1e-12
    for v in store.pressures([0, 1, 2, 3], elems, attenuation, AGG_SUM):
        assert 0.0 <= v <= len(elems) * stored_max + 1e-12


@given(store_ops())
@settings(max_examples=200, deadline=None)
def test_store_matches_reference_bit_for_bit(ops):
    # float.hex compares bits.
    store = _fresh_store()
    ref = _fresh_store(ReferenceHabitStore)
    _apply(store, ops)
    _apply(ref, ops)

    def table(s):
        return [(a, e) + tuple(v.hex() for v in views) for a, e, *views in s.items()]

    assert table(store) == table(ref)  # creation order included
    n, *totals = store.sums()
    ref_n, *ref_totals = ref.sums()
    assert (n, [v.hex() for v in totals]) == (ref_n, [v.hex() for v in ref_totals])
    # Activity 4 never gets an entry.
    for attenuation in (0.0, 0.5, 1.0):
        for agg in (AGG_MEAN, AGG_MAX, AGG_SUM):
            for elems in ([0, 1, 2], [2], [1, 0]):
                got = store.pressures([0, 1, 2, 3, 4], elems, attenuation, agg)
                want = ref.pressures([0, 1, 2, 3, 4], elems, attenuation, agg)
                assert [v.hex() for v in got] == [v.hex() for v in want]


@given(rate, st.floats(min_value=0.0, max_value=0.9), unit)
@settings(max_examples=80, deadline=None)
def test_fused_update_converges_to_equilibrium(r, d, h0):
    star = equilibrium_strength(r, d)
    h = h0
    for _ in range(2000):
        h = (1.0 - d) * h + r * (1.0 - h)
    assert abs(h - star) < 1e-6


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_document_round_trip(seed):
    doc = random_scenario_document(random.Random(seed))
    s1 = build_scenario(doc)
    s2 = build_scenario(serialize_scenario(s1))
    assert s1 == s2
    assert serialize_scenario(s1) == serialize_scenario(s2)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_generated_scenarios_validate_clean(seed):
    s = build_scenario(random_scenario_document(random.Random(seed)))
    report = validate_scenario(s)
    assert report == []
    assert validate_scenario(s) == report  # pure


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_hierarchy_edges_nest(seed):
    doc = random_scenario_document(random.Random(seed))
    s = build_scenario(doc)
    for row in doc["activityConnections"]:
        below = descendants(row["parent"], s)
        assert row["child"] in below
        assert descendants(row["child"], s) <= below


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_runs_emit_atomic_activities_with_bounded_columns(seed):
    s = build_scenario(random_scenario_document(random.Random(seed)))
    types = {a.id: a.type for a in s.activities}
    events, metrics = run(s, 10, seed=seed)
    assert len(events) == 10 * len(s.agents)
    for e in events:
        assert types[e.activity] is ActivityType.ATOMIC
        assert 0.0 <= e.pressure <= 1.0
        assert 0.0 <= e.score <= 1.0
    for row in metrics:
        assert 0.0 <= row.habitual_fraction <= 1.0
        assert sum(row.counts) == len(s.agents)


@given(st.integers(min_value=0, max_value=10_000),
       st.sampled_from([2.0, 3.7, 0.5, 1.25]))
@settings(max_examples=25, deadline=None)
def test_choices_invariant_under_priority_scaling(seed, factor):
    doc = random_scenario_document(random.Random(seed))
    scaled = scale_value_priorities(doc, factor)
    a, _ = run(build_scenario(doc), 15, seed=seed)
    b, _ = run(build_scenario(scaled), 15, seed=seed)
    assert [(e.agent, e.activity, e.mode) for e in a] == [
        (e.agent, e.activity, e.mode) for e in b
    ]


@st.composite
def relocating_worlds(draw):
    """A generated scenario with a resource placed at one location and
    agents hopping between locations at drawn ticks."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_agents = draw(st.integers(min_value=1, max_value=6))
    n_locations = draw(st.integers(min_value=1, max_value=3))
    doc = random_scenario_document(random.Random(seed), n_agents=n_agents,
                                   n_locations=n_locations)
    doc["contextElements"].append({"id": "res0", "kind": "Resource"})
    doc["environment"]["placements"] = {"loc0": ["res0"]}
    doc["environment"]["relocations"] = draw(st.lists(
        st.fixed_dictionaries({
            "agent": st.sampled_from([f"ag{i}" for i in range(n_agents)]),
            "tick": st.integers(min_value=0, max_value=5),
            "location": st.sampled_from([f"loc{i}" for i in range(n_locations)]),
        }),
        max_size=8,
        unique_by=lambda r: (r["agent"], r["tick"]),
    ))
    return build_scenario(doc), seed


@given(relocating_worlds())
@settings(max_examples=40, deadline=None)
def test_bucketed_snapshot_equals_standalone_scan(world_and_seed):
    scenario, seed = world_and_seed
    world = World(scenario, seed)
    taken = []

    def check(w, agent, here):
        snap = snapshot_context(w, agent, here)
        alone = snapshot_context(w, agent)
        assert snap == alone
        assert snap.ids == tuple(
            sorted(w.scenario.index.element_index(e) for e in alone.present)
        )
        taken.append(agent)
        return snap

    with mock.patch.object(sopra.engine, "snapshot_context", check):
        world.run(7)
    idx = scenario.index
    assert [idx.element_ids[e] for e in taken] == list(idx.agent_ids) * 7


@given(relocating_worlds())
@settings(max_examples=40, deadline=None)
def test_snapshot_is_the_documented_context(world_and_seed):
    """C(a, t) as docs/model.md defines it, from names: the agent's
    location, the tick's timepoint, the resources placed there, the other
    agents there, and the activity it performed last tick."""
    scenario, seed = world_and_seed
    idx = scenario.index
    env = scenario.environment
    placements = dict(env.placements)
    location = {spec.id: spec.location for spec in scenario.agents}
    last: dict[str, str] = {}
    world = World(scenario, seed)
    for t in range(8):
        for a, here in location.items():
            want = {here, *placements.get(here, ())}
            want.update(b for b, there in location.items() if b != a and there == here)
            if env.timepoints:
                want.add(env.timepoints[t % len(env.timepoints)])
            if a in last:
                want.add(last[a])
            snap = snapshot_context(world, idx.eidx[a])
            assert snap.ids == tuple(sorted(idx.eidx[e] for e in want))
            assert snap.present == want
        for e in world.step():
            last[e.agent] = e.activity
        for r in env.relocations:
            if r.tick == t:
                location[r.agent] = r.location
