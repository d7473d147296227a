from __future__ import annotations

import math
import random

import pytest
from helpers import entry, make_doc, nested_chain_doc

from sopra import (
    ActivityType,
    RelationType,
    ScenarioError,
    UnknownIdError,
    atomic_leaves,
    build_scenario,
    init_agent_state,
    propagate_value_connection,
    validate_scenario,
)
from sopra.scenarios import list_bundled, load_bundled
from sopra.testing import random_scenario_document


def brute_descendants(doc, activity):
    """Independent fixpoint over the raw connection rows."""
    out = set()
    grew = True
    while grew:
        grew = False
        for row in doc["activityConnections"]:
            if row["parent"] == activity or row["parent"] in out:
                if row["child"] not in out:
                    out.add(row["child"])
                    grew = True
    return out


def brute_atomic_leaves(doc, activity):
    """The atomic nodes among `activity` and its brute-force descendants."""
    atomic = {a["id"] for a in doc["activities"] if a["type"] == "Atomic"}
    return (brute_descendants(doc, activity) | {activity}) & atomic


def test_children_by_relation(commuting, commuting_doc):
    # A composite node has children of one relation: commuting's are parts.
    children = commuting.index.children
    assert children("commuting") == ("bring_kids_to_school", "go_to_work")
    assert {r["relation"] for r in commuting_doc["activityConnections"]
            if r["parent"] == "commuting"} == {"PartOf"}
    assert children("go_to_work") == tuple(sorted(
        r["child"] for r in commuting_doc["activityConnections"]
        if r["parent"] == "go_to_work"
    ))
    assert children("walk_to_work") == ()
    with pytest.raises(ScenarioError):
        children("no_such")


def _assert_options_follow_children(scenario):
    idx = scenario.index
    type_of = dict(zip(idx.activity_ids, idx.activity_type))
    composite = [a for a in idx.activity_ids if type_of[a] is not ActivityType.ATOMIC]
    assert sorted(idx.options) == [idx.aidx[a] for a in composite]  # atomic nodes are absent
    relation_of = {(c.child, c.parent): c.relation for c in scenario.activity_connections}
    for a in composite:
        relation = (RelationType.IS_A if type_of[a] is ActivityType.ABSTRACT
                    else RelationType.PART_OF)
        kids = idx.children(a)
        assert idx.options[idx.aidx[a]] == tuple(idx.aidx[c] for c in kids)
        assert {relation_of[c, a] for c in kids} == {relation}


@pytest.mark.parametrize("name", list_bundled())
def test_options_on_bundled_scenarios(name):
    _assert_options_follow_children(load_bundled(name))


def test_options_on_random_scenarios():
    for seed in range(40):
        doc = random_scenario_document(random.Random(seed))
        _assert_options_follow_children(build_scenario(doc))


def test_atomic_leaves_match_bruteforce(commuting, commuting_doc):
    for a in [x["id"] for x in commuting_doc["activities"]]:
        assert atomic_leaves(a, commuting) == brute_atomic_leaves(commuting_doc, a)


def test_atomic_leaves_on_random_trees():
    rng = random.Random(7)
    for _ in range(20):
        doc = random_scenario_document(rng)
        s = build_scenario(doc)
        for a in [x["id"] for x in doc["activities"]]:
            assert atomic_leaves(a, s) == brute_atomic_leaves(doc, a)


def test_atomic_leaves(commuting):
    assert atomic_leaves("go_to_work", commuting) == {
        "take_train_to_work",
        "ride_bike_to_work",
        "walk_to_work",
        "drive_car_to_work",
    }
    assert len(atomic_leaves("commuting", commuting)) == 8
    assert atomic_leaves("walk_to_work", commuting) == {"walk_to_work"}


def test_unknown_activity_rejected(commuting):
    with pytest.raises(ScenarioError):
        atomic_leaves("no_such", commuting)


def _ancestors(idx, element):
    """Parents of `element` walking outward, read from the chain tables the
    habit store's pressures use."""
    i = idx.element_index(element)
    chain = idx.chain_data[idx.chain_start[i]:idx.chain_start[i + 1]]
    assert chain[0] == i
    return tuple(idx.element_ids[j] for j in chain[1:])


def test_context_ancestors(commuting):
    idx = commuting.index
    assert _ancestors(idx, "bobs_car") == ("car",)
    assert _ancestors(idx, "car") == ()
    assert _ancestors(idx, "Home") == ()
    with pytest.raises(ScenarioError):
        _ancestors(idx, "no_such")


def test_context_ancestors_long_chain():
    doc = make_doc()
    doc["contextElements"] += [
        {"id": "c1", "kind": "Resource"},
        {"id": "c2", "kind": "Resource", "parent": "c1"},
        {"id": "c3", "kind": "Resource", "parent": "c2"},
        {"id": "c4", "kind": "Resource", "parent": "c3"},
    ]
    s = build_scenario(doc)
    assert _ancestors(s.index, "c4") == ("c3", "c2", "c1")


def test_propagate_commuting_examples(commuting):
    assert propagate_value_connection("bob", "boring", "bring_kids_to_school", commuting) == 0.6
    assert propagate_value_connection("bob", "boring", "go_to_work", commuting) == 0.55
    assert propagate_value_connection("bob", "boring", "commuting", commuting) == 0.55
    # A leaf without a stored connection contributes zero.
    assert propagate_value_connection("bob", "environmentalism", "go_to_work", commuting) == 0.0
    # Atomic nodes just read the stored strength.
    assert propagate_value_connection("bob", "boring", "walk_to_school", commuting) == 0.9
    assert propagate_value_connection("bob", "efficiency", "walk_to_school", commuting) == 0.0


def test_propagate_unknown_value(commuting):
    with pytest.raises(UnknownIdError, match="unknown value: 'glamour'"):
        propagate_value_connection("bob", "glamour", "commuting", commuting)


def test_propagate_unknown_agent_or_activity(commuting):
    with pytest.raises(UnknownIdError, match="unknown agent: 'nobody'"):
        propagate_value_connection("nobody", "boring", "commuting", commuting)
    with pytest.raises(UnknownIdError, match="unknown activity: 'teleport'"):
        propagate_value_connection("bob", "boring", "teleport", commuting)


def brute_propagate(doc, agent, value, activity):
    types = {a["id"]: a["type"] for a in doc["activities"]}
    stored = {
        (r["activity"], r["value"]): r["strength"]
        for r in doc["valueConnections"]
        if r["agent"] == agent
    }

    def rec(node):
        if types[node] == "Atomic":
            return stored.get((node, value), 0.0)
        rel = "IsA" if types[node] == "Abstract" else "PartOf"
        kids = [r["child"] for r in doc["activityConnections"]
                if r["parent"] == node and r["relation"] == rel]
        return min(rec(k) for k in kids)

    return rec(activity)


def test_propagate_matches_bruteforce_on_random_trees():
    rng = random.Random(99)
    for _ in range(25):
        doc = random_scenario_document(rng)
        s = build_scenario(doc)
        for agent in [ag["id"] for ag in doc["agents"]]:
            for value in doc["values"]:
                for a in [x["id"] for x in doc["activities"]]:
                    got = propagate_value_connection(agent, value, a, s)
                    want = brute_propagate(doc, agent, value, a)
                    assert got == want, (agent, value, a)


def test_a_deep_chain_of_abstract_activities():
    # Deeper than the interpreter's recursion limit allows a recursive
    # walk to go: the frontier below every node of the chain is the leaf.
    s = build_scenario(nested_chain_doc(400))
    assert validate_scenario(s) == []
    for activity in ("nest0000", "nest0399"):
        assert propagate_value_connection("ag1", "thrift", activity, s) == 0.5
        assert atomic_leaves(activity, s) == {"leaf"}


def test_a_reached_composite_without_children_raises():
    # Only a scenario that skipped validation has one; the walk stops at
    # it, whether it asks for leaves or a propagated strength.
    doc = make_doc()
    doc["activities"].append({"id": "ghost", "type": "Sequential"})
    doc["activityConnections"].append({"child": "ghost", "parent": "act_root",
                                       "relation": "IsA"})
    s = build_scenario(doc, check_refs=False)
    message = "non-atomic activity 'ghost' has no children"
    for activity in ("act_root", "ghost"):
        with pytest.raises(ScenarioError, match=message):
            atomic_leaves(activity, s)
        with pytest.raises(ScenarioError, match=message):
            propagate_value_connection("ag1", "thrift", activity, s)
    assert atomic_leaves("opt_a", s) == {"opt_a"}


def test_project_collective_defaults_to_personal(commuting):
    # init_agent_state seeds a habit collective view the scenario leaves
    # unformed with the personal view.
    bob = init_agent_state(commuting, "bob")
    idx = commuting.index
    row = next(hc for hc in idx.habitual_by_agent["bob"]
               if (hc.activity, hc.context_element) == ("drive_car_to_work", "bobs_car"))
    assert row.my_collective_view is None
    s, p, c = entry(
        bob.habits, idx.activity_index("drive_car_to_work"), idx.element_index("bobs_car")
    )
    assert (s, p, c) == (0.8, 0.8, 0.8)
    for a, e, s, p, c in bob.habits.items():
        assert not math.isnan(c)


def test_project_collective_is_idempotent_and_keeps_formed_views():
    # A collective view the scenario sets is kept, not replaced by the
    # personal one, and building the state twice gives the same store.
    doc = make_doc(habitualConnections=[
        {"agent": "ag1", "activity": "opt_a", "contextElement": "Home",
         "strength": 0.6, "personalView": 0.5, "myCollectiveView": 0.25},
        {"agent": "ag1", "activity": "opt_b", "contextElement": "Home",
         "strength": 0.4, "personalView": 0.3},
    ])
    s = build_scenario(doc)
    idx = s.index
    home = idx.element_index("Home")
    state = init_agent_state(s, "ag1")
    assert entry(state.habits, idx.activity_index("opt_a"), home) == (0.6, 0.5, 0.25)
    assert entry(state.habits, idx.activity_index("opt_b"), home) == (0.4, 0.3, 0.3)
    assert init_agent_state(s, "ag1").habits.items() == state.habits.items()
