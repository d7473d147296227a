from __future__ import annotations

import dataclasses
import random

import pytest
from helpers import make_doc

from sopra import (
    HabitualConnection,
    RelationType,
    ScenarioError,
    ValueConnection,
    ValuePriority,
    ViewTriple,
    World,
    atomic_leaves,
    build_scenario,
    propagate_value_connection,
    serialize_scenario,
    validate_scenario,
)
from sopra.scenarios import bundled_document, list_bundled
from sopra.testing import random_scenario_document


def test_commuting_structure(commuting):
    assert len(commuting.activities) == 11
    relations = {c.relation for c in commuting.activity_connections}
    assert relations == {RelationType.IS_A, RelationType.PART_OF}
    assert commuting.roots == ("commuting",)


def test_empty_document_rejected():
    with pytest.raises(ScenarioError, match="no activities"):
        build_scenario({})


def test_dangling_value_is_named():
    doc = make_doc()
    doc["valueConnections"].append(
        {"agent": "ag1", "activity": "opt_a", "value": "safety",
         "strength": 0.5, "personalView": 0.5}
    )
    with pytest.raises(ScenarioError, match="safety"):
        build_scenario(doc)


def test_check_refs_can_be_deferred():
    doc = make_doc()
    doc["roots"] = ["missing_root"]
    with pytest.raises(ScenarioError):
        build_scenario(doc)
    s = build_scenario(doc, check_refs=False)
    assert s.roots == ("missing_root",)


def test_duplicate_id_rejected():
    doc = make_doc()
    doc["contextElements"].append({"id": "opt_a", "kind": "Resource"})
    with pytest.raises(ScenarioError, match="duplicate id"):
        build_scenario(doc)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ScenarioError, match="unknown top-level"):
        build_scenario(make_doc(extras=[]))


@pytest.mark.parametrize(
    "field,value,fragment",
    [
        ("habitRate", 0.0, "habitRate"),
        ("habitRate", 1.5, "habitRate"),
        ("attentionBudget", -1, "attentionBudget"),
        ("attentionalResources", 5, "attentionalResources"),
    ],
)
def test_agent_field_ranges(field, value, fragment):
    doc = make_doc()
    doc["agents"][0][field] = value
    with pytest.raises(ScenarioError, match=fragment):
        build_scenario(doc)


@pytest.mark.parametrize(
    "key,value",
    [
        ("habitThreshold", 1.1),
        ("habitThreshold", -0.1),
        ("decayRate", 1.0),
        ("socialLearningRate", 0.0),
        ("awarenessRate", 1.2),
        ("attenuation", -0.5),
        ("deliberationCost", -1),
        ("pressureAggregation", "median"),
        ("tieBreak", "random"),
        ("decayAll", "yes"),
        ("nonsense", 1),
    ],
)
def test_globals_rejected(key, value):
    with pytest.raises(ScenarioError, match="globals"):
        build_scenario(make_doc(globals={key: value}))


def test_bad_enum_values_rejected():
    doc = make_doc()
    doc["activities"][0]["type"] = "Composite"
    with pytest.raises(ScenarioError, match="Atomic, Sequential, Abstract"):
        build_scenario(doc)
    doc = make_doc()
    doc["contextElements"][0]["kind"] = "Place"
    with pytest.raises(ScenarioError):
        build_scenario(doc)


def test_view_triple_defaults_and_out_of_range_builds():
    # Range problems are a validation concern, not a parse failure.
    doc = make_doc()
    doc["habitualConnections"] = [
        {"agent": "ag1", "activity": "opt_a", "contextElement": "Home", "strength": 2.5}
    ]
    s = build_scenario(doc)
    (hc,) = s.habitual_connections
    assert hc.views.strength == 2.5
    assert hc.views.personal_view == 0.0
    assert hc.views.my_collective_view is None


def test_identifier_hygiene():
    doc = make_doc()
    doc["contextElements"].append({"id": "bad,id", "kind": "Resource"})
    with pytest.raises(ScenarioError, match="identifier"):
        build_scenario(doc)


def test_negative_relocation_tick_rejected():
    doc = make_doc()
    doc["environment"]["relocations"] = [{"tick": -3, "agent": "ag1", "location": "Away"}]
    with pytest.raises(ScenarioError, match="non-negative"):
        build_scenario(doc)


def test_error_report_is_cumulative():
    doc = make_doc(globals={"habitThreshold": 7})
    doc["agents"][0]["habitRate"] = -1
    try:
        build_scenario(doc)
    except ScenarioError as exc:
        assert len(exc.problems) >= 2
    else:
        pytest.fail("expected ScenarioError")


@pytest.mark.parametrize("name", ["commuting", "cascade", "extensions_demo"])
def test_bundled_round_trip(name):
    s = build_scenario(bundled_document(name))
    assert build_scenario(serialize_scenario(s)) == s


def test_bundled_listing():
    assert set(list_bundled()) >= {"commuting", "cascade", "extensions_demo"}


@pytest.mark.parametrize("seed", range(12))
def test_random_round_trip(seed):
    doc = random_scenario_document(random.Random(seed))
    s = build_scenario(doc)
    assert build_scenario(serialize_scenario(s)) == s


def test_declaration_order_is_canonicalized():
    doc = make_doc()
    flipped = dict(doc)
    flipped["contextElements"] = list(reversed(doc["contextElements"]))
    flipped["valueConnections"] = list(reversed(doc["valueConnections"]))
    assert build_scenario(doc) == build_scenario(flipped)


def test_rows_built_without_views_do_not_share_one():
    # Rows are mutable records, so a shared default would alias.
    pairs = [
        (HabitualConnection("ag", "act", "el"), HabitualConnection("ag", "act", "el")),
        (ValuePriority("ag", "v"), ValuePriority("ag", "v")),
        (ValueConnection("ag", "act", "v"), ValueConnection("ag", "act", "v")),
    ]
    for a, b in pairs:
        assert a.views == b.views == ViewTriple()
        assert a.views is not b.views


@pytest.mark.parametrize("name", ["commuting", "cascade", "extensions_demo"])
def test_nothing_mutates_a_scenario(name):
    # Rows are not frozen; this pins that the package never edits one.
    s = build_scenario(bundled_document(name))
    before = serialize_scenario(s)
    assert validate_scenario(s) == []
    World(s, 0).run(50)
    idx = s.index
    for activity in idx.activity_ids:
        atomic_leaves(activity, s)
    for agent in idx.agent_ids:
        for value in idx.value_ids:
            for activity in idx.activity_ids:
                propagate_value_connection(agent, value, activity, s)
    assert serialize_scenario(s) == before


def test_replace_gives_a_new_index_and_leaves_the_original():
    s = build_scenario(bundled_document("commuting"))
    old_index = s.index
    row = s.value_connections[0]
    old_views = row.views
    changed = dataclasses.replace(row, views=dataclasses.replace(row.views, strength=0.125))
    s2 = dataclasses.replace(s, value_connections=(changed,) + s.value_connections[1:])

    assert s2.index is not old_index
    assert changed in s2.index.connections_by_agent[row.agent]
    assert propagate_value_connection(row.agent, row.value, row.activity, s2) == 0.125
    assert s.value_connections[0] is row and row.views is old_views
    assert s.index is old_index
    assert row in old_index.connections_by_agent[row.agent]
    assert changed not in old_index.connections_by_agent[row.agent]
    assert s2 != s
