from __future__ import annotations

import dataclasses

import pytest
from helpers import make_doc, mutation_fixtures

from sopra import ViolationKind, build_scenario, validate_scenario
from sopra.scenarios import load_bundled


@pytest.mark.parametrize("name", ["commuting", "cascade", "extensions_demo"])
def test_bundled_scenarios_are_clean(name):
    assert validate_scenario(load_bundled(name)) == []


@pytest.mark.parametrize("label", sorted(mutation_fixtures()))
def test_mutation_fixture_classes(label):
    doc, expected = mutation_fixtures()[label]
    s = build_scenario(doc, check_refs=False)
    report = validate_scenario(s)
    assert report, f"{label}: expected violations"
    assert {v.kind.value for v in report} == {expected}


def test_report_is_pure_and_stable():
    doc, _ = mutation_fixtures()["view-range"]
    s = build_scenario(doc, check_refs=False)
    first = validate_scenario(s)
    second = validate_scenario(s)
    assert first == second


def test_empty_id_in_a_scenario_built_in_code_is_dangling():
    # The builder reports an empty id as a malformed identifier and leaves it
    # out of its reference check; the validator still reports it.
    s = build_scenario(make_doc())
    agent = dataclasses.replace(s.agents[0], location="")
    s = dataclasses.replace(s, agents=(agent,) + s.agents[1:])
    report = validate_scenario(s)
    assert (f"dangling-reference: agents[{agent.id}].location: unknown element ''"
            in [f"{v.kind.value}: {v.message}" for v in report])


def test_duplicate_habitual_triple():
    doc = make_doc()
    row = {"agent": "ag1", "activity": "opt_a", "contextElement": "Home",
           "strength": 0.2, "personalView": 0.2}
    doc["habitualConnections"] = [row, dict(row)]
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert {v.kind for v in report} == {ViolationKind.MULTIPLICITY}


def test_context_parent_must_share_kind():
    doc = make_doc()
    doc["contextElements"].append({"id": "keys", "kind": "Resource", "parent": "Home"})
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert {v.kind for v in report} == {ViolationKind.DISJOINTNESS}


def test_context_parent_cycle():
    doc = make_doc()
    doc["contextElements"] += [
        {"id": "r1", "kind": "Resource", "parent": "r2"},
        {"id": "r2", "kind": "Resource", "parent": "r1"},
    ]
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert ViolationKind.CYCLE in {v.kind for v in report}


def test_childless_composite_nodes_flagged():
    doc = make_doc()
    doc["activities"].append({"id": "ghost", "type": "Sequential"})
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert [v.kind for v in report] == [ViolationKind.TYPING]
    assert "ghost" in report[0].message


def test_timepoint_slot_requires_timepoint():
    doc = make_doc()
    doc["environment"]["timepoints"] = ["Home"]
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert {v.kind for v in report} == {ViolationKind.DISJOINTNESS}


def test_placement_kinds_checked():
    doc = make_doc()
    doc["contextElements"].append({"id": "mat", "kind": "Resource"})
    doc["environment"]["placements"] = {"Morning": ["mat"], "Home": ["Away"]}
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert {v.kind for v in report} == {ViolationKind.DISJOINTNESS}
    assert len(report) == 2


def test_atomic_root_is_allowed():
    doc = make_doc()
    doc["activities"] = [{"id": "only", "type": "Atomic"}]
    doc["activityConnections"] = []
    doc["valueConnections"] = []
    doc["roots"] = ["only"]
    assert validate_scenario(build_scenario(doc)) == []


def test_self_connection_is_a_cycle():
    doc = make_doc()
    doc["activityConnections"].append(
        {"child": "act_root", "parent": "act_root", "relation": "IsA"}
    )
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert ViolationKind.CYCLE in {v.kind for v in report}


def test_diamond_sharing_is_legal():
    # One atomic implementing two abstractions is a DAG, not a cycle.
    doc = make_doc()
    doc["activities"].append({"id": "alt_root", "type": "Abstract"})
    doc["activityConnections"].append(
        {"child": "opt_a", "parent": "alt_root", "relation": "IsA"}
    )
    assert validate_scenario(build_scenario(doc)) == []


def test_two_relocations_of_one_agent_at_one_tick_are_reported_in_either_order():
    moves = [{"tick": 0, "agent": "ag1", "location": "Away"},
             {"tick": 0, "agent": "ag1", "location": "Home"}]
    built = [build_scenario(make_doc(environment={"timepoints": ["Morning"], "placements": {},
                                                  "relocations": order}))
             for order in (moves, moves[::-1])]
    assert built[0] == built[1]
    for s in built:
        assert [(v.kind, v.message) for v in validate_scenario(s)] == [
            (ViolationKind.MULTIPLICITY, "duplicate relocation '0:ag1'")
        ]
