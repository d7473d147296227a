from __future__ import annotations

import copy
import dataclasses
import random
import re

import pytest
from helpers import make_doc, mutation_fixtures

from sopra import (
    InvalidScenarioError,
    ScenarioError,
    Violation,
    ViolationKind,
    World,
    build_scenario,
    validate_scenario,
)
from sopra.model import ROW_SECTIONS
from sopra.scenarios import load_bundled
from sopra.testing import random_scenario_document


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


def test_none_at_a_required_reference_in_a_scenario_built_in_code_is_dangling():
    # Only an optional reference may be None; a required one names no element.
    s = build_scenario(make_doc())
    agent = dataclasses.replace(s.agents[0], location=None)
    s = dataclasses.replace(s, agents=(agent,) + s.agents[1:])
    assert [f"{v.kind.value}: {v.message}" for v in validate_scenario(s)] == [
        f"dangling-reference: agents[{agent.id}].location: unknown element None"]


def test_duplicate_habitual_triple():
    doc = make_doc()
    row = {"agent": "ag1", "activity": "opt_a", "contextElement": "Home",
           "strength": 0.2, "personalView": 0.2}
    doc["habitualConnections"] = [row, dict(row)]
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert {v.kind for v in report} == {ViolationKind.MULTIPLICITY}


def _reports(doc) -> list[str]:
    return [f"{v.kind.value}: {v.message}"
            for v in validate_scenario(build_scenario(doc, check_refs=False))]


def test_duplicate_activity_connection():
    doc = make_doc()
    doc["activityConnections"].append(dict(doc["activityConnections"][0]))
    assert _reports(doc) == [
        "multiplicity: duplicate activity connection 'opt_a' -IsA-> 'act_root'"]


def test_sequential_activity_takes_part_of_children():
    doc = make_doc()
    doc["activities"].append({"id": "seq", "type": "Sequential"})
    doc["activityConnections"].append({"child": "opt_a", "parent": "seq", "relation": "IsA"})
    assert _reports(doc) == [
        "typing: sequential activity 'seq' takes PartOf children, got IsA from 'opt_a'"]


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


_BOUNDED = [sec for sec in ROW_SECTIONS if sec.bounded is not None]
_VIEW_ATTRS = ("strength", "personal_view", "my_collective_view")


def _camel(attr):
    return re.sub(r"_(\w)", lambda m: m.group(1).upper(), attr)


@pytest.mark.parametrize("sec", _BOUNDED, ids=[sec.name for sec in _BOUNDED])
def test_a_bounded_field_that_is_not_a_number_is_a_view_range(sec):
    # The builder makes every bounded field a float, but a row edited in
    # code can hold anything. Each non-number is listed, with the field's
    # document name; the world refuses the scenario.
    s = load_bundled("commuting" if sec.bounded == "views" else "extensions_demo")
    rows = getattr(s, sec.attr)
    row = rows[0]

    def edit(**fields):
        edited = dataclasses.replace(row, **fields)
        return dataclasses.replace(s, **{sec.attr: (edited, *rows[1:])})

    for attr in _VIEW_ATTRS if sec.bounded == "views" else (sec.bounded,):
        for bad in (None, "0.5", True):
            if bad is None and attr == "my_collective_view":
                continue
            assert validate_scenario(edit(**{attr: bad})) == [Violation(
                ViolationKind.VIEW_RANGE,
                f"{sec.name}[{sec.label(row)}]: {_camel(attr)} must be a number, got {bad!r}",
            )], (attr, bad)
            with pytest.raises(InvalidScenarioError):
                World(edit(**{attr: bad}), 0)
        # An int in range is a number in [0, 1]; one out of range keeps
        # the numeric wording.
        assert validate_scenario(edit(**{attr: 1})) == []
        assert [v.message for v in validate_scenario(edit(**{attr: 2}))] == [
            f"{sec.name}[{sec.label(row)}]: {_camel(attr)} 2 outside [0, 1]"]
    if sec.bounded == "views":
        assert validate_scenario(edit(my_collective_view=None)) == []


def _doc_rows(doc, sec):
    part, _, name = sec.name.rpartition(".")
    return (doc[part] if part else doc)[name]


def _with_every_row_section(doc):
    """`doc` plus one row in each section the generator leaves empty."""
    atomic = next(a["id"] for a in doc["activities"] if a["type"] == "Atomic")
    agent = doc["agents"][0]["id"]
    doc["affordances"] = [{"contextElement": "loc0", "activity": atomic, "strength": 0.5}]
    doc["competences"] = {
        "levels": [{"agent": agent, "competence": "skill", "level": 0.5}],
        "requirements": [{"activity": atomic, "competence": "skill", "required": 0.25}],
    }
    doc["environment"]["relocations"] = [{"tick": 3, "agent": agent, "location": "loc1"}]
    return doc


def _changed(key, value):
    """A valid value for document field `key` that differs from `value`."""
    if key == "location":
        return "loc0" if value != "loc0" else "loc1"
    if key == "kind":
        return "Resource" if value != "Resource" else "Location"
    if key == "type":
        return "Atomic" if value != "Atomic" else "Abstract"
    if key == "parent":
        return "tp0" if value != "tp0" else "tp1"
    if key in ("attentionBudget", "attentionalResources"):
        return 1 if value != 1 else 0
    return 0.25 if value != 0.25 else 0.75


@pytest.mark.parametrize("seed", range(5))
def test_a_second_row_for_an_occupied_slot_is_reported(seed):
    # A row that repeats another's key, or the fields a section holds
    # unique, is a second row for the same slot however its other fields
    # differ, view fields included.
    base = _with_every_row_section(random_scenario_document(random.Random(seed), n_agents=3))
    assert validate_scenario(build_scenario(base)) == []
    for sec in ROW_SECTIONS:
        if sec.duplicate is None and sec.key != ("id",):
            continue  # the activity-connection key is the whole row
        row = _doc_rows(base, sec)[0]
        others = set(row) - {_camel(f) for f in sec.unique or sec.key}
        if sec.bounded == "views":
            others |= {"strength", "personalView", "myCollectiveView"}
        assert others, sec.name
        for key in sorted(others):
            doc = copy.deepcopy(base)
            twin = dict(row, **{key: _changed(key, row.get(key))})
            _doc_rows(doc, sec).append(twin)
            if sec.duplicate is None:
                with pytest.raises(ScenarioError) as exc:
                    build_scenario(doc)
                assert f"duplicate id: {row['id']!r}" in exc.value.problems, (sec.name, key)
                continue
            built = build_scenario(doc)
            assert built != build_scenario(base)
            report = validate_scenario(built)
            assert [v.kind for v in report] == [ViolationKind.MULTIPLICITY], (sec.name, key)
            assert report[0].message.startswith(f"duplicate {sec.duplicate} "), (sec.name, key)
