from __future__ import annotations

import copy
import dataclasses
import math
import random
import re

from operator import attrgetter

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
from sopra.model import _VIEWS, GLOBAL_FIELDS, ROW_SECTIONS, ContextElement, ElementKind
from sopra.model import Relocation
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


def test_a_key_field_that_does_not_compare_in_a_scenario_built_in_code_is_reported():
    # None does not sort with the ids, so the section keeps its given order.
    s = load_bundled("commuting")
    rows = s.habitual_connections
    s = dataclasses.replace(
        s, habitual_connections=(dataclasses.replace(rows[0], agent=None), *rows[1:]))
    assert s.habitual_connections[0].agent is None
    assert [f"{v.kind.value}: {v.message}" for v in validate_scenario(s)] == [
        "dangling-reference: habitualConnections[None]: unknown agent None"]


def _commuting_with(**globals_):
    """Bundled commuting with `globals_` set, as a scenario made in code."""
    s = load_bundled("commuting")
    return dataclasses.replace(s, globals=dataclasses.replace(s.globals, **globals_))


def _agents(**fields):
    s = load_bundled("commuting")
    return dataclasses.replace(
        s, agents=tuple(dataclasses.replace(a, **fields) for a in s.agents))


def _relocated(tick):
    s = load_bundled("commuting")
    move = Relocation(tick, "bob", "Office")
    return dataclasses.replace(s, environment=dataclasses.replace(s.environment,
                                                                   relocations=(move,)))


def _with_element(kind):
    s = load_bundled("commuting")
    return dataclasses.replace(
        s, context_elements=(*s.context_elements, ContextElement("chores", kind)))


# Rules on a value, broken in a scenario made in code: each is reported,
# and the world refuses the scenario.
_CODE_BUILT = {
    "habit_rate": (lambda: _agents(habit_rate=1.5), [
        "view-range: agents[alice]: habitRate 1.5 outside (0, 1]",
        "view-range: agents[bob]: habitRate 1.5 outside (0, 1]"]),
    "decay_rate": (lambda: _commuting_with(decay_rate=1.5), [
        "view-range: globals: decayRate 1.5 outside [0, 1)"]),
    "attention_budget": (lambda: _agents(attention_budget=-2), [
        "view-range: agents[alice]: attentionBudget -2 outside [0, inf)",
        "view-range: agents[bob]: attentionBudget -2 outside [0, inf)"]),
    "attentional_resources": (lambda: _agents(attentional_resources=9), [
        "view-range: agents[alice]: attentionalResources 9 exceeds attentionBudget 2",
        "view-range: agents[bob]: attentionalResources 9 exceeds attentionBudget 2"]),
    "deliberation_cost": (lambda: _commuting_with(deliberation_cost=-1), [
        "view-range: globals: deliberationCost -1 outside [0, inf)"]),
    "relocation_tick": (lambda: _relocated(-1), [
        "view-range: environment.relocations[-1:bob]: tick -1 outside [0, inf)"]),
    "element_kind": (lambda: _with_element(ElementKind.ACTIVITY), [
        "disjointness: contextElements[chores].kind: "
        "declare Activity tokens under their own section"]),
    "pressure_aggregation": (lambda: _commuting_with(pressure_aggregation="median"), [
        "typing: globals: pressureAggregation must be one of mean, max, sum, got 'median'"]),
}


@pytest.mark.parametrize("case", sorted(_CODE_BUILT))
def test_a_rule_on_a_value_holds_in_a_scenario_made_in_code(case):
    make, expected = _CODE_BUILT[case]
    s = make()
    assert [f"{v.kind.value}: {v.message}" for v in validate_scenario(s)] == expected
    with pytest.raises(InvalidScenarioError):
        World(s, 0)


@pytest.mark.parametrize("name", ["commuting", "extensions_demo"])
@pytest.mark.parametrize("bad", [None, 7], ids=["none", "int"])
def test_a_field_of_the_wrong_kind_in_a_scenario_made_in_code_is_reported(name, bad):
    # Each key field of a section's last row, and each field that names no
    # pool, replaced: the validator reports it and raises nothing. A field
    # that names no pool (an id, a competence, an enum) is `typing`, by
    # name. Numbers are the bounded fields' test.
    s = load_bundled(name)
    for sec in ROW_SECTIONS:
        if not attrgetter(sec.attr)(s):
            continue
        for fl in sec.fields:
            if fl.within is not None or fl.refs is not None and fl.attr not in sec.key:
                continue
            edited, row = _edit_last_row(s, sec, **{fl.attr: bad})
            report = [f"{v.kind.value}: {v.message}" for v in validate_scenario(edited)]
            assert report, (sec.name, fl.json)
            if fl.refs is None:
                assert f"typing: {sec.name}[{sec.label(row)}]: {fl.json} must be " in "\n".join(
                    report), (sec.name, fl.json, report)
            with pytest.raises(InvalidScenarioError):
                World(edited, 0)


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
        "multiplicity: duplicate activity connection 'opt_a:act_root:IsA'"]


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


_BOUNDED = [sec for sec in ROW_SECTIONS if any(fl.within for fl in sec.fields)]


def _camel(attr):
    return re.sub(r"_(\w)", lambda m: m.group(1).upper(), attr)


def _is_view_section(sec):
    return sec.fields[-len(_VIEWS):] == _VIEWS


def _edit_row(s, sec, i, **fields):
    """`s` with row `i` of `sec` edited, and the edited row."""
    rows = list(attrgetter(sec.attr)(s))
    row = rows[i] = dataclasses.replace(rows[i], **fields)
    holder, _, attr = sec.attr.rpartition(".")  # "environment.relocations"
    if holder:
        inner = dataclasses.replace(getattr(s, holder), **{attr: tuple(rows)})
        return dataclasses.replace(s, **{holder: inner}), row
    return dataclasses.replace(s, **{attr: tuple(rows)}), row


def _edit_first_row(s, sec, **fields):
    return _edit_row(s, sec, 0, **fields)


def _edit_last_row(s, sec, **fields):
    return _edit_row(s, sec, -1, **fields)


@pytest.mark.parametrize("sec", _BOUNDED, ids=[sec.name for sec in _BOUNDED])
def test_a_bounded_field_that_is_not_a_number_is_a_view_range(sec):
    # The builder makes every bounded field a number of its kind, but a
    # row edited in code can hold anything. Each value of the wrong kind
    # is listed, with the field's document name; the world refuses the
    # scenario.
    s = load_bundled("commuting" if _is_view_section(sec) else "extensions_demo")
    for fl in sec.fields:
        if fl.within is None:
            continue
        integer = fl.kind == "integer"
        for bad in (None, "0.5", True, *((0.5,) if integer else ())):
            if bad is None and fl.optional:
                continue
            edited, row = _edit_first_row(s, sec, **{fl.attr: bad})
            takes = "an integer" if integer else "a number"
            assert validate_scenario(edited) == [Violation(
                ViolationKind.VIEW_RANGE,
                f"{sec.name}[{sec.label(row)}]: {fl.json} must be {takes}, got {bad!r}",
            )], (fl.json, bad)
            with pytest.raises(InvalidScenarioError):
                World(edited, 0)
        # An int in range is a number in its interval; one out of range
        # keeps the numeric wording.
        assert validate_scenario(_edit_first_row(s, sec, **{fl.attr: 1})[0]) == []
        edited, row = _edit_first_row(s, sec, **{fl.attr: -1})
        assert [v.message for v in validate_scenario(edited)] == [
            f"{sec.name}[{sec.label(row)}]: {fl.json} -1 outside {fl.within}"]
        if fl.optional:
            assert validate_scenario(_edit_first_row(s, sec, **{fl.attr: None})[0]) == []


def _boundary_values(fl):
    """(inside, outside) for `fl`'s interval: its closed ends and the next
    value inward from an open end are inside; its open ends, the next
    value past each end (the next float, or for an integer field the next
    integer) and, for a number field, NaN are outside. An infinite end
    has none."""
    def step(x, direction):
        if fl.kind == "integer":
            return x + direction
        return math.nextafter(x, direction * math.inf)

    lo, hi = (float(x) for x in fl.within[1:-1].split(","))
    inside, outside = [], []
    for end, closed, away in ((lo, fl.within[0] == "[", -1), (hi, fl.within[-1] == "]", 1)):
        if math.isinf(end):
            continue
        if closed:
            inside.append(end)
        else:
            outside.append(end)
            inside.append(step(end, -away))
        outside.append(step(end, away))
    if fl.kind == "integer":
        return [int(x) for x in inside], [int(x) for x in outside]
    return inside, outside + [math.nan]


def test_each_declared_interval_takes_its_closed_ends_and_nothing_outside():
    # Rows and globals alike.
    bundled = {name: load_bundled(name) for name in ("commuting", "extensions_demo")}
    sites = [(sec, fl) for sec in ROW_SECTIONS for fl in sec.fields if fl.within]
    sites += [(None, fl) for fl in GLOBAL_FIELDS if fl.within]
    for sec, fl in sites:
        s = bundled["commuting" if sec is None or _is_view_section(sec) else "extensions_demo"]
        inside, outside = _boundary_values(fl)
        assert outside, fl.json
        for x in inside + outside:
            if sec is None:
                edited = dataclasses.replace(s, globals=dataclasses.replace(s.globals, **{fl.attr: x}))
                where = "globals"
            else:
                edited, row = _edit_first_row(s, sec, **{fl.attr: x})
                where = f"{sec.name}[{sec.label(row)}]"
            report = [f"{v.kind.value}: {v.message}" for v in validate_scenario(edited)]
            if x in inside:
                assert report == [], (fl.json, x)
            else:
                assert report == [f"view-range: {where}: {fl.json} {x!r} outside {fl.within}"], (
                    fl.json, x)


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
        if len(sec.unique or sec.key) == len(sec.fields):
            continue  # the key is the whole row (activity connections)
        row = _doc_rows(base, sec)[0]
        others = set(row) - {_camel(f) for f in sec.unique or sec.key}
        if _is_view_section(sec):
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
