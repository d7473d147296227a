"""Pinned reports for malformed scenario documents.

Each case mutates the bundled commuting document and checks, against
literals, the exact `ScenarioError` message list with `check_refs` on and
off, and the exact `validate_scenario` report (None when the document
does not build). Message texts, their order and their multiplicity are
part of the contract, so any change to the builder or the validator that
touches them shows up here.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Any, Callable

import pytest

from sopra import ScenarioError, build_scenario, validate_scenario
from sopra.scenarios import bundled_document

Doc = dict[str, Any]
_MISSING = object()


def _set(section: str, row: int, key: str, value: Any) -> Callable[[Doc], None]:
    def mutate(doc: Doc) -> None:
        if value is _MISSING:
            doc[section][row].pop(key, None)
        else:
            doc[section][row][key] = value
    return mutate


def _append(section: str, row: Any) -> Callable[[Doc], None]:
    def mutate(doc: Doc) -> None:
        doc.setdefault(section, []).append(row)
    return mutate


def _all(*mutations: Callable[[Doc], None]) -> Callable[[Doc], None]:
    def mutate(doc: Doc) -> None:
        for m in mutations:
            m(doc)
    return mutate


def _views(**kw: Any) -> dict[str, Any]:
    return {"strength": 0.5, "personalView": 0.5, **kw}


ID_DEFECTS = {
    "missing": _MISSING,
    "empty": "",
    "int": 5,
    "none": None,
    "list": ["bob"],
    "dict": {"id": "bob"},
    "bool": True,
    "comma": "bo,b",
    "lead_space": " bob",
    "trail_space": "bob ",
    "newline": "bo\nb",
    # A carriage return splits a CSV row; a lone surrogate cannot be
    # written as UTF-8.
    "carriage_return": "bo\rb",
    "surrogate": "bo\ud800b",
    # A leading double quote opens a quoted CSV field that swallows the
    # rows after it.
    "double_quote": '"bob',
}
ID_SITES = {
    "vc_agent": ("valueConnections", 2, "agent"),
    "vc_value": ("valueConnections", 4, "value"),
    "agent_id": ("agents", 0, "id"),
    "habit_element": ("habitualConnections", 0, "contextElement"),
    "element_parent": ("contextElements", 6, "parent"),
}
NUMBER_DEFECTS = {
    "missing": _MISSING,
    "bool": True,
    "string": "0.5",
    "none": None,
    "int": 1,
    "nan": math.nan,
    "above_one": 1.5,
}
NUMBER_SITES = {
    "vc_strength": ("valueConnections", 0, "strength"),
    "vc_personal": ("valueConnections", 5, "personalView"),
    "vc_collective": ("valueConnections", 7, "myCollectiveView"),
    "vp_strength": ("valuePriorities", 1, "strength"),
    "habit_personal": ("habitualConnections", 1, "personalView"),
    "habit_rate": ("agents", 0, "habitRate"),
}


# Each view section's rows are repeated up to DEEP_ROWS, and the deep
# defects sit in rows from DEEP_ROW on: large sections are read a column
# at a time, and any problem sends the section back to the row readers,
# which must word and order the report as they do for a short section.
DEEP_ROWS = 1200
DEEP_ROW = 1100
DEEP_ID_SITES = {
    "habitualConnections": "contextElement",
    "valuePriorities": "agent",
    "valueConnections": "activity",
}
DEEP_VIEW_DEFECTS = {
    "habitualConnections": ("strength", "0.5"),
    "valuePriorities": ("personalView", True),
    "valueConnections": ("myCollectiveView", "high"),
}


def _padded(*sections: str) -> Callable[[Doc], None]:
    def mutate(doc: Doc) -> None:
        for section in sections:
            rows = doc[section]
            doc[section] = [dict(rows[i % len(rows)]) for i in range(DEEP_ROWS)]
    return mutate


def _replace(section: str, row: int, value: Any) -> Callable[[Doc], None]:
    def mutate(doc: Doc) -> None:
        doc[section][row] = value
    return mutate


# Problems in every view section, at rows in no order a set would give:
# three distinct bad ids in one column, a view of each kind, a non-object
# row and ids that are bad in one column and good in another.
DEEP_MIXED = _all(
    _padded(*DEEP_ID_SITES),
    _set("valueConnections", 1190, "agent", "zed "),
    _set("valueConnections", 1001, "agent", "alice\n"),
    _set("valueConnections", 1100, "agent", "b,ob"),
    _set("valueConnections", 1002, "strength", 2),
    _set("valueConnections", 1003, "personalView", "high"),
    _set("valueConnections", 1004, "myCollectiveView", False),
    _replace("valueConnections", 1050, ["not", "a", "row"]),
    _set("valuePriorities", 1199, "value", " speed"),
    _set("valuePriorities", 1000, "agent", "speed "),
    _set("habitualConnections", 1111, "activity", None),
    _set("habitualConnections", 1010, "strength", None),
    _replace("habitualConnections", 1020, 0.5),
)


def _placements(doc: Doc) -> None:
    doc["environment"]["placements"]["Attic"] = ["ghost_res"]


def _timepoint(doc: Doc) -> None:
    doc["environment"]["timepoints"].append("Noon")


def _relocation(doc: Doc) -> None:
    doc["environment"]["relocations"].append({"tick": 1, "agent": "eve", "location": "Moon"})


def _competences(doc: Doc) -> None:
    doc["competences"] = {
        "levels": [{"agent": "frank", "competence": "driving", "level": 0.5}],
        "requirements": [{"activity": "fly", "competence": "driving", "required": 0.5}],
    }


DANGLING = {
    "element_parent": _append("contextElements",
                              {"id": "Garage", "kind": "Location", "parent": "nowhere"}),
    "activity_parent": _set("activities", 3, "parent", "ghost_group"),
    "agent_parent": _set("agents", 0, "parent", "ghost_team"),
    "agent_location": _set("agents", 1, "location", "Mars"),
    "connection": _append("activityConnections",
                          {"child": "ghost_child", "parent": "commuting", "relation": "PartOf"}),
    "habitual": _append("habitualConnections",
                        {"agent": "carol", "activity": "fly", "contextElement": "Moon",
                         **_views()}),
    "priority": _append("valuePriorities", {"agent": "bob", "value": "luxury", **_views()}),
    "value_connection": _append("valueConnections",
                                {"agent": "dave", "activity": "teleport", "value": "speed",
                                 **_views()}),
    "root": _append("roots", "ghost_root"),
    "timepoint": _timepoint,
    "placement": _placements,
    "relocation": _relocation,
    "affordance": _append("affordances",
                          {"contextElement": "Moon", "activity": "fly", "strength": 0.5}),
    "competences": _competences,
    "belief": _append("activityBeliefs",
                      {"agent": "gina", "child": "fly", "parent": "teleport",
                       "personalView": "IsA"}),
}


def _env(key: str, value: Any) -> Callable[[Doc], None]:
    def mutate(doc: Doc) -> None:
        doc["environment"][key] = value
    return mutate


# Each site that must name an element of one kind, naming an element of
# another: the builder accepts it, and `validate_scenario` reports it as
# `disjointness`.
DISJOINT = {
    "element_parent": _set("contextElements", 6, "parent", "Home"),
    "activity_parent": _set("activities", 3, "parent", "Home"),
    "agent_location": _set("agents", 0, "location", "car"),
    "agent_parent": _set("agents", 1, "parent", "Morning"),
    "relocation_location": lambda doc: doc["environment"]["relocations"].append(
        {"tick": 1, "agent": "bob", "location": "car"}),
    "timepoint": lambda doc: doc["environment"]["timepoints"].append("Home"),
    "placement_location": lambda doc: doc["environment"]["placements"].update(Morning=["car"]),
    "placement_resource": lambda doc: doc["environment"]["placements"].update(Home=["Office"]),
}


def _elements(*rows: tuple[str, str]) -> Callable[[Doc], None]:
    return _all(*(_append("contextElements", {"id": c, "kind": "Resource", "parent": p})
                  for c, p in rows))


def _connections(*rows: tuple[str, str]) -> Callable[[Doc], None]:
    return _all(*(_append("activityConnections", {"child": c, "parent": p, "relation": "IsA"})
                  for c, p in rows))


# Cycles in each hierarchy. A forest cycle is reported once, however many
# elements lead into it; an activity cycle is reported each time the walk
# closes one, and a self-connection is a cycle of one activity.
CYCLES = {
    "element_three": _elements(("key1", "key2"), ("key2", "key3"), ("key3", "key1")),
    "element_own_parent": _set("contextElements", 5, "parent", "car"),
    "element_two_starts": _elements(("key_a", "ring1"), ("key_b", "ring2"),
                                    ("ring1", "ring2"), ("ring2", "ring1")),
    "activity_shared_node": _all(
        *(_append("activities", {"id": a, "type": "Abstract"})
          for a in ("loop_a", "loop_b", "loop_c")),
        _connections(("loop_a", "loop_b"), ("loop_b", "loop_a"),
                     ("loop_b", "loop_c"), ("loop_c", "loop_b")),
    ),
    "activity_self_abstract": _connections(("go_to_work", "go_to_work")),
    "activity_self_atomic": _connections(("walk_to_work", "walk_to_work")),
    "activity_self_only_child": _all(_append("activities", {"id": "loner", "type": "Abstract"}),
                                     _connections(("loner", "loner"))),
    # The walk starts from the declared activities only.
    "activity_self_undeclared": _connections(("ghost_act", "ghost_act")),
}


# Values of the right kind that break a rule on the value: the builder
# accepts them, and `validate_scenario` reports each, in field order.
VALUE_RULES = {
    "agent_fields": _all(
        _set("agents", 0, "habitRate", 0.0),
        _set("agents", 0, "attentionBudget", -1),
        _set("agents", 0, "attentionalResources", -2),
    ),
    "resources_over_budget": _set("agents", 1, "attentionalResources", 3),
    "relocation_tick": lambda doc: doc["environment"]["relocations"].append(
        {"tick": -1, "agent": "bob", "location": "Office"}),
    "element_kinds": _all(_append("contextElements", {"id": "chores", "kind": "Activity"}),
                          _append("contextElements", {"id": "crew", "kind": "Agent"})),
    "globals": lambda doc: doc["globals"].update(
        decayRate=1.0, socialLearningRate=0, deliberationCost=-1, feasibilityThreshold=1.5),
}


# Error branches of the loader: each section or container of the wrong
# shape, and rows with several defects, whose reports keep field order.
LOADER_CASES: dict[str, Callable[[Doc], None]] = {
    "values_not_a_list": lambda doc: doc.update(values="speed"),
    "integer_string_budget": _set("agents", 0, "attentionBudget", "two"),
    "global_not_a_number": lambda doc: doc["globals"].update(habitThreshold="high"),
    "environment_not_an_object": lambda doc: doc.update(environment=["Home"]),
    "environment_unknown_keys": _all(_env("zones", []), _env("weather", "rain")),
    "timepoints_not_a_list": _env("timepoints", "Morning"),
    "placements_not_a_mapping": _env("placements", ["Home"]),
    "placement_not_a_list": lambda doc: doc["environment"]["placements"].update(
        Home="bobs_car", Office=["desk", 3]),
    "relocations_not_a_list": _env("relocations", {"tick": 1, "agent": "bob"}),
    # Entries that are not objects are reported before the rows' own
    # problems, as in every row section.
    "relocation_not_an_object": _env("relocations", [
        {"tick": -1, "agent": "bob", "location": "Office"},
        "not a row",
        {"tick": "soon", "agent": "alice", "location": "Office"},
        7,
    ]),
    "competences_not_an_object": lambda doc: doc.update(competences=["driving"]),
    "competences_unknown_keys": lambda doc: doc.update(
        competences={"levels": [], "skills": [], "grades": []}),
    "competence_sections_malformed": lambda doc: doc.update(
        competences={"levels": "driving", "requirements": [3]}),
    # A missing strength takes its default when another view of the row
    # is not a float.
    "missing_strength_beside_bad_personal": _all(
        _set("valuePriorities", 1, "strength", _MISSING),
        _set("valuePriorities", 1, "personalView", "high"),
    ),
    "agent_row_defects": _all(
        _set("agents", 0, "habitRate", 1.5),
        _set("agents", 0, "attentionBudget", -1),
        _set("agents", 0, "attentionalResources", 5),
        _set("agents", 0, "location", ""),
        _set("agents", 0, "parent", " team"),
    ),
    # The budget that is not an integer is the only report: the resources
    # are judged against the budget by `validate_scenario`, after a build.
    "budget_not_an_integer_beside_resources": _all(
        _set("agents", 0, "attentionBudget", "two"),
        _set("agents", 0, "attentionalResources", 1),
    ),
    "element_kind_unknown": _set("contextElements", 0, "kind", "Place"),
    # A mapping built in code may hold a key that is not a string.
    "key_not_a_string_top_level": lambda doc: doc.update({1: 0, "zz": 0}),
    "key_not_a_string_globals": lambda doc: doc["globals"].update({1: 0, "zz": 0}),
    "key_not_a_string_environment": lambda doc: doc["environment"].update({2: [], "zz": []}),
    "key_not_a_string_competences": lambda doc: doc.update(
        competences={"levels": [], 1: [], "zz": []}),
    "key_not_a_string_placements": lambda doc: doc["environment"]["placements"].update(
        {1: ["car"], "Office": 5}),
    "agent_parent_and_location_dangling": _all(
        _set("agents", 0, "location", "Mars"),
        _set("agents", 0, "parent", "ghost_team"),
    ),
}


def _proxy_rows(doc: Doc) -> None:
    for section, i in (("valueConnections", 3), ("agents", 1), ("activities", 0),
                       ("habitualConnections", 2), ("valuePriorities", 0)):
        doc[section][i] = MappingProxyType(dict(doc[section][i]))


CASES: dict[str, Callable[[Doc], None]] = {
    "unchanged": lambda doc: None,
    "non_object_rows": _all(
        lambda doc: doc["valueConnections"].insert(1, "not a row"),
        _append("habitualConnections", 7),
        _append("agents", None),
        lambda doc: doc["activities"].insert(0, ["commuting"]),
    ),
    # Rows are numbered by their position in the list: the bad id, moved
    # from valueConnections[3] to [4] by the inserted string, is reported
    # at [4].
    "bad_row_after_non_object": _all(
        _set("valueConnections", 3, "agent", ""),
        lambda doc: doc["valueConnections"].insert(1, "not a row"),
    ),
    "section_not_a_list": lambda doc: doc.update(valueConnections={"agent": "bob"}),
    **{
        f"id_{defect}_{site}": _set(*ID_SITES[site], value)
        for site in ID_SITES
        for defect, value in ID_DEFECTS.items()
    },
    **{
        f"number_{defect}_{site}": _set(*NUMBER_SITES[site], value)
        for site in NUMBER_SITES
        for defect, value in NUMBER_DEFECTS.items()
    },
    "views_all_out_of_range": _all(
        _set("valueConnections", 6, "strength", 1.5),
        _set("valueConnections", 6, "personalView", -0.5),
        _set("valueConnections", 6, "myCollectiveView", 2.0),
        _set("habitualConnections", 2, "myCollectiveView", -1.0),
        _set("valuePriorities", 3, "personalView", 1.25),
        _append("affordances", {"contextElement": "Home", "activity": "walk_to_work",
                                "strength": 1.5}),
    ),
    **{f"dangling_{name}": m for name, m in DANGLING.items()},
    "dangling_every_section": _all(*DANGLING.values()),
    **{f"disjoint_{name}": m for name, m in DISJOINT.items()},
    **{f"cycle_{name}": m for name, m in CYCLES.items()},
    **{f"value_rule_{name}": m for name, m in VALUE_RULES.items()},
    "same_bad_id_twice": _all(
        _set("valueConnections", 0, "agent", "bob\n"),
        _set("valueConnections", 3, "agent", "bob\n"),
    ),
    "same_dangling_id_twice": _all(
        _set("valueConnections", 0, "value", "speed"),
        _set("valueConnections", 3, "value", "speed"),
    ),
    "good_id_after_bad": _all(
        _set("valueConnections", 0, "value", "speed "),
        _set("valueConnections", 1, "value", "speed"),
    ),
    "bad_id_after_good": _all(
        _set("valueConnections", 1, "value", "speed"),
        _set("valueConnections", 2, "value", "speed "),
        _set("valueConnections", 3, "value", "speed"),
    ),
    "mapping_proxy_rows": _proxy_rows,
    **{
        f"deep_id_{defect}_{section}": _all(_padded(section),
                                            _set(section, DEEP_ROW, key, value))
        for section, key in DEEP_ID_SITES.items()
        for defect, value in ID_DEFECTS.items()
    },
    **{
        f"deep_view_{section}": _all(_padded(section),
                                     _set(section, DEEP_ROW, *DEEP_VIEW_DEFECTS[section]))
        for section in DEEP_VIEW_DEFECTS
    },
    **{
        f"deep_non_object_{section}": _all(_padded(section),
                                           _replace(section, DEEP_ROW, "not a row"))
        for section in DEEP_ID_SITES
    },
    "deep_mixed": DEEP_MIXED,
    # A key that names no field of its row section, misspelled or not,
    # is reported before the row's own problems.
    "unknown_row_keys": _all(
        _set("agents", 0, "atentionalResources", 0),
        _set("agents", 0, "habitRate", 1.5),
        _set("valueConnections", 0, "personalview", 0.9),
        _set("valueConnections", 0, "zz", 0),
        _set("valueConnections", 0, 1, 0),
        lambda doc: doc["environment"]["relocations"].append(
            {"tick": 1, "agent": "bob", "location": "Office", "when": "noon"}),
    ),
    **{
        f"deep_unknown_row_key_{section}": _all(_padded(section),
                                                _set(section, DEEP_ROW, "strenght", 0.5))
        for section in DEEP_ID_SITES
    },
    **{f"loader_{name}": m for name, m in LOADER_CASES.items()},
    # One agent relocated twice at one tick; the location does not matter.
    "duplicate_relocation": lambda doc: doc["environment"]["relocations"].extend([
        {"tick": 3, "agent": "bob", "location": "Office"},
        {"tick": 3, "agent": "alice", "location": "Office"},
        {"tick": 4, "agent": "bob", "location": "Office"},
        {"tick": 3, "agent": "bob", "location": "School"},
    ]),
    "mixed_defects": _all(
        _set("contextElements", 0, "id", "Ho me"),
        _set("activities", 2, "type", "Composite"),
        _set("agents", 1, "attentionBudget", -2),
        _set("valueConnections", 9, "strength", "high"),
        _set("valueConnections", 9, "activity", ""),
        _set("valuePriorities", 2, "myCollectiveView", False),
        _append("roots", 3),
        lambda doc: doc["globals"].update(decayRate=2.0),
    ),
}


def observe(mutate: Callable[[Doc], None]) -> tuple[Any, Any, Any]:
    """(errors with check_refs, errors without, validation report)."""
    out: list[Any] = []
    built = None
    for check_refs in (True, False):
        doc = bundled_document("commuting")
        mutate(doc)
        try:
            built = build_scenario(doc, check_refs=check_refs)
        except ScenarioError as exc:
            built = None
            out.append(list(exc.problems))
        else:
            out.append([])
    report = None
    if built is not None:
        report = [f"{v.kind.value}: {v.message}" for v in validate_scenario(built)]
    return out[0], out[1], report


# Captured from the implementation before the set-up fast paths landed.
EXPECTED: dict[str, tuple[Any, Any, Any]] = {
    "bad_id_after_good": (
        [
            "valueConnections[2]: 'value' must be a plain identifier string, got 'speed '",
            "valueConnections[bob]: unknown value 'speed'",
        ],
        [
            "valueConnections[2]: 'value' must be a plain identifier string, got 'speed '",
        ],
        None,
    ),
    "bad_row_after_non_object": (
        [
            'valueConnections[1] must be an object',
            "valueConnections[4]: 'agent' must be a plain identifier string, got ''",
        ],
        [
            'valueConnections[1] must be an object',
            "valueConnections[4]: 'agent' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "cycle_activity_self_abstract": (
        [],
        [],
        [
            'cycle: activity connection cycle: go_to_work -> go_to_work',
        ],
    ),
    "cycle_activity_self_atomic": (
        [],
        [],
        [
            "atomic-with-children: atomic activity 'walk_to_work' has child 'walk_to_work'",
            'cycle: activity connection cycle: walk_to_work -> walk_to_work',
        ],
    ),
    "cycle_activity_self_only_child": (
        [],
        [],
        [
            'cycle: activity connection cycle: loner -> loner',
        ],
    ),
    "cycle_activity_self_undeclared": (
        [
            "activityConnections[ghost_act->ghost_act]: unknown activity 'ghost_act'",
        ],
        [],
        [
            "dangling-reference: activityConnections[ghost_act->ghost_act]: unknown activity 'ghost_act'",
        ],
    ),
    "cycle_activity_shared_node": (
        [],
        [],
        [
            'cycle: activity connection cycle: loop_a -> loop_b -> loop_a',
            'cycle: activity connection cycle: loop_b -> loop_c -> loop_b',
        ],
    ),
    "cycle_element_own_parent": (
        [],
        [],
        [
            'cycle: context hierarchy cycle: car -> car',
        ],
    ),
    "cycle_element_three": (
        [],
        [],
        [
            'cycle: context hierarchy cycle: key1 -> key2 -> key3 -> key1',
        ],
    ),
    "cycle_element_two_starts": (
        [],
        [],
        [
            'cycle: context hierarchy cycle: ring1 -> ring2 -> ring1',
        ],
    ),
    "dangling_activity_parent": (
        [
            "activities[take_train_to_school].parent: unknown element 'ghost_group'",
        ],
        [],
        [
            "dangling-reference: activities[take_train_to_school].parent: unknown element 'ghost_group'",
        ],
    ),
    "dangling_affordance": (
        [
            "affordances[fly]: unknown element 'Moon'",
            "affordances[fly]: unknown activity 'fly'",
        ],
        [],
        [
            "dangling-reference: affordances[fly]: unknown element 'Moon'",
            "dangling-reference: affordances[fly]: unknown activity 'fly'",
        ],
    ),
    "dangling_agent_location": (
        [
            "agents[alice].location: unknown element 'Mars'",
        ],
        [],
        [
            "dangling-reference: agents[alice].location: unknown element 'Mars'",
        ],
    ),
    "dangling_agent_parent": (
        [
            "agents[bob].parent: unknown element 'ghost_team'",
        ],
        [],
        [
            "dangling-reference: agents[bob].parent: unknown element 'ghost_team'",
        ],
    ),
    # activityBeliefs is not part of the schema: the key alone fails the
    # build, so the validator never sees the rows.
    "dangling_belief": (
        [
            "unknown top-level keys: ['activityBeliefs']",
        ],
        [
            "unknown top-level keys: ['activityBeliefs']",
        ],
        None,
    ),
    "dangling_competences": (
        [
            "competences.levels[driving]: unknown agent 'frank'",
            "competences.requirements[driving]: unknown activity 'fly'",
        ],
        [],
        [
            "dangling-reference: competences.levels[driving]: unknown agent 'frank'",
            "dangling-reference: competences.requirements[driving]: unknown activity 'fly'",
        ],
    ),
    "dangling_connection": (
        [
            "activityConnections[ghost_child->commuting]: unknown activity 'ghost_child'",
        ],
        [],
        [
            "dangling-reference: activityConnections[ghost_child->commuting]: unknown activity 'ghost_child'",
        ],
    ),
    "dangling_element_parent": (
        [
            "contextElements[Garage].parent: unknown element 'nowhere'",
        ],
        [],
        [
            "dangling-reference: contextElements[Garage].parent: unknown element 'nowhere'",
        ],
    ),
    "dangling_every_section": (
        [
            "unknown top-level keys: ['activityBeliefs']",
            "contextElements[Garage].parent: unknown element 'nowhere'",
            "activities[take_train_to_school].parent: unknown element 'ghost_group'",
            "activityConnections[ghost_child->commuting]: unknown activity 'ghost_child'",
            "agents[alice].location: unknown element 'Mars'",
            "agents[bob].parent: unknown element 'ghost_team'",
            "habitualConnections[carol]: unknown agent 'carol'",
            "habitualConnections[carol]: unknown activity 'fly'",
            "habitualConnections[carol]: unknown element 'Moon'",
            "valuePriorities[bob]: unknown value 'luxury'",
            "valueConnections[dave]: unknown agent 'dave'",
            "valueConnections[dave]: unknown activity 'teleport'",
            "valueConnections[dave]: unknown value 'speed'",
            "affordances[fly]: unknown element 'Moon'",
            "affordances[fly]: unknown activity 'fly'",
            "competences.levels[driving]: unknown agent 'frank'",
            "competences.requirements[driving]: unknown activity 'fly'",
            "environment.relocations[tick=1]: unknown agent 'eve'",
            "environment.relocations[tick=1]: unknown element 'Moon'",
            "roots: unknown activity 'ghost_root'",
            "environment.timepoints: unknown element 'Noon'",
            "environment.placements: unknown element 'Attic'",
            "environment.placements[Attic]: unknown element 'ghost_res'",
        ],
        [
            "unknown top-level keys: ['activityBeliefs']",
        ],
        None,
    ),
    "dangling_habitual": (
        [
            "habitualConnections[carol]: unknown agent 'carol'",
            "habitualConnections[carol]: unknown activity 'fly'",
            "habitualConnections[carol]: unknown element 'Moon'",
        ],
        [],
        [
            "dangling-reference: habitualConnections[carol]: unknown agent 'carol'",
            "dangling-reference: habitualConnections[carol]: unknown activity 'fly'",
            "dangling-reference: habitualConnections[carol]: unknown element 'Moon'",
        ],
    ),
    "dangling_placement": (
        [
            "environment.placements: unknown element 'Attic'",
            "environment.placements[Attic]: unknown element 'ghost_res'",
        ],
        [],
        [
            "dangling-reference: environment.placements: unknown element 'Attic'",
            "dangling-reference: environment.placements[Attic]: unknown element 'ghost_res'",
        ],
    ),
    "dangling_priority": (
        [
            "valuePriorities[bob]: unknown value 'luxury'",
        ],
        [],
        [
            "dangling-reference: valuePriorities[bob]: unknown value 'luxury'",
        ],
    ),
    "dangling_relocation": (
        [
            "environment.relocations[tick=1]: unknown agent 'eve'",
            "environment.relocations[tick=1]: unknown element 'Moon'",
        ],
        [],
        [
            "dangling-reference: environment.relocations[tick=1]: unknown agent 'eve'",
            "dangling-reference: environment.relocations[tick=1]: unknown element 'Moon'",
        ],
    ),
    "dangling_root": (
        [
            "roots: unknown activity 'ghost_root'",
        ],
        [],
        [
            "dangling-reference: roots: unknown activity 'ghost_root'",
        ],
    ),
    "dangling_timepoint": (
        [
            "environment.timepoints: unknown element 'Noon'",
        ],
        [],
        [
            "dangling-reference: environment.timepoints: unknown element 'Noon'",
        ],
    ),
    "dangling_value_connection": (
        [
            "valueConnections[dave]: unknown agent 'dave'",
            "valueConnections[dave]: unknown activity 'teleport'",
            "valueConnections[dave]: unknown value 'speed'",
        ],
        [],
        [
            "dangling-reference: valueConnections[dave]: unknown agent 'dave'",
            "dangling-reference: valueConnections[dave]: unknown activity 'teleport'",
            "dangling-reference: valueConnections[dave]: unknown value 'speed'",
        ],
    ),
    "deep_id_bool_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got True",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got True",
        ],
        None,
    ),
    "deep_id_bool_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got True",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got True",
        ],
        None,
    ),
    "deep_id_bool_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got True",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got True",
        ],
        None,
    ),
    "deep_id_carriage_return_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "deep_id_carriage_return_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "deep_id_carriage_return_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "deep_id_comma_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "deep_id_comma_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "deep_id_comma_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "deep_id_dict_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "deep_id_dict_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "deep_id_dict_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "deep_id_double_quote_habitualConnections": (
        [
            'habitualConnections[1100]: \'contextElement\' must be a plain identifier string, got \'"bob\'',
        ],
        [
            'habitualConnections[1100]: \'contextElement\' must be a plain identifier string, got \'"bob\'',
        ],
        None,
    ),
    "deep_id_double_quote_valueConnections": (
        [
            'valueConnections[1100]: \'activity\' must be a plain identifier string, got \'"bob\'',
        ],
        [
            'valueConnections[1100]: \'activity\' must be a plain identifier string, got \'"bob\'',
        ],
        None,
    ),
    "deep_id_double_quote_valuePriorities": (
        [
            'valuePriorities[1100]: \'agent\' must be a plain identifier string, got \'"bob\'',
        ],
        [
            'valuePriorities[1100]: \'agent\' must be a plain identifier string, got \'"bob\'',
        ],
        None,
    ),
    "deep_id_empty_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got ''",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "deep_id_empty_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got ''",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "deep_id_empty_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got ''",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "deep_id_int_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 5",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "deep_id_int_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 5",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "deep_id_int_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 5",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "deep_id_lead_space_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got ' bob'",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "deep_id_lead_space_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got ' bob'",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "deep_id_lead_space_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got ' bob'",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "deep_id_list_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got ['bob']",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "deep_id_list_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got ['bob']",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "deep_id_list_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got ['bob']",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "deep_id_missing_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got None",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got None",
        ],
        None,
    ),
    "deep_id_missing_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got None",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got None",
        ],
        None,
    ),
    "deep_id_missing_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got None",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got None",
        ],
        None,
    ),
    "deep_id_newline_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "deep_id_newline_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "deep_id_newline_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "deep_id_none_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got None",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got None",
        ],
        None,
    ),
    "deep_id_none_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got None",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got None",
        ],
        None,
    ),
    "deep_id_none_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got None",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got None",
        ],
        None,
    ),
    "deep_id_surrogate_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "deep_id_surrogate_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "deep_id_surrogate_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "deep_id_trail_space_habitualConnections": (
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bob '",
        ],
        [
            "habitualConnections[1100]: 'contextElement' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "deep_id_trail_space_valueConnections": (
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bob '",
        ],
        [
            "valueConnections[1100]: 'activity' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "deep_id_trail_space_valuePriorities": (
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bob '",
        ],
        [
            "valuePriorities[1100]: 'agent' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "deep_mixed": (
        [
            'habitualConnections[1020] must be an object',
            "habitualConnections[1010]: 'strength' must be a number, got None",
            "habitualConnections[1111]: 'activity' must be a plain identifier string, got None",
            "valuePriorities[1000]: 'agent' must be a plain identifier string, got 'speed '",
            "valuePriorities[1199]: 'value' must be a plain identifier string, got ' speed'",
            'valueConnections[1050] must be an object',
            "valueConnections[1001]: 'agent' must be a plain identifier string, got 'alice\\n'",
            "valueConnections[1003]: 'personalView' must be a number, got 'high'",
            "valueConnections[1004]: 'myCollectiveView' must be a number, got False",
            "valueConnections[1100]: 'agent' must be a plain identifier string, got 'b,ob'",
            "valueConnections[1190]: 'agent' must be a plain identifier string, got 'zed '",
        ],
        [
            'habitualConnections[1020] must be an object',
            "habitualConnections[1010]: 'strength' must be a number, got None",
            "habitualConnections[1111]: 'activity' must be a plain identifier string, got None",
            "valuePriorities[1000]: 'agent' must be a plain identifier string, got 'speed '",
            "valuePriorities[1199]: 'value' must be a plain identifier string, got ' speed'",
            'valueConnections[1050] must be an object',
            "valueConnections[1001]: 'agent' must be a plain identifier string, got 'alice\\n'",
            "valueConnections[1003]: 'personalView' must be a number, got 'high'",
            "valueConnections[1004]: 'myCollectiveView' must be a number, got False",
            "valueConnections[1100]: 'agent' must be a plain identifier string, got 'b,ob'",
            "valueConnections[1190]: 'agent' must be a plain identifier string, got 'zed '",
        ],
        None,
    ),
    "deep_non_object_habitualConnections": (
        [
            'habitualConnections[1100] must be an object',
        ],
        [
            'habitualConnections[1100] must be an object',
        ],
        None,
    ),
    "deep_non_object_valueConnections": (
        [
            'valueConnections[1100] must be an object',
        ],
        [
            'valueConnections[1100] must be an object',
        ],
        None,
    ),
    "deep_non_object_valuePriorities": (
        [
            'valuePriorities[1100] must be an object',
        ],
        [
            'valuePriorities[1100] must be an object',
        ],
        None,
    ),
    "deep_unknown_row_key_habitualConnections": (
        [
            "habitualConnections[1100]: unknown keys ['strenght']",
        ],
        [
            "habitualConnections[1100]: unknown keys ['strenght']",
        ],
        None,
    ),
    "deep_unknown_row_key_valueConnections": (
        [
            "valueConnections[1100]: unknown keys ['strenght']",
        ],
        [
            "valueConnections[1100]: unknown keys ['strenght']",
        ],
        None,
    ),
    "deep_unknown_row_key_valuePriorities": (
        [
            "valuePriorities[1100]: unknown keys ['strenght']",
        ],
        [
            "valuePriorities[1100]: unknown keys ['strenght']",
        ],
        None,
    ),
    "deep_view_habitualConnections": (
        [
            "habitualConnections[1100]: 'strength' must be a number, got '0.5'",
        ],
        [
            "habitualConnections[1100]: 'strength' must be a number, got '0.5'",
        ],
        None,
    ),
    "deep_view_valueConnections": (
        [
            "valueConnections[1100]: 'myCollectiveView' must be a number, got 'high'",
        ],
        [
            "valueConnections[1100]: 'myCollectiveView' must be a number, got 'high'",
        ],
        None,
    ),
    "deep_view_valuePriorities": (
        [
            "valuePriorities[1100]: 'personalView' must be a number, got True",
        ],
        [
            "valuePriorities[1100]: 'personalView' must be a number, got True",
        ],
        None,
    ),
    "disjoint_activity_parent": (
        [],
        [],
        [
            "disjointness: activities[take_train_to_school].parent: 'Home' is a Location, expected Activity",
        ],
    ),
    "disjoint_agent_location": (
        [],
        [],
        [
            "disjointness: agents[bob].location: 'car' is a Resource, expected Location",
        ],
    ),
    "disjoint_agent_parent": (
        [],
        [],
        [
            "disjointness: agents[alice].parent: 'Morning' is a Timepoint, expected Agent",
        ],
    ),
    "disjoint_element_parent": (
        [],
        [],
        [
            "disjointness: contextElements[bobs_car].parent: 'Home' is a Location, expected Resource",
        ],
    ),
    "disjoint_placement_location": (
        [],
        [],
        [
            "disjointness: environment.placements: 'Morning' is a Timepoint, expected Location",
        ],
    ),
    "disjoint_placement_resource": (
        [],
        [],
        [
            "disjointness: environment.placements[Home]: 'Office' is a Location, expected Resource",
        ],
    ),
    "disjoint_relocation_location": (
        [],
        [],
        [
            "disjointness: environment.relocations[tick=1]: 'car' is a Resource, expected Location",
        ],
    ),
    "disjoint_timepoint": (
        [],
        [],
        [
            "disjointness: environment.timepoints: 'Home' is a Location, expected Timepoint",
        ],
    ),
    "duplicate_relocation": (
        [],
        [],
        [
            "multiplicity: duplicate relocation '3:bob'",
        ],
    ),
    "good_id_after_bad": (
        [
            "valueConnections[0]: 'value' must be a plain identifier string, got 'speed '",
            "valueConnections[bob]: unknown value 'speed'",
        ],
        [
            "valueConnections[0]: 'value' must be a plain identifier string, got 'speed '",
        ],
        None,
    ),
    "id_bool_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got True",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got True",
        ],
        None,
    ),
    "id_bool_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got True",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got True",
        ],
        None,
    ),
    "id_bool_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got True",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got True",
        ],
        None,
    ),
    "id_bool_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got True",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got True",
        ],
        None,
    ),
    "id_bool_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got True",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got True",
        ],
        None,
    ),
    "id_carriage_return_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo\\rb'",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "id_carriage_return_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "id_carriage_return_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "id_carriage_return_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "id_carriage_return_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo\\rb'",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo\\rb'",
        ],
        None,
    ),
    "id_comma_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo,b'",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "id_comma_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "id_comma_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "id_comma_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "id_comma_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo,b'",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo,b'",
        ],
        None,
    ),
    "id_dict_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got {'id': 'bob'}",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "id_dict_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "id_dict_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "id_dict_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "id_dict_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got {'id': 'bob'}",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got {'id': 'bob'}",
        ],
        None,
    ),
    "id_double_quote_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got '\"bob'",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got '\"bob'",
        ],
        None,
    ),
    "id_double_quote_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got '\"bob'",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got '\"bob'",
        ],
        None,
    ),
    "id_double_quote_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got '\"bob'",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got '\"bob'",
        ],
        None,
    ),
    "id_double_quote_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got '\"bob'",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got '\"bob'",
        ],
        None,
    ),
    "id_double_quote_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got '\"bob'",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got '\"bob'",
        ],
        None,
    ),
    "id_empty_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got ''",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "id_empty_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got ''",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "id_empty_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got ''",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "id_empty_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got ''",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "id_empty_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got ''",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got ''",
        ],
        None,
    ),
    "id_int_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got 5",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "id_int_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 5",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "id_int_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 5",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "id_int_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 5",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "id_int_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 5",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 5",
        ],
        None,
    ),
    "id_lead_space_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got ' bob'",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "id_lead_space_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got ' bob'",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "id_lead_space_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got ' bob'",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "id_lead_space_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got ' bob'",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "id_lead_space_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got ' bob'",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got ' bob'",
        ],
        None,
    ),
    "id_list_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got ['bob']",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "id_list_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got ['bob']",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "id_list_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got ['bob']",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "id_list_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got ['bob']",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "id_list_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got ['bob']",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got ['bob']",
        ],
        None,
    ),
    "id_missing_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got None",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_missing_element_parent": (
        [],
        [],
        [],
    ),
    "id_missing_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got None",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_missing_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got None",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_missing_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got None",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_newline_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo\\nb'",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "id_newline_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "id_newline_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "id_newline_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "id_newline_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo\\nb'",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo\\nb'",
        ],
        None,
    ),
    "id_none_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got None",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_none_element_parent": (
        [],
        [],
        [],
    ),
    "id_none_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got None",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_none_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got None",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_none_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got None",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got None",
        ],
        None,
    ),
    "id_surrogate_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo\\ud800b'",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "id_surrogate_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "id_surrogate_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "id_surrogate_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "id_surrogate_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bo\\ud800b'",
        ],
        None,
    ),
    "id_trail_space_agent_id": (
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bob '",
            "habitualConnections[bob]: unknown agent 'bob'",
            "valuePriorities[bob]: unknown agent 'bob'",
            "valueConnections[bob]: unknown agent 'bob'",
        ],
        [
            "agents[0]: 'id' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "id_trail_space_element_parent": (
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bob '",
        ],
        [
            "contextElements[6]: 'parent' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "id_trail_space_habit_element": (
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bob '",
        ],
        [
            "habitualConnections[0]: 'contextElement' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "id_trail_space_vc_agent": (
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bob '",
        ],
        [
            "valueConnections[2]: 'agent' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "id_trail_space_vc_value": (
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bob '",
        ],
        [
            "valueConnections[4]: 'value' must be a plain identifier string, got 'bob '",
        ],
        None,
    ),
    "mapping_proxy_rows": (
        [],
        [],
        [],
    ),
    "mixed_defects": (
        [
            "activities[2]: 'type' must be one of Atomic, Sequential, Abstract, got 'Composite'",
            "valuePriorities[2]: 'myCollectiveView' must be a number, got False",
            "valueConnections[9]: 'activity' must be a plain identifier string, got ''",
            "valueConnections[9]: 'strength' must be a number, got 'high'",
            "'roots' must be a list of activity ids",
            "agents[alice].location: unknown element 'Home'",
            "agents[bob].location: unknown element 'Home'",
            "environment.placements: unknown element 'Home'",
        ],
        [
            "activities[2]: 'type' must be one of Atomic, Sequential, Abstract, got 'Composite'",
            "valuePriorities[2]: 'myCollectiveView' must be a number, got False",
            "valueConnections[9]: 'activity' must be a plain identifier string, got ''",
            "valueConnections[9]: 'strength' must be a number, got 'high'",
            "'roots' must be a list of activity ids",
        ],
        None,
    ),
    "non_object_rows": (
        [
            'activities[0] must be an object',
            'agents[2] must be an object',
            'habitualConnections[3] must be an object',
            'valueConnections[1] must be an object',
        ],
        [
            'activities[0] must be an object',
            'agents[2] must be an object',
            'habitualConnections[3] must be an object',
            'valueConnections[1] must be an object',
        ],
        None,
    ),
    "number_above_one_habit_personal": (
        [],
        [],
        [
            'view-range: habitualConnections[bob:drive_car_to_work:Morning]: personalView 1.5 outside [0, 1]',
        ],
    ),
    "number_above_one_habit_rate": (
        [],
        [],
        [
            'view-range: agents[bob]: habitRate 1.5 outside (0, 1]',
        ],
    ),
    "number_above_one_vc_collective": (
        [],
        [],
        [
            'view-range: valueConnections[bob:take_train_to_school:efficiency]: myCollectiveView 1.5 outside [0, 1]',
        ],
    ),
    "number_above_one_vc_personal": (
        [],
        [],
        [
            'view-range: valueConnections[bob:walk_to_school:environmentalism]: personalView 1.5 outside [0, 1]',
        ],
    ),
    "number_above_one_vc_strength": (
        [],
        [],
        [
            'view-range: valueConnections[bob:ride_bike_to_work:environmentalism]: strength 1.5 outside [0, 1]',
        ],
    ),
    "number_above_one_vp_strength": (
        [],
        [],
        [
            'view-range: valuePriorities[bob:efficiency]: strength 1.5 outside [0, 1]',
        ],
    ),
    "number_bool_habit_personal": (
        [
            "habitualConnections[1]: 'personalView' must be a number, got True",
        ],
        [
            "habitualConnections[1]: 'personalView' must be a number, got True",
        ],
        None,
    ),
    "number_bool_habit_rate": (
        [
            "agents[0]: 'habitRate' must be a number, got True",
        ],
        [
            "agents[0]: 'habitRate' must be a number, got True",
        ],
        None,
    ),
    "number_bool_vc_collective": (
        [
            "valueConnections[7]: 'myCollectiveView' must be a number, got True",
        ],
        [
            "valueConnections[7]: 'myCollectiveView' must be a number, got True",
        ],
        None,
    ),
    "number_bool_vc_personal": (
        [
            "valueConnections[5]: 'personalView' must be a number, got True",
        ],
        [
            "valueConnections[5]: 'personalView' must be a number, got True",
        ],
        None,
    ),
    "number_bool_vc_strength": (
        [
            "valueConnections[0]: 'strength' must be a number, got True",
        ],
        [
            "valueConnections[0]: 'strength' must be a number, got True",
        ],
        None,
    ),
    "number_bool_vp_strength": (
        [
            "valuePriorities[1]: 'strength' must be a number, got True",
        ],
        [
            "valuePriorities[1]: 'strength' must be a number, got True",
        ],
        None,
    ),
    "number_int_habit_personal": (
        [],
        [],
        [],
    ),
    "number_int_habit_rate": (
        [],
        [],
        [],
    ),
    "number_int_vc_collective": (
        [],
        [],
        [],
    ),
    "number_int_vc_personal": (
        [],
        [],
        [],
    ),
    "number_int_vc_strength": (
        [],
        [],
        [],
    ),
    "number_int_vp_strength": (
        [],
        [],
        [],
    ),
    "number_nan_habit_personal": (
        [],
        [],
        [
            'view-range: habitualConnections[bob:drive_car_to_work:Morning]: personalView nan outside [0, 1]',
        ],
    ),
    "number_nan_habit_rate": (
        [],
        [],
        [
            'view-range: agents[bob]: habitRate nan outside (0, 1]',
        ],
    ),
    "number_nan_vc_collective": (
        [],
        [],
        [
            'view-range: valueConnections[bob:take_train_to_school:efficiency]: myCollectiveView nan outside [0, 1]',
        ],
    ),
    "number_nan_vc_personal": (
        [],
        [],
        [
            'view-range: valueConnections[bob:walk_to_school:environmentalism]: personalView nan outside [0, 1]',
        ],
    ),
    "number_nan_vc_strength": (
        [],
        [],
        [
            'view-range: valueConnections[bob:ride_bike_to_work:environmentalism]: strength nan outside [0, 1]',
        ],
    ),
    "number_nan_vp_strength": (
        [],
        [],
        [
            'view-range: valuePriorities[bob:efficiency]: strength nan outside [0, 1]',
        ],
    ),
    "number_none_habit_personal": (
        [
            "habitualConnections[1]: 'personalView' must be a number, got None",
        ],
        [
            "habitualConnections[1]: 'personalView' must be a number, got None",
        ],
        None,
    ),
    "number_none_habit_rate": (
        [
            "agents[0]: 'habitRate' must be a number, got None",
        ],
        [
            "agents[0]: 'habitRate' must be a number, got None",
        ],
        None,
    ),
    "number_none_vc_collective": (
        [],
        [],
        [],
    ),
    "number_none_vc_personal": (
        [
            "valueConnections[5]: 'personalView' must be a number, got None",
        ],
        [
            "valueConnections[5]: 'personalView' must be a number, got None",
        ],
        None,
    ),
    "number_none_vc_strength": (
        [
            "valueConnections[0]: 'strength' must be a number, got None",
        ],
        [
            "valueConnections[0]: 'strength' must be a number, got None",
        ],
        None,
    ),
    "number_none_vp_strength": (
        [
            "valuePriorities[1]: 'strength' must be a number, got None",
        ],
        [
            "valuePriorities[1]: 'strength' must be a number, got None",
        ],
        None,
    ),
    "number_string_habit_personal": (
        [
            "habitualConnections[1]: 'personalView' must be a number, got '0.5'",
        ],
        [
            "habitualConnections[1]: 'personalView' must be a number, got '0.5'",
        ],
        None,
    ),
    "number_string_habit_rate": (
        [
            "agents[0]: 'habitRate' must be a number, got '0.5'",
        ],
        [
            "agents[0]: 'habitRate' must be a number, got '0.5'",
        ],
        None,
    ),
    "number_string_vc_collective": (
        [
            "valueConnections[7]: 'myCollectiveView' must be a number, got '0.5'",
        ],
        [
            "valueConnections[7]: 'myCollectiveView' must be a number, got '0.5'",
        ],
        None,
    ),
    "number_string_vc_personal": (
        [
            "valueConnections[5]: 'personalView' must be a number, got '0.5'",
        ],
        [
            "valueConnections[5]: 'personalView' must be a number, got '0.5'",
        ],
        None,
    ),
    "number_string_vc_strength": (
        [
            "valueConnections[0]: 'strength' must be a number, got '0.5'",
        ],
        [
            "valueConnections[0]: 'strength' must be a number, got '0.5'",
        ],
        None,
    ),
    "number_string_vp_strength": (
        [
            "valuePriorities[1]: 'strength' must be a number, got '0.5'",
        ],
        [
            "valuePriorities[1]: 'strength' must be a number, got '0.5'",
        ],
        None,
    ),
    "same_bad_id_twice": (
        [
            "valueConnections[0]: 'agent' must be a plain identifier string, got 'bob\\n'",
            "valueConnections[3]: 'agent' must be a plain identifier string, got 'bob\\n'",
        ],
        [
            "valueConnections[0]: 'agent' must be a plain identifier string, got 'bob\\n'",
            "valueConnections[3]: 'agent' must be a plain identifier string, got 'bob\\n'",
        ],
        None,
    ),
    "same_dangling_id_twice": (
        [
            "valueConnections[bob]: unknown value 'speed'",
        ],
        [],
        [
            "dangling-reference: valueConnections[bob]: unknown value 'speed'",
        ],
    ),
    "section_not_a_list": (
        [
            "'valueConnections' must be a list",
        ],
        [
            "'valueConnections' must be a list",
        ],
        None,
    ),
    "unchanged": (
        [],
        [],
        [],
    ),
    "unknown_row_keys": (
        [
            "agents[0]: unknown keys ['atentionalResources']",
            "valueConnections[0]: unknown keys ['personalview', 'zz', 1]",
            "environment.relocations[0]: unknown keys ['when']",
        ],
        [
            "agents[0]: unknown keys ['atentionalResources']",
            "valueConnections[0]: unknown keys ['personalview', 'zz', 1]",
            "environment.relocations[0]: unknown keys ['when']",
        ],
        None,
    ),
    "value_rule_agent_fields": (
        [],
        [],
        [
            'view-range: agents[bob]: habitRate 0.0 outside (0, 1]',
            'view-range: agents[bob]: attentionBudget -1 outside [0, inf)',
            'view-range: agents[bob]: attentionalResources -2 outside [0, inf)',
        ],
    ),
    "value_rule_element_kinds": (
        [],
        [],
        [
            'disjointness: contextElements[chores].kind: declare Activity tokens under their own section',
            'disjointness: contextElements[crew].kind: declare Agent tokens under their own section',
        ],
    ),
    "value_rule_globals": (
        [],
        [],
        [
            'view-range: globals: decayRate 1.0 outside [0, 1)',
            'view-range: globals: socialLearningRate 0.0 outside (0, 1]',
            'view-range: globals: deliberationCost -1 outside [0, inf)',
            'view-range: globals: feasibilityThreshold 1.5 outside [0, 1]',
        ],
    ),
    "value_rule_relocation_tick": (
        [],
        [],
        [
            'view-range: environment.relocations[-1:bob]: tick -1 outside [0, inf)',
        ],
    ),
    "value_rule_resources_over_budget": (
        [],
        [],
        [
            'view-range: agents[alice]: attentionalResources 3 exceeds attentionBudget 2',
        ],
    ),
    "views_all_out_of_range": (
        [],
        [],
        [
            'view-range: habitualConnections[bob:walk_to_school:bring_kids_to_school]: myCollectiveView -1.0 outside [0, 1]',
            'view-range: valuePriorities[alice:environmentalism]: personalView 1.25 outside [0, 1]',
            'view-range: valueConnections[bob:drive_car_to_school:efficiency]: strength 1.5 outside [0, 1]',
            'view-range: valueConnections[bob:drive_car_to_school:efficiency]: personalView -0.5 outside [0, 1]',
            'view-range: valueConnections[bob:drive_car_to_school:efficiency]: myCollectiveView 2.0 outside [0, 1]',
            'view-range: affordances[Home:walk_to_work]: strength 1.5 outside [0, 1]',
        ],
    ),
    "loader_agent_parent_and_location_dangling": (
        [
            "agents[bob].location: unknown element 'Mars'",
            "agents[bob].parent: unknown element 'ghost_team'",
        ],
        [],
        [
            "dangling-reference: agents[bob].location: unknown element 'Mars'",
            "dangling-reference: agents[bob].parent: unknown element 'ghost_team'",
        ],
    ),
    "loader_agent_row_defects": (
        [
            "agents[0]: 'location' must be a plain identifier string, got ''",
            "agents[0]: 'parent' must be a plain identifier string, got ' team'",
        ],
        [
            "agents[0]: 'location' must be a plain identifier string, got ''",
            "agents[0]: 'parent' must be a plain identifier string, got ' team'",
        ],
        None,
    ),
    "loader_competence_sections_malformed": (
        [
            "'competences.levels' must be a list",
            'competences.requirements[0] must be an object',
        ],
        [
            "'competences.levels' must be a list",
            'competences.requirements[0] must be an object',
        ],
        None,
    ),
    "loader_competences_not_an_object": (
        [
            "'competences' must be an object with 'levels' and 'requirements'",
        ],
        [
            "'competences' must be an object with 'levels' and 'requirements'",
        ],
        None,
    ),
    "loader_competences_unknown_keys": (
        [
            "competences: unknown keys ['grades', 'skills']",
        ],
        [
            "competences: unknown keys ['grades', 'skills']",
        ],
        None,
    ),
    "loader_environment_not_an_object": (
        [
            "'environment' must be an object",
        ],
        [
            "'environment' must be an object",
        ],
        None,
    ),
    "loader_environment_unknown_keys": (
        [
            "environment: unknown keys ['weather', 'zones']",
        ],
        [
            "environment: unknown keys ['weather', 'zones']",
        ],
        None,
    ),
    "loader_global_not_a_number": (
        [
            "globals: 'habitThreshold' must be a number",
        ],
        [
            "globals: 'habitThreshold' must be a number",
        ],
        None,
    ),
    "loader_integer_string_budget": (
        [
            "agents[0]: 'attentionBudget' must be an integer, got 'two'",
        ],
        [
            "agents[0]: 'attentionBudget' must be an integer, got 'two'",
        ],
        None,
    ),
    "loader_missing_strength_beside_bad_personal": (
        [
            "valuePriorities[1]: 'personalView' must be a number, got 'high'",
        ],
        [
            "valuePriorities[1]: 'personalView' must be a number, got 'high'",
        ],
        None,
    ),
    "loader_placement_not_a_list": (
        [
            "environment.placements['Home'] must be a list of ids",
            "environment.placements['Office'] must be a list of ids",
        ],
        [
            "environment.placements['Home'] must be a list of ids",
            "environment.placements['Office'] must be a list of ids",
        ],
        None,
    ),
    "loader_placements_not_a_mapping": (
        [
            'environment.placements must map location ids to resource lists',
        ],
        [
            'environment.placements must map location ids to resource lists',
        ],
        None,
    ),
    "loader_relocation_not_an_object": (
        [
            'environment.relocations[1] must be an object',
            'environment.relocations[3] must be an object',
            "environment.relocations[2]: 'tick' must be an integer, got 'soon'",
        ],
        [
            'environment.relocations[1] must be an object',
            'environment.relocations[3] must be an object',
            "environment.relocations[2]: 'tick' must be an integer, got 'soon'",
        ],
        None,
    ),
    "loader_relocations_not_a_list": (
        [
            "'environment.relocations' must be a list",
        ],
        [
            "'environment.relocations' must be a list",
        ],
        None,
    ),
    "loader_timepoints_not_a_list": (
        [
            'environment.timepoints must be a list of ids',
        ],
        [
            'environment.timepoints must be a list of ids',
        ],
        None,
    ),
    "loader_values_not_a_list": (
        [
            "'values' must be a list of value ids",
            "valuePriorities[alice]: unknown value 'efficiency'",
            "valuePriorities[alice]: unknown value 'environmentalism'",
            "valuePriorities[bob]: unknown value 'efficiency'",
            "valuePriorities[bob]: unknown value 'environmentalism'",
            "valueConnections[alice]: unknown value 'efficiency'",
            "valueConnections[alice]: unknown value 'environmentalism'",
            "valueConnections[bob]: unknown value 'boring'",
            "valueConnections[bob]: unknown value 'efficiency'",
            "valueConnections[bob]: unknown value 'environmentalism'",
        ],
        [
            "'values' must be a list of value ids",
        ],
        None,
    ),
    "number_missing_habit_personal": (
        [],
        [],
        [],
    ),
    "number_missing_habit_rate": (
        [
            "agents[0]: missing 'habitRate'",
        ],
        [
            "agents[0]: missing 'habitRate'",
        ],
        None,
    ),
    "number_missing_vc_collective": (
        [],
        [],
        [],
    ),
    "number_missing_vc_personal": (
        [],
        [],
        [],
    ),
    "number_missing_vc_strength": (
        [],
        [],
        [],
    ),
    "number_missing_vp_strength": (
        [],
        [],
        [],
    ),
    "loader_budget_not_an_integer_beside_resources": (
        [
            "agents[0]: 'attentionBudget' must be an integer, got 'two'",
        ],
        [
            "agents[0]: 'attentionBudget' must be an integer, got 'two'",
        ],
        None,
    ),
    "loader_element_kind_unknown": (
        [
            "contextElements[0]: 'kind' must be one of Activity, Agent, Location, Resource, Timepoint, got 'Place'",
        ],
        [
            "contextElements[0]: 'kind' must be one of Activity, Agent, Location, Resource, Timepoint, got 'Place'",
        ],
        None,
    ),
    "loader_key_not_a_string_competences": (
        [
            "competences: unknown keys ['zz', 1]",
        ],
        [
            "competences: unknown keys ['zz', 1]",
        ],
        None,
    ),
    "loader_key_not_a_string_environment": (
        [
            "environment: unknown keys ['zz', 2]",
        ],
        [
            "environment: unknown keys ['zz', 2]",
        ],
        None,
    ),
    "loader_key_not_a_string_globals": (
        [
            "globals: unknown keys ['zz', 1]",
        ],
        [
            "globals: unknown keys ['zz', 1]",
        ],
        None,
    ),
    "loader_key_not_a_string_placements": (
        [
            "environment.placements['Office'] must be a list of ids",
            'environment.placements: location id 1 must be a string',
        ],
        [
            "environment.placements['Office'] must be a list of ids",
            'environment.placements: location id 1 must be a string',
        ],
        None,
    ),
    "loader_key_not_a_string_top_level": (
        [
            "unknown top-level keys: ['zz', 1]",
        ],
        [
            "unknown top-level keys: ['zz', 1]",
        ],
        None,
    ),
}


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_report(name):
    assert observe(CASES[name]) == EXPECTED[name]


def _float_views(doc: Doc) -> None:
    # Every view section padded, and every view written as a float.
    _padded(*DEEP_ID_SITES)(doc)
    for section in DEEP_ID_SITES:
        for row in doc[section]:
            for key in ("strength", "personalView", "myCollectiveView"):
                if key in row:
                    row[key] = float(row[key])


@pytest.mark.parametrize("section", sorted(DEEP_ID_SITES))
def test_an_int_view_builds_the_scenario_its_float_builds(section):
    floats = bundled_document("commuting")
    _float_views(floats)
    ints = bundled_document("commuting")
    _float_views(ints)
    ints[section][DEEP_ROW]["strength"] = 1
    floats[section][DEEP_ROW]["strength"] = 1.0
    built = build_scenario(ints)
    assert built == build_scenario(floats)
    for name in ("habitual_connections", "value_priorities", "value_connections"):
        for row in getattr(built, name):
            views = (row.strength, row.personal_view, row.my_collective_view)
            assert all(type(v) is float for v in views if v is not None)


@pytest.mark.parametrize("check_refs", [True, False])
def test_a_document_that_is_not_an_object(check_refs):
    with pytest.raises(ScenarioError) as exc:
        build_scenario([bundled_document("commuting")], check_refs=check_refs)
    assert exc.value.problems == ["scenario document must be an object"]


def test_duplicate_value_ids_in_a_long_values_list():
    doc = bundled_document("commuting")
    values = [f"v{i:05d}" for i in range(20000)]
    doc["values"] = values + ["v00007", values[-1], "v00007"]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(doc, check_refs=False)
    assert exc.value.problems == ["duplicate value ids: ['v00007', 'v19999']"]
