from __future__ import annotations

import copy
import dataclasses
import gc
import random
from operator import attrgetter
from pathlib import Path

import pytest
from helpers import make_doc

from sopra import (
    HabitualConnection,
    RelationType,
    ScenarioError,
    ValueConnection,
    ValuePriority,
    World,
    atomic_leaves,
    build_scenario,
    propagate_value_connection,
    serialize_scenario,
    validate_scenario,
)
from sopra.model import ROW_SECTIONS
from sopra.scenario import _COLUMN_MIN_ROWS
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
    assert hc.strength == 2.5
    assert hc.personal_view == 0.0
    assert hc.my_collective_view is None


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


def test_serialized_keys_keep_their_order():
    # The canonical document form is also its JSON text: a digest of
    # json.dumps(serialize_scenario(s)) depends on the order of its keys.
    doc = serialize_scenario(build_scenario(bundled_document("extensions_demo")))
    assert list(doc) == [
        "contextElements", "activities", "activityConnections", "values", "agents",
        "habitualConnections", "valuePriorities", "valueConnections", "roots", "environment",
        "globals", "affordances", "competences",
    ]
    assert list(doc["environment"]) == ["timepoints", "placements", "relocations"]
    assert list(doc["competences"]) == ["levels", "requirements"]
    assert list(doc["agents"][0]) == [
        "id", "habitRate", "attentionBudget", "attentionalResources", "location", "parent"]
    assert list(doc["valueConnections"][0]) == [
        "agent", "activity", "value", "strength", "personalView", "myCollectiveView"]


def test_bundled_listing():
    assert set(list_bundled()) >= {"commuting", "cascade", "extensions_demo"}


@pytest.mark.parametrize("seed", range(12))
def test_random_round_trip(seed):
    doc = random_scenario_document(random.Random(seed))
    s = build_scenario(doc)
    assert build_scenario(serialize_scenario(s)) == s


def _every_section_doc():
    """make_doc with at least two rows in every section, so that a shuffle
    can put each section out of order."""
    doc = make_doc()
    doc["contextElements"] += [
        {"id": "tool", "kind": "Resource"},
        {"id": "cup", "kind": "Resource"},
        {"id": "Evening", "kind": "Timepoint"},
    ]
    doc["agents"].append({"id": "ag0", "habitRate": 0.2, "attentionBudget": 2, "location": "Away"})
    doc["values"].append("comfort")
    doc["habitualConnections"] = [
        {"agent": ag, "activity": a, "contextElement": e, "strength": 0.5, "personalView": 0.5}
        for ag in ("ag1", "ag0") for a in ("opt_b", "opt_a") for e in ("Home", "Morning")
    ]
    doc["valuePriorities"] += [
        {"agent": ag, "value": "comfort", "strength": 0.125, "personalView": 0.125}
        for ag in ("ag1", "ag0")
    ]
    doc["affordances"] = [
        {"contextElement": e, "activity": a, "strength": 1.0}
        for e in ("tool", "cup") for a in ("opt_b", "opt_a")
    ]
    doc["competences"] = {
        "levels": [{"agent": ag, "competence": c, "level": 0.5}
                   for ag in ("ag1", "ag0") for c in ("pour", "carry")],
        "requirements": [{"activity": a, "competence": c, "required": 0.25}
                         for a in ("opt_b", "opt_a") for c in ("pour", "carry")],
    }
    doc["environment"] = {
        "timepoints": ["Morning", "Evening"],
        "placements": {"Home": ["tool", "cup"], "Away": ["cup", "tool"]},
        "relocations": [{"tick": t, "agent": ag, "location": loc}
                        for t in (5, 2) for ag in ("ag1", "ag0") for loc in ("Home", "Away")],
    }
    return doc


def _shuffled(doc, rng):
    """Copy of `doc` with every row section, the values and the placements
    in a random order. Roots and timepoints keep theirs: both orders mean
    something."""
    out = copy.deepcopy(doc)
    sections = [out, out.get("competences", {})]
    for rows in (v for part in sections for v in part.values()):
        if isinstance(rows, list) and rows is not out["roots"]:
            rng.shuffle(rows)
    env = out["environment"]
    rng.shuffle(env["relocations"])
    env["placements"] = {
        loc: rng.sample(res, len(res))
        for loc, res in rng.sample(list(env["placements"].items()), len(env["placements"]))
    }
    return out


def _sorted_by(rows, key):
    return tuple(sorted(rows, key=key))


_SECTION = {sec.attr: sec for sec in ROW_SECTIONS}
# Each per-agent table of the index, and the section it groups.
_AGENT_TABLES = {"habitual_by_agent": _SECTION["habitual_connections"],
                 "priorities_by_agent": _SECTION["value_priorities"],
                 "connections_by_agent": _SECTION["value_connections"]}


def _assert_agent_tables(s):
    """Each per-agent table of the index equals a plain setdefault
    grouping of its section, each group in the section's key order and
    the agents ascending; an agent without rows has no key."""
    for table, sec in _AGENT_TABLES.items():
        grouped = {}
        for row in getattr(s, sec.attr):
            grouped.setdefault(row.agent, []).append(row)
        expected = {ag: _sorted_by(grouped[ag], sec.order) for ag in sorted(grouped)}
        got = getattr(s.index, table)
        assert got == expected and list(got) == list(expected), table


def _assert_canonical(doc, rng):
    s = build_scenario(doc)
    _assert_agent_tables(s)
    # The agents' rows out of order: reversed, then interleaved by the shuffles.
    reversed_doc = copy.deepcopy(doc)
    for sec in _AGENT_TABLES.values():
        reversed_doc[sec.name].reverse()
    for variant in (reversed_doc, *(_shuffled(doc, rng) for _ in range(4))):
        built = build_scenario(variant)
        assert built == s
        _assert_agent_tables(built)

    # Every collection is in its canonical order...
    for sec in ROW_SECTIONS:
        rows = attrgetter(sec.attr)(s)
        assert rows == _sorted_by(rows, sec.order), sec.name
    assert s.values == tuple(sorted(s.values))
    placements = s.environment.placements
    assert placements == tuple(sorted((loc, tuple(sorted(res))) for loc, res in placements))

    # ...so every grouping of the index is too.
    idx = s.index
    for ids in (idx.element_ids, idx.activity_ids, idx.agent_ids, idx.value_ids):
        assert ids == tuple(sorted(ids))
    for kids in idx._children.values():
        assert kids == tuple(sorted(kids))
    # (agent position, location int) pairs, and ints follow id order.
    for moves in idx.relocations_by_tick.values():
        assert moves == tuple(sorted(moves))
    for reqs in idx.requirements_by_activity.values():
        assert reqs == tuple(sorted(reqs))

    # A scenario made in code is canonical as well.
    for sec in ROW_SECTIONS:
        if sec.attr == "environment.relocations":
            env = dataclasses.replace(
                s.environment, relocations=s.environment.relocations[::-1],
                placements=tuple((loc, res[::-1]) for loc, res in placements[::-1]))
            assert dataclasses.replace(s, environment=env) == s
        else:
            reversed_rows = {sec.attr: getattr(s, sec.attr)[::-1]}
            replaced = dataclasses.replace(s, **reversed_rows)
            assert replaced == s, sec.name
            _assert_agent_tables(replaced)
    assert dataclasses.replace(s, values=s.values[::-1]) == s


def test_declaration_order_is_canonicalized():
    rng = random.Random(7)
    for name in ("commuting", "cascade", "extensions_demo"):
        _assert_canonical(bundled_document(name), rng)
    for seed in range(5):
        _assert_canonical(random_scenario_document(random.Random(seed)), rng)
    _assert_canonical(_every_section_doc(), rng)


# How the schema doc names each reference pool of `_Field.refs`.
_POOL_PHRASES = {"element": "any element", "own kind": "an element of its own kind",
                 "activity": "an activity", "agent": "an agent", "value": "a value"}


def _pool_phrase(refs):
    if refs in _POOL_PHRASES:
        return _POOL_PHRASES[refs]
    return f"{'an' if refs.value[0] in 'AEIOU' else 'a'} {refs.value} element"


def test_schema_doc_lists_each_row_section_as_the_code_does():
    text = (Path(__file__).resolve().parents[1] / "docs" / "scenario-schema.md").read_text()
    table = [[cell.strip() for cell in line.split("|")[1:-1]]
             for line in text.splitlines() if line.startswith("| `")]
    table = [row for row in table if len(row) == 5]

    def keys(sec, attrs):
        json = {fl.attr: fl.json for fl in sec.fields}
        return ", ".join(f"`{json[a]}`" for a in attrs)

    expected = []
    for sec in ROW_SECTIONS:
        if sec.duplicate is not None:
            on = f" on {keys(sec, sec.unique)}" if sec.unique else ""
            duplicate = f"`duplicate {sec.duplicate}`{on}"
        elif sec.key == ("id",):
            duplicate = "`duplicate id` (load error)"
        else:  # reported with the activity graph's checks
            duplicate = "`duplicate activity connection`"
        bounded = ("" if sec.bounded is None
                   else "views" if sec.bounded == "views" else keys(sec, (sec.bounded,)))
        refs = "; ".join(f"`{fl.json}`: {_pool_phrase(fl.refs)}"
                         for fl in sec.fields if fl.refs is not None)
        expected.append([f"`{sec.name}`", keys(sec, sec.key), duplicate, bounded, refs])
    assert table == expected


_EMPTY_ID_SITES = {
    "roots": ({"roots": ["", "act_root"]}, "roots: unknown activity ''"),
    "timepoints": ({"timepoints": ["Morning", ""]}, "environment.timepoints: unknown element ''"),
    "placement-location": ({"placements": {"": []}},
                           "environment.placements: unknown element ''"),
    "placement-resource": ({"placements": {"Home": [""]}},
                           "environment.placements[Home]: unknown element ''"),
}


@pytest.mark.parametrize("site", sorted(_EMPTY_ID_SITES))
def test_empty_id_in_an_id_list_is_dangling(site):
    # These lists' entries are not read as identifiers, so no other check
    # reports an empty one: the builder rejects it as dangling, with the
    # validator's message.
    change, message = _EMPTY_ID_SITES[site]
    doc = make_doc()
    if "roots" in change:
        doc.update(change)
    else:
        doc["environment"].update(change)
    report = validate_scenario(build_scenario(doc, check_refs=False))
    assert [v.message for v in report] == [message]
    with pytest.raises(ScenarioError) as exc:
        build_scenario(doc)
    assert exc.value.problems == [message]


def test_rows_built_without_views_do_not_share_one():
    # The views are the row's own fields: a row built without them holds
    # the defaults, and one row's replace leaves a twin unchanged.
    pairs = [
        (HabitualConnection("ag", "act", "el"), HabitualConnection("ag", "act", "el")),
        (ValuePriority("ag", "v"), ValuePriority("ag", "v")),
        (ValueConnection("ag", "act", "v"), ValueConnection("ag", "act", "v")),
    ]
    for a, b in pairs:
        assert (a.strength, a.personal_view, a.my_collective_view) == (0.0, 0.0, None)
        assert a == b
        changed = dataclasses.replace(a, strength=0.5, my_collective_view=0.25)
        assert (changed.strength, changed.my_collective_view) == (0.5, 0.25)
        assert a == b and a.strength == 0.0


_VIEW_SECTIONS = [sec for sec in ROW_SECTIONS if sec.bounded == "views"]


@pytest.mark.parametrize("source", ["generated", "commuting"])
def test_a_view_row_is_one_object(source):
    # A view row holds its numbers itself: the cyclic collector sees one
    # object per row, whose referents are its type, its id strings, and
    # floats or None. The generated sections are long enough to be read
    # a column at a time; commuting's are read row by row.
    if source == "generated":
        doc = random_scenario_document(random.Random(3), n_agents=64, habit_seeds=3)
        assert all(len(doc[sec.name]) >= _COLUMN_MIN_ROWS for sec in _VIEW_SECTIONS)
    else:
        doc = bundled_document("commuting")
        assert all(len(doc[sec.name]) < _COLUMN_MIN_ROWS for sec in _VIEW_SECTIONS)
    s = build_scenario(doc)
    for sec in _VIEW_SECTIONS:
        for row in getattr(s, sec.attr):
            refs = gc.get_referents(row)
            refs.remove(type(row))
            assert {type(r) for r in refs} <= {str, float, type(None)}, (sec.name, refs)


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
    old_strength = row.strength
    changed = dataclasses.replace(row, strength=0.125)
    s2 = dataclasses.replace(s, value_connections=(changed,) + s.value_connections[1:])

    assert s2.index is not old_index
    assert changed in s2.index.connections_by_agent[row.agent]
    assert propagate_value_connection(row.agent, row.value, row.activity, s2) == 0.125
    assert s.value_connections[0] is row and row.strength == old_strength != 0.125
    assert s.index is old_index
    assert row in old_index.connections_by_agent[row.agent]
    assert changed not in old_index.connections_by_agent[row.agent]
    assert s2 != s
