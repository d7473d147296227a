"""Scenario documents: parse, canonicalize, and serialize.

`build_scenario` turns a plain JSON-style mapping into a `Scenario`,
collecting every malformed field before raising; `Scenario` puts the
collections into canonical order, so equal content builds equal values.
Out-of-range view numbers are deliberately NOT rejected here; they build
fine and surface as `validate_scenario` violations, which keeps the
builder usable on documents you want to diagnose rather than refuse.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator, Mapping
from itertools import repeat
from typing import Any

from ._gc import gc_paused
from .errors import ScenarioError
from .model import (
    Activity,
    ActivityConnection,
    ActivityType,
    AffordanceConnection,
    AgentSpec,
    CompetenceLevel,
    CompetenceRequirement,
    ContextElement,
    ElementKind,
    Environment,
    Globals,
    HabitualConnection,
    RelationType,
    Relocation,
    Scenario,
    ValueConnection,
    ValuePriority,
    ViewTriple,
)

_TOP_KEYS = {
    "contextElements",
    "activities",
    "activityConnections",
    "values",
    "agents",
    "habitualConnections",
    "valuePriorities",
    "valueConnections",
    "roots",
    "environment",
    "globals",
    "affordances",
    "competences",
}

_GLOBALS_KEYS = {
    "habitThreshold": "habit_threshold",
    "decayRate": "decay_rate",
    "socialLearningRate": "social_learning_rate",
    "awarenessRate": "awareness_rate",
    "attenuation": "attenuation",
    "deliberationCost": "deliberation_cost",
    "pressureAggregation": "pressure_aggregation",
    "decayAll": "decay_all",
    "tieBreak": "tie_break",
    "extensionsEnabled": "extensions_enabled",
    "feasibilityThreshold": "feasibility_threshold",
}


# Characters no identifier may hold: a comma, a line break or a carriage
# return would split a CSV row, a double quote would open a quoted CSV
# field, and a lone surrogate cannot be written as UTF-8.
_UNSAFE_ID_CHAR = re.compile('[,"\n\r\ud800-\udfff]')


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_plain_ident(v: Any) -> bool:
    return (isinstance(v, str) and bool(v) and v == v.strip()
            and _UNSAFE_ID_CHAR.search(v) is None)


# A view section of this many rows or more is read a column at a time
# (`_Reader.view_columns`). The column pass pays a fixed twenty or so
# C-level calls and saves about a tenth of the row readers' cost per row:
# on CPython 3.11 the two broke even at about 50 rows.
_COLUMN_MIN_ROWS = 64

# Type sets the column pass tests whole columns against:
# `issuperset(map(type, column))` runs the loop in C.
_DICT = frozenset({dict})
_STR = frozenset({str})
_FLOAT = frozenset({float})
_FLOAT_OR_NONE = frozenset({float, type(None)})


class _Reader:
    """Field readers for one `build_scenario` call.

    Every problem is appended to `errs`. A row's location, `section[i]`,
    and the message are formatted only when a check fails, so a clean
    document pays for no error text. Identifier strings that passed the
    check are remembered for the rest of the build, so an id repeated
    across rows is checked once.
    """

    __slots__ = ("errs", "_idents")

    def __init__(self) -> None:
        self.errs: list[str] = []
        self._idents: set[str] = set()

    def fail(self, section: str, i: int, problem: str) -> None:
        self.errs.append(f"{section}[{i}]: {problem}")

    def rows(self, doc: Mapping[str, Any], key: str) -> Iterator[tuple[int, Mapping[str, Any]]]:
        """(position in the list, row) for the section's object rows; every
        other entry is reported. All entries are checked before any row
        is read, so their reports come first. The pairs are streamed, not
        collected: a section's rows are read once, as they are built."""
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            self.errs.append(f"{key!r} must be a list")
            return iter(())
        bad = set()
        for i, row in enumerate(raw):
            # JSON rows are dicts; the exact-type test spares them the ABC check.
            if type(row) is not dict and not isinstance(row, Mapping):
                self.errs.append(f"{key}[{i}] must be an object")
                bad.add(i)
        if not bad:
            return enumerate(raw)
        return ((i, row) for i, row in enumerate(raw) if i not in bad)

    def ident(self, obj: Mapping[str, Any], key: str, section: str, i: int) -> str:
        v = obj.get(key)
        if type(v) is str and v in self._idents:
            return v
        if not _is_plain_ident(v):
            self.fail(section, i, f"{key!r} must be a plain identifier string, got {v!r}")
            return ""
        self._idents.add(v)
        return v

    def opt_ident(self, obj: Mapping[str, Any], key: str, section: str, i: int) -> str | None:
        if obj.get(key) is None:
            return None
        return self.ident(obj, key, section, i)

    def num(self, obj: Mapping[str, Any], key: str, section: str, i: int,
            default: float | None = None) -> float:
        v = obj.get(key)
        if type(v) is float:
            return v
        if key not in obj:
            if default is not None:
                return default
            self.fail(section, i, f"missing {key!r}")
            return 0.0
        if not _is_number(v):
            self.fail(section, i, f"{key!r} must be a number, got {v!r}")
            return 0.0
        return float(v)

    def integer(self, obj: Mapping[str, Any], key: str, section: str, i: int) -> int:
        v = obj.get(key)
        if isinstance(v, bool) or not isinstance(v, int):
            self.fail(section, i, f"{key!r} must be an integer, got {v!r}")
            return 0
        return v

    def views(self, obj: Mapping[str, Any], section: str, i: int) -> ViewTriple:
        strength = obj.get("strength", 0.0)
        personal = obj.get("personalView", 0.0)
        collective = obj.get("myCollectiveView")
        if (type(strength) is float and type(personal) is float
                and (collective is None or type(collective) is float)):
            return ViewTriple(strength, personal, collective)
        strength = self.num(obj, "strength", section, i, default=0.0)
        personal = self.num(obj, "personalView", section, i, default=0.0)
        if collective is not None:
            collective = self.num(obj, "myCollectiveView", section, i)
        return ViewTriple(strength, personal, collective)

    def view_columns(self, doc: Mapping[str, Any], key: str, cls: type,
                     id_keys: tuple[str, ...]) -> list | None:
        """The rows of view section `key`, read a column at a time: each
        id key's column, then the strength, personal-view and
        collective-view columns, mapped through `cls`.

        Returns None, having reported nothing, when the section is shorter
        than `_COLUMN_MIN_ROWS`, is not a list of dicts, or holds a value
        that would fail its row reader: an id that is not a plain
        identifier `str`, a strength or personal view that is not a float,
        or a collective view that is neither a float nor absent. The
        caller then reads the section row by row, and the row readers
        word every report, in document order. Each distinct id not yet
        accepted is checked once, with `ident`'s test."""
        raw = doc.get(key)
        if (type(raw) is not list or len(raw) < _COLUMN_MIN_ROWS
                or not _DICT.issuperset(map(type, raw))):
            return None
        get = dict.get
        ids = []
        for k in id_keys:
            column = list(map(get, raw, repeat(k)))
            if not _STR.issuperset(map(type, column)):
                return None
            fresh = set(column).difference(self._idents)
            if not all(map(_is_plain_ident, fresh)):
                return None
            self._idents |= fresh
            ids.append(column)
        strength = list(map(get, raw, repeat("strength"), repeat(0.0)))
        personal = list(map(get, raw, repeat("personalView"), repeat(0.0)))
        collective = list(map(get, raw, repeat("myCollectiveView")))
        if not (_FLOAT.issuperset(map(type, strength))
                and _FLOAT.issuperset(map(type, personal))
                and _FLOAT_OR_NONE.issuperset(map(type, collective))):
            return None
        return list(map(cls, *ids, map(ViewTriple, strength, personal, collective)))

    def enum(self, obj: Mapping[str, Any], key: str, enum_cls: type, section: str, i: int):
        v = obj.get(key)
        try:
            return enum_cls(v)
        except ValueError:
            allowed = ", ".join(m.value for m in enum_cls)
            self.fail(section, i, f"{key!r} must be one of {allowed}, got {v!r}")
            return next(iter(enum_cls))


def _parse_globals(doc: Mapping[str, Any], errs: list[str]) -> Globals:
    raw = doc.get("globals", {})
    if not isinstance(raw, Mapping):
        errs.append("'globals' must be an object")
        return Globals()
    unknown = set(raw) - set(_GLOBALS_KEYS)
    if unknown:
        errs.append(f"globals: unknown keys {sorted(unknown)}")
    kwargs: dict[str, Any] = {}
    for json_key, attr in _GLOBALS_KEYS.items():
        if json_key not in raw:
            continue
        v = raw[json_key]
        if attr in ("decay_all", "extensions_enabled"):
            if not isinstance(v, bool):
                errs.append(f"globals: {json_key!r} must be a boolean")
                continue
        elif attr == "deliberation_cost":
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                errs.append(f"globals: {json_key!r} must be a non-negative integer")
                continue
        elif attr == "pressure_aggregation":
            if v not in ("mean", "max", "sum"):
                errs.append(f"globals: {json_key!r} must be mean, max or sum")
                continue
        elif attr == "tie_break":
            if v not in ("lexicographic", "uniform"):
                errs.append(f"globals: {json_key!r} must be lexicographic or uniform")
                continue
        else:
            if not _is_number(v):
                errs.append(f"globals: {json_key!r} must be a number")
                continue
            v = float(v)
            lo, hi = _GLOBAL_RANGES[attr]
            if not (lo[1] <= v if lo[0] else lo[1] < v) or not (v <= hi[1] if hi[0] else v < hi[1]):
                errs.append(f"globals: {json_key!r} out of range: {v!r}")
                continue
        kwargs[attr] = v
    return Globals(**kwargs)


# attr -> ((closed, low), (closed, high))
_GLOBAL_RANGES: dict[str, tuple[tuple[bool, float], tuple[bool, float]]] = {
    "habit_threshold": ((True, 0.0), (True, 1.0)),
    "decay_rate": ((True, 0.0), (False, 1.0)),
    "social_learning_rate": ((False, 0.0), (True, 1.0)),
    "awareness_rate": ((False, 0.0), (True, 1.0)),
    "attenuation": ((True, 0.0), (True, 1.0)),
    "feasibility_threshold": ((True, 0.0), (True, 1.0)),
}


def _parse_environment(doc: Mapping[str, Any], f: _Reader) -> Environment:
    errs = f.errs
    raw = doc.get("environment", {})
    if not isinstance(raw, Mapping):
        errs.append("'environment' must be an object")
        return Environment()
    unknown = set(raw) - {"timepoints", "placements", "relocations"}
    if unknown:
        errs.append(f"environment: unknown keys {sorted(unknown)}")

    tps = raw.get("timepoints", [])
    timepoints: list[str] = []
    if not isinstance(tps, list) or not all(isinstance(t, str) for t in tps):
        errs.append("environment.timepoints must be a list of ids")
    else:
        timepoints = list(tps)

    placements: list[tuple[str, tuple[str, ...]]] = []
    pl = raw.get("placements", {})
    if not isinstance(pl, Mapping):
        errs.append("environment.placements must map location ids to resource lists")
    else:
        for loc in sorted(pl):  # reports malformed lists in id order
            res = pl[loc]
            if not isinstance(res, list) or not all(isinstance(r, str) for r in res):
                errs.append(f"environment.placements[{loc!r}] must be a list of ids")
                continue
            placements.append((loc, tuple(res)))

    relocations = []
    rl = raw.get("relocations", [])
    if not isinstance(rl, list):
        errs.append("environment.relocations must be a list")
        rl = []
    section = "environment.relocations"
    for i, row in enumerate(rl):
        if not isinstance(row, Mapping):
            errs.append(f"{section}[{i}] must be an object")
            continue
        tick = f.integer(row, "tick", section, i)
        if tick < 0:
            f.fail(section, i, "'tick' must be non-negative")
        relocations.append(
            Relocation(tick, f.ident(row, "agent", section, i), f.ident(row, "location", section, i))
        )
    return Environment(tuple(timepoints), tuple(placements), tuple(relocations))


def build_scenario(document: Mapping[str, Any], *, check_refs: bool = True) -> Scenario:
    """Build a canonical `Scenario` from a parsed JSON document.

    Raises `ScenarioError` listing every malformed field, duplicate id,
    and (when `check_refs`) dangling reference found. With
    `check_refs=False` dangling references are left for
    `validate_scenario` to report as violations.

    Runs with the cyclic collector paused: what it makes lives as long
    as the scenario, so no pass during the build would free any of it.
    """
    with gc_paused():
        return _build_scenario(document, check_refs)


def _build_scenario(document: Mapping[str, Any], check_refs: bool) -> Scenario:
    if not isinstance(document, Mapping):
        raise ScenarioError("scenario document must be an object")
    f = _Reader()
    errs = f.errs
    unknown = set(document) - _TOP_KEYS
    if unknown:
        errs.append(f"unknown top-level keys: {sorted(unknown)}")

    elements = []
    for i, row in f.rows(document, "contextElements"):
        eid = f.ident(row, "id", "contextElements", i)
        kind = f.enum(row, "kind", ElementKind, "contextElements", i)
        if kind in (ElementKind.ACTIVITY, ElementKind.AGENT):
            f.fail("contextElements", i, f"declare {kind.value} tokens under their own section")
        elements.append(ContextElement(eid, kind, f.opt_ident(row, "parent", "contextElements", i)))

    activities = [
        Activity(
            f.ident(row, "id", "activities", i),
            f.enum(row, "type", ActivityType, "activities", i),
            f.opt_ident(row, "parent", "activities", i),
        )
        for i, row in f.rows(document, "activities")
    ]
    if not activities:
        errs.append("no activities declared")

    connections = [
        ActivityConnection(
            f.ident(row, "child", "activityConnections", i),
            f.ident(row, "parent", "activityConnections", i),
            f.enum(row, "relation", RelationType, "activityConnections", i),
        )
        for i, row in f.rows(document, "activityConnections")
    ]

    values_raw = document.get("values", [])
    values: list[str] = []
    if not isinstance(values_raw, list) or not all(isinstance(v, str) for v in values_raw):
        errs.append("'values' must be a list of value ids")
    else:
        values = list(values_raw)
        if len(set(values)) < len(values):
            dup = [v for v, n in Counter(values).items() if n > 1]
            errs.append(f"duplicate value ids: {sorted(dup)}")

    agents = []
    for i, row in f.rows(document, "agents"):
        aid = f.ident(row, "id", "agents", i)
        rate = f.num(row, "habitRate", "agents", i)
        if not 0.0 < rate <= 1.0:
            f.fail("agents", i, f"'habitRate' must be in (0, 1], got {rate!r}")
        budget = f.integer(row, "attentionBudget", "agents", i)
        if budget < 0:
            f.fail("agents", i, "'attentionBudget' must be non-negative")
        resources: int | None = None
        if row.get("attentionalResources") is not None:
            resources = f.integer(row, "attentionalResources", "agents", i)
            if not 0 <= resources <= budget:
                f.fail("agents", i, "'attentionalResources' must lie in [0, attentionBudget]")
        agents.append(
            AgentSpec(
                aid,
                rate,
                budget,
                f.ident(row, "location", "agents", i),
                resources,
                f.opt_ident(row, "parent", "agents", i),
            )
        )

    habitual = f.view_columns(document, "habitualConnections", HabitualConnection,
                              ("agent", "activity", "contextElement"))
    if habitual is None:
        habitual = [
            HabitualConnection(
                f.ident(row, "agent", "habitualConnections", i),
                f.ident(row, "activity", "habitualConnections", i),
                f.ident(row, "contextElement", "habitualConnections", i),
                f.views(row, "habitualConnections", i),
            )
            for i, row in f.rows(document, "habitualConnections")
        ]
    priorities = f.view_columns(document, "valuePriorities", ValuePriority, ("agent", "value"))
    if priorities is None:
        priorities = [
            ValuePriority(
                f.ident(row, "agent", "valuePriorities", i),
                f.ident(row, "value", "valuePriorities", i),
                f.views(row, "valuePriorities", i),
            )
            for i, row in f.rows(document, "valuePriorities")
        ]
    value_connections = f.view_columns(document, "valueConnections", ValueConnection,
                                       ("agent", "activity", "value"))
    if value_connections is None:
        value_connections = [
            ValueConnection(
                f.ident(row, "agent", "valueConnections", i),
                f.ident(row, "activity", "valueConnections", i),
                f.ident(row, "value", "valueConnections", i),
                f.views(row, "valueConnections", i),
            )
            for i, row in f.rows(document, "valueConnections")
        ]

    roots_raw = document.get("roots", [])
    roots: list[str] = []
    if not isinstance(roots_raw, list) or not all(isinstance(r, str) for r in roots_raw):
        errs.append("'roots' must be a list of activity ids")
    else:
        roots = list(roots_raw)

    affordances = [
        AffordanceConnection(
            f.ident(row, "contextElement", "affordances", i),
            f.ident(row, "activity", "affordances", i),
            f.num(row, "strength", "affordances", i),
        )
        for i, row in f.rows(document, "affordances")
    ]

    comp_raw = document.get("competences", {})
    levels: list[CompetenceLevel] = []
    requirements: list[CompetenceRequirement] = []
    if not isinstance(comp_raw, Mapping):
        errs.append("'competences' must be an object with 'levels' and 'requirements'")
    else:
        unknown = set(comp_raw) - {"levels", "requirements"}
        if unknown:
            errs.append(f"competences: unknown keys {sorted(unknown)}")
        levels = [
            CompetenceLevel(
                f.ident(row, "agent", "competences.levels", i),
                f.ident(row, "competence", "competences.levels", i),
                f.num(row, "level", "competences.levels", i),
            )
            for i, row in f.rows(comp_raw, "levels")
        ]
        requirements = [
            CompetenceRequirement(
                f.ident(row, "activity", "competences.requirements", i),
                f.ident(row, "competence", "competences.requirements", i),
                f.num(row, "required", "competences.requirements", i),
            )
            for i, row in f.rows(comp_raw, "requirements")
        ]

    environment = _parse_environment(document, f)
    globals_ = _parse_globals(document, errs)

    # One token namespace across elements, activities and agents.
    seen: set[str] = set()
    for eid in [e.id for e in elements] + [a.id for a in activities] + [a.id for a in agents]:
        if eid in seen:
            errs.append(f"duplicate id: {eid!r}")
        seen.add(eid)

    scenario = Scenario(
        context_elements=tuple(elements),
        activities=tuple(activities),
        activity_connections=tuple(connections),
        values=tuple(values),
        agents=tuple(agents),
        habitual_connections=tuple(habitual),
        value_priorities=tuple(priorities),
        value_connections=tuple(value_connections),
        roots=tuple(roots),
        environment=environment,
        globals=globals_,
        affordances=tuple(affordances),
        competence_levels=tuple(levels),
        competence_requirements=tuple(requirements),
    )
    if check_refs:
        from .validate import check_references

        errs.extend(v.message for v in check_references(scenario))
    if errs:
        raise ScenarioError(errs)
    return scenario


def _views_out(v: ViewTriple) -> dict[str, Any]:
    return {
        "strength": v.strength,
        "personalView": v.personal_view,
        "myCollectiveView": v.my_collective_view,
    }


def serialize_scenario(s: Scenario) -> dict[str, Any]:
    """Inverse of `build_scenario`: emits the canonical document form."""
    return {
        "contextElements": [
            {"id": e.id, "kind": e.kind.value, "parent": e.parent} for e in s.context_elements
        ],
        "activities": [
            {"id": a.id, "type": a.type.value, "parent": a.parent} for a in s.activities
        ],
        "activityConnections": [
            {"child": c.child, "parent": c.parent, "relation": c.relation.value}
            for c in s.activity_connections
        ],
        "values": list(s.values),
        "agents": [
            {
                "id": a.id,
                "habitRate": a.habit_rate,
                "attentionBudget": a.attention_budget,
                "attentionalResources": a.attentional_resources,
                "location": a.location,
                "parent": a.parent,
            }
            for a in s.agents
        ],
        "habitualConnections": [
            {"agent": h.agent, "activity": h.activity, "contextElement": h.context_element}
            | _views_out(h.views)
            for h in s.habitual_connections
        ],
        "valuePriorities": [
            {"agent": p.agent, "value": p.value} | _views_out(p.views)
            for p in s.value_priorities
        ],
        "valueConnections": [
            {"agent": c.agent, "activity": c.activity, "value": c.value} | _views_out(c.views)
            for c in s.value_connections
        ],
        "roots": list(s.roots),
        "environment": {
            "timepoints": list(s.environment.timepoints),
            "placements": {loc: list(res) for loc, res in s.environment.placements},
            "relocations": [
                {"tick": r.tick, "agent": r.agent, "location": r.location}
                for r in s.environment.relocations
            ],
        },
        "globals": {key: getattr(s.globals, attr) for key, attr in _GLOBALS_KEYS.items()},
        "affordances": [
            {"contextElement": a.context_element, "activity": a.activity, "strength": a.strength}
            for a in s.affordances
        ],
        "competences": {
            "levels": [
                {"agent": c.agent, "competence": c.competence, "level": c.level}
                for c in s.competence_levels
            ],
            "requirements": [
                {"activity": r.activity, "competence": r.competence, "required": r.required}
                for r in s.competence_requirements
            ],
        },
    }

