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
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import fields as dataclass_fields
from enum import Enum
from functools import partial
from itertools import repeat
from operator import attrgetter
from typing import Any

from ._gc import gc_paused
from .errors import ScenarioError
from .model import ROW_SECTIONS, ElementKind, Environment, Globals, RowSection, Scenario

# The document's top-level keys, in the order `serialize_scenario` writes
# them; "environment" and "competences" hold row sections of their own.
_DOCUMENT_ORDER = ("contextElements", "activities", "activityConnections", "values", "agents",
                   "habitualConnections", "valuePriorities", "valueConnections", "roots",
                   "environment", "globals", "affordances", "competences")

# Each global's document key, which is its `Globals` field in camel case.
_GLOBALS_KEYS = {re.sub("_([a-z])", lambda m: m[1].upper(), f.name): f.name
                 for f in dataclass_fields(Globals)}


# Characters no identifier may hold: a comma, a line break or a carriage
# return would split a CSV row, a double quote would open a quoted CSV
# field, and a lone surrogate cannot be written as UTF-8.
_UNSAFE_ID_CHAR = re.compile('[,"\n\r\ud800-\udfff]')


def _is_number(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_plain_ident(v: Any) -> bool:
    return (isinstance(v, str) and bool(v) and v == v.strip()
            and _UNSAFE_ID_CHAR.search(v) is None)


def _id_list(raw: Any, errs: list[str], problem: str) -> list[str]:
    """`raw` as a list of strings; anything else is reported as `problem`."""
    if isinstance(raw, list) and all(isinstance(v, str) for v in raw):
        return list(raw)
    errs.append(problem)
    return []


def _sorted_keys(keys) -> list:
    """`keys` for a report: the strings sorted, then any other key (a
    mapping built in code may hold one), ordered by its repr."""
    return (sorted(k for k in keys if isinstance(k, str))
            + sorted((k for k in keys if not isinstance(k, str)), key=repr))


# A section of this many rows or more is read a column at a time
# (`_Reader.columns`). Timed on CPython 3.11 with the city workload's rows
# of agents, contextElements, habitualConnections and valueConnections,
# rules included, the column pass broke even with the row reader at 16 to
# 24 rows in each, and was 10 to 30% faster at 32 rows.
_COLUMN_MIN_ROWS = 32

# The type of a value each kind of field takes as it is; an enum field's
# values are strings. The column pass tests whole columns against a type
# set: `issuperset(map(type, column))` runs the loop in C.
_PLAIN_TYPES = {"ident": str, "number": float, "integer": int}
_DICT = frozenset({dict})


# Rules on one field that are not about its type, by section name and
# field. Each runs right after its field is read, and only when that read
# reported nothing: a failed read leaves a placeholder, which no rule
# judges. It gets the value and the document's row, and returns the
# problem or None.
def _element_kind(kind: ElementKind, row: Mapping[str, Any]) -> str | None:
    if kind in (ElementKind.ACTIVITY, ElementKind.AGENT):
        return f"declare {kind.value} tokens under their own section"
    return None


def _habit_rate(rate: float, row: Mapping[str, Any]) -> str | None:
    return None if 0.0 < rate <= 1.0 else f"'habitRate' must be in (0, 1], got {rate!r}"


def _attention_budget(budget: int, row: Mapping[str, Any]) -> str | None:
    return "'attentionBudget' must be non-negative" if budget < 0 else None


def _attentional_resources(resources: int, row: Mapping[str, Any]) -> str | None:
    budget = row.get("attentionBudget")
    if isinstance(budget, bool) or not isinstance(budget, int):
        return None  # `_Reader.integer` reported the budget
    if not 0 <= resources <= budget:
        return "'attentionalResources' must lie in [0, attentionBudget]"
    return None


def _tick(tick: int, row: Mapping[str, Any]) -> str | None:
    return "'tick' must be non-negative" if tick < 0 else None


_RULES: dict[str, dict[str, Callable[[Any, Mapping[str, Any]], str | None]]] = {
    "contextElements": {"kind": _element_kind},
    "agents": {"habitRate": _habit_rate, "attentionBudget": _attention_budget,
               "attentionalResources": _attentional_resources},
    "environment.relocations": {"tick": _tick},
}

_SECTIONS = {sec.name: sec for sec in ROW_SECTIONS}


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

    def enum(self, obj: Mapping[str, Any], key: str, section: str, i: int,
             members: Mapping[str, Enum]) -> Enum:
        """The member of `obj[key]`'s value; `members` maps an enum's
        values to its members, in declaration order."""
        v = obj.get(key)
        member = members.get(v) if isinstance(v, str) else None
        if member is None:
            self.fail(section, i, f"{key!r} must be one of {', '.join(members)}, got {v!r}")
            return next(iter(members.values()))
        return member

    def read(self, doc: Mapping[str, Any], name: str) -> list:
        """The rows of section `name`, which `doc` holds under the name's
        last part: a column at a time when `columns` can, else row by row."""
        sec = _SECTIONS[name]
        key = name.rpartition(".")[2]
        rows = self.columns(doc, key, sec)
        if rows is None:
            rows = self.section(sec, self.rows(doc, key))
        return rows

    def section(self, sec: RowSection, pairs: Iterable[tuple[int, Mapping[str, Any]]]) -> list:
        """The rows of `sec` from (position, object) `pairs`, each read
        field by field in the declared order, with the section's rules.
        A value of the field's plain type (an identifier already accepted,
        a float, an int) is taken as is; any other goes to its reader."""
        name = sec.name
        errs = self.errs
        idents = self._idents
        slots, steps = _PLANS[name]
        out = []
        for i, obj in pairs:
            args: list[Any] = [None] * len(slots)
            for slot, key, default, plain, optional, read, rule in steps:
                v = obj.get(key, default)
                if type(v) is not plain or plain is str and v not in idents:
                    if v is None and optional:
                        continue
                    n = len(errs)
                    v = read(self, obj, key, name, i)
                    if len(errs) > n:
                        args[slot] = v
                        continue
                args[slot] = v
                if rule is not None:
                    problem = rule(v, obj)
                    if problem is not None:
                        self.fail(name, i, problem)
            out.append(sec.row(*args))
        return out

    def columns(self, doc: Mapping[str, Any], key: str, sec: RowSection) -> list | None:
        """The rows of `sec`, held in `doc[key]`, read a column at a time:
        the row class is mapped over the columns, one per field.

        Returns None, having reported nothing, when the section is shorter
        than `_COLUMN_MIN_ROWS`, is not a list of dicts, or holds a value
        that the row reader or a rule would report (a column of the wrong
        type, an id that is not a plain identifier, an unknown enum value).
        The caller then reads the section row by row, and the row reader
        words every report, in document order."""
        raw = doc.get(key)
        if (type(raw) is not list or len(raw) < _COLUMN_MIN_ROWS
                or not _DICT.issuperset(map(type, raw))):
            return None
        get = dict.get
        rules = _RULES.get(sec.name, {})
        columns = {}
        for fl in sec.fields:
            column = list(map(get, raw, repeat(fl.json), repeat(fl.default)))
            plain = _PLAIN_TYPES.get(fl.kind, str)
            types = {plain, type(None)} if fl.optional else {plain}
            if not types.issuperset(map(type, column)):
                return None
            if fl.kind == "ident":
                fresh = set(column).difference(self._idents)
                fresh.discard(None)
                if not all(map(_is_plain_ident, fresh)):
                    return None
                self._idents |= fresh
            elif isinstance(fl.kind, type):
                column = list(map(_MEMBERS[fl.kind].get, column))
                if None in column:
                    return None
            rule = rules.get(fl.json)
            if rule is not None and any(rule(v, obj) for v, obj in zip(column, raw)
                                        if v is not None):
                return None
            columns[fl.attr] = column
        return list(map(sec.row, *map(columns.__getitem__, _PLANS[sec.name][0])))


# Each enum field's values and their members, in declaration order.
_MEMBERS = {fl.kind: {m.value: m for m in fl.kind}
            for sec in ROW_SECTIONS for fl in sec.fields if isinstance(fl.kind, type)}


def _plan(sec: RowSection) -> tuple[tuple[str, ...], tuple]:
    """How `_Reader` reads `sec`: the row class's fields in its argument
    order, and per declared field its argument position, document key,
    default, plain type, optional flag, reader and rule."""
    slots = tuple(f.name for f in dataclass_fields(sec.row))
    rules = _RULES.get(sec.name, {})
    steps = []
    for fl in sec.fields:
        if fl.kind == "ident":
            read = _Reader.ident
        elif fl.kind == "number":
            read = _Reader.num if fl.default is None else partial(_Reader.num, default=fl.default)
        elif fl.kind == "integer":
            read = _Reader.integer
        else:
            read = partial(_Reader.enum, members=_MEMBERS[fl.kind])
        plain = _PLAIN_TYPES.get(fl.kind)
        steps.append((slots.index(fl.attr), fl.json, fl.default, plain, fl.optional, read,
                      rules.get(fl.json)))
    return slots, tuple(steps)


_PLANS = {sec.name: _plan(sec) for sec in ROW_SECTIONS}


def _parse_globals(doc: Mapping[str, Any], errs: list[str]) -> Globals:
    raw = doc.get("globals", {})
    if not isinstance(raw, Mapping):
        errs.append("'globals' must be an object")
        return Globals()
    unknown = set(raw) - set(_GLOBALS_KEYS)
    if unknown:
        errs.append(f"globals: unknown keys {_sorted_keys(unknown)}")
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
        errs.append(f"environment: unknown keys {_sorted_keys(unknown)}")

    timepoints = _id_list(raw.get("timepoints", []), errs,
                          "environment.timepoints must be a list of ids")

    placements: list[tuple[str, tuple[str, ...]]] = []
    pl = raw.get("placements", {})
    if not isinstance(pl, Mapping):
        errs.append("environment.placements must map location ids to resource lists")
    else:
        for loc in _sorted_keys(pl):  # reports malformed lists in id order
            if not isinstance(loc, str):
                errs.append(f"environment.placements: location id {loc!r} must be a string")
                continue
            res = pl[loc]
            if not isinstance(res, list) or not all(isinstance(r, str) for r in res):
                errs.append(f"environment.placements[{loc!r}] must be a list of ids")
                continue
            placements.append((loc, tuple(res)))

    rl = raw.get("relocations", [])
    if not isinstance(rl, list):
        errs.append("environment.relocations must be a list")
        rl = []
    relocations = f.section(_SECTIONS["environment.relocations"], _relocation_rows(rl, errs))
    return Environment(tuple(timepoints), tuple(placements), tuple(relocations))


def _relocation_rows(rl: list, errs: list[str]) -> Iterator[tuple[int, Mapping[str, Any]]]:
    """(position, row) for the object rows of `rl`; an entry that is not
    an object is reported in its place among the rows' own problems."""
    for i, row in enumerate(rl):
        if isinstance(row, Mapping):
            yield i, row
        else:
            errs.append(f"environment.relocations[{i}] must be an object")


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
    unknown = set(document).difference(_DOCUMENT_ORDER)
    if unknown:
        errs.append(f"unknown top-level keys: {_sorted_keys(unknown)}")

    elements = f.read(document, "contextElements")
    activities = f.read(document, "activities")
    if not activities:
        errs.append("no activities declared")
    connections = f.read(document, "activityConnections")

    values = _id_list(document.get("values", []), errs, "'values' must be a list of value ids")
    if len(set(values)) < len(values):
        dup = [v for v, n in Counter(values).items() if n > 1]
        errs.append(f"duplicate value ids: {sorted(dup)}")

    agents = f.read(document, "agents")
    habitual = f.read(document, "habitualConnections")
    priorities = f.read(document, "valuePriorities")
    value_connections = f.read(document, "valueConnections")

    roots = _id_list(document.get("roots", []), errs, "'roots' must be a list of activity ids")

    affordances = f.read(document, "affordances")

    comp_raw = document.get("competences", {})
    if not isinstance(comp_raw, Mapping):
        errs.append("'competences' must be an object with 'levels' and 'requirements'")
        comp_raw = {}
    unknown = set(comp_raw) - {"levels", "requirements"}
    if unknown:
        errs.append(f"competences: unknown keys {_sorted_keys(unknown)}")
    levels = f.read(comp_raw, "competences.levels")
    requirements = f.read(comp_raw, "competences.requirements")

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


def _rows_out(s: Scenario, sec: RowSection) -> list[dict[str, Any]]:
    out = []
    for row in attrgetter(sec.attr)(s):
        doc_row = {}
        for fl in sec.fields:
            v = getattr(row, fl.attr)
            doc_row[fl.json] = v.value if isinstance(v, Enum) else v
        out.append(doc_row)
    return out


def serialize_scenario(s: Scenario) -> dict[str, Any]:
    """Inverse of `build_scenario`: emits the canonical document form."""
    rows = {sec.name: _rows_out(s, sec) for sec in ROW_SECTIONS}
    doc = {key: rows.get(key) for key in _DOCUMENT_ORDER}
    doc["values"] = list(s.values)
    doc["roots"] = list(s.roots)
    doc["environment"] = {
        "timepoints": list(s.environment.timepoints),
        "placements": {loc: list(res) for loc, res in s.environment.placements},
        "relocations": rows["environment.relocations"],
    }
    doc["globals"] = {key: getattr(s.globals, attr) for key, attr in _GLOBALS_KEYS.items()}
    doc["competences"] = {
        "levels": rows["competences.levels"],
        "requirements": rows["competences.requirements"],
    }
    return doc
