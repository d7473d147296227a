"""Scenario documents: parse, canonicalize, and serialize.

`build_scenario` turns a plain JSON-style mapping into a `Scenario`,
collecting every malformed field before raising; `Scenario` puts the
collections into canonical order, so equal content builds equal values.
The builder checks each value's kind only: a number outside its interval,
or any other broken rule on a value, builds fine and surfaces as a
`validate_scenario` violation, which keeps the builder usable on
documents you want to diagnose rather than refuse.
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
from .model import GLOBAL_FIELDS, ROW_SECTIONS, Environment, Globals, RowSection, Scenario

# The document's top-level keys, in the order `serialize_scenario` writes
# them; "environment" and "competences" hold row sections of their own.
_DOCUMENT_ORDER = ("contextElements", "activities", "activityConnections", "values", "agents",
                   "habitualConnections", "valuePriorities", "valueConnections", "roots",
                   "environment", "globals", "affordances", "competences")

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

    def rows(self, raw: Any, name: str) -> Iterator[tuple[int, Mapping[str, Any]]]:
        """(position in the list, row) for the object rows of section
        `name`, held in `raw`; every other entry is reported. All entries
        are checked before any row is read, so their reports come first.
        The pairs are streamed, not collected: a section's rows are read
        once, as they are built."""
        if not isinstance(raw, list):
            self.errs.append(f"{name!r} must be a list")
            return iter(())
        bad = set()
        for i, row in enumerate(raw):
            # JSON rows are dicts; the exact-type test spares them the ABC check.
            if type(row) is not dict and not isinstance(row, Mapping):
                self.errs.append(f"{name}[{i}] must be an object")
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

    def read(self, doc: Mapping[str, Any], name: str) -> list:
        """The rows of section `name`, which `doc` holds under the name's
        last part: a column at a time when `columns` can, else row by row."""
        sec = _SECTIONS[name]
        raw = doc.get(name.rpartition(".")[2], [])
        rows = self.columns(raw, sec)
        if rows is None:
            rows = self.section(sec, self.rows(raw, name))
        return rows

    def section(self, sec: RowSection, pairs: Iterable[tuple[int, Mapping[str, Any]]]) -> list:
        """The rows of `sec` from (position, object) `pairs`, each read
        field by field in the declared order, after a report of any key
        that names no field. A value of the field's plain type (an
        identifier already accepted, a float, an int) is taken as is; any
        other goes to its reader."""
        name = sec.name
        idents = self._idents
        slots, steps, known = _PLANS[name]
        out = []
        for i, obj in pairs:
            if not known.issuperset(obj):
                self.fail(name, i, f"unknown keys {_sorted_keys(set(obj).difference(known))}")
            args: list[Any] = [None] * len(slots)
            for slot, key, default, plain, optional, read in steps:
                v = obj.get(key, default)
                if type(v) is not plain or plain is str and v not in idents:
                    if v is None and optional:
                        continue
                    v = read(self, obj, key, name, i)
                args[slot] = v
            out.append(sec.row(*args))
        return out

    def columns(self, raw: Any, sec: RowSection) -> list | None:
        """The rows of `sec`, held in `raw`, read a column at a time: the
        row class is mapped over the columns, one per field.

        Returns None, having reported nothing, when the section is shorter
        than `_COLUMN_MIN_ROWS`, is not a list of dicts, or holds anything
        that the row reader would report (a key that names no field, a
        column of the wrong type, an id that is not a plain identifier, an
        unknown enum value). The caller then reads the section row by row,
        and the row reader words every report, in document order."""
        slots, _, known = _PLANS[sec.name]
        if (type(raw) is not list or len(raw) < _COLUMN_MIN_ROWS
                or not _DICT.issuperset(map(type, raw))
                or not known.issuperset(set().union(*raw))):
            return None
        get = dict.get
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
            columns[fl.attr] = column
        return list(map(sec.row, *map(columns.__getitem__, slots)))


# Each enum field's values and their members, in declaration order.
_MEMBERS = {fl.kind: {m.value: m for m in fl.kind}
            for sec in ROW_SECTIONS for fl in sec.fields if isinstance(fl.kind, type)}


def _enum_reader(enum: type[Enum]) -> Callable[..., Enum]:
    """A field reader, called as `_Reader`'s are, that gives the member of
    `enum` whose value the field holds."""
    members = _MEMBERS[enum]
    first = next(iter(members.values()))

    def read(f: _Reader, obj: Mapping[str, Any], key: str, section: str, i: int) -> Enum:
        v = obj.get(key)
        member = members.get(v) if isinstance(v, str) else None
        if member is None:
            f.fail(section, i, f"{key!r} must be one of {', '.join(members)}, got {v!r}")
            return first
        return member
    return read


def _plan(sec: RowSection) -> tuple[tuple[str, ...], tuple, frozenset[str]]:
    """How `_Reader` reads `sec`: the row class's fields in its argument
    order; per declared field its argument position, document key,
    default, plain type, optional flag and reader; and the keys its rows
    may hold."""
    slots = tuple(f.name for f in dataclass_fields(sec.row))
    steps = []
    for fl in sec.fields:
        if fl.kind == "ident":
            read = _Reader.ident
        elif fl.kind == "number":
            read = _Reader.num if fl.default is None else partial(_Reader.num, default=fl.default)
        elif fl.kind == "integer":
            read = _Reader.integer
        else:
            read = _enum_reader(fl.kind)
        plain = _PLAIN_TYPES.get(fl.kind)
        steps.append((slots.index(fl.attr), fl.json, fl.default, plain, fl.optional, read))
    return slots, tuple(steps), frozenset(fl.json for fl in sec.fields)


_PLANS = {sec.name: _plan(sec) for sec in ROW_SECTIONS}


def _parse_globals(doc: Mapping[str, Any], errs: list[str]) -> Globals:
    """The document's globals, each checked only for its kind: a number,
    an integer, a boolean, or one of its words. `validate_scenario` judges
    the numbers against their intervals."""
    raw = doc.get("globals", {})
    if not isinstance(raw, Mapping):
        errs.append("'globals' must be an object")
        return Globals()
    unknown = set(raw).difference(fl.json for fl in GLOBAL_FIELDS)
    if unknown:
        errs.append(f"globals: unknown keys {_sorted_keys(unknown)}")
    kwargs: dict[str, Any] = {}
    for fl in GLOBAL_FIELDS:
        if fl.json not in raw:
            continue
        v = raw[fl.json]
        if isinstance(fl.kind, tuple):
            ok, takes = v in fl.kind, f"{', '.join(fl.kind[:-1])} or {fl.kind[-1]}"
        elif fl.kind == "boolean":
            ok, takes = isinstance(v, bool), "a boolean"
        elif fl.kind == "integer":
            ok, takes = isinstance(v, int) and not isinstance(v, bool), "an integer"
        else:
            ok, takes = _is_number(v), "a number"
        if not ok:
            errs.append(f"globals: {fl.json!r} must be {takes}")
            continue
        kwargs[fl.attr] = float(v) if fl.kind == "number" else v
    return Globals(**kwargs)


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

    relocations = f.read(raw, "environment.relocations")
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
    doc["globals"] = {fl.json: getattr(s.globals, fl.attr) for fl in GLOBAL_FIELDS}
    doc["competences"] = {
        "levels": rows["competences.levels"],
        "requirements": rows["competences.requirements"],
    }
    return doc
