"""Structural validation of scenarios.

`validate_scenario` is pure: it returns the same report for the same
scenario, never mutates anything, and never raises on bad content (only
`check_references`-level problems already rejected by the builder are
assumed absent when indexing, which this module does not use). Each
finding is classified so tooling can filter, and messages carry the ids
involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from ._gc import gc_paused
from .errors import ScenarioError
from .model import _VIEWS, GLOBAL_FIELDS, ROW_SECTIONS, ActivityType, ElementKind, RelationType
from .model import RowSection, Scenario, _Field


class ViolationKind(str, Enum):
    CYCLE = "cycle"
    DISJOINTNESS = "disjointness"
    TYPING = "typing"
    ATOMIC_WITH_CHILDREN = "atomic-with-children"
    DANGLING_REFERENCE = "dangling-reference"
    VIEW_RANGE = "view-range"
    MULTIPLICITY = "multiplicity"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    message: str


class InvalidScenarioError(ScenarioError):
    """Raised when a run is attempted on a scenario with violations."""

    def __init__(self, report: list[Violation]):
        self.report = report
        super().__init__([f"{v.kind.value}: {v.message}" for v in report])


def _elements(s: Scenario) -> tuple[dict[str, ElementKind], dict[str, tuple[str, ...]]]:
    """Each element id's kind and hierarchy parents (none or one), read in
    one pass."""
    kinds: dict[str, ElementKind] = {}
    parents: dict[str, tuple[str, ...]] = {}
    for rows, kind in ((s.context_elements, None), (s.activities, ElementKind.ACTIVITY),
                       (s.agents, ElementKind.AGENT)):
        for row in rows:
            kinds[row.id] = kind or row.kind
            parents[row.id] = () if row.parent is None else (row.parent,)
    return kinds, parents


def check_references(s: Scenario) -> list[Violation]:
    """Every id used anywhere must be declared somewhere.

    This is the builder's check, so it leaves out the empty id where the
    builder reads an identifier: `build_scenario` puts it in place of an id
    that failed the identifier check, which is already reported. The
    empty id anywhere else is reported. `validate_scenario` reports every
    dangling id.
    """
    dangling, _, rejected = _check_references(s, _elements(s)[0])
    return [v for v in dangling if v not in rejected]


# Each section's reference fields with their getters, in declared order.
_REFS = {sec.name: tuple((fl, attrgetter(fl.attr)) for fl in sec.fields if fl.refs is not None)
         for sec in ROW_SECTIONS}


def _check_references(
    s: Scenario, kinds: dict[str, ElementKind]
) -> tuple[list[Violation], list[Violation], list[Violation]]:
    """Walk every reference site once: the row sections in `ROW_SECTIONS`
    order, then roots, timepoints and placements.

    Returns the dangling references; the kind mismatches, for sites that
    must name an element of one kind; and the dangling references to the
    empty id at sites the builder reads as identifiers. A reference hits
    when it is in its pool's set. A field whose pool is the same for
    every row is first tested a column at a time; only the fields that
    fail that test, or whose pool is the row's own kind, are walked row by
    row, in field order, and locations and messages are formatted only for
    a reference that misses.
    """
    # The ids each pool holds; an `ElementKind` pool, the elements of that kind.
    pools: dict = {kind: set() for kind in ElementKind}
    for token, kind in kinds.items():
        pools.setdefault(kind, set()).add(token)
    pools.update(element=set(kinds), activity={a.id for a in s.activities},
                 agent={a.id for a in s.agents}, value=set(s.values))
    dangling: list[Violation] = []
    mismatched: list[Violation] = []
    rejected: list[Violation] = []
    seen: set[str] = set()

    def miss(token, refs, where: str, ident: bool = True) -> None:
        """Report `token`, which is not in `pools[refs]`, at `where`.
        `ident`: the builder reads the token as an identifier."""
        if isinstance(refs, ElementKind) and token in kinds:
            if isinstance(kinds[token], ElementKind):  # else `_check_fields` reports the kind
                mismatched.append(Violation(
                    ViolationKind.DISJOINTNESS,
                    f"{where}: {token!r} is a {kinds[token].value}, expected {refs.value}"))
            return
        what = "element" if isinstance(refs, ElementKind) else refs
        message = f"{where}: unknown {what} {token!r}"
        if message not in seen:
            seen.add(message)
            dangling.append(Violation(ViolationKind.DANGLING_REFERENCE, message))
            if ident and not token:
                rejected.append(dangling[-1])

    def check(tokens, refs, where: str) -> None:
        """Report each entry of an id list that misses its pool."""
        ids = pools[refs]
        for token in tokens:
            if token not in ids:
                miss(token, refs, where, ident=False)

    for sec in ROW_SECTIONS:
        rows = attrgetter(sec.attr)(s)
        refs = []
        for fl, get in _REFS[sec.name] if rows else ():
            if fl.refs != "own kind":
                tokens = map(get, rows)
                if fl.optional:  # None names nothing, so misses nothing
                    tokens = set(tokens)
                    tokens.discard(None)
                if pools[fl.refs].issuperset(tokens):
                    continue
            refs.append((fl, get))
        for row in rows if refs else ():
            for fl, get in refs:
                token = get(row)
                if token is None and fl.optional:
                    continue
                pool = row.kind if fl.refs == "own kind" else fl.refs
                if token not in pools.get(pool, ()):
                    miss(token, pool, sec.name + sec.cite.format(row, fl.json))
    # The id lists are plain id lists: the builder checks only that each
    # entry is a string.
    env = s.environment
    check(s.roots, "activity", "roots")
    check(env.timepoints, ElementKind.TIMEPOINT, "environment.timepoints")
    for loc, resources in env.placements:
        check((loc,), ElementKind.LOCATION, "environment.placements")
        check(resources, ElementKind.RESOURCE, f"environment.placements[{loc}]")
    return dangling, mismatched, rejected


def _cycles(what: str, starts, parents) -> list[Violation]:
    """Report each cycle a depth-first walk over child -> parent edges
    closes, as `what` and the cycle's path from child to parent back to
    where it began. The walk starts from each string among `starts`, in
    sorted order, that no earlier start reached (`_check_fields` reports
    an id that is no string), and follows `parents[node]`, the node's
    parents in order, where a node without an entry has none. A node that
    is its own parent closes a cycle of one."""
    cycles: list[Violation] = []
    done: set[str] = set()
    for start in sorted(start for start in starts if isinstance(start, str)):
        if start in done:
            continue
        path = {start: None}  # the walk's current path, in order
        todo = [iter(parents.get(start, ()))]
        while todo:
            for node in todo[-1]:
                if node in path:
                    trail = list(path)
                    cycle = trail[trail.index(node):] + [node]
                    cycles.append(Violation(ViolationKind.CYCLE,
                                            f"{what} cycle: " + " -> ".join(cycle)))
                elif node not in done:
                    path[node] = None
                    todo.append(iter(parents.get(node, ())))
                    break
            else:
                todo.pop()
                done.add(path.popitem()[0])
    return cycles


# The relation a composite activity's children take.
_CHILD_RELATION = {ActivityType.ABSTRACT: RelationType.IS_A,
                   ActivityType.SEQUENTIAL: RelationType.PART_OF}


def _check_activity_graph(s: Scenario) -> list[Violation]:
    out: list[Violation] = []
    # Any other type is `_check_fields`' report.
    types = {a.id: a.type for a in s.activities if isinstance(a.type, ActivityType)}
    has_children: set[str] = set()
    parents: dict[str, list[str]] = {}

    for c in s.activity_connections:
        parents.setdefault(c.child, []).append(c.parent)
        ptype = types.get(c.parent)
        if ptype is None:
            continue
        has_children.add(c.parent)
        if ptype is ActivityType.ATOMIC:
            out.append(
                Violation(
                    ViolationKind.ATOMIC_WITH_CHILDREN,
                    f"atomic activity {c.parent!r} has child {c.child!r}",
                )
            )
        elif not isinstance(c.relation, RelationType):
            continue  # `_check_fields` reports it
        elif c.relation is not _CHILD_RELATION[ptype]:
            out.append(Violation(ViolationKind.TYPING,
                                 f"{ptype.value.lower()} activity {c.parent!r} takes "
                                 f"{_CHILD_RELATION[ptype].value} children, got "
                                 f"{c.relation.value} from {c.child!r}"))

    for a, atype in types.items():
        if atype is not ActivityType.ATOMIC and a not in has_children:
            out.append(Violation(ViolationKind.TYPING,
                                 f"{atype.value.lower()} activity {a!r} has no children"))

    # Child->parent edges must form a DAG.
    out.extend(_cycles("activity connection", types, parents))
    return out


def _bounds(within: str) -> tuple[float, float]:
    """`lo` and `hi` such that ``lo <= x <= hi`` tests a number against
    `within`, an interval as the docs write it (``"(0, 1]"``): an open end
    moves to the next float inward, exactly for floats and for the ints a
    float can hold."""
    lo, hi = map(float, within[1:-1].split(","))
    if within[0] == "(":
        lo = math.nextafter(lo, math.inf)
    if within[-1] == ")":
        hi = math.nextafter(hi, -math.inf)
    return lo, hi


# What a value of each plain kind must be, as reported, and its types.
_KINDS = {"number": ("a number", (int, float)), "integer": ("an integer", (int,)),
          "ident": ("a string", (str,)), "boolean": ("a boolean", (bool,))}


def _judge(fl: _Field, x, at: str) -> Violation | None:
    """What is wrong with `x` as the value of `fl` at `at`, or None:
    `view-range` for a number outside its interval or a bounded value that
    is no number, `typing` for any other value not of the field's kind."""
    if x is None and fl.optional:
        return None
    kind = fl.kind
    if isinstance(kind, type):  # an enum
        ok, takes = isinstance(x, kind), "one of " + ", ".join(m.value for m in kind)
    elif isinstance(kind, tuple):  # a global's words
        ok, takes = isinstance(x, str) and x in kind, "one of " + ", ".join(kind)
    else:
        takes, types = _KINDS[kind]
        ok = isinstance(x, types) and (kind == "boolean" or not isinstance(x, bool))
    if not ok:
        return Violation(ViolationKind.TYPING if fl.within is None else ViolationKind.VIEW_RANGE,
                         f"{at}: {fl.json} must be {takes}, got {x!r}")
    if fl.within is not None:
        lo, hi = _bounds(fl.within)
        if not lo <= x <= hi:
            return Violation(ViolationKind.VIEW_RANGE, f"{at}: {fl.json} {x!r} outside {fl.within}")
    return None


# Each section's judged fields: every field with an interval, and every
# field that names no pool (the reference walk judges the others).
_JUDGED = {sec.name: tuple(fl for fl in sec.fields if fl.within is not None or fl.refs is None)
           for sec in ROW_SECTIONS}


def _fast_test(fl: _Field) -> tuple:
    """`fl`'s getter, the exact types that pass it as they are, and its
    interval's bounds (None, None without one)."""
    types = _KINDS[fl.kind][1] if fl.kind in _KINDS else (fl.kind,)
    bounds = _bounds(fl.within) if fl.within else (None, None)
    return (attrgetter(fl.attr), types + ((type(None),) if fl.optional else ()), *bounds)


_FAST = {name: tuple(map(_fast_test, fields)) for name, fields in _JUDGED.items()}
# The views share one interval, which their one-pass test reads.
((_VIEW_LO, _VIEW_HI),) = {_bounds(fl.within) for fl in _VIEWS}


def _report_fields(row, sec: RowSection, out: list[Violation]) -> None:
    """Append what `_judge` finds in each judged field of `row`."""
    at = f"{sec.name}[{sec.label(row)}]"
    out.extend(filter(None, (_judge(fl, getattr(row, fl.attr), at) for fl in _JUDGED[sec.name])))


def _check_fields(s: Scenario) -> list[Violation]:
    """Every judged field, section by section and row by row, then each
    agent's resources against its budget, then the globals. Only a row
    that fails a fast test, by type and interval, is judged by `_judge`."""
    out: list[Violation] = []
    for sec in ROW_SECTIONS:
        rows = attrgetter(sec.attr)(s)
        if _JUDGED[sec.name] == _VIEWS:
            lo, hi = _VIEW_LO, _VIEW_HI
            for row in rows:
                st, p, c = row.strength, row.personal_view, row.my_collective_view
                if (type(st) is float and type(p) is float and lo <= st <= hi and lo <= p <= hi
                        and (c is None or type(c) is float and lo <= c <= hi)):
                    continue
                _report_fields(row, sec, out)
            continue
        tests = _FAST[sec.name]
        for row in rows:
            for get, types, lo, hi in tests:
                x = get(row)
                if type(x) not in types or lo is not None and x is not None and not lo <= x <= hi:
                    _report_fields(row, sec, out)
                    break
    for a in s.agents:
        resources, budget = a.attentional_resources, a.attention_budget
        if type(resources) is int and type(budget) is int and resources > budget:
            out.append(Violation(ViolationKind.VIEW_RANGE, f"agents[{a.id}]: attentionalResources "
                                 f"{resources!r} exceeds attentionBudget {budget!r}"))
    out.extend(filter(None, (_judge(fl, getattr(s.globals, fl.attr), "globals")
                             for fl in GLOBAL_FIELDS)))
    return out


def _check_rows(s: Scenario) -> list[Violation]:
    """Duplicate keys, section by section, where `ROW_SECTIONS` names a
    duplicate report."""
    duplicates: list[Violation] = []
    for sec in ROW_SECTIONS:
        if sec.duplicate is None:
            continue
        rows = attrgetter(sec.attr)(s)
        keys = list(map(sec.identity, rows))
        if len(set(keys)) == len(keys):
            continue
        seen: set = set()
        flagged: set = set()
        for row, k in zip(rows, keys):
            if k in seen and k not in flagged:
                flagged.add(k)
                duplicates.append(
                    Violation(ViolationKind.MULTIPLICITY,
                              f"duplicate {sec.duplicate} {sec.label(row)!r}")
                )
            seen.add(k)
    return duplicates


def validate_scenario(s: Scenario) -> list[Violation]:
    """Full structural check; empty report means the scenario is runnable.

    Runs with the cyclic collector paused, as `build_scenario` does:
    what it allocates is returned or freed by reference counting, so a
    pass here would only re-scan the scenario."""
    with gc_paused():
        kinds, parents = _elements(s)
        dangling, mismatched, _ = _check_references(s, kinds)
        # Activities and agents are declared under their own sections.
        misplaced = [Violation(ViolationKind.DISJOINTNESS, f"contextElements[{e.id}].kind: "
                               f"declare {e.kind.value} tokens under their own section")
                     for e in s.context_elements
                     if e.kind is ElementKind.ACTIVITY or e.kind is ElementKind.AGENT]
        report = dangling + misplaced + mismatched
        report.extend(_cycles("context hierarchy", parents, parents))
        report.extend(_check_activity_graph(s))
        report.extend(_check_fields(s))
        report.extend(_check_rows(s))
        return report
