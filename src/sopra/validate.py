"""Structural validation of scenarios.

`validate_scenario` is pure: it returns the same report for the same
scenario, never mutates anything, and never raises on bad content (only
`check_references`-level problems already rejected by the builder are
assumed absent when indexing, which this module does not use). Each
finding is classified so tooling can filter, and messages carry the ids
involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import attrgetter

from ._gc import gc_paused
from .errors import ScenarioError
from .model import _VIEWS, ROW_SECTIONS, ActivityType, ElementKind, RelationType, RowSection
from .model import Scenario


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


def _elements(s: Scenario) -> tuple[dict[str, ElementKind], dict[str, str | None]]:
    """Each element id's kind and hierarchy parent, read in one pass."""
    kinds: dict[str, ElementKind] = {}
    parent: dict[str, str | None] = {}
    for rows, kind in ((s.context_elements, None), (s.activities, ElementKind.ACTIVITY),
                       (s.agents, ElementKind.AGENT)):
        for row in rows:
            kinds[row.id] = kind or row.kind
            parent[row.id] = row.parent
    return kinds, parent


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


# Reference reports come section by section in this order, with the id
# lists (roots, timepoints, placements) between valueConnections and
# relocations; the builder reads the sections in `ROW_SECTIONS` order.
_REFERENCE_ORDER = (
    "contextElements", "activities", "agents", "activityConnections", "habitualConnections",
    "valuePriorities", "valueConnections", "roots", "environment.timepoints",
    "environment.placements", "environment.relocations", "affordances", "competences.levels",
    "competences.requirements",
)
_SECTIONS = {sec.name: sec for sec in ROW_SECTIONS}
# Each section's reference fields with their getters, in report order: a
# row's fields in declared order, except an agent's parent before its
# location.
_REFS = {sec.name: tuple((fl, attrgetter(fl.attr)) for fl in sec.fields if fl.refs is not None)
         for sec in ROW_SECTIONS}
_REFS["agents"] = _REFS["agents"][::-1]
_ROWS = {sec.name: attrgetter(sec.attr) for sec in ROW_SECTIONS}


def _check_references(
    s: Scenario, kinds: dict[str, ElementKind]
) -> tuple[list[Violation], list[Violation], list[Violation]]:
    """Walk every reference site once, in report order.

    Returns the dangling references; the kind mismatches, for sites that
    must name an element of one kind; and the dangling references to the
    empty id at sites the builder reads as identifiers. A reference hits
    when it is in the set `pool` gives for its field. A field whose set
    is the same for every row is first tested a column at a time; only
    the fields that fail that test, or whose set depends on the row, are
    walked row by row, in field order, and locations and messages are
    formatted only for a reference that misses.
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

    def pool(refs, row=None) -> set[str]:
        """The ids a reference to `refs` may name; "own kind": `row`'s kind."""
        return pools.get(row.kind, set()) if refs == "own kind" else pools[refs]

    def miss(token, refs, where: str, ident: bool = True) -> None:
        """Report `token`, which is not in `pool(refs)`, at `where`.
        `ident`: the builder reads the token as an identifier."""
        what = "element" if isinstance(refs, ElementKind) or refs == "own kind" else refs
        if isinstance(refs, ElementKind) and token in kinds:
            mismatched.append(
                Violation(
                    ViolationKind.DISJOINTNESS,
                    f"{where}: {token!r} is a {kinds[token].value}, expected {refs.value}",
                )
            )
            return
        message = f"{where}: unknown {what} {token!r}"
        if message not in seen:
            seen.add(message)
            dangling.append(Violation(ViolationKind.DANGLING_REFERENCE, message))
            if ident and not token:
                rejected.append(dangling[-1])

    def check(tokens, refs, where: str) -> None:
        """Report each entry of an id list that misses its pool."""
        ids = pool(refs)
        for token in tokens:
            if token not in ids:
                miss(token, refs, where, ident=False)

    def walk(sec: RowSection) -> None:
        rows = _ROWS[sec.name](s)
        refs = []
        for fl, get in _REFS[sec.name] if rows else ():
            if fl.refs != "own kind":
                tokens = map(get, rows)
                if fl.optional:  # None names nothing, so misses nothing
                    tokens = set(tokens)
                    tokens.discard(None)
                if pool(fl.refs).issuperset(tokens):
                    continue
            refs.append((fl, get))
        for row in rows if refs else ():
            for fl, get in refs:
                token = get(row)
                if token is None and fl.optional or token in pool(fl.refs, row):
                    continue
                if fl.refs == "own kind" and token in kinds:
                    mismatched.append(
                        Violation(
                            ViolationKind.DISJOINTNESS,
                            f"{sec.name}[{row.id}]: {fl.json} {token!r} is a "
                            f"{kinds[token].value}, expected {row.kind.value}",
                        )
                    )
                else:
                    miss(token, fl.refs, sec.name + sec.cite.format(row, fl.json))

    env = s.environment
    for name in _REFERENCE_ORDER:
        if name in _SECTIONS:
            walk(_SECTIONS[name])
        # The id lists are plain id lists: the builder checks only that
        # each entry is a string.
        elif name == "roots":
            check(s.roots, "activity", "roots")
        elif name == "environment.timepoints":
            check(env.timepoints, ElementKind.TIMEPOINT, name)
        else:
            for loc, resources in env.placements:
                check((loc,), ElementKind.LOCATION, name)
                check(resources, ElementKind.RESOURCE, f"{name}[{loc}]")
    return dangling, mismatched, rejected


def _check_parent_forests(parent: dict[str, str | None]) -> list[Violation]:
    out = []
    done: set[str] = set()
    for start in sorted(parent):
        if start in done:
            continue
        path: list[str] = []
        on_path: set[str] = set()
        node: str | None = start
        while node is not None and node in parent and node not in done:
            if node in on_path:
                cycle = path[path.index(node) :]
                out.append(
                    Violation(
                        ViolationKind.CYCLE,
                        "context hierarchy cycle: " + " -> ".join(cycle + [node]),
                    )
                )
                break
            on_path.add(node)
            path.append(node)
            node = parent[node]
        done.update(path)
    return out


def _check_activity_graph(s: Scenario) -> list[Violation]:
    out: list[Violation] = []
    types = {a.id: a.type for a in s.activities}
    has_children: set[str] = set()
    seen_edges: set[tuple[str, str, RelationType]] = set()
    parents: dict[str, list[str]] = {}

    for c in s.activity_connections:
        edge = (c.child, c.parent, c.relation)
        if edge in seen_edges:
            out.append(
                Violation(
                    ViolationKind.MULTIPLICITY,
                    f"duplicate activity connection {c.child!r} -{c.relation.value}-> {c.parent!r}",
                )
            )
        seen_edges.add(edge)
        if c.child == c.parent:
            out.append(
                Violation(ViolationKind.CYCLE, f"activity {c.child!r} connected to itself")
            )
            continue
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
        elif ptype is ActivityType.ABSTRACT and c.relation is not RelationType.IS_A:
            out.append(
                Violation(
                    ViolationKind.TYPING,
                    f"abstract activity {c.parent!r} takes IsA children, got "
                    f"{c.relation.value} from {c.child!r}",
                )
            )
        elif ptype is ActivityType.SEQUENTIAL and c.relation is not RelationType.PART_OF:
            out.append(
                Violation(
                    ViolationKind.TYPING,
                    f"sequential activity {c.parent!r} takes PartOf children, got "
                    f"{c.relation.value} from {c.child!r}",
                )
            )

    for a in s.activities:
        if a.type is not ActivityType.ATOMIC and a.id not in has_children:
            out.append(
                Violation(
                    ViolationKind.TYPING,
                    f"{a.type.value.lower()} activity {a.id!r} has no children",
                )
            )

    # Child->parent edges must form a DAG; iterative DFS with colors.
    color: dict[str, int] = {}
    for start in sorted(types):
        if color.get(start):
            continue
        stack: list[tuple[str, int]] = [(start, 0)]
        while stack:
            node, i = stack.pop()
            if i == 0:
                if color.get(node) == 2:
                    continue
                color[node] = 1
            nxt = parents.get(node, ())
            if i < len(nxt):
                stack.append((node, i + 1))
                child = nxt[i]
                state = color.get(child, 0)
                if state == 1:
                    out.append(
                        Violation(
                            ViolationKind.CYCLE,
                            f"activity connection cycle through {child!r}",
                        )
                    )
                elif state == 0:
                    stack.append((child, 0))
            else:
                color[node] = 2
    return out


# A view row's bounded fields: each one's name in reports, and its attribute.
_VIEW_FIELDS = tuple((fl.json, fl.attr) for fl in _VIEWS)


def _check_ranges(rows, sec: RowSection, out: list[Violation]) -> None:
    """Flag every bounded field that is not a number in [0, 1] (NaN
    included); a view row's `my_collective_view` may also be None. A row
    of in-range floats passes the first test, and only a row that fails
    has its location formatted."""
    if sec.bounded == "views":
        fields = _VIEW_FIELDS
        for row in rows:
            s, p, c = row.strength, row.personal_view, row.my_collective_view
            if (type(s) is float and type(p) is float and 0.0 <= s <= 1.0 and 0.0 <= p <= 1.0
                    and (c is None or type(c) is float and 0.0 <= c <= 1.0)):
                continue
            _report_ranges(row, sec, fields, out)
    else:
        fields = ((sec.bounded, sec.bounded),)
        for row in rows:
            x = getattr(row, sec.bounded)
            if type(x) is float and 0.0 <= x <= 1.0:
                continue
            _report_ranges(row, sec, fields, out)


def _report_ranges(row, sec: RowSection, fields, out: list[Violation]) -> None:
    """Append a violation for each of `fields` of `row` that fails."""
    at = f"{sec.name}[{sec.label(row)}]"
    for label, attr in fields:
        x = getattr(row, attr)
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            if x is not None or attr != "my_collective_view":
                out.append(Violation(ViolationKind.VIEW_RANGE,
                                     f"{at}: {label} must be a number, got {x!r}"))
        elif not 0.0 <= x <= 1.0:
            out.append(Violation(ViolationKind.VIEW_RANGE, f"{at}: {label} {x!r} outside [0, 1]"))


def _check_rows(s: Scenario) -> list[Violation]:
    """The checks `ROW_SECTIONS` declares, section by section: bounded
    fields that are not numbers in [0, 1], then, after every range
    finding, duplicate keys."""
    ranges: list[Violation] = []
    duplicates: list[Violation] = []
    for sec in ROW_SECTIONS:
        rows = attrgetter(sec.attr)(s)
        if sec.bounded is not None:
            _check_ranges(rows, sec, ranges)
        if sec.duplicate is None:
            continue
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
    return ranges + duplicates


def validate_scenario(s: Scenario) -> list[Violation]:
    """Full structural check; empty report means the scenario is runnable.

    Runs with the cyclic collector paused, as `build_scenario` does:
    what it allocates is returned or freed by reference counting, so a
    pass here would only re-scan the scenario."""
    with gc_paused():
        kinds, parent = _elements(s)
        dangling, mismatched, _ = _check_references(s, kinds)
        report = dangling + mismatched
        report.extend(_check_parent_forests(parent))
        report.extend(_check_activity_graph(s))
        report.extend(_check_rows(s))
        return report
