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
from typing import Any, Callable

from .errors import ScenarioError
from .model import ActivityType, ElementKind, RelationType, Scenario


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


def _kinds(s: Scenario) -> dict[str, ElementKind]:
    kinds = {e.id: e.kind for e in s.context_elements}
    kinds.update({a.id: ElementKind.ACTIVITY for a in s.activities})
    kinds.update({a.id: ElementKind.AGENT for a in s.agents})
    return kinds


def check_references(s: Scenario) -> list[Violation]:
    """Every id used anywhere must be declared somewhere.

    This is the builder's check, so the empty id is left out: `build_scenario`
    puts it in place of an id that failed the identifier check, which is
    already reported. `validate_scenario` reports every dangling id.
    """
    empty = f" {''!r}"  # need() ends each message with the id's repr
    return [v for v in _check_references(s, _kinds(s)) if not v.message.endswith(empty)]


def _check_references(s: Scenario, kinds: dict[str, ElementKind]) -> list[Violation]:
    # Each row tests membership first; its location and message are
    # formatted only for a row with a dangling id.
    activities = {a.id for a in s.activities}
    agents = {a.id for a in s.agents}
    values = set(s.values)
    out: list[Violation] = []
    seen: set[str] = set()

    def need(token: str, pool: set[str] | dict, what: str, where: str) -> None:
        if token not in pool:
            message = f"{where}: unknown {what} {token!r}"
            if message not in seen:
                seen.add(message)
                out.append(Violation(ViolationKind.DANGLING_REFERENCE, message))

    for e in s.context_elements:
        if e.parent is not None and e.parent not in kinds:
            need(e.parent, kinds, "element", f"contextElements[{e.id}].parent")
    for a in s.activities:
        if a.parent is not None and a.parent not in kinds:
            need(a.parent, kinds, "element", f"activities[{a.id}].parent")
    for ag in s.agents:
        if ag.parent is not None and ag.parent not in kinds:
            need(ag.parent, kinds, "element", f"agents[{ag.id}].parent")
        if ag.location not in kinds:
            need(ag.location, kinds, "element", f"agents[{ag.id}].location")
    for c in s.activity_connections:
        if c.child not in activities or c.parent not in activities:
            where = f"activityConnections[{c.child}->{c.parent}]"
            need(c.child, activities, "activity", where)
            need(c.parent, activities, "activity", where)
    for h in s.habitual_connections:
        if h.agent not in agents or h.activity not in activities or h.context_element not in kinds:
            where = f"habitualConnections[{h.agent}]"
            need(h.agent, agents, "agent", where)
            need(h.activity, activities, "activity", where)
            need(h.context_element, kinds, "element", where)
    for p in s.value_priorities:
        if p.agent not in agents or p.value not in values:
            where = f"valuePriorities[{p.agent}]"
            need(p.agent, agents, "agent", where)
            need(p.value, values, "value", where)
    for c in s.value_connections:
        if c.agent not in agents or c.activity not in activities or c.value not in values:
            where = f"valueConnections[{c.agent}]"
            need(c.agent, agents, "agent", where)
            need(c.activity, activities, "activity", where)
            need(c.value, values, "value", where)
    for r in s.roots:
        need(r, activities, "activity", "roots")
    env = s.environment
    for t in env.timepoints:
        need(t, kinds, "element", "environment.timepoints")
    for loc, resources in env.placements:
        need(loc, kinds, "element", "environment.placements")
        for res in resources:
            if res not in kinds:
                need(res, kinds, "element", f"environment.placements[{loc}]")
    for r in env.relocations:
        if r.agent not in agents or r.location not in kinds:
            where = f"environment.relocations[tick={r.tick}]"
            need(r.agent, agents, "agent", where)
            need(r.location, kinds, "element", where)
    for a in s.affordances:
        if a.context_element not in kinds or a.activity not in activities:
            where = f"affordances[{a.activity}]"
            need(a.context_element, kinds, "element", where)
            need(a.activity, activities, "activity", where)
    for lv in s.competence_levels:
        if lv.agent not in agents:
            need(lv.agent, agents, "agent", f"competences.levels[{lv.competence}]")
    for rq in s.competence_requirements:
        if rq.activity not in activities:
            need(rq.activity, activities, "activity",
                 f"competences.requirements[{rq.competence}]")
    return out


def _check_kind_usage(s: Scenario, kinds: dict[str, ElementKind]) -> list[Violation]:
    out: list[Violation] = []

    def expect(token: str, kind: ElementKind, where: str) -> None:
        actual = kinds.get(token)
        if actual is not None and actual is not kind:
            out.append(
                Violation(
                    ViolationKind.DISJOINTNESS,
                    f"{where}: {token!r} is a {actual.value}, expected {kind.value}",
                )
            )

    for e in s.context_elements:
        if e.parent is not None and kinds.get(e.parent) is not None:
            if kinds[e.parent] is not e.kind:
                out.append(
                    Violation(
                        ViolationKind.DISJOINTNESS,
                        f"contextElements[{e.id}]: parent {e.parent!r} is a "
                        f"{kinds[e.parent].value}, expected {e.kind.value}",
                    )
                )
    for a in s.activities:
        if a.parent is not None:
            expect(a.parent, ElementKind.ACTIVITY, f"activities[{a.id}].parent")
    for ag in s.agents:
        if ag.parent is not None:
            expect(ag.parent, ElementKind.AGENT, f"agents[{ag.id}].parent")
        expect(ag.location, ElementKind.LOCATION, f"agents[{ag.id}].location")
    env = s.environment
    for t in env.timepoints:
        expect(t, ElementKind.TIMEPOINT, "environment.timepoints")
    for loc, resources in env.placements:
        expect(loc, ElementKind.LOCATION, "environment.placements")
        for res in resources:
            expect(res, ElementKind.RESOURCE, f"environment.placements[{loc}]")
    for r in env.relocations:
        expect(r.location, ElementKind.LOCATION, f"environment.relocations[tick={r.tick}]")
    return out


def _check_parent_forests(s: Scenario) -> list[Violation]:
    parent: dict[str, str | None] = {e.id: e.parent for e in s.context_elements}
    parent.update({a.id: a.parent for a in s.activities})
    parent.update({a.id: a.parent for a in s.agents})
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


def _check_view_ranges(rows, where: Callable[[Any], str], out: list[Violation]) -> None:
    """Flag every number of each row's views outside [0, 1] (NaN included);
    `where(row)` is formatted only for a row that has one."""
    for row in rows:
        v = row.views
        c = v.my_collective_view
        try:
            if (0.0 <= v.strength <= 1.0 and 0.0 <= v.personal_view <= 1.0
                    and (c is None or 0.0 <= c <= 1.0)):
                continue
        except TypeError:  # a None field, skipped below
            pass
        at = where(row)
        for label, x in (("strength", v.strength), ("personalView", v.personal_view),
                         ("myCollectiveView", c)):
            if x is not None and not 0.0 <= x <= 1.0:
                out.append(
                    Violation(ViolationKind.VIEW_RANGE, f"{at}: {label} {x!r} outside [0, 1]")
                )


def _check_ranges(s: Scenario) -> list[Violation]:
    out: list[Violation] = []
    _check_view_ranges(
        s.habitual_connections,
        lambda h: f"habitualConnections[{h.agent}:{h.activity}:{h.context_element}]", out)
    _check_view_ranges(s.value_priorities, lambda p: f"valuePriorities[{p.agent}:{p.value}]", out)
    _check_view_ranges(
        s.value_connections,
        lambda c: f"valueConnections[{c.agent}:{c.activity}:{c.value}]", out)
    for a in s.affordances:
        if not 0.0 <= a.strength <= 1.0:
            out.append(
                Violation(
                    ViolationKind.VIEW_RANGE,
                    f"affordances[{a.context_element}:{a.activity}]: strength "
                    f"{a.strength!r} outside [0, 1]",
                )
            )
    for lv in s.competence_levels:
        if not 0.0 <= lv.level <= 1.0:
            out.append(
                Violation(
                    ViolationKind.VIEW_RANGE,
                    f"competences.levels[{lv.agent}:{lv.competence}]: level "
                    f"{lv.level!r} outside [0, 1]",
                )
            )
    for rq in s.competence_requirements:
        if not 0.0 <= rq.required <= 1.0:
            out.append(
                Violation(
                    ViolationKind.VIEW_RANGE,
                    f"competences.requirements[{rq.activity}:{rq.competence}]: required "
                    f"{rq.required!r} outside [0, 1]",
                )
            )
    return out


def _check_multiplicity(s: Scenario) -> list[Violation]:
    out: list[Violation] = []

    def dups(rows, fields: tuple[str, ...], what: str) -> None:
        keys = list(map(attrgetter(*fields), rows))
        if len(set(keys)) == len(keys):
            return
        seen: set = set()
        flagged: set = set()
        for k in keys:
            if k in seen and k not in flagged:
                flagged.add(k)
                label = ":".join(str(p) for p in k)
                out.append(Violation(ViolationKind.MULTIPLICITY, f"duplicate {what} {label!r}"))
            seen.add(k)

    dups(s.habitual_connections, ("agent", "activity", "context_element"), "habitual connection")
    dups(s.value_priorities, ("agent", "value"), "value priority")
    dups(s.value_connections, ("agent", "activity", "value"), "value connection")
    dups(s.affordances, ("context_element", "activity"), "affordance")
    dups(s.competence_levels, ("agent", "competence"), "competence level")
    dups(s.competence_requirements, ("activity", "competence"), "competence requirement")
    return out


def validate_scenario(s: Scenario) -> list[Violation]:
    """Full structural check; empty report means the scenario is runnable."""
    kinds = _kinds(s)
    report: list[Violation] = []
    report.extend(_check_references(s, kinds))
    report.extend(_check_kind_usage(s, kinds))
    report.extend(_check_parent_forests(s))
    report.extend(_check_activity_graph(s))
    report.extend(_check_ranges(s))
    report.extend(_check_multiplicity(s))
    return report
