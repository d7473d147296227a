"""Inference over the activity hierarchy and view projections."""

from __future__ import annotations

import math
from collections import deque

from .errors import ScenarioError
from .model import ActivityBelief, ActivityType, RelationType, Scenario
from .state import AgentState


def descendants(activity: str, scenario: Scenario, relation: RelationType | None = None) -> set[str]:
    """Everything reachable downward from `activity` (excluding it)."""
    idx = scenario.index
    idx.activity_index(activity)
    seen: set[str] = set()
    queue = deque(idx.children(activity, relation))
    while queue:
        node = queue.popleft()
        if node in seen:
            continue
        seen.add(node)
        queue.extend(idx.children(node, relation))
    return seen


def atomic_leaves(activity: str, scenario: Scenario) -> set[str]:
    """The atomic activities reachable from `activity` (itself included
    when atomic)."""
    idx = scenario.index
    if idx.type_of(activity) is ActivityType.ATOMIC:
        return {activity}
    return {a for a in descendants(activity, scenario) | {activity}
            if idx.type_of(a) is ActivityType.ATOMIC}


def propagate_value_connection(state: AgentState, value: str, activity: str,
                               scenario: Scenario) -> float:
    """Derived connection strength between `value` and a non-atomic node.

    Atomic nodes read their stored connection strength; a composite node
    is only as connected as its weakest relevant child (IsA children for
    abstract nodes, PartOf parts for sequential ones), so the result is
    the minimum over the subtree frontier.
    """
    idx = scenario.index
    vi = idx.value_index(value)
    memo: dict[str, float] = {}

    def walk(node: str) -> float:
        got = memo.get(node)
        if got is not None:
            return got
        kids = idx.options.get(node)
        if kids is None:  # atomic, or UnknownIdError for an unknown id
            rec = state.value_connections.get((idx.activity_index(node), vi))
            result = rec[0] if rec is not None else 0.0
        elif not kids:
            raise ScenarioError(f"non-atomic activity {node!r} has no children")
        else:
            result = min(walk(k) for k in kids)
        memo[node] = result
        return result

    return walk(activity)


def project_collective_from_personal(state: AgentState) -> None:
    """Initialize every unformed collective view from the personal one.
    Already-formed views are left alone, so this is idempotent."""
    state.habits.project_collective()
    for rec in state.value_priorities.values():
        if math.isnan(rec[2]):
            rec[2] = rec[1]
    for rec in state.value_connections.values():
        if math.isnan(rec[2]):
            rec[2] = rec[1]


def activity_belief(agent_id: str, child: str, parent: str, scenario: Scenario) -> ActivityBelief:
    """The agent's view of a hierarchy edge; falls back to ground truth
    when the scenario declares no belief for the triple."""
    idx = scenario.index
    idx.activity_index(child)
    idx.activity_index(parent)
    declared = idx.beliefs.get((agent_id, child, parent))
    if declared is not None:
        return declared
    truth: RelationType | None = None
    for rel in (RelationType.IS_A, RelationType.PART_OF):
        if child in idx.children(parent, rel):
            truth = rel
            break
    return ActivityBelief(agent_id, child, parent, truth, truth)
