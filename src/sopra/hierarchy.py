"""Inference over the activity hierarchy."""

from __future__ import annotations

from collections import deque

from .errors import ScenarioError, UnknownIdError
from .model import ActivityType, RelationType, Scenario


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


def propagate_value_connection(agent_id: str, value: str, activity: str,
                               scenario: Scenario) -> float:
    """Derived connection strength between `value` and `activity` for
    `agent_id`.

    An atomic node reads the strength of the agent's value connection
    row (0 without one); a composite node is only as connected as its
    weakest relevant child (IsA children for abstract nodes, PartOf
    parts for sequential ones), so the result is the minimum over the
    atomic frontier. An unknown agent, value or activity raises
    UnknownIdError.
    """
    idx = scenario.index
    if agent_id not in idx.agent_specs:
        raise UnknownIdError(f"unknown agent: {agent_id!r}")
    idx.value_index(value)
    root = idx.activity_index(activity)
    strength = {idx.aidx[vc.activity]: vc.views.strength
                for vc in idx.connections_by_agent.get(agent_id, ()) if vc.value == value}
    memo: dict[int, float] = {}

    def walk(node: int) -> float:
        got = memo.get(node)
        if got is not None:
            return got
        kids = idx.options.get(node)
        if kids is None:  # atomic
            result = strength.get(node, 0.0)
        elif not kids:
            raise ScenarioError(
                f"non-atomic activity {idx.activity_ids[node]!r} has no children")
        else:
            result = min(walk(k) for k in kids)
        memo[node] = result
        return result

    return walk(root)
