"""Inference over the activity hierarchy."""

from __future__ import annotations

from .errors import ScenarioError, UnknownIdError
from .model import Scenario, ScenarioIndex


def atomic_frontier(idx: ScenarioIndex, node: int) -> set[int]:
    """The atomic activity ints reachable downward from activity int
    `node` (itself when atomic), walked over `idx.options`. A reached
    composite without children raises ScenarioError."""
    options = idx.options
    frontier: set[int] = set()
    seen: set[int] = set()
    stack = [node]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        kids = options.get(node)
        if kids is None:  # atomic
            frontier.add(node)
        elif not kids:
            raise ScenarioError(
                f"non-atomic activity {idx.activity_ids[node]!r} has no children")
        else:
            stack.extend(kids)
    return frontier


def atomic_leaves(activity: str, scenario: Scenario) -> set[str]:
    """The atomic activities reachable downward from `activity` (itself
    when atomic). An unknown activity raises UnknownIdError."""
    idx = scenario.index
    ids = idx.activity_ids
    return {ids[a] for a in atomic_frontier(idx, idx.activity_index(activity))}


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
    frontier = atomic_frontier(idx, idx.activity_index(activity))
    strength = {idx.aidx[vc.activity]: vc.strength
                for vc in idx.connections_by_agent.get(agent_id, ()) if vc.value == value}
    return min(strength.get(a, 0.0) for a in frontier)
