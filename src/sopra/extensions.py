"""Optional feasibility extensions: affordances and competences.

Both default to fully permissive when a scenario declares nothing, and
the candidate filter is the identity at threshold 0, so enabling the
extension flag on a scenario without affordance or competence data
changes no behavior.
"""

from __future__ import annotations

from typing import Sequence

from .model import Scenario
from .state import ContextSnapshot


def afforded(activity: int, ctx: ContextSnapshot, scenario: Scenario) -> float:
    """How strongly the present context affords the activity int `activity`.

    Activities with no declared affordance connections are unconstrained
    (1.0); otherwise the best offer among present elements counts, and a
    context with none of them affords nothing.
    """
    offers = scenario.index.affordances_by_activity.get(activity)
    if offers is None:
        return 1.0
    best = 0.0
    for e in ctx.ids:
        v = offers.get(e, 0.0)
        if v > best:
            best = v
    return best


def competent(agent_id: str, activity: int, scenario: Scenario) -> float:
    """min(1, level/required) over the requirements of the activity int
    `activity`; 1.0 when nothing is required."""
    idx = scenario.index
    levels = idx.levels_by_agent.get(agent_id, {})
    result = 1.0
    for competence, required in idx.requirements_by_activity.get(activity, ()):
        if required <= 0.0:
            continue
        ratio = levels.get(competence, 0.0) / required
        if ratio < result:
            result = ratio
    return result


def filter_candidates(candidates: Sequence[int], agent_id: str, ctx: ContextSnapshot,
                      scenario: Scenario) -> tuple[list[int], bool]:
    """Drop candidates (activity ints) whose feasibility (afforded x
    competent) falls below the configured threshold.

    Returns the kept candidates in input order plus a fallback flag: when
    nothing survives, the original set is returned unfiltered and the
    flag is set, so a decision can still be made.
    """
    threshold = scenario.globals.feasibility_threshold
    kept = [
        c
        for c in candidates
        if afforded(c, ctx, scenario) * competent(agent_id, c, scenario) >= threshold
    ]
    if not kept:
        return (list(candidates), True)
    return (kept, False)
