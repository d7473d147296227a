"""Decision making: habitual pressure and the root-to-atomic decision
walk. Intentional scores are precomputed per agent by
`state.build_score_cache`.

A decision cycle starts from the deepest unfinished sequential activity
(or the scenario root) and repeatedly picks one child until an atomic
activity is reached. Each pick is habitual when the strongest habitual
pressure among the candidates clears the threshold, or when attentional
resources are exhausted; otherwise it is intentional, costs attention,
and maximizes the value-weighted score. Ties go to the lexicographically
smallest candidate id unless the scenario opts into uniform tie-breaks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ._kernel import AGG_MAX, AGG_MEAN, AGG_SUM
from .extensions import filter_candidates
from .model import ActivityType, DecisionMode, RelationType, Scenario
from .state import AgentState, ContextSnapshot, ExecutionState, SequentialFrame

_AGG_CODES = {"mean": AGG_MEAN, "max": AGG_MAX, "sum": AGG_SUM}


@dataclass(frozen=True)
class DecisionStep:
    """One decision of a cycle: the pick at `node` among `candidates`."""

    node: str
    chosen: str
    mode: DecisionMode
    pressure: float  # habitual pressure of the chosen candidate
    score: float  # priority-normalized intentional score of the chosen candidate
    candidates: tuple[str, ...]
    feasibility_fallback: bool = False


def _pressures(state: AgentState, activities: Sequence[str], ctx: ContextSnapshot,
               scenario: Scenario) -> list[float]:
    # Pressure aggregates over the context, so it needs at least one element.
    if not ctx.present:
        raise ValueError("context snapshot is empty")
    g = scenario.globals
    idx = scenario.index
    elems = ctx.element_ids(idx)
    return state.habits.pressures(
        [idx.activity_index(a) for a in activities],
        elems,
        g.attenuation,
        _AGG_CODES[g.pressure_aggregation],
    )


def habitual_pressure(state: AgentState, activity: str, ctx: ContextSnapshot,
                      scenario: Scenario) -> float:
    """Aggregate effective habit strength of `activity` over the present
    context. An element with no stored strength borrows from its nearest
    hierarchy ancestor that has one, discounted by attenuation per step."""
    return _pressures(state, (activity,), ctx, scenario)[0]


def candidate_set(node: str, exec_state: ExecutionState,
                  scenario: Scenario) -> tuple[str, ...]:
    """Children eligible at `node`, in id order: implementations of an
    abstract node, or the not-yet-completed parts of a sequential one."""
    idx = scenario.index
    t = idx.type_of(node)
    if t is ActivityType.ATOMIC:
        raise ValueError(f"atomic activity {node!r} has no candidates")
    if t is ActivityType.ABSTRACT:
        return idx.children(node, RelationType.IS_A)
    parts = idx.children(node, RelationType.PART_OF)
    for frame in reversed(exec_state.pending):
        if frame.activity == node:
            return tuple(p for p in parts if p not in frame.completed)
    return parts


def _argmax(values: list[float], rng: random.Random, uniform: bool) -> int:
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    if uniform:
        tied = [i for i, v in enumerate(values) if v == values[best]]
        if len(tied) > 1:
            return tied[rng.randrange(len(tied))]
    return best


def decide_step(state: AgentState, node: str, ctx: ContextSnapshot,
                exec_state: ExecutionState, scenario: Scenario,
                rng: random.Random) -> DecisionStep:
    """Pick one child of `node`, habitually or intentionally. Scores are
    read from `state.score_raw`/`score_norm`, which `build_score_cache`
    fills."""
    g = scenario.globals
    cands = candidate_set(node, exec_state, scenario)
    if not cands:
        raise ValueError(f"no candidates at {node!r}")
    fallback = False
    if g.extensions_enabled:
        cands, fallback = filter_candidates(cands, state.agent_id, ctx, scenario)
    pressures = _pressures(state, cands, ctx, scenario)
    uniform = g.tie_break == "uniform"
    top = _argmax(pressures, rng, False)
    if pressures[top] >= g.habit_threshold or state.resources < g.deliberation_cost:
        mode = DecisionMode.HABITUAL
        pick = _argmax(pressures, rng, uniform)
    else:
        mode = DecisionMode.INTENTIONAL
        scores = [state.score_raw[c] for c in cands]
        pick = _argmax(scores, rng, uniform)
        state.resources -= g.deliberation_cost
    chosen = cands[pick]
    return DecisionStep(
        node=node,
        chosen=chosen,
        mode=mode,
        pressure=pressures[pick],
        score=state.score_norm[chosen],
        candidates=tuple(cands),
        feasibility_fallback=fallback,
    )


def decision_cycle(state: AgentState, ctx: ContextSnapshot, scenario: Scenario,
                   rng: random.Random) -> list[DecisionStep]:
    """Walk from the resume point down to an atomic activity, maintaining
    the sequential execution stack, and return the steps taken; the last
    step's `chosen` is the activity to perform.

    An atomic root is one habitual step with itself as its only
    candidate: nothing is chosen, so no attention is spent.

    Completing an atomic marks the part it was reached through in the
    innermost sequential frame; frames whose parts are all done pop and
    cascade the completion upward.
    """
    idx = scenario.index
    exec_state = state.exec_state
    pending = exec_state.pending

    if pending:
        node = pending[-1].activity
    else:
        if not scenario.roots:
            raise ValueError("scenario declares no root activity")
        node = scenario.roots[0]
        root_type = idx.type_of(node)
        if root_type is ActivityType.ATOMIC:
            pressure = habitual_pressure(state, node, ctx, scenario)
            return [DecisionStep(node, node, DecisionMode.HABITUAL, pressure,
                                 state.score_norm[node], (node,))]
        if root_type is ActivityType.SEQUENTIAL:
            pending.append(SequentialFrame(node))

    steps: list[DecisionStep] = []
    # The part chosen at the innermost frame. Every frame is decided at
    # right after it is entered or resumed, so this is always current.
    part = None
    guard = len(idx.activity_ids) + 1
    while idx.type_of(node) is not ActivityType.ATOMIC:
        guard -= 1
        if guard <= 0:
            raise RuntimeError(f"decision walk did not terminate at {node!r}")
        step = decide_step(state, node, ctx, exec_state, scenario, rng)
        steps.append(step)
        if pending and pending[-1].activity == node:
            part = step.chosen
        if idx.type_of(step.chosen) is ActivityType.SEQUENTIAL:
            pending.append(SequentialFrame(step.chosen, part_in_parent=part))
        node = step.chosen

    if pending:
        pending[-1].completed.add(part)
        while pending:
            frame = pending[-1]
            # completed only ever holds parts, so equal size means all done
            if len(frame.completed) < len(idx.children(frame.activity, RelationType.PART_OF)):
                break
            pending.pop()
            if pending:
                pending[-1].completed.add(frame.part_in_parent)
    return steps
