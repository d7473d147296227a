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
from dataclasses import dataclass, field

from ._kernel import AGG_MAX, AGG_MEAN, AGG_SUM
from .extensions import filter_candidates
from .model import ActivityType, DecisionMode, RelationType, Scenario
from .state import AgentState, ContextSnapshot, ExecutionState, SequentialFrame

_AGG_CODES = {"mean": AGG_MEAN, "max": AGG_MAX, "sum": AGG_SUM}


@dataclass(frozen=True)
class DecisionStep:
    node: str
    chosen: str
    mode: DecisionMode
    pressure: float  # habitual pressure of the chosen candidate
    score: float  # priority-normalized intentional score of the chosen candidate
    candidates: tuple[str, ...]
    feasibility_fallback: bool = False


@dataclass
class DecisionTrace:
    steps: list[DecisionStep] = field(default_factory=list)

    @property
    def feasibility_fallback(self) -> bool:
        return any(s.feasibility_fallback for s in self.steps)

    def final_candidates(self, atomic: str) -> tuple[str, ...]:
        return self.steps[-1].candidates if self.steps else (atomic,)


def _pressure_elements(ctx: ContextSnapshot, scenario: Scenario) -> tuple[int, ...]:
    # Pressure aggregates over the context, so it needs at least one element.
    if not ctx.present:
        raise ValueError("context snapshot is empty")
    return ctx.element_ids(scenario.index)


def habitual_pressure(state: AgentState, activity: str, ctx: ContextSnapshot,
                      scenario: Scenario) -> float:
    """Aggregate effective habit strength of `activity` over the present
    context. An element with no stored strength borrows from its nearest
    hierarchy ancestor that has one, discounted by attenuation per step."""
    g = scenario.globals
    elems = _pressure_elements(ctx, scenario)
    ai = scenario.index.activity_index(activity)
    return state.habits.pressures(
        [ai], elems, g.attenuation, _AGG_CODES[g.pressure_aggregation]
    )[0]


def candidate_set(node: str, exec_state: ExecutionState, scenario: Scenario) -> set[str]:
    """Children eligible at `node`: implementations of an abstract node,
    or the not-yet-completed parts of a sequential one."""
    idx = scenario.index
    t = idx.type_of(node)
    if t is ActivityType.ATOMIC:
        raise ValueError(f"atomic activity {node!r} has no candidates")
    if t is ActivityType.ABSTRACT:
        return set(idx.children(node, RelationType.IS_A))
    completed: set[str] = set()
    for frame in reversed(exec_state.pending):
        if frame.activity == node:
            completed = frame.completed
            break
    return set(idx.children(node, RelationType.PART_OF)) - completed


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
    cands = sorted(candidate_set(node, exec_state, scenario))
    if not cands:
        raise ValueError(f"no candidates at {node!r}")
    fallback = False
    if g.extensions_enabled:
        cands, fallback = filter_candidates(cands, state.agent_id, ctx, scenario)
    elems = _pressure_elements(ctx, scenario)
    idx = scenario.index
    pressures = state.habits.pressures(
        [idx.activity_index(c) for c in cands],
        elems,
        g.attenuation,
        _AGG_CODES[g.pressure_aggregation],
    )
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
                   rng: random.Random) -> tuple[str, DecisionTrace]:
    """Walk from the resume point down to an atomic activity, maintaining
    the sequential execution stack, and return the activity to perform.

    Completing an atomic marks the part it was reached through in the
    innermost sequential frame; frames whose parts are all done pop and
    cascade the completion upward.
    """
    idx = scenario.index
    exec_state = state.exec_state
    trace = DecisionTrace()

    if exec_state.pending:
        node = exec_state.pending[-1].activity
    else:
        if not scenario.roots:
            raise ValueError("scenario declares no root activity")
        node = scenario.roots[0]
        if idx.type_of(node) is ActivityType.SEQUENTIAL:
            exec_state.pending.append(SequentialFrame(node))

    guard = len(idx.activity_ids) + 1
    while idx.type_of(node) is not ActivityType.ATOMIC:
        guard -= 1
        if guard <= 0:
            raise RuntimeError(f"decision walk did not terminate at {node!r}")
        step = decide_step(state, node, ctx, exec_state, scenario, rng)
        trace.steps.append(step)
        top = exec_state.top()
        if top is not None and top.activity == node:
            top.pending_part = step.chosen
        if idx.type_of(step.chosen) is ActivityType.SEQUENTIAL:
            entered_through = top.pending_part if top is not None else None
            exec_state.pending.append(
                SequentialFrame(step.chosen, part_in_parent=entered_through)
            )
        node = step.chosen

    top = exec_state.top()
    if top is not None:
        # pending_part was set this cycle when deciding at the top frame
        top.completed.add(top.pending_part)
        while exec_state.pending:
            frame = exec_state.pending[-1]
            parts = set(idx.children(frame.activity, RelationType.PART_OF))
            if frame.completed != parts:
                break
            exec_state.pending.pop()
            parent = exec_state.top()
            if parent is not None:
                parent.completed.add(frame.part_in_parent)
    return node, trace
