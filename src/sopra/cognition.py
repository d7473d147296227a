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

Activities are the scenario index's activity ints throughout, interned
in sorted-id order, so the smallest id is the smallest int.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ._kernel import AGG_MAX, AGG_MEAN, AGG_SUM
from .extensions import filter_candidates
from .model import ActivityType, DecisionMode, Scenario
from .state import AgentState, ContextSnapshot, SequentialFrame

_AGG_CODES = {"mean": AGG_MEAN, "max": AGG_MAX, "sum": AGG_SUM}

# Enum members bound once: on Python 3.11 each `ActivityType.ATOMIC`
# attribute read goes through the enum class, over ten times the cost
# of reading a global, and the decision walk makes several per step.
_ATOMIC = ActivityType.ATOMIC
_SEQUENTIAL = ActivityType.SEQUENTIAL
_HABITUAL = DecisionMode.HABITUAL
_INTENTIONAL = DecisionMode.INTENTIONAL


@dataclass(slots=True)
class DecisionStep:
    """One decision of a cycle: the pick at `node` among `candidates`.

    `node`, `chosen` and `candidates` are activity ints of the scenario
    index. Built positionally once per step by `decide_step`, or by
    `decision_cycle` for an atomic root. A plain slotted record, so it
    is mutable and unhashable; nothing updates it after construction."""

    node: int
    chosen: int
    mode: DecisionMode
    pressure: float  # habitual pressure of the chosen candidate
    score: float  # priority-normalized intentional score of the chosen candidate
    candidates: tuple[int, ...]
    feasibility_fallback: bool = False


def _pressures(state: AgentState, activities: Sequence[int], ctx: ContextSnapshot,
               scenario: Scenario) -> list[float]:
    # Pressure aggregates over the context, so it needs at least one element.
    if not ctx.ids:
        raise ValueError("context snapshot is empty")
    g = scenario.globals
    return state.habits.pressures(activities, ctx.ids, g.attenuation,
                                  _AGG_CODES[g.pressure_aggregation])


def habitual_pressure(state: AgentState, activity: int, ctx: ContextSnapshot,
                      scenario: Scenario) -> float:
    """Aggregate effective habit strength of the activity int `activity`
    over the present context. An element with no stored strength borrows
    from its nearest hierarchy ancestor that has one, discounted by
    attenuation per step."""
    return _pressures(state, (activity,), ctx, scenario)[0]


def candidate_set(node: int, pending: Sequence[SequentialFrame],
                  scenario: Scenario) -> tuple[int, ...]:
    """Children eligible at the activity int `node`, as activity ints in
    id order: implementations of an abstract node, or the not-yet-completed
    parts of a sequential one, as its frame in the execution stack
    `pending` records them."""
    idx = scenario.index
    options = idx.options.get(node)
    if options is None:
        raise ValueError(f"atomic activity {idx.activity_ids[node]!r} has no candidates")
    # Only sequential activities have frames.
    for frame in reversed(pending):
        if frame.activity == node:
            return tuple(p for p in options if p not in frame.completed)
    return options


def _pick(values: list[float], best: float, rng: random.Random, uniform: bool) -> int:
    """Index of the first maximum of `values`, given `best = max(values)`:
    the strict-`>` scan's pick, so a NaN in first place wins and any
    later NaN never does. With `uniform`, a tie of two or more draws one
    of them from `rng`, which is otherwise left untouched."""
    pick = values.index(best)
    if uniform:
        tied = [i for i, v in enumerate(values) if v == best]
        if len(tied) > 1:
            return tied[rng.randrange(len(tied))]
    return pick


def decide_step(state: AgentState, node: int, ctx: ContextSnapshot,
                scenario: Scenario, rng: random.Random) -> DecisionStep:
    """Pick one child of the activity int `node`, habitually or
    intentionally. Scores are read from `state.score_raw`/`score_norm`,
    which `build_score_cache` fills."""
    g = scenario.globals
    cands = candidate_set(node, state.pending, scenario)
    if not cands:
        raise ValueError(f"no candidates at {scenario.index.activity_ids[node]!r}")
    fallback = False
    if g.extensions_enabled:
        kept, fallback = filter_candidates(cands, state.agent_id, ctx, scenario)
        cands = tuple(kept)
    pressures = _pressures(state, cands, ctx, scenario)
    uniform = g.tie_break == "uniform"
    top = max(pressures)
    if top >= g.habit_threshold or state.resources < g.deliberation_cost:
        mode = _HABITUAL
        pick = _pick(pressures, top, rng, uniform)
    else:
        mode = _INTENTIONAL
        score_raw = state.score_raw
        scores = [score_raw[c] for c in cands]
        pick = _pick(scores, max(scores), rng, uniform)
        state.resources -= g.deliberation_cost
    chosen = cands[pick]
    return DecisionStep(node, chosen, mode, pressures[pick], state.score_norm[chosen],
                        cands, fallback)


def decision_cycle(state: AgentState, ctx: ContextSnapshot, scenario: Scenario,
                   rng: random.Random) -> list[DecisionStep]:
    """Walk from the resume point down to an atomic activity, maintaining
    the sequential execution stack, and return the steps taken; the last
    step's `chosen` is the activity int to perform.

    An atomic root is one habitual step with itself as its only
    candidate: nothing is chosen, so no attention is spent.

    Completing an atomic marks the part it was reached through in the
    innermost sequential frame; frames whose parts are all done pop and
    cascade the completion upward.
    """
    idx = scenario.index
    atype = idx.activity_type
    pending = state.pending

    if pending:
        node = pending[-1].activity
    else:
        node = idx.root
        if node is None:
            raise ValueError("scenario declares no root activity")
        root_type = atype[node]
        if root_type is _ATOMIC:
            pressure = habitual_pressure(state, node, ctx, scenario)
            return [DecisionStep(node, node, _HABITUAL, pressure,
                                 state.score_norm[node], (node,))]
        if root_type is _SEQUENTIAL:
            pending.append(SequentialFrame(node))

    steps: list[DecisionStep] = []
    # The part chosen at the innermost frame. Every frame is decided at
    # right after it is entered or resumed, so this is always current.
    part = None
    guard = len(idx.activity_ids) + 1
    while atype[node] is not _ATOMIC:
        guard -= 1
        if guard <= 0:
            raise RuntimeError(
                f"decision walk did not terminate at {idx.activity_ids[node]!r}")
        step = decide_step(state, node, ctx, scenario, rng)
        steps.append(step)
        chosen = step.chosen
        if pending and pending[-1].activity == node:
            part = chosen
        if atype[chosen] is _SEQUENTIAL:
            pending.append(SequentialFrame(chosen, part_in_parent=part))
        node = chosen

    if pending:
        pending[-1].completed.add(part)
        while pending:
            frame = pending[-1]
            # completed only ever holds parts, so equal size means all done
            if len(frame.completed) < len(idx.options[frame.activity]):
                break
            pending.pop()
            if pending:
                pending[-1].completed.add(frame.part_in_parent)
    return steps
