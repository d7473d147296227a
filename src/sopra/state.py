"""Per-agent runtime state and its construction from a scenario."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ._kernel import get_backend
from .errors import UnknownIdError
from .model import Scenario, ScenarioIndex


@dataclass(frozen=True, slots=True)
class ContextSnapshot:
    """The element tokens an agent perceives at one tick: its location,
    the current timepoint, resources placed at the location, co-located
    agents, and its own previous activity. Built by `of`, which interns
    the tokens once, when the snapshot is taken."""

    present: frozenset[str]
    ids: tuple[int, ...]  # `present` interned by the scenario index, ascending

    @classmethod
    def of(cls, index: ScenarioIndex, present: Iterable[str]) -> ContextSnapshot:
        """The snapshot of `present`; an element `index` does not know
        raises UnknownIdError."""
        present = frozenset(present)
        try:
            ids = tuple(sorted(map(index.eidx.__getitem__, present)))
        except KeyError as exc:
            raise UnknownIdError(f"unknown context element: {exc.args[0]!r}") from None
        return cls(present, ids)


@dataclass(slots=True)
class SequentialFrame:
    """An entered sequential activity that still has parts to perform.

    `completed` holds the PartOf children already done. `part_in_parent`
    is the part of the enclosing frame's activity this subtree was
    entered through.
    """

    activity: str
    completed: set[str] = field(default_factory=set)
    part_in_parent: str | None = None


@dataclass
class ExecutionState:
    pending: list[SequentialFrame] = field(default_factory=list)


@dataclass
class AgentState:
    agent_id: str
    habits: object  # HabitStore (selected backend)
    exec_state: ExecutionState
    resources: int
    location: str
    last_activity: str | None = None
    # activity -> intentional score, raw and normalised; set by build_score_cache
    score_raw: dict[str, float] | None = None
    score_norm: dict[str, float] | None = None


def init_agent_state(scenario: Scenario, agent_id: str) -> AgentState:
    """The agent's tick-0 state. A habitual connection without a
    collective view starts with its personal view as the collective one."""
    idx = scenario.index
    spec = idx.agent_specs[agent_id]
    store = get_backend()(idx.chain_data, idx.chain_start)
    for hc in idx.habitual_by_agent.get(agent_id, ()):
        views = hc.views
        cv = views.my_collective_view
        store.set_views(
            idx.activity_index(hc.activity),
            idx.element_index(hc.context_element),
            views.strength,
            views.personal_view,
            views.personal_view if cv is None else cv,
        )
    return AgentState(
        agent_id=agent_id,
        habits=store,
        exec_state=ExecutionState(),
        resources=spec.initial_resources,
        location=spec.location,
    )


def build_score_cache(state: AgentState, scenario: Scenario) -> None:
    """Compute every activity's intentional score from the scenario's
    value rows: the sum over the agent's values, in ascending value
    order, of the priority's personal view times the connection's; an
    activity with no connection scores 0. `score_norm` divides it by the
    sum of the priorities' personal views (0 when that sum is not
    positive). Value views never change during a run, so the decision
    walk reads the scores from here."""
    idx = scenario.index
    agent = state.agent_id
    # value -> priority personal view, in ascending value id
    priorities = {vp.value: vp.views.personal_view
                  for vp in idx.priorities_by_agent.get(agent, ())}
    total = 0.0
    for p in priorities.values():
        total = total + p
    # activity -> value -> connection personal view
    views: dict[str, dict[str, float]] = {}
    for vc in idx.connections_by_agent.get(agent, ()):
        views.setdefault(vc.activity, {})[vc.value] = vc.views.personal_view
    raw = dict.fromkeys(idx.activity_ids, 0.0)
    for a, row in views.items():
        acc = 0.0
        for v, p in priorities.items():
            view = row.get(v)
            if view is not None:
                acc = acc + p * view
        raw[a] = acc
    state.score_raw = raw
    state.score_norm = {a: acc / total if total > 0.0 else 0.0 for a, acc in raw.items()}
