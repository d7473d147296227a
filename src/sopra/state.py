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
    # vidx -> [strength, personal, collective]; collective is NaN until formed
    value_priorities: dict[int, list[float]]
    # (aidx, vidx) -> [strength, personal, collective]
    value_connections: dict[tuple[int, int], list[float]]
    exec_state: ExecutionState
    resources: int
    location: str
    last_activity: str | None = None
    # activity -> intentional score, raw and normalised; set by build_score_cache
    score_raw: dict[str, float] | None = None
    score_norm: dict[str, float] | None = None


def init_agent_state(scenario: Scenario, agent_id: str) -> AgentState:
    idx = scenario.index
    spec = idx.agent_specs[agent_id]
    store = get_backend()(idx.chain_data, idx.chain_start)
    nan = float("nan")
    for hc in idx.habitual_by_agent.get(agent_id, ()):
        cv = hc.views.my_collective_view
        store.set_views(
            idx.activity_index(hc.activity),
            idx.element_index(hc.context_element),
            hc.views.strength,
            hc.views.personal_view,
            nan if cv is None else cv,
        )
    priorities: dict[int, list[float]] = {}
    for vp in idx.priorities_by_agent.get(agent_id, ()):
        cv = vp.views.my_collective_view
        priorities[idx.value_index(vp.value)] = [
            vp.views.strength,
            vp.views.personal_view,
            nan if cv is None else cv,
        ]
    connections: dict[tuple[int, int], list[float]] = {}
    for vc in idx.connections_by_agent.get(agent_id, ()):
        cv = vc.views.my_collective_view
        key = (idx.activity_index(vc.activity), idx.value_index(vc.value))
        connections[key] = [
            vc.views.strength,
            vc.views.personal_view,
            nan if cv is None else cv,
        ]
    return AgentState(
        agent_id=agent_id,
        habits=store,
        value_priorities=priorities,
        value_connections=connections,
        exec_state=ExecutionState(),
        resources=spec.initial_resources,
        location=spec.location,
    )


def build_score_cache(state: AgentState, scenario: Scenario) -> None:
    """Compute every activity's intentional score: the sum over the
    agent's values, in ascending value order, of the priority's personal
    view times the connection's. `score_norm` divides it by the sum of
    the priorities' personal views (0 when that sum is not positive).
    The scores only change when view tables do, which in the current
    dynamics is never during a run, so the decision walk reads them
    from here."""
    priorities = [(vi, rec[1]) for vi, rec in sorted(state.value_priorities.items())]
    total = 0.0
    for _, p in priorities:
        total = total + p
    connections = state.value_connections
    raw: dict[str, float] = {}
    norm: dict[str, float] = {}
    for ai, a in enumerate(scenario.index.activity_ids):
        acc = 0.0
        for vi, p in priorities:
            rec = connections.get((ai, vi))
            if rec is not None:
                acc = acc + p * rec[1]
        raw[a] = acc
        norm[a] = acc / total if total > 0.0 else 0.0
    state.score_raw = raw
    state.score_norm = norm
