"""Per-agent runtime state and its construction from a scenario."""

from __future__ import annotations

from dataclasses import dataclass, field

from ._kernel import get_backend
from .model import Scenario


@dataclass(slots=True)
class ContextSnapshot:
    """The context elements an agent perceives at one tick: its location,
    the current timepoint, resources placed at the location, co-located
    agents, and its own previous activity. `ids` holds them as element
    ints of the scenario index, ascending; `present` names them.

    A plain slotted record, cheaper to make than a frozen one; nothing
    updates it after construction."""

    ids: tuple[int, ...]
    element_ids: tuple[str, ...] = field(repr=False, compare=False)  # the index's

    @property
    def present(self) -> frozenset[str]:
        return frozenset(map(self.element_ids.__getitem__, self.ids))


@dataclass(slots=True)
class SequentialFrame:
    """An entered sequential activity that still has parts to perform.

    All three fields hold activity ints. `completed` holds the PartOf
    children already done. `part_in_parent` is the part of the enclosing
    frame's activity this subtree was entered through.
    """

    activity: int
    completed: set[int] = field(default_factory=set)
    part_in_parent: int | None = None


@dataclass
class AgentState:
    """An agent's mutable state. `location` and `last_activity` hold
    element ints of the scenario index; the score lists are indexed by
    activity int. `pending` is the sequential execution stack: the
    entered sequential activities that still have parts to perform,
    innermost last."""

    agent_id: str
    habits: object  # HabitStore (selected backend)
    resources: int
    location: int
    habit_rate: float  # the agent's habitRate, read by every habit tick
    last_activity: int | None = None
    pending: list[SequentialFrame] = field(default_factory=list)
    # intentional score of each activity, raw and normalised; set by build_score_cache
    score_raw: list[float] | None = None
    score_norm: list[float] | None = None


def init_agent_state(scenario: Scenario, agent_id: str) -> AgentState:
    """The agent's tick-0 state. A habitual connection without a
    collective view starts with its personal view as the collective one."""
    idx = scenario.index
    spec = idx.agent_specs[agent_id]
    store = get_backend()(idx.chain_data, idx.chain_start)
    for hc in idx.habitual_by_agent.get(agent_id, ()):
        cv = hc.my_collective_view
        store.set_views(
            idx.activity_index(hc.activity),
            idx.element_index(hc.context_element),
            hc.strength,
            hc.personal_view,
            hc.personal_view if cv is None else cv,
        )
    return AgentState(
        agent_id=agent_id,
        habits=store,
        resources=spec.initial_resources,
        location=idx.element_index(spec.location),
        habit_rate=spec.habit_rate,
    )


def build_score_cache(state: AgentState, scenario: Scenario) -> None:
    """Compute every activity's intentional score from the scenario's
    value rows: the sum over the agent's values, in ascending value
    order, of the priority's personal view times the connection's; an
    activity with no connection scores 0. `score_norm` divides it by the
    sum of the priorities' personal views (0 when that sum is not
    positive). Value views never change during a run, so the decision
    walk reads the scores from here.

    One pass over the connections, in their canonical (agent, activity,
    value) order, adds each activity's terms in ascending value order. A
    duplicate connection row, which `validate_scenario` rejects, adds
    once per row."""
    idx = scenario.index
    agent = state.agent_id
    # value -> priority personal view, in ascending value id
    priorities = {vp.value: vp.personal_view
                  for vp in idx.priorities_by_agent.get(agent, ())}
    total = 0.0
    for p in priorities.values():
        total = total + p
    aidx = idx.aidx
    raw = [0.0] * len(idx.activity_ids)
    for vc in idx.connections_by_agent.get(agent, ()):
        p = priorities.get(vc.value)
        if p is not None:
            raw[aidx[vc.activity]] += p * vc.personal_view
    state.score_raw = raw
    state.score_norm = [acc / total if total > 0.0 else 0.0 for acc in raw]
