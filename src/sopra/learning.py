"""Connection dynamics: reinforcement, decay, view tracking, and social
observation.

All updates are saturating moves inside [0, 1]: reinforcement closes a
fraction of the gap to 1, decay scales toward 0, and view tracking
closes a fraction of the gap to the tracked quantity. Values that start
in [0, 1] therefore stay there for any admissible rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import Scenario
from .state import AgentState, ContextSnapshot


@dataclass(slots=True)
class ObservationEvent:
    """One performance and everyone who saw it."""

    observers: tuple[str, ...]  # distinct agent ids, the actor not among them
    actor: str
    activity: int  # activity int of the atomic activity the actor performed
    context: ContextSnapshot  # the actor's context at that tick
    tick: int

    def __post_init__(self):
        if self.actor in self.observers:
            raise ValueError("an agent does not observe itself")
        if len(set(self.observers)) != len(self.observers):
            raise ValueError("an observer is listed more than once")


def habit_tick(state: AgentState, performed: int, ctx: ContextSnapshot,
               scenario: Scenario) -> None:
    """One tick of strength dynamics from tick-start values, for the
    activity int `performed`.

    Default mode composes reinforcement with decay of everything else.
    In decayAll mode the performed connections take the combined step
    (1-d)h + r(1-h), which equilibrates at r/(r+d) instead of 1.
    """
    g = scenario.globals
    state.habits.habit_tick(
        performed,
        ctx.ids,
        state.habit_rate,
        g.decay_rate,
        g.decay_all,
    )


def update_personal_view(state: AgentState, scenario: Scenario) -> None:
    """Move each habitual personal view toward its connection's current
    strength by the awareness rate."""
    state.habits.track_personal(scenario.globals.awareness_rate)


def observe(event: ObservationEvent, scenario: Scenario,
            states: Mapping[str, AgentState],
            candidates: Sequence[int] = ()) -> None:
    """Fold one observed performance into each observer's collective views.

    Every observer strengthens its collective view of (activity, element)
    for every element of the actor's context, and weakens existing views
    for the `candidates` (activity ints) the actor could have picked
    instead. Connections
    the negative update would create are left absent. Observers must
    share the actor's location; if one does not, nobody is updated.
    """
    actor = states[event.actor]
    for name in event.observers:
        if states[name].location != actor.location:
            raise ValueError(
                f"{name!r} cannot observe {event.actor!r} from another location"
            )
    acted = event.activity
    competing = sorted(set(candidates) - {acted})
    elements = event.context.ids
    rate = scenario.globals.social_learning_rate
    for name in event.observers:
        states[name].habits.observe(acted, competing, elements, rate)
