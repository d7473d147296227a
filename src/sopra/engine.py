"""Deterministic tick loop.

Each tick runs in five phases over agents in ascending id order:

1. snapshot every agent's context from tick-start state,
2. run every decision cycle against those snapshots,
3. apply strength dynamics and personal-view tracking,
4. deliver each performance to every co-located agent,
5. log events and the tick's metrics row, replenish attention, record
   last activities, apply scheduled relocations, and advance the clock.

Because phases never read state another agent mutated in the same phase
sweep, and all iteration is over sorted ids, identical scenario + seed
gives byte-identical logs in any process. Each tick's metrics row is
built from that tick's events and its end-of-tick store totals, so a
world stepped in any number of calls logs what one run of as many ticks
logs.

Phases 1 and 4 read one co-location layout: which agents share each
location, each location's base context (its agents and its cues) and
each actor's observers. A `World` keeps it between ticks and rebuilds it
whenever the agents' locations differ from those it was built for: after
a relocation row, or after a caller assigned `state.location` between
steps.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import count
from math import fsum
from pathlib import Path
from typing import Collection, Iterable, Mapping, Sequence

from ._gc import gc_paused
from .cognition import decision_cycle
from .learning import ObservationEvent, habit_tick, observe, update_personal_view
from .model import DecisionMode, Scenario
from .state import AgentState, ContextSnapshot, build_score_cache, init_agent_state
from .validate import InvalidScenarioError, validate_scenario

EVENTS_HEADER = "tick,agent,activity,mode,pressure,score,location,timepoint"

# Logged scores snap to this dyadic grid (finer than the six decimals the
# CSV keeps) so numerically equivalent inputs, e.g. value priorities all
# rescaled by a constant, cannot flip the last printed digit via an
# ulp-sized perturbation.
_SCORE_GRID = float(1 << 20)


def _snap_score(x: float) -> float:
    return round(x * _SCORE_GRID) / _SCORE_GRID


@dataclass(slots=True)
class Event:
    """One logged decision. Its ids are names, not the ints the tick
    works on: this is the record `events.csv` writes."""

    tick: int
    agent: str
    activity: str
    mode: DecisionMode
    pressure: float
    score: float
    location: str
    timepoint: str | None


@dataclass(slots=True)
class MetricsRow:
    tick: int
    habitual_fraction: float
    counts: tuple[int, ...]  # aligned with the sorted atomic activity ids
    mean_strength: float
    mean_personal_view: float
    mean_collective_view: float


def snapshot_context(world: World, agent: int,
                     base: Collection[int] | None = None) -> ContextSnapshot:
    """What the agent with element int `agent` perceives right now: its
    location, the current timepoint, resources placed there, co-located
    agents, and its own previous activity.

    `base` is the base context of the agent's location: the element ints
    of the agents there, the agent itself included, and the location's
    cues (`ScenarioIndex.cues`), as `World.step` keeps them between
    ticks; without it every agent's location is scanned."""
    idx = world.scenario.index
    state = world.states[idx.element_ids[agent]]
    location = state.location
    if base is None:
        base = [e for e, other in zip(idx.agent_elements, world.states.values())
                if other.location == location]
        base.extend(idx.cues[location])
    present = set(base)
    present.discard(agent)
    timepoints = idx.timepoint_elements
    if timepoints:
        present.add(timepoints[world.tick % len(timepoints)])
    if state.last_activity is not None:
        present.add(state.last_activity)
    return ContextSnapshot(tuple(sorted(present)), idx.element_ids)


def _co_location_layout(scenario: Scenario, locations: tuple[int, ...]) -> tuple:
    """(bases, groups, observations) for agents at `locations`, element
    ints by agent position: bases[i] is the base context of agent i's
    location; groups holds, for each location with two or more agents in
    ascending order, their positions and each one's observer names; and
    observations counts the ordered observer pairs. Only tuples of ints
    and strings, which the cyclic collector stops tracking."""
    idx = scenario.index
    agent_ids = idx.agent_ids
    agent_elements = idx.agent_elements
    cues = idx.cues
    by_location: dict[int, list[int]] = {}
    for i, location in enumerate(locations):
        by_location.setdefault(location, []).append(i)
    base = {}
    groups = []
    observations = 0
    for location in sorted(by_location):
        at = by_location[location]
        base[location] = (*map(agent_elements.__getitem__, at), *cues[location])
        n = len(at)
        if n > 1:
            names = tuple(map(agent_ids.__getitem__, at))
            groups.append((tuple(at), tuple([names[:k] + names[k + 1:] for k in range(n)])))
            observations += n * (n - 1)
    return tuple(map(base.__getitem__, locations)), tuple(groups), observations


def _agent_states(scenario: Scenario) -> dict[str, AgentState]:
    """Every agent's tick-0 state with its score cache, by agent id.
    Runs with the cyclic collector paused: the states live as long as
    the world, so no pass during their construction would free any."""
    with gc_paused():
        states = {ag: init_agent_state(scenario, ag) for ag in scenario.index.agent_ids}
        for state in states.values():
            build_score_cache(state, scenario)
    return states


class World:
    def __init__(self, scenario: Scenario, seed: int = 0, *, validate: bool = True):
        if validate:
            report = validate_scenario(scenario)
            if report:
                raise InvalidScenarioError(report)
        self.scenario = scenario
        self.rng = random.Random(seed)
        self.tick = 0
        self.events: list[Event] = []
        self.metrics: list[MetricsRow] = []
        # The count column of each atomic activity, by its logged id.
        self._columns = {a: i for i, a in enumerate(scenario.index.atomic_ids)}
        self.observation_count = 0
        self.states = _agent_states(scenario)
        # The agents' locations the co-location layout was built for, and
        # the layout.
        self._layout_key: tuple[int, ...] | None = None
        self._layout: tuple = ()

    def step(self) -> list[Event]:
        s = self.scenario
        idx = s.index
        agent_ids = idx.agent_ids
        # Agent states by position in agent_ids; every per-tick list below
        # is indexed the same way.
        states = list(self.states.values())
        tick = self.tick

        # Relocations only apply at the end of the tick, so phases 1 and 4
        # share one layout.
        locations = tuple([state.location for state in states])
        if locations != self._layout_key:
            self._layout = _co_location_layout(s, locations)
            self._layout_key = locations
        bases, groups, observations = self._layout
        snaps = [snapshot_context(self, e, base)
                 for e, base in zip(idx.agent_elements, bases)]

        # The last step of each agent's cycle is the decision it acts on.
        decided = [decision_cycle(state, snap, s, self.rng)[-1]
                   for state, snap in zip(states, snaps)]

        for state, step, snap in zip(states, decided, snaps):
            habit_tick(state, step.chosen, snap, s)
            update_personal_view(state, s)

        # Each actor's performance goes to all other agents at its location
        # in one event. Actors run in id order because each observer must
        # apply them in that order (docs/model.md, Observation).
        for at, observers in groups:
            for i, names in zip(at, observers):
                step = decided[i]
                event = ObservationEvent(names, agent_ids[i], step.chosen, snaps[i], tick)
                observe(event, s, self.states, step.candidates)
        self.observation_count += observations

        activity_ids = idx.activity_ids
        activity_elements = idx.activity_elements
        element_ids = idx.element_ids
        timepoint = idx.timepoints[tick % len(idx.timepoints)] if idx.timepoints else None
        new_events = []
        for ag, spec, state, step in zip(agent_ids, s.agents, states, decided):
            new_events.append(
                Event(tick, ag, activity_ids[step.chosen], step.mode, step.pressure,
                      _snap_score(step.score), element_ids[state.location], timepoint)
            )
            state.last_activity = activity_elements[step.chosen]
            state.resources = spec.attention_budget
        self.events.extend(new_events)
        self.metrics.append(collect_metrics(
            tick, new_events, [state.habits.sums() for state in states], self._columns))

        for i, location in idx.relocations_by_tick.get(tick, ()):
            states[i].location = location
        self.tick += 1
        return new_events

    def run(self, ticks: int) -> tuple[list[Event], list[MetricsRow]]:
        """Advance `ticks` ticks; return every event and every tick's
        metrics row logged so far.

        Runs with the cyclic collector paused: the logs and habit stores
        the ticks grow live as long as the world, and nothing a tick
        drops is cyclic garbage, so no pass would free anything."""
        with gc_paused():
            for _ in range(ticks):
                self.step()
        return self.events, self.metrics


def run(scenario: Scenario, ticks: int, seed: int = 0) -> tuple[list[Event], list[MetricsRow]]:
    """Validate, build a world, and advance it `ticks` ticks."""
    return World(scenario, seed).run(ticks)


# Bound once: on Python 3.11 an enum member read through its class costs
# over ten times a global read, and the metrics test one per event.
_HABITUAL = DecisionMode.HABITUAL


def collect_metrics(tick: int, events: Sequence[Event],
                    totals: Sequence[tuple[int, float, float, float]],
                    columns: Mapping[str, int]) -> MetricsRow:
    """The metrics row of tick `tick`: the habitual fraction of its
    `events` and how many of them performed each atomic activity
    (`columns` maps each atomic id to its count column), and the mean
    views over all stored connections, from each habit store's `sums()`
    at the end of the tick (0.0 where there is nothing to average)."""
    counts = [0] * len(columns)
    habitual = 0
    for e in events:
        counts[columns[e.activity]] += 1
        if e.mode is _HABITUAL:
            habitual += 1
    fraction = habitual / len(events) if events else 0.0
    # Correctly rounded totals, so no order of agents or entries is
    # part of the logs (docs/model.md, Logs).
    conns, strengths, personal, collective = zip(*totals) if totals else ((),) * 4
    n_conn = sum(conns)
    if not n_conn:
        return MetricsRow(tick, fraction, tuple(counts), 0.0, 0.0, 0.0)
    return MetricsRow(tick, fraction, tuple(counts), fsum(strengths) / n_conn,
                      fsum(personal) / n_conn, fsum(collective) / n_conn)


# Each mode's log text, read by one dict lookup per row rather than the
# enum's `value` descriptor.
_MODE_TEXT = {m: m.value for m in DecisionMode}


def events_csv(events: Iterable[Event]) -> str:
    modes = _MODE_TEXT
    lines = [EVENTS_HEADER]
    lines.extend(
        f"{e.tick},{e.agent},{e.activity},{modes[e.mode]},"
        f"{e.pressure:.6f},{e.score:.6f},{e.location},{e.timepoint or ''}"
        for e in events
    )
    return "\n".join(lines) + "\n"


def metrics_csv(rows: Iterable[MetricsRow], atomic_ids: Sequence[str]) -> str:
    header = ["tick", "habitual_fraction"]
    header.extend(f"count_{a}" for a in atomic_ids)
    header.extend(["mean_strength", "mean_personal_view", "mean_collective_view"])
    # One %-format per row; a row whose counts do not match `atomic_ids`
    # raises rather than shifting its columns.
    row = ",".join(["%s", "%.6f", *["%s"] * len(atomic_ids), "%.6f", "%.6f", "%.6f"])
    lines = [",".join(header)]
    lines.extend(
        row % (r.tick, r.habitual_fraction, *r.counts,
               r.mean_strength, r.mean_personal_view, r.mean_collective_view)
        for r in rows
    )
    return "\n".join(lines) + "\n"


def write_text_atomic(text: str, path: str | Path) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file. The temp file is created exclusively, under the first
    free name `<name>.<n>.tmp`, so no other file is overwritten. Always
    LF line endings. A write that fails removes the temp file and
    re-raises."""
    path = Path(path)
    for n in count():
        tmp = path.with_name(f"{path.name}.{n}.tmp")
        try:
            fh = open(tmp, "x", encoding="utf-8", newline="\n")
        except FileExistsError:
            continue
        break
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
