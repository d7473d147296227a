"""Deterministic tick loop.

Each tick runs in five phases over agents in ascending id order:

1. snapshot every agent's context from tick-start state,
2. run every decision cycle against those snapshots,
3. apply strength dynamics and personal-view tracking,
4. deliver each performance to every co-located agent,
5. log events, replenish attention, record last activities, apply
   scheduled relocations, and advance the clock.

Because phases never read state another agent mutated in the same phase
sweep, and all iteration is over sorted ids, identical scenario + seed
gives byte-identical logs in any process.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import count
from math import fsum
from pathlib import Path
from typing import Collection, Iterable, Sequence

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
class StrengthSample:
    """End-of-tick aggregate over all stored connections of all agents."""

    connections: int
    strength_total: float
    personal_total: float
    collective_total: float


@dataclass(slots=True)
class MetricsRow:
    tick: int
    habitual_fraction: float
    counts: tuple[int, ...]  # aligned with the sorted atomic activity ids
    mean_strength: float
    mean_personal_view: float
    mean_collective_view: float


def snapshot_context(world: World, agent: int,
                     here: Collection[int] | None = None) -> ContextSnapshot:
    """What the agent with element int `agent` perceives right now: its
    location, the current timepoint, resources placed there, co-located
    agents, and its own previous activity.

    `here` holds the element ints of the agents at the agent's location,
    the agent itself included, as `World.step` buckets them once per
    tick; without it every agent's location is scanned."""
    idx = world.scenario.index
    state = world.states[idx.element_ids[agent]]
    location = state.location
    if here is None:
        here = [e for e, other in zip(idx.agent_elements, world.states.values())
                if other.location == location]
    present = set(here)
    present.discard(agent)
    present.update(idx.cues[location])
    timepoints = idx.timepoint_elements
    if timepoints:
        present.add(timepoints[world.tick % len(timepoints)])
    if state.last_activity is not None:
        present.add(state.last_activity)
    return ContextSnapshot(tuple(sorted(present)), idx.element_ids)


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
        self.samples: list[StrengthSample] = []
        self.observation_count = 0
        self.states: dict[str, AgentState] = {
            ag: init_agent_state(scenario, ag) for ag in scenario.index.agent_ids
        }
        for state in self.states.values():
            build_score_cache(state, scenario)

    def step(self) -> list[Event]:
        s = self.scenario
        idx = s.index
        agent_ids = idx.agent_ids
        agent_elements = idx.agent_elements
        # Agent states by position in agent_ids; every per-tick list below
        # is indexed the same way.
        states = list(self.states.values())
        tick = self.tick

        # Location -> the positions of its agents, ascending; relocations
        # only apply at the end of the tick, so phases 1 and 4 share this map.
        by_location: dict[int, list[int]] = {}
        for i, state in enumerate(states):
            by_location.setdefault(state.location, []).append(i)
        here = {loc: [agent_elements[i] for i in at] for loc, at in by_location.items()}
        snaps = [snapshot_context(self, agent_elements[i], here[state.location])
                 for i, state in enumerate(states)]

        # The last step of each agent's cycle is the decision it acts on.
        decided = [decision_cycle(state, snap, s, self.rng)[-1]
                   for state, snap in zip(states, snaps)]

        for state, step, snap in zip(states, decided, snaps):
            habit_tick(state, step.chosen, snap, s)
            update_personal_view(state, s)

        # Each actor's performance goes to all other agents at its location
        # in one event. Actors run in id order because each observer must
        # apply them in that order (docs/model.md, Observation).
        for location in sorted(by_location):
            at = by_location[location]
            if len(at) < 2:
                continue
            names = [agent_ids[i] for i in at]
            for k, i in enumerate(at):
                step = decided[i]
                event = ObservationEvent(
                    (*names[:k], *names[k + 1:]), names[k], step.chosen, snaps[i], tick,
                )
                observe(event, s, self.states, step.candidates)
            self.observation_count += len(at) * (len(at) - 1)

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

        # Correctly rounded totals, so no order of agents or entries is
        # part of the logs (docs/model.md, Logs).
        totals = [state.habits.sums() for state in states]
        self.samples.append(StrengthSample(
            sum([t[0] for t in totals]),
            fsum([t[1] for t in totals]),
            fsum([t[2] for t in totals]),
            fsum([t[3] for t in totals]),
        ))

        for i, location in idx.relocations_by_tick.get(tick, ()):
            states[i].location = location
        self.tick += 1
        return new_events

    def run(self, ticks: int) -> tuple[list[Event], list[MetricsRow]]:
        for _ in range(ticks):
            self.step()
        return self.events, collect_metrics(self.events, self.samples,
                                            self.scenario.index.atomic_ids)


def run(scenario: Scenario, ticks: int, seed: int = 0) -> tuple[list[Event], list[MetricsRow]]:
    """Validate, build a world, and advance it `ticks` ticks."""
    return World(scenario, seed).run(ticks)


# Bound once: on Python 3.11 an enum member read through its class costs
# over ten times a global read, and the metrics test one per event.
_HABITUAL = DecisionMode.HABITUAL


def collect_metrics(events: Sequence[Event], samples: Sequence[StrengthSample],
                    atomic_ids: Sequence[str]) -> list[MetricsRow]:
    """Per-tick aggregates: habitual fraction, activity counts, and mean
    views over stored connections (0.0 when nothing is stored)."""
    by_tick: dict[int, list[Event]] = {}
    for e in events:
        by_tick.setdefault(e.tick, []).append(e)
    rows = []
    positions = {a: i for i, a in enumerate(atomic_ids)}
    for tick_i, sample in enumerate(samples):
        tick_events = by_tick.get(tick_i, [])
        counts = [0] * len(atomic_ids)
        habitual = 0
        for e in tick_events:
            counts[positions[e.activity]] += 1
            if e.mode is _HABITUAL:
                habitual += 1
        n_agents = len(tick_events)
        n_conn = sample.connections
        rows.append(
            MetricsRow(
                tick=tick_i,
                habitual_fraction=habitual / n_agents if n_agents else 0.0,
                counts=tuple(counts),
                mean_strength=sample.strength_total / n_conn if n_conn else 0.0,
                mean_personal_view=sample.personal_total / n_conn if n_conn else 0.0,
                mean_collective_view=sample.collective_total / n_conn if n_conn else 0.0,
            )
        )
    return rows


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
