"""Shared document builders, name-to-int conversions, the reference habit
store, the reference intentional scores, the reference argmax and the
closed-form equilibrium strength for the test suite."""

from __future__ import annotations

import copy
import math
import random
from typing import Any, Iterable, Sequence

from sopra._kernel import AGG_MAX, AGG_MEAN
from sopra.model import Scenario, ScenarioIndex
from sopra.scenarios import bundled_document
from sopra.state import ContextSnapshot


def snapshot_of(index: ScenarioIndex, names: Iterable[str]) -> ContextSnapshot:
    """The snapshot of the named elements; an unknown name raises
    UnknownIdError."""
    ids = {index.element_index(e) for e in names}
    return ContextSnapshot(tuple(sorted(ids)), index.element_ids)


def activity_ints(index: ScenarioIndex, names: Iterable[str]) -> tuple[int, ...]:
    """The activity ints of `names`, in the given order; an unknown name
    raises UnknownIdError."""
    return tuple(index.activity_index(a) for a in names)


def activity_names(index: ScenarioIndex, ints: Iterable[int]) -> tuple[str, ...]:
    return tuple(index.activity_ids[a] for a in ints)


def make_doc(**overrides: Any) -> dict[str, Any]:
    """A minimal valid scenario: one abstract root with two atomic
    options, one agent that intentionally prefers opt_a."""
    doc: dict[str, Any] = {
        "contextElements": [
            {"id": "Home", "kind": "Location"},
            {"id": "Away", "kind": "Location"},
            {"id": "Morning", "kind": "Timepoint"},
        ],
        "activities": [
            {"id": "act_root", "type": "Abstract"},
            {"id": "opt_a", "type": "Atomic"},
            {"id": "opt_b", "type": "Atomic"},
        ],
        "activityConnections": [
            {"child": "opt_a", "parent": "act_root", "relation": "IsA"},
            {"child": "opt_b", "parent": "act_root", "relation": "IsA"},
        ],
        "values": ["thrift"],
        "agents": [
            {"id": "ag1", "habitRate": 0.1, "attentionBudget": 1, "location": "Home"}
        ],
        "habitualConnections": [],
        "valuePriorities": [
            {"agent": "ag1", "value": "thrift", "strength": 0.25, "personalView": 0.25}
        ],
        "valueConnections": [
            {"agent": "ag1", "activity": "opt_a", "value": "thrift",
             "strength": 0.9, "personalView": 0.9},
            {"agent": "ag1", "activity": "opt_b", "value": "thrift",
             "strength": 0.5, "personalView": 0.5},
        ],
        "roots": ["act_root"],
        "environment": {"timepoints": ["Morning"], "placements": {}, "relocations": []},
        "globals": {},
    }
    doc.update(overrides)
    return doc


def habit_formation_doc(*, timepoints: list[str], relocations: list[dict] | None = None,
                        habit_rate: float = 0.1) -> dict[str, Any]:
    """One agent choosing between two transports; drive_car wins on values
    and then hardens into a habit."""
    return {
        "contextElements": [
            {"id": "Home", "kind": "Location"},
            {"id": "Away", "kind": "Location"},
            {"id": "Morning", "kind": "Timepoint"},
        ],
        "activities": [
            {"id": "choose_transport", "type": "Abstract"},
            {"id": "drive_car", "type": "Atomic"},
            {"id": "ride_bike", "type": "Atomic"},
        ],
        "activityConnections": [
            {"child": "drive_car", "parent": "choose_transport", "relation": "IsA"},
            {"child": "ride_bike", "parent": "choose_transport", "relation": "IsA"},
        ],
        "values": ["efficiency"],
        "agents": [
            {"id": "ag1", "habitRate": habit_rate, "attentionBudget": 1, "location": "Home"}
        ],
        "habitualConnections": [],
        "valuePriorities": [
            {"agent": "ag1", "value": "efficiency", "strength": 0.25, "personalView": 0.25}
        ],
        "valueConnections": [
            {"agent": "ag1", "activity": "drive_car", "value": "efficiency",
             "strength": 1.0, "personalView": 1.0},
            {"agent": "ag1", "activity": "ride_bike", "value": "efficiency",
             "strength": 0.1, "personalView": 0.1},
        ],
        "roots": ["choose_transport"],
        "environment": {
            "timepoints": timepoints,
            "placements": {},
            "relocations": relocations or [],
        },
        "globals": {"habitThreshold": 0.5, "decayRate": 0.0},
    }


def mutation_fixtures() -> dict[str, tuple[dict[str, Any], str]]:
    """Six broken variants of the commuting scenario, each producing
    exactly one violation class."""
    fixtures: dict[str, tuple[dict, str]] = {}

    doc = bundled_document("commuting")

    d = copy.deepcopy(doc)
    d["activityConnections"].append(
        {"child": "commuting", "parent": "go_to_work", "relation": "IsA"}
    )
    fixtures["cycle"] = (d, "cycle")

    d = copy.deepcopy(doc)
    d["agents"][0]["location"] = "bobs_car"
    fixtures["disjointness"] = (d, "disjointness")

    d = copy.deepcopy(doc)
    for conn in d["activityConnections"]:
        if conn["child"] == "take_train_to_school":
            conn["relation"] = "PartOf"
    fixtures["typing"] = (d, "typing")

    d = copy.deepcopy(doc)
    d["activityConnections"].append(
        {"child": "walk_to_school", "parent": "drive_car_to_work", "relation": "IsA"}
    )
    fixtures["atomic-with-children"] = (d, "atomic-with-children")

    d = copy.deepcopy(doc)
    d["habitualConnections"].append(
        {"agent": "bob", "activity": "teleport_to_work", "contextElement": "Home",
         "strength": 0.5, "personalView": 0.5}
    )
    fixtures["dangling-reference"] = (d, "dangling-reference")

    d = copy.deepcopy(doc)
    d["habitualConnections"][0]["strength"] = 1.7
    fixtures["view-range"] = (d, "view-range")

    return fixtures


def entry(store, activity: int, element: int) -> tuple[float, float, float]:
    """(strength, personal view, collective view) of one habit-store entry,
    read through `items()`; zeros for an absent entry."""
    for a, e, *views in store.items():
        if (a, e) == (activity, element):
            return tuple(views)
    return (0.0, 0.0, 0.0)


class ReferenceHabitStore:
    """The tuple-keyed habit store the row-indexed `pyhabits.HabitStore`
    replaced, kept as its bit-for-bit reference."""

    backend = "reference"

    __slots__ = ("_chain_data", "_chain_start", "_slot", "_keys", "_s", "_p", "_c")

    def __init__(self, chain_data: Sequence[int], chain_start: Sequence[int]):
        self._chain_data = list(chain_data)
        self._chain_start = list(chain_start)
        self._slot: dict[tuple[int, int], int] = {}
        self._keys: list[tuple[int, int]] = []  # creation order
        self._s: list[float] = []
        self._p: list[float] = []
        self._c: list[float] = []

    def __len__(self) -> int:
        return len(self._keys)

    def _ensure(self, activity: int, element: int) -> int:
        key = (activity, element)
        i = self._slot.get(key)
        if i is None:
            i = len(self._keys)
            self._slot[key] = i
            self._keys.append(key)
            self._s.append(0.0)
            self._p.append(0.0)
            self._c.append(0.0)
        return i

    def set_views(self, activity: int, element: int, strength: float,
                  personal: float, collective: float) -> None:
        i = self._ensure(activity, element)
        self._s[i] = strength
        self._p[i] = personal
        self._c[i] = collective

    def _effective(self, activity: int, element: int, attenuation: float) -> float:
        # Nearest ancestor holding a nonzero strength wins, discounted by
        # attenuation per hierarchy step. Zero-strength entries behave
        # exactly like absent ones.
        factor = 1.0
        for j in range(self._chain_start[element], self._chain_start[element + 1]):
            i = self._slot.get((activity, self._chain_data[j]))
            if i is not None:
                v = self._s[i]
                if v > 0.0:
                    return factor * v
            factor = factor * attenuation
        return 0.0

    def pressures(self, activities: Sequence[int], ctx_elements: Sequence[int],
                  attenuation: float, aggregation: int) -> list[float]:
        count = len(self._chain_start) - 1
        for e in ctx_elements:
            if not 0 <= e < count:
                raise IndexError(f"context element {e} out of range for {count} elements")
        n = len(ctx_elements)
        out = []
        for a in activities:
            acc = 0.0
            if aggregation == AGG_MAX:
                for e in ctx_elements:
                    v = self._effective(a, e, attenuation)
                    if v > acc:
                        acc = v
            else:
                for e in ctx_elements:
                    acc = acc + self._effective(a, e, attenuation)
                if aggregation == AGG_MEAN:
                    acc = acc / n
            out.append(acc)
        return out

    def habit_tick(self, performed: int, ctx_elements: Sequence[int], rate: float,
                   decay_rate: float, decay_all: bool) -> None:
        # One-step update from tick-start values. Reinforced pairs get
        # h + r(1-h), or (1-d)h + r(1-h) when decay applies to all;
        # every other pair gets (1-d)h.
        for e in ctx_elements:
            self._ensure(performed, e)
        member = set(ctx_elements)
        for i, (a, e) in enumerate(self._keys):
            s = self._s[i]
            if a == performed and e in member:
                if decay_all:
                    self._s[i] = (1.0 - decay_rate) * s + rate * (1.0 - s)
                else:
                    self._s[i] = s + rate * (1.0 - s)
            else:
                self._s[i] = (1.0 - decay_rate) * s

    def track_personal(self, awareness: float) -> None:
        for i in range(len(self._keys)):
            p = self._p[i]
            self._p[i] = p + awareness * (self._s[i] - p)

    def observe(self, acted: int, competing: Sequence[int],
                ctx_elements: Sequence[int], rate: float) -> None:
        slot = self._slot
        col = self._c  # _ensure appends to this same list
        for e in ctx_elements:
            i = slot.get((acted, e))
            if i is None:
                i = self._ensure(acted, e)
            c = col[i]
            col[i] = c + rate * (1.0 - c)
            for a in competing:
                j = slot.get((a, e))
                if j is not None:
                    col[j] = (1.0 - rate) * col[j]

    def sums(self) -> tuple[int, float, float, float]:
        # Correctly rounded, so the same whatever the order of the entries.
        return (len(self._keys), math.fsum(self._s), math.fsum(self._p), math.fsum(self._c))

    def items(self) -> list[tuple[int, int, float, float, float]]:
        return [
            (a, e, self._s[i], self._p[i], self._c[i])
            for i, (a, e) in enumerate(self._keys)
        ]


def reference_scores(scenario: Scenario, agent_id: str) -> tuple[list[float], list[float]]:
    """The agent's (score_raw, score_norm) by the nested-dict formula that
    `build_score_cache`'s one-pass loop replaced, kept as its bit-for-bit
    reference: an activity -> value -> connection view table, each
    activity's entry summed over the priorities in ascending value id."""
    idx = scenario.index
    priorities = {vp.value: vp.personal_view
                  for vp in idx.priorities_by_agent.get(agent_id, ())}
    total = 0.0
    for p in priorities.values():
        total = total + p
    views: dict[int, dict[str, float]] = {}
    for vc in idx.connections_by_agent.get(agent_id, ()):
        views.setdefault(idx.aidx[vc.activity], {})[vc.value] = vc.personal_view
    raw = [0.0] * len(idx.activity_ids)
    for a, row in views.items():
        acc = 0.0
        for v, p in priorities.items():
            view = row.get(v)
            if view is not None:
                acc = acc + p * view
        raw[a] = acc
    return raw, [acc / total if total > 0.0 else 0.0 for acc in raw]


def reference_argmax(values: list[float], rng: random.Random, uniform: bool) -> int:
    """The strict-`>` scan the decision step used to pick with, kept as the
    reference for `cognition._pick`: the first maximum wins, and with
    `uniform` a tie of two or more is broken by one draw from `rng`."""
    best = 0
    for i in range(1, len(values)):
        if values[i] > values[best]:
            best = i
    if uniform:
        tied = [i for i, v in enumerate(values) if v == values[best]]
        if len(tied) > 1:
            return tied[rng.randrange(len(tied))]
    return best


def equilibrium_strength(habit_rate: float, decay_rate: float,
                         decay_all: bool = True) -> float:
    """Fixed point of the per-tick strength update under constant
    reinforcement: r/(r+d) in decayAll mode, 1 otherwise."""
    if not 0.0 < habit_rate <= 1.0:
        raise ValueError(f"habit rate must be in (0, 1], got {habit_rate!r}")
    if not 0.0 <= decay_rate < 1.0:
        raise ValueError(f"decay rate must be in [0, 1), got {decay_rate!r}")
    if not decay_all:
        return 1.0
    return habit_rate / (habit_rate + decay_rate)
