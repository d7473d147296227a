"""Pinned sha256 digests of `events.csv` and `metrics.csv` for runs the
benchmark's pins do not cover: the three bundled scenarios and one
generated document that combines relocations, feasibility extensions,
uniform tie-breaks, `max` and `sum` pressure aggregation and an atomic
root. A change that alters one byte of these logs changes the model,
so it must re-pin here on purpose."""

from __future__ import annotations

import hashlib
import random

import pytest

from sopra import World, build_scenario, events_csv, metrics_csv
from sopra.scenarios import bundled_document
from sopra.testing import grid_value, random_scenario_document

TICKS = 150


def _generated_document(aggregation: str, atomic_root: bool = False) -> dict:
    """Five agents on three locations, with placed resources, relocations,
    affordances and competences, uniform tie-breaks and the given
    aggregation. With `atomic_root`, an atomic activity comes first in
    `roots`, so every cycle is that one habitual step."""
    rng = random.Random(6)
    doc = random_scenario_document(
        rng, max_activities=14, n_agents=5, n_locations=3, habit_seeds=4,
        globals_overrides={"habitThreshold": 0.35, "tieBreak": "uniform",
                           "extensionsEnabled": True, "feasibilityThreshold": 0.3,
                           "pressureAggregation": aggregation},
    )
    atomic = [a["id"] for a in doc["activities"] if a["type"] == "Atomic"]
    doc["contextElements"] += [{"id": "res0", "kind": "Resource"},
                               {"id": "res1", "kind": "Resource", "parent": "res0"}]
    env = doc["environment"]
    env["placements"] = {"loc0": ["res0"], "loc1": ["res0", "res1"]}
    env["relocations"] = [
        {"tick": tick, "agent": f"ag{i}", "location": f"loc{rng.randrange(3)}"}
        for i in range(5) for tick in rng.sample(range(TICKS), 3)
    ]
    doc["affordances"] = [
        {"contextElement": rng.choice(["res0", "res1", "loc2"]), "activity": a,
         "strength": grid_value(rng)}
        for a in atomic[::2]
    ]
    doc["competences"] = {
        "levels": [{"agent": f"ag{i}", "competence": "skill", "level": grid_value(rng)}
                   for i in range(0, 5, 2)],
        "requirements": [{"activity": a, "competence": "skill", "required": grid_value(rng)}
                         for a in atomic[1::3]],
    }
    if atomic_root:
        doc["roots"] = [atomic[-1], *doc["roots"]]
    return doc


def _digests(document: dict, seed: int) -> tuple[str, str]:
    scenario = build_scenario(document)
    events, metrics = World(scenario, seed).run(TICKS)
    atomic_ids = scenario.index.atomic_ids
    return (hashlib.sha256(events_csv(events).encode()).hexdigest(),
            hashlib.sha256(metrics_csv(metrics, atomic_ids).encode()).hexdigest())


RUNS = {
    "cascade-0": (lambda: bundled_document("cascade"), 0),
    "cascade-7": (lambda: bundled_document("cascade"), 7),
    "extensions_demo-0": (lambda: bundled_document("extensions_demo"), 0),
    "extensions_demo-7": (lambda: bundled_document("extensions_demo"), 7),
    "commuting-0": (lambda: bundled_document("commuting"), 0),
    "commuting-7": (lambda: bundled_document("commuting"), 7),
    "generated-max": (lambda: _generated_document("max"), 3),
    "generated-sum": (lambda: _generated_document("sum"), 3),
    "generated-atomic-root": (lambda: _generated_document("mean", atomic_root=True), 3),
}

# (events.csv, metrics.csv) sha256 per run.
PINS = {
    "cascade-0": ("e62925208320dc23ba505fa6dfe5b812e90458bc62cedae886c75a3233b7dfb9",
                  "ede46b9af8f0084dddfba1808291518b9a4108a83e81f86530cb82d7b9b5c1db"),
    "cascade-7": ("e62925208320dc23ba505fa6dfe5b812e90458bc62cedae886c75a3233b7dfb9",
                  "ede46b9af8f0084dddfba1808291518b9a4108a83e81f86530cb82d7b9b5c1db"),
    "commuting-0": ("97689cd1fb18b68446ed9300526935d95e283751a7319e21ca27a032e4671eb0",
                    "397f3884c1215abd83aed978ee58d4055bd7d84c21020b9f01b46bdd744d2673"),
    "commuting-7": ("97689cd1fb18b68446ed9300526935d95e283751a7319e21ca27a032e4671eb0",
                    "397f3884c1215abd83aed978ee58d4055bd7d84c21020b9f01b46bdd744d2673"),
    "extensions_demo-0": ("2cac77652952cd263b1f1d76ea294d1c4fcf8353733ed2625a9206796b486c19",
                          "4129f216d5ac5c81bfe25a77be638adb116d403af87b798ea993910884e9255e"),
    "extensions_demo-7": ("2cac77652952cd263b1f1d76ea294d1c4fcf8353733ed2625a9206796b486c19",
                          "4129f216d5ac5c81bfe25a77be638adb116d403af87b798ea993910884e9255e"),
    "generated-atomic-root": ("88c4a035a0056cb1206675232e861c0225ed6d921b25a8e33106628805cb6a84",
                              "099e5d1791ed19647b105decc9c99a58ed81728fb273b8b60ae6b39f32634b09"),
    "generated-max": ("21650c8fab98753cfbe4c467e6d493215c9836756972d2a5a3230b3d32ac0e34",
                      "cf0654482a8aebaba5f7436aac727a6aae71e2230c7355f4ce591121f4edb017"),
    "generated-sum": ("5136bfe9255470d48d05d259743c02ddbd6af2b14b4905b7b40bc4d3de007280",
                      "f22926c65edadf4f52bccd998802fce51b59936264f67a8ed9ffba9a7d9b3305"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_logs_match_pins(name):
    make_document, seed = RUNS[name]
    assert _digests(make_document(), seed) == PINS[name]
