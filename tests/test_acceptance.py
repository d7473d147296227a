"""End-to-end acceptance checks for the simulation engine.

Each test records one named verdict through the `acceptance` fixture;
the terminal summary prints one PASS/FAIL line per criterion. Tolerances
and tick counts are pinned in the tests themselves, and expected values
come from closed forms or brute-force re-derivations computed here, not
from the library under test.
"""

from __future__ import annotations

import copy
import math
import random
import time

from sopra import (
    DecisionMode,
    World,
    atomic_leaves,
    build_scenario,
    equilibrium_strength,
    events_csv,
    metrics_csv,
    propagate_value_connection,
    run,
    validate_scenario,
)
from sopra._kernel import get_backend
from sopra.scenarios import bundled_document, list_bundled
from sopra.testing import random_scenario_document, scale_value_priorities

from helpers import habit_formation_doc, mutation_fixtures

H = DecisionMode.HABITUAL
I = DecisionMode.INTENTIONAL


def test_habit_formation_timing(acceptance):
    # One agent, stable context, no decay: strength after t reinforcements
    # is 1-(1-r)^t, so deliberation should stop at the first tick where
    # that saturation curve reaches the habit threshold.
    rate, threshold = 0.1, 0.5
    doc = habit_formation_doc(timepoints=["Morning"], habit_rate=rate)
    t0 = time.perf_counter()
    events, _ = run(build_scenario(doc), 12, seed=0)
    elapsed = time.perf_counter() - t0

    t_closed = next(t for t in range(1, 100) if 1 - (1 - rate) ** t >= threshold)
    modes = [e.mode for e in events]  # single agent: one event per tick
    t_flip = next(t for t, m in enumerate(modes) if m is H)
    clean_split = all(m is I for m in modes[:t_flip]) and all(
        m is H for m in modes[t_flip:]
    )
    ok = t_flip == t_closed == 7 and clean_split and elapsed < 1.0
    assert acceptance(ok, f"flip at tick {t_flip}, closed form {t_closed}, {elapsed:.3f}s")


def test_context_change_breaks_habit(acceptance):
    # Moving the agent to a location with no stored strengths halves the
    # perceived pressure (only the last-activity token still fires), so
    # the tick after the move must be deliberated again.
    t_move = 40
    doc = habit_formation_doc(
        timepoints=[],
        relocations=[{"agent": "ag1", "tick": t_move, "location": "Away"}],
    )
    t0 = time.perf_counter()
    events, _ = run(build_scenario(doc), 50, seed=0)
    elapsed = time.perf_counter() - t0

    modes = [e.mode for e in events]
    settled = all(m is H for m in modes[8 : t_move + 1])
    ok = (
        settled
        and modes[t_move] is H
        and modes[t_move + 1] is I
        and events[t_move + 1].location == "Away"
        and events[t_move].pressure >= 0.5 > events[t_move + 1].pressure
        and elapsed < 1.0
    )
    assert acceptance(
        ok,
        f"habitual at tick {t_move} (p={events[t_move].pressure:.3f}), "
        f"intentional at tick {t_move + 1} (p={events[t_move + 1].pressure:.3f})",
    )


def _two_agent_doc(*, decay_all: bool) -> dict:
    """Two isolated agents doing the same thing with different habit rates."""
    if decay_all:
        g = {"habitThreshold": 0.5, "decayRate": 0.05, "decayAll": True}
    else:
        g = {"habitThreshold": 0.5, "decayRate": 0.0}
    return {
        "contextElements": [
            {"id": "FastHome", "kind": "Location"},
            {"id": "SlowHome", "kind": "Location"},
        ],
        "activities": [
            {"id": "commute", "type": "Abstract"},
            {"id": "drive", "type": "Atomic"},
            {"id": "pedal", "type": "Atomic"},
        ],
        "activityConnections": [
            {"child": "drive", "parent": "commute", "relation": "IsA"},
            {"child": "pedal", "parent": "commute", "relation": "IsA"},
        ],
        "values": ["comfort"],
        "agents": [
            {"id": "fast", "habitRate": 0.2, "attentionBudget": 1, "location": "FastHome"},
            {"id": "slow", "habitRate": 0.05, "attentionBudget": 1, "location": "SlowHome"},
        ],
        "habitualConnections": [],
        "valuePriorities": [
            {"agent": a, "value": "comfort", "strength": 1.0, "personalView": 1.0}
            for a in ("fast", "slow")
        ],
        "valueConnections": [
            {"agent": a, "activity": act, "value": "comfort",
             "strength": sv, "personalView": sv}
            for a in ("fast", "slow")
            for act, sv in (("drive", 1.0), ("pedal", 0.1))
        ],
        "roots": ["commute"],
        "environment": {"timepoints": [], "placements": {}, "relocations": []},
        "globals": g,
    }


def test_reinforcement_rate_ordering(acceptance):
    # Same behavior, higher rate: the faster learner's strength must lead
    # at every single tick, and under uniform decay both settle at the
    # r/(r+d) fixed point.
    s = build_scenario(_two_agent_doc(decay_all=False))
    idx = s.index
    ai = idx.activity_index("drive")
    world = World(s, seed=0)
    dominated_at = None
    for t in range(1, 201):
        world.step()
        s_fast = world.states["fast"].habits.get_views(ai, idx.element_index("FastHome"))[0]
        s_slow = world.states["slow"].habits.get_views(ai, idx.element_index("SlowHome"))[0]
        if not s_fast > s_slow:
            dominated_at = t
            break
    same_behavior = all(e.activity == "drive" for e in world.events)

    s2 = build_scenario(_two_agent_doc(decay_all=True))
    idx2 = s2.index
    ai2 = idx2.activity_index("drive")
    world2 = World(s2, seed=0)
    world2.run(2000)
    eq_fast = equilibrium_strength(0.2, 0.05)
    eq_slow = equilibrium_strength(0.05, 0.05)
    end_fast = world2.states["fast"].habits.get_views(ai2, idx2.element_index("FastHome"))[0]
    end_slow = world2.states["slow"].habits.get_views(ai2, idx2.element_index("SlowHome"))[0]
    converged = abs(end_fast - eq_fast) < 1e-3 and abs(end_slow - eq_slow) < 1e-3

    ok = dominated_at is None and same_behavior and converged
    assert acceptance(
        ok,
        f"strict dominance over 200 ticks, equilibria {end_fast:.4f}/{end_slow:.4f} "
        f"vs {eq_fast:.1f}/{eq_slow:.1f}",
    )


def test_priority_scale_invariance(acceptance):
    # Intentional choice is an argmax, so multiplying every value
    # priority by a constant must not change any logged byte.
    mismatched = []
    intentional_events = 0
    for seed in range(100):
        doc = random_scenario_document(random.Random(seed))
        s1 = build_scenario(doc)
        s2 = build_scenario(scale_value_priorities(doc, 3.7))
        e1, m1 = run(s1, 30, seed=seed)
        e2, m2 = run(s2, 30, seed=seed)
        if events_csv(e1) != events_csv(e2):
            mismatched.append(seed)
        elif metrics_csv(m1, s1.index.atomic_ids) != metrics_csv(m2, s2.index.atomic_ids):
            mismatched.append(seed)
        intentional_events += sum(e.mode is I for e in e1)
    ok = not mismatched and intentional_events > 0
    assert acceptance(
        ok,
        f"100 seeds byte-identical ({intentional_events} intentional events)"
        if ok else f"mismatched seeds: {mismatched}",
    )


def test_value_propagation_oracle(acceptance):
    # A composite node is as value-connected as its weakest atomic
    # descendant, so the recursive propagation must equal a flat min
    # over the atomic frontier.
    checked = 0
    failures = []
    for seed in range(50):
        doc = random_scenario_document(random.Random(1000 + seed), max_activities=20)
        s = build_scenario(doc)
        idx = s.index
        for ag in idx.agent_ids:
            stored = {
                (vc.activity, vc.value): vc.views.strength
                for vc in idx.connections_by_agent.get(ag, ())
            }
            for node in idx.activity_ids:
                leaves = atomic_leaves(node, s)
                for value in idx.value_ids:
                    expect = min(stored.get((leaf, value), 0.0) for leaf in leaves)
                    got = propagate_value_connection(ag, value, node, s)
                    checked += 1
                    if got != expect:
                        failures.append((seed, ag, node, value, got, expect))
    ok = not failures and checked > 500
    detail = f"{checked} exact matches" if not failures else f"first: {failures[0]}"
    assert acceptance(ok, detail)


def test_validator_violation_classes(acceptance, commuting):
    problems = []
    if validate_scenario(commuting):
        problems.append("bundled scenario not clean")
    for label, (doc, expected) in mutation_fixtures().items():
        report = validate_scenario(build_scenario(doc, check_refs=False))
        kinds = {v.kind.value for v in report}
        if kinds != {expected}:
            problems.append(f"{label} -> {sorted(kinds)}")
    ok = not problems
    assert acceptance(ok, "clean + 6 mutation classes" if ok else "; ".join(problems))


def test_long_run_determinism(acceptance):
    doc = random_scenario_document(
        random.Random(2026), n_agents=20, n_locations=4, max_activities=16
    )
    s = build_scenario(doc)
    t0 = time.perf_counter()
    e1, m1 = run(s, 1000, seed=11)
    e2, m2 = run(s, 1000, seed=11)
    elapsed = time.perf_counter() - t0
    ok = (
        len(e1) == 20 * 1000
        and events_csv(e1) == events_csv(e2)
        and metrics_csv(m1, s.index.atomic_ids) == metrics_csv(m2, s.index.atomic_ids)
        and elapsed < 10.0
    )
    assert acceptance(ok, f"20 agents x 1000 ticks twice in {elapsed:.2f}s")


def _gathering_doc() -> dict:
    """Five co-located agents with a single atomic root activity."""
    return {
        "contextElements": [{"id": "Hall", "kind": "Location"}],
        "activities": [{"id": "gather", "type": "Atomic"}],
        "activityConnections": [],
        "values": ["community"],
        "agents": [
            {"id": f"p{i}", "habitRate": 0.1, "attentionBudget": 1, "location": "Hall"}
            for i in range(5)
        ],
        "habitualConnections": [],
        "valuePriorities": [
            {"agent": f"p{i}", "value": "community", "strength": 0.5, "personalView": 0.5}
            for i in range(5)
        ],
        "valueConnections": [],
        "roots": ["gather"],
        "environment": {"timepoints": [], "placements": {}, "relocations": []},
        "globals": {"socialLearningRate": 0.3},
    }


def test_collective_view_convergence(acceptance):
    # Geometric smoothing toward observed behavior: after k ticks the
    # residual is at most (1-rate)^k, so everyone must clear 0.99 within
    # ceil(log 0.01 / log(1-rate)) ticks. Watching four peers per tick
    # only gets there sooner, and never backwards.
    rate = 0.3
    bound = math.ceil(math.log(0.01) / math.log(1 - rate))
    s = build_scenario(_gathering_doc())
    idx = s.index
    ai, ei = idx.activity_index("gather"), idx.element_index("Hall")
    world = World(s, seed=0)
    level = {ag: 0.0 for ag in idx.agent_ids}
    monotone = True
    crossed_at = None
    for t in range(1, bound + 1):
        world.step()
        for ag in level:
            cv = world.states[ag].habits.get_views(ai, ei)[2]
            if cv < level[ag]:
                monotone = False
            level[ag] = cv
        if crossed_at is None and all(v > 0.99 for v in level.values()):
            crossed_at = t
    ok = bound == 13 and monotone and crossed_at is not None
    assert acceptance(
        ok, f"bound {bound} ticks, all views above 0.99 from tick {crossed_at}"
    )


def test_extensions_off_parity(acceptance):
    # A feasibility threshold of zero filters nothing, so enabling the
    # extension layer with it must be observationally identical to
    # leaving the layer off.
    names = list_bundled()
    mismatched = []
    for name in names:
        base = bundled_document(name)
        off = copy.deepcopy(base)
        off.setdefault("globals", {})["extensionsEnabled"] = False
        on = copy.deepcopy(base)
        on.setdefault("globals", {})["extensionsEnabled"] = True
        on["globals"]["feasibilityThreshold"] = 0.0
        s_off, s_on = build_scenario(off), build_scenario(on)
        e1, m1 = run(s_off, 120, seed=5)
        e2, m2 = run(s_on, 120, seed=5)
        if events_csv(e1) != events_csv(e2) or metrics_csv(
            m1, s_off.index.atomic_ids
        ) != metrics_csv(m2, s_on.index.atomic_ids):
            mismatched.append(name)
    ok = not mismatched and len(names) == 3
    assert acceptance(ok, f"identical logs on {', '.join(names)}"
                      if ok else f"diverged: {mismatched}")


def test_view_range_safety(acceptance):
    # Every update rule is a convex combination, so no op sequence may
    # push any stored component out of the unit interval.
    chain_data = [0, 1, 0, 2, 1, 0, 3, 4, 3]
    chain_start = [0, 1, 3, 6, 7, 9]
    n_elements = len(chain_start) - 1
    store_cls = get_backend(None)

    def draw(rng: random.Random) -> float:
        if rng.random() < 0.1:
            return rng.choice([0.0, 1.0])
        return rng.random()

    violations = 0
    ops_run = 0
    for i in range(10_000):
        rng = random.Random(9_000 + i)
        store = store_cls(chain_data, chain_start)
        for _ in range(rng.randint(5, 25)):
            op = rng.randrange(6)
            a = rng.randrange(4)
            elems = rng.sample(range(n_elements), rng.randint(1, 3))
            if op == 0:
                store.set_views(a, elems[0], draw(rng), draw(rng), draw(rng))
            elif op == 1:
                store.habit_tick(a, elems, draw(rng), 0.0, False)  # reinforce only
            elif op == 2:
                store.habit_tick(a, elems, 0.0, draw(rng), False)  # decay only
            elif op == 3:
                store.habit_tick(a, elems, draw(rng), draw(rng), rng.random() < 0.5)
            elif op == 4:
                store.track_personal(draw(rng))
            else:
                competing = [x for x in range(4) if x != a]
                store.observe(a, rng.sample(competing, rng.randint(0, 3)),
                              elems, draw(rng))
            ops_run += 1
            for _, _, sv, pv, cv in store.items():
                if not (0.0 <= sv <= 1.0 and 0.0 <= pv <= 1.0
                        and 0.0 <= cv <= 1.0):
                    violations += 1
    ok = violations == 0 and ops_run > 100_000
    assert acceptance(ok, f"{ops_run} ops across 10000 sequences, {violations} escapes")
