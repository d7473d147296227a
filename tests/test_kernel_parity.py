"""The compiled store must be indistinguishable from the reference one:
same results bit for bit, in any operation order, on any scenario."""

from __future__ import annotations

import gc
import math
import random
import tracemalloc

import pytest
from helpers import ReferenceHabitStore, make_doc
from hypothesis import given, settings
from hypothesis import strategies as st

import sopra.state
from sopra import build_scenario, events_csv, metrics_csv, run
from sopra._kernel import (
    AGG_MAX,
    AGG_MEAN,
    AGG_SUM,
    available_backends,
    default_backend,
    get_backend,
)
from sopra.scenarios import load_bundled
from sopra.testing import grid_value, random_scenario_document

needs_compiled = pytest.mark.skipif(
    "compiled" not in available_backends(), reason="compiled kernel not built"
)


def test_python_backend_always_available():
    assert get_backend("python").backend == "python"
    with pytest.raises(ValueError):
        get_backend("fortran")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("SOPRA_KERNEL", "python")
    assert get_backend().backend == "python"
    monkeypatch.delenv("SOPRA_KERNEL")
    assert get_backend().backend == default_backend()


@needs_compiled
def test_backend_names():
    assert get_backend("compiled").backend == "compiled"
    assert default_backend() == "compiled"


def _public_methods(cls) -> set[str]:
    return {name for name in dir(cls)
            if not name.startswith("_") and callable(getattr(cls, name))}


def test_backends_expose_the_same_methods():
    # A kernel method deleted from one store and not the others fails here.
    want = _public_methods(ReferenceHabitStore)
    assert want >= {"set_views", "pressures", "habit_tick", "observe", "items"}
    for name, cls in available_backends().items():
        assert _public_methods(cls) == want, name


def _chains():
    # Five elements: 0 root, 1 -> 0, 2 -> 1 -> 0, 3 root, 4 -> 3.
    chain_data = [0, 1, 0, 2, 1, 0, 3, 4, 3]
    chain_start = [0, 1, 3, 6, 7, 9]
    return chain_data, chain_start


def _random_ops(rng, n=400):
    ops = []
    for _ in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            ops.append(("set", rng.randrange(4), rng.randrange(5),
                        rng.random(), rng.random(), rng.random()))
        elif kind == 1:
            # Reinforcement alone: decay rate 0.
            ops.append(("tick", rng.randrange(4),
                        sorted(rng.sample(range(5), rng.randint(1, 3))),
                        rng.random(), 0.0, False))
        elif kind == 2:
            ops.append(("tick", rng.randrange(4),
                        sorted(rng.sample(range(5), rng.randint(1, 3))),
                        rng.random(), rng.random() * 0.9, rng.random() < 0.5))
        elif kind == 3:
            ops.append(("track", rng.random()))
        elif kind == 4:
            ops.append(("observe", rng.randrange(4),
                        sorted(rng.sample(range(4), rng.randint(0, 2))),
                        sorted(rng.sample(range(5), rng.randint(1, 3))), rng.random()))
        else:
            # Default-mode decay alone: habit rate 0.
            ops.append(("tick", rng.randrange(4),
                        sorted(rng.sample(range(5), rng.randint(0, 3))),
                        0.0, rng.random() * 0.9, False))
    return ops


def _apply(store, ops):
    for op in ops:
        if op[0] == "set":
            store.set_views(*op[1:])
        elif op[0] == "tick":
            store.habit_tick(*op[1:])
        elif op[0] == "track":
            store.track_personal(op[1])
        else:
            store.observe(*op[1:])


def _same_floats(a, b):
    # float.hex tells -0.0 from 0.0 and writes every NaN as "nan".
    return a.hex() == b.hex()


@needs_compiled
@pytest.mark.parametrize("seed", range(10))
def test_operation_sequences_bit_identical(seed):
    chain_data, chain_start = _chains()
    py = get_backend("python")(chain_data, chain_start)
    cy = get_backend("compiled")(chain_data, chain_start)
    rng = random.Random(seed)
    ops = _random_ops(rng)
    _apply(py, ops)
    _apply(cy, ops)

    assert len(py) == len(cy)
    pi, ci = py.items(), cy.items()
    assert [r[:2] for r in pi] == [r[:2] for r in ci]  # same creation order
    for rp, rc in zip(pi, ci):
        for u, v in zip(rp[2:], rc[2:]):
            assert _same_floats(u, v)

    ps, cs = py.sums(), cy.sums()
    assert ps[0] == cs[0]
    for u, v in zip(ps[1:], cs[1:]):
        assert _same_floats(u, v)

    # Every key of the grid, absent ones included (they read as zeros):
    # the operations never touch activity 4 or element 5. Which keys exist
    # is compared above, through items().
    for a in range(5):
        for e in range(6):
            for u, v in zip(py.get_views(a, e), cy.get_views(a, e)):
                assert _same_floats(u, v)

    acts = list(range(4))
    for agg in (AGG_MEAN, AGG_MAX, AGG_SUM):
        for atten in (0.0, 0.25, 0.5, 1.0):
            assert py.pressures(acts, [0, 1, 2, 3, 4], atten, agg) == \
                cy.pressures(acts, [0, 1, 2, 3, 4], atten, agg)


@needs_compiled
@pytest.mark.parametrize("name", ["commuting", "cascade", "extensions_demo"])
def test_bundled_runs_byte_identical(name, monkeypatch):
    s = load_bundled(name)
    monkeypatch.setenv("SOPRA_KERNEL", "python")
    ep, mp = run(s, 120, seed=5)
    monkeypatch.setenv("SOPRA_KERNEL", "compiled")
    ec, mc = run(s, 120, seed=5)
    atomic = s.index.atomic_ids
    assert events_csv(ep) == events_csv(ec)
    assert metrics_csv(mp, atomic) == metrics_csv(mc, atomic)


@needs_compiled
@pytest.mark.parametrize("seed", range(8))
def test_random_scenarios_byte_identical(seed, monkeypatch):
    rng = random.Random(seed)
    doc = random_scenario_document(rng, n_agents=3, habit_seeds=4)
    s = build_scenario(doc)
    monkeypatch.setenv("SOPRA_KERNEL", "python")
    ep, mp = run(s, 60, seed=seed)
    monkeypatch.setenv("SOPRA_KERNEL", "compiled")
    ec, mc = run(s, 60, seed=seed)
    atomic = s.index.atomic_ids
    assert events_csv(ep) == events_csv(ec)
    assert metrics_csv(mp, atomic) == metrics_csv(mc, atomic)


@needs_compiled
def test_effective_strength_walk_matches():
    # Strength stored only on the grandparent: both backends must walk the
    # chain with the same attenuation product and nonzero-skip rule.
    chain_data, chain_start = _chains()
    for backend in ("python", "compiled"):
        st = get_backend(backend)(chain_data, chain_start)
        st.set_views(7, 0, 0.64, 0.0, 0.0)
        st.set_views(7, 1, 0.0, 0.0, 0.0)  # zero entry must be skipped
        assert st.pressures([7], [2], 0.5, AGG_MEAN) == [0.16]
        assert st.pressures([7], [2], 0.5, AGG_MAX) == [0.16]
        assert st.pressures([7], [4], 0.5, AGG_SUM) == [0.0]


@needs_compiled
def test_ids_beyond_32_bits_do_not_alias():
    # Activity and element ids are whole ints: a store must not fold
    # (a, e) into one word, where 2**32 + 1 would read as (1, 1) and a
    # negative element would reach into activity 0's entries.
    ids = [-1, 0, 1, 5, 2**32, 2**32 + 1, 2**40]
    chain_data, chain_start = _chains()
    stores = [get_backend(b)(chain_data, chain_start) for b in ("python", "compiled")]
    for st in stores:
        st.set_views(0, 2**32 + 1, 0.7, 0.7, 0.7)
        st.set_views(5, -1, 0.6, 0.5, 0.4)
        st.set_views(2**40, 2**32, 0.3, 0.2, 0.1)
        st.set_views(-1, 2, 0.9, 0.8, 0.7)
        st.set_views(2**32, 1, 0.5, 0.5, 0.5)
    py, cy = stores
    assert py.items() == cy.items()
    for a in ids:
        for e in ids:
            assert py.get_views(a, e) == cy.get_views(a, e)
    for agg in (AGG_MEAN, AGG_MAX, AGG_SUM):
        assert py.pressures(ids, [0, 1, 2, 3, 4], 0.5, agg) == \
            cy.pressures(ids, [0, 1, 2, 3, 4], 0.5, agg)


_STORES = {**available_backends(), "reference": ReferenceHabitStore}


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_pressures_reject_unknown_context_elements(backend):
    # Two elements; the queried activity has an entry, so the chain walk
    # would run. The compiled store used to read past its chain offsets.
    store = _STORES[backend]([0, 1], [0, 1, 2])
    store.set_views(0, 0, 0.5, 0.0, 0.0)
    for element in (2, 7000000, -1, -2):
        with pytest.raises(IndexError):
            store.pressures([0], [element], 0.5, AGG_MEAN)
    assert store.pressures([0], [1, 0], 0.5, AGG_MAX) == [0.5]
    with pytest.raises(ZeroDivisionError):
        store.pressures([0], [], 0.5, AGG_MEAN)
    assert store.pressures([0], [], 0.5, AGG_SUM) == [0.0]


# Strengths (activity, element, strength) and pressure queries for the
# element-chain table test, over the five elements of _chains().
_CHAIN_STRENGTHS = [(0, 0, 0.64), (0, 3, 0.3), (1, 1, 0.5), (1, 4, 0.2), (2, 2, 0.9),
                    (2, 1, 0.0)]
_CHAIN_QUERIES = [[0], [1], [2], [3], [4], [0, 1, 2, 3, 4], [4, 2], [2, 4, 0], [3, 1]]


def _chain_store(cls, chain_data, chain_start, strengths=_CHAIN_STRENGTHS):
    store = cls(chain_data, chain_start)
    for a, e, strength in strengths:
        store.set_views(a, e, strength, 0.0, 0.0)
    return store


def _chain_answers(store) -> list[list[str]]:
    return [_hex(store.pressures([0, 1, 2, 3], ctx, 0.5, agg))
            for ctx in _CHAIN_QUERIES for agg in (AGG_MEAN, AGG_MAX, AGG_SUM)]


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_repeated_pressures_match_a_cold_store(backend):
    # A store may keep what it learns about an element's chain between
    # queries; its answers must not change, and unknown elements must
    # keep raising, however warm it is.
    cls = _STORES[backend]
    chains = _chains()
    n = len(chains[1]) - 1
    warm = _chain_store(cls, *chains)
    for e in range(n):
        warm.pressures([0, 1, 2, 3], [e], 0.5, AGG_MEAN)
    for ctx in ([-1], [-2], [n], [7000000], [1, -1]):
        with pytest.raises(IndexError):
            warm.pressures([0], ctx, 0.5, AGG_MEAN)
    ref = _chain_answers(_chain_store(ReferenceHabitStore, *chains))
    assert _chain_answers(_chain_store(cls, *chains)) == ref  # cold
    assert _chain_answers(warm) == ref
    assert _chain_answers(warm) == ref


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_stores_over_different_chains_keep_their_own_answers(backend):
    # Stores built one after another from the same tuple objects, as one
    # scenario index builds its agents' stores, and from arrays that share
    # one of the two tuple objects: other chains on the same offsets
    # (0 root, 1 -> 3, 2 -> 4 -> 3, 3 root, 4 -> 3), and the same data on
    # other offsets (0 -> 1, 1 reads 0, 2 -> 1 -> 0, 3 root, 4 -> 3).
    # Each store has its own strengths.
    data, start = map(tuple, _chains())
    ours = (data, start)
    other_chains = ((0, 1, 3, 2, 4, 3, 3, 4, 3), start)
    other_offsets = (data, (0, 2, 3, 6, 7, 9))
    more = [(a, e, strength / 2) for a, e, strength in _CHAIN_STRENGTHS] + [(3, 0, 0.25)]
    built = [(ours, _CHAIN_STRENGTHS), (ours, more), (other_chains, _CHAIN_STRENGTHS),
             (ours, _CHAIN_STRENGTHS), (other_offsets, _CHAIN_STRENGTHS), (ours, more),
             (other_chains, more)]
    want = [_chain_answers(_chain_store(ReferenceHabitStore, *chains, strengths))
            for chains, strengths in built]
    assert len({str(w) for w in want}) == 5
    stores = [_chain_store(_STORES[backend], *chains, strengths)
              for chains, strengths in built]
    for _ in range(2):  # interleaved, so each store is queried warm too
        assert [_chain_answers(st) for st in stores] == want


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_a_store_built_after_a_freed_one_answers_like_a_cold_store(backend):
    # Stores built from the same two tuples share one chain table; it must
    # outlive the store that built it. Tuples made right after the first
    # ones are released, which CPython's tuple free list places at their
    # addresses, must get a table of their own.
    cls = _STORES[backend]
    chains = tuple(map(tuple, _chains()))
    want = _chain_answers(_chain_store(ReferenceHabitStore, *chains))
    first = _chain_store(cls, *chains)
    assert _chain_answers(first) == want
    del first
    gc.collect()
    assert _chain_answers(_chain_store(cls, *chains)) == want
    # Other chains on the same offsets (0 root, 1 -> 3, 2 -> 4 -> 3,
    # 3 root, 4 -> 3).
    other = [[0, 1, 3, 2, 4, 3, 3, 4, 3], list(chains[1])]
    want_other = _chain_answers(_chain_store(ReferenceHabitStore, *other))
    assert want_other != want
    del chains
    assert _chain_answers(_chain_store(cls, *map(tuple, other))) == want_other


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_stores_interleaved_over_two_indexes_answer_like_cold_stores(backend):
    # Index A over the five elements of _chains(), index B over three
    # (0 root, 1 -> 0, 2 -> 0), then A again, as the same tuple objects
    # and as equal new ones. Every store answers like a cold one, also
    # when queried again after all are built.
    cls = _STORES[backend]
    a = tuple(map(tuple, _chains()))
    b = ((0, 1, 0, 2, 0), (0, 1, 3, 5))
    strengths_b = [(0, 0, 0.75), (1, 1, 0.5), (2, 2, 0.25), (3, 0, 0.125)]
    queries_b = [[0], [1], [2], [0, 1, 2], [2, 1]]

    def answers(store, chains):
        queries = _CHAIN_QUERIES if chains[1] == a[1] else queries_b
        return [_hex(store.pressures([0, 1, 2, 3], ctx, 0.5, agg))
                for ctx in queries for agg in (AGG_MEAN, AGG_MAX, AGG_SUM)]

    built = [(a, _CHAIN_STRENGTHS), (b, strengths_b), (a, _CHAIN_STRENGTHS),
             (tuple(map(tuple, map(list, a))), _CHAIN_STRENGTHS), (b, strengths_b)]
    want = [answers(_chain_store(ReferenceHabitStore, *chains, strengths), chains)
            for chains, strengths in built]
    stores = []
    for chains, strengths in built:
        stores.append(_chain_store(cls, *chains, strengths))
        assert answers(stores[-1], chains) == want[len(stores) - 1]
        with pytest.raises(IndexError):
            stores[-1].pressures([0], [len(chains[1]) - 1], 0.5, AGG_MEAN)
    assert [answers(st, chains) for st, (chains, _) in zip(stores, built)] == want


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_bad_chain_offsets_raise_on_every_construction(backend):
    # A rejected pair of arrays is never kept for the next store: the
    # same tuples raise again, before and after a good store over the
    # same chain data.
    cls = available_backends()[backend]
    data = (0, 1, 0, 2, 1, 0)
    bad = [(0, 7), (-1, 1, 3), (0, 3, 1, 6), (4, 1), (0, 1, 3, 6, 6, 7)]
    for _ in range(2):
        for start in bad:
            for args in ((data, start), (list(data), list(start))):
                for _ in range(2):
                    with pytest.raises(ValueError, match="nondecreasing offsets"):
                        cls(*args)
        good = cls(data, (0, 1, 3, 6))
        good.set_views(0, 0, 0.5, 0.0, 0.0)
        assert good.pressures([0], [1], 0.5, AGG_MAX) == [0.25]


# (seeded (activity, element, collective view) entries, observe
# arguments), on stores over the five elements of _chains().
_OBSERVE_CASES = {
    "acted-row-created": (
        [(1, 0, 0.4), (1, 2, 0.8)],
        (3, [1, 3], [0, 2, 4], 0.3),
    ),
    "acted-among-competing": (
        [(0, 0, 0.5), (0, 1, 0.25), (2, 1, 0.6)],
        (0, [0, 2], [0, 1, 3], 0.5),
    ),
    "competing-row-absent": (
        [(0, 1, 0.5), (2, 1, 0.7)],
        (0, [1, 2, 3], [1, 4], 0.2),
    ),
    "competing-row-lacks-elements": (
        [(0, 3, 0.9), (1, 0, 0.3), (1, 4, 0.6), (2, 2, 0.1)],
        (0, [1, 2], [0, 1, 2, 3, 4], 0.4),
    ),
}


@pytest.mark.parametrize("case", sorted(_OBSERVE_CASES))
@pytest.mark.parametrize("backend", sorted(_STORES))
def test_observe_matches_reference(backend, case):
    seeded, args = _OBSERVE_CASES[case]
    acted, _, ctx, _ = args
    stores = [_STORES[backend](*_chains()), ReferenceHabitStore(*_chains())]
    for st in stores:
        for a, e, c in seeded:
            st.set_views(a, e, 0.5, 0.5, c)
        st.observe(*args)
    got, ref = (st.items() for st in stores)
    assert [r[:2] for r in got] == [r[:2] for r in ref]
    for rg, rr in zip(got, ref):
        for u, v in zip(rg[2:], rr[2:]):
            assert _same_floats(u, v)
    # Only the acted row grows, in context order; weakening creates nothing.
    keys = [(a, e) for a, e, _ in seeded]
    keys += [(acted, e) for e in ctx if (acted, e) not in keys]
    assert [r[:2] for r in got] == keys


def test_observe_strengthens_before_weakening_an_acted_competitor():
    # c = 0.5 at rate 0.5: strengthen to 0.75, then weaken to 0.375.
    # The other order would give 0.625.
    st = ReferenceHabitStore(*_chains())
    st.set_views(0, 0, 0.5, 0.5, 0.5)
    st.observe(0, [0], [0], 0.5)
    assert st.get_views(0, 0)[2] == 0.375


def _table(store) -> list[tuple]:
    # Every entry in creation order, its floats as float.hex.
    return [(a, e) + tuple(v.hex() for v in views) for a, e, *views in store.items()]


def _hex(values) -> list[str]:
    return [v.hex() for v in values]


def _assert_same_store(got, ref):
    # Bit for bit: items, sums, every view of the grid and every pressure.
    assert _table(got) == _table(ref)
    assert got.sums()[0] == ref.sums()[0] == len(got) == len(ref)
    assert _hex(got.sums()[1:]) == _hex(ref.sums()[1:])
    for a in range(4):
        for e in range(5):
            assert _hex(got.get_views(a, e)) == _hex(ref.get_views(a, e))
    for agg in (AGG_MEAN, AGG_MAX, AGG_SUM):
        for atten in (0.0, 0.5, 1.0):
            assert _hex(got.pressures([0, 1, 2, 3], [0, 1, 2, 3, 4], atten, agg)) == \
                _hex(ref.pressures([0, 1, 2, 3], [0, 1, 2, 3, 4], atten, agg))


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_first_performance_of_an_observed_entry_keeps_creation_order(backend):
    # Observation creates (0, 3); habit ticks create (1, 2), (1, 4) and
    # (0, 2); only then is (0, 3) performed, in one tick with (0, 2),
    # which comes first in the context. (0, 3) must still come first in
    # items(), with the strength and personal view it was given.
    stores = [_STORES[backend](*_chains()), ReferenceHabitStore(*_chains())]
    for st in stores:
        st.observe(0, [], [3], 0.5)
        st.habit_tick(1, [2, 4], 0.7, 0.2, False)
        st.habit_tick(0, [2], 0.7, 0.2, False)
        st.track_personal(0.5)
        st.habit_tick(0, [2, 3], 0.6, 0.2, False)
        st.habit_tick(1, [4], 0.7, 0.2, True)
        st.track_personal(0.5)
    got, ref = stores
    assert [r[:2] for r in got.items()] == [(0, 3), (1, 2), (1, 4), (0, 2)]
    assert got.get_views(0, 3)[0] == (1.0 - 0.2) * 0.6  # 0.6 once, then decayed
    _assert_same_store(got, ref)


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_observed_only_entries_hold_no_strength_or_personal_view(backend):
    # `seen` also watches activity 0 in elements 0 and 2, which creates
    # two entries that no habit tick or set_views ever writes.
    seen, plain = (_STORES[backend](*_chains()) for _ in range(2))
    ref = ReferenceHabitStore(*_chains())
    for st in (seen, plain, ref):
        st.set_views(1, 0, 0.6, 0.2, 0.4)
        st.habit_tick(1, [0, 3], 0.3, 0.1, True)
        if st is not plain:
            st.observe(0, [1], [0, 2], 0.5)
        st.habit_tick(1, [3], 0.3, 0.1, False)
        st.track_personal(0.5)
    _assert_same_store(seen, ref)
    assert len(seen) == len(seen.items()) == len(plain) + 2 == 4
    for e in (0, 2):
        assert seen.get_views(0, e) == (0.0, 0.0, 0.5)
        assert (0, e, 0.0, 0.0, 0.5) in seen.items()
    # They add nothing to the strength and personal sums.
    assert _hex(seen.sums()[1:3]) == _hex(plain.sums()[1:3])


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_items_follow_creation_order_across_rows(backend):
    # Entries are created by set_views, observe and habit_tick in turn,
    # across three rows, so creation order is neither (activity, element)
    # order nor habit-table order.
    stores = [_STORES[backend](*_chains()), ReferenceHabitStore(*_chains())]
    for st in stores:
        st.set_views(2, 1, 0.4, 0.3, 0.2)
        st.observe(0, [2], [0, 4], 0.5)
        st.habit_tick(1, [0, 3], 0.3, 0.1, False)
        st.set_views(0, 2, 0.5, 0.5, 0.5)
        st.observe(1, [0, 2], [1, 3], 0.5)
        st.habit_tick(0, [1, 4], 0.3, 0.1, True)
        st.track_personal(0.5)
        st.habit_tick(2, [0, 1], 0.3, 0.1, False)
    got, ref = stores
    assert [r[:2] for r in got.items()] == [
        (2, 1), (0, 0), (0, 4), (1, 0), (1, 3), (0, 2), (1, 1), (0, 1), (2, 0)]
    _assert_same_store(got, ref)


def test_python_store_entry_memory():
    # An observed entry costs its row's dict item, its slot int and its
    # collective view; no per-entry key. CPython 3.11, 64-bit: about 107 B
    # per entry, against 172 B with an (activity, element) tuple per entry.
    contexts = [list(range(k, k + 10)) for k in range(0, 100, 10)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = get_backend("python")([0], [0, 1])
        for a in range(50):
            for ctx in contexts:
                store.observe(a, [], ctx, 0.5)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == 5000
    assert grown / len(store) < 130


# CPython's finite math.fsum test vectors (testFsum in Lib/test/test_math.py),
# and signed zeros, which a partials loop that keeps zero partials sums
# to -0.0.
_FSUM_VECTORS = [
    [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.0, -1.0],
    [1e100, 1.0, -1e100, 1e-100, 1e50, -1.0, -1e50],
    [2.0**53, -0.5, -2.0**-54],
    [2.0**53, 1.0, 2.0**-100],
    [2.0**53 + 10.0, 1.0, 2.0**-100],
    [2.0**53 - 4.0, 0.5, 2.0**-54],
    [1.0, 1e100, 1.0, -1e100],
    [1.0 / n for n in range(1, 1001)],
    [(-1.0)**n / n for n in range(1, 1001)],
    [1e16, 1.0, 1e-16],
    [1e16 - 2.0, 1.0 - 2.0**-53, -(1e16 - 2.0), -(1.0 - 2.0**-53)],
    [2.0**n - 2.0**(n + 50) + 2.0**(n + 52) for n in range(-1074, 972, 2)] + [-2.0**1022],
]

# Finite, bounded so no partial sum overflows, with subnormals, signed
# zeros and exact cancellations among them.
_FSUM_TERMS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -2.0**-1022, 1.0, -1.0,
                     2.0**53, -(2.0**53), 1e16, 1e-16]),
)


def _assert_sums_are_fsum(cls, values):
    # Each column holds the values in another order; every total must be
    # math.fsum's, bit for bit.
    store = cls(*_chains())
    columns = (values, values[::-1], values[1::2] + values[::2])
    for k, views in enumerate(zip(*columns)):
        store.set_views(k, 0, *views)
    n, *totals = store.sums()
    assert n == len(values)
    assert _hex(totals) == _hex([math.fsum(values)] * 3)


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_sums_are_correctly_rounded(backend):
    for values in _FSUM_VECTORS:
        _assert_sums_are_fsum(_STORES[backend], values)


@pytest.mark.parametrize("backend", sorted(_STORES))
@given(st.lists(_FSUM_TERMS, max_size=24))
@settings(max_examples=300, deadline=None)
def test_sums_are_correctly_rounded_on_random_terms(backend, values):
    _assert_sums_are_fsum(_STORES[backend], values)


# Around the compiled store's fast path, which adds each view in
# [2^-40, 2) exactly as a whole number of units of 2^-92: both ends of
# that range, the values just outside it, ties at the last bit of a sum,
# and thousands of values near 2.0, whose count carries out of its low
# 64-bit word and whose sum passes 2^14, where the count's top 53-bit
# piece is used.
_BELOW_UNIT = math.nextafter(2.0**-40, 0.0)
_BELOW_TWO = math.nextafter(2.0, 0.0)
_NEAR_TWO = [2.0 - k * 2.0**-52 for k in range(1, 9001)]
_FAST_PATH_VECTORS = [
    [2.0**-40], [_BELOW_UNIT], [_BELOW_TWO], [2.0],
    [2.0**-40, _BELOW_UNIT, -(2.0**-40), -_BELOW_UNIT],
    [_BELOW_TWO, 2.0, 2.0**-40, _BELOW_UNIT, 2.0**-1074, 1.0],
    [_BELOW_TWO] * 3 + [-2.0**-93],
    [1.0] * 16384 + [2.0**-39],  # a tie, kept at the even 2**14
    [1.0] * 16384 + [2.0**-38, 2.0**-39],  # a tie, rounded up to even
    [1.0] * 16384 + [2.0**-39, 2.0**-40 * (1 + 2.0**-52)],  # just above a tie
    [1.0] * 16384 + [2.0**-39, -(2.0**-92)],  # just below a tie
    _NEAR_TWO,
    _NEAR_TWO[:3000],
    _NEAR_TWO + [2.0**-40 * (1 + k * 2.0**-52) for k in range(3000)],
    _NEAR_TWO + [-1e16, 1e16, 1e-300, -_BELOW_TWO],
]


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_sums_are_correctly_rounded_around_the_fast_path(backend):
    for values in _FAST_PATH_VECTORS:
        _assert_sums_are_fsum(_STORES[backend], values)


@pytest.mark.parametrize("backend", sorted(_STORES))
@given(st.lists(st.one_of(st.floats(min_value=2.0**-41, max_value=2.5),
                          st.sampled_from([0.0, 2.0**-40, _BELOW_UNIT, _BELOW_TWO, 2.0])),
                min_size=1, max_size=24),
       st.lists(_FSUM_TERMS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_sums_are_correctly_rounded_on_views_near_the_fast_path(backend, views, others):
    _assert_sums_are_fsum(_STORES[backend], views + others)


def _fsum_outcome(call):
    # What a sum returns, as hex (nan has one), or what it raises.
    try:
        total = call()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(total) else total.hex()


_INF = math.inf
_SPECIAL_VECTORS = [
    [1e308, 1e308], [1e308, 1e308, -1e308], [1e308, -1e308, 1e308],
    [-1e308, 0.5, -1e308], [_INF, -_INF], [-_INF, 0.5, _INF], [_INF], [-_INF, 1.0],
    [_INF, _INF, 1e308], [math.nan], [0.5, math.nan, _INF], [math.nan, _INF, -_INF],
    [1e308, 1e308, _INF], [_INF, 1e308, 1e308],
]


@pytest.mark.parametrize("backend", sorted(_STORES))
def test_sums_fail_the_way_math_fsum_does(backend):
    # Views no validated scenario stores: each total must return what
    # math.fsum returns on its column, or raise what it raises.
    for values in _SPECIAL_VECTORS:
        for column in range(3):
            store = _STORES[backend]([0], [0, 1])
            for k, v in enumerate(values):
                views = [0.0, 0.0, 0.0]
                views[column] = v
                store.set_views(k, 0, *views)
            want = _fsum_outcome(lambda: math.fsum(values))
            got = _fsum_outcome(lambda: store.sums()[1 + column])
            assert got == want, (values, column)


# Operations after which the strengths, added in the order their entries
# were first written (by set_views, or by habit_tick in context order),
# overflow a partial sum, and added in slot order do not: the reference
# store's order, which returns 1e308 here.
_OVERFLOW_OPS = {
    "set_views": [("observe", 0, [], [0], 0.5), ("set", 1, 0, 1e308), ("set", 2, 0, 1e308),
                  ("set", 0, 0, -1e308)],
    "habit_tick": [("observe", 0, [], [0, 1], 0.5), ("set", 1, 0, 1e308),
                   ("tick", 0, [1, 0], 1e308, 0.0, False), ("set", 0, 0, -1e308)],
}


@pytest.mark.parametrize("case", sorted(_OVERFLOW_OPS))
@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_sums_overflow_in_first_write_order(backend, case):
    # Whether math.fsum overflows depends on the order of its terms, so
    # the kernels must add them in one order to fail alike.
    store = available_backends()[backend]([0], [0, 1])
    for op, *args in _OVERFLOW_OPS[case]:
        if op == "set":
            store.set_views(*args, args[-1], 0.0)
        elif op == "tick":
            store.habit_tick(*args)
        else:
            store.observe(*args)
    overflow = (OverflowError, "intermediate overflow in fsum")
    assert _fsum_outcome(lambda: store.sums()[1]) == overflow
    if case == "set_views":
        assert _fsum_outcome(lambda: store.sums()[2]) == overflow


def _crowd_doc() -> dict:
    """Twelve agents at Home and three at Away choosing among three
    options: every co-located pair observes, with two competitors."""
    rng = random.Random(11)
    options = ["opt_a", "opt_b", "opt_c"]
    values = ["thrift", "comfort"]
    agents = [f"ag{i:02d}" for i in range(15)]
    doc = make_doc(
        contextElements=[
            {"id": "Home", "kind": "Location"},
            {"id": "Away", "kind": "Location"},
            {"id": "Morning", "kind": "Timepoint"},
            {"id": "Evening", "kind": "Timepoint"},
        ],
        activities=[{"id": "act_root", "type": "Abstract"}]
        + [{"id": o, "type": "Atomic"} for o in options],
        activityConnections=[
            {"child": o, "parent": "act_root", "relation": "IsA"} for o in options
        ],
        values=values,
        agents=[
            {"id": ag, "habitRate": 0.2, "attentionBudget": 1 + i % 2,
             "location": "Home" if i < 12 else "Away"}
            for i, ag in enumerate(agents)
        ],
        habitualConnections=[
            {"agent": ag, "activity": rng.choice(options),
             "contextElement": rng.choice(["Home", "Away", "Morning", "Evening"]),
             "strength": (h := grid_value(rng)), "personalView": h}
            for ag in agents
        ],
        valuePriorities=[
            {"agent": ag, "value": v, "strength": (p := grid_value(rng, 0, 0.25)),
             "personalView": p}
            for ag in agents for v in values
        ],
        valueConnections=[
            {"agent": ag, "activity": o, "value": v, "strength": (s := grid_value(rng)),
             "personalView": s}
            for ag in agents for o in options for v in values
        ],
    )
    doc["environment"]["timepoints"] = ["Morning", "Evening"]
    doc["globals"] = {"habitThreshold": 0.5, "decayRate": 0.01}
    return doc


@pytest.mark.parametrize("backend", sorted(available_backends()))
def test_crowd_logs_match_reference_store(backend, monkeypatch):
    s = build_scenario(_crowd_doc())
    atomic = s.index.atomic_ids
    weakening = []

    class CountingReference(ReferenceHabitStore):
        __slots__ = ()

        def observe(self, acted, competing, ctx_elements, rate):
            weakening.append(bool(competing))
            super().observe(acted, competing, ctx_elements, rate)

    logs = {}
    for name, store in (("reference", CountingReference),
                        (backend, available_backends()[backend])):
        monkeypatch.setattr(sopra.state, "get_backend", lambda name=None, st=store: st)
        events, metrics = run(s, 12, seed=3)
        logs[name] = (events_csv(events), metrics_csv(metrics, atomic))
    assert any(weakening)  # the competing lists were exercised
    assert logs[backend] == logs["reference"]
