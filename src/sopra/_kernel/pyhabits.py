"""Pure-Python habit-table kernel.

One `HabitStore` holds a single agent's sparse (activity, element) ->
(strength, personal view, collective view) table plus the shared context
ancestor chains, and implements the per-tick hot loops: pressure
aggregation, the habit tick, view tracking, and observation smoothing.

The chains arrive flat (`chain_data[chain_start[e]:chain_start[e + 1]]`
is element e, then its ancestors, nearest first). `pressures` reads them
through the element-chain table, `_chains`: element -> chain tuple,
filled by `_chain` the first time a query names an element. The range
check lives in that fill, so a negative or out-of-range element is never
entered and raises `IndexError` on every query that names it. Nothing
is filled when a store is built.

A chain is a function of the two chain arrays alone, so consecutive
stores built from the same two tuple objects (every agent of one
scenario index) share one table, and each chain tuple is made once per
index, not once per store. Both kernels keep one chain table per pair
of chain tuples: the compiled store shares its checked chain arrays
the same way. Per-store tuples measured worse: on a 400-agent world
they added a few thousand objects per run, enough to move one full
garbage collection out of the run and into the set-up that follows it.
Stores over other chain arrays get a table of their own, after the
same offset check the compiled store makes: `chain_start` must be
nondecreasing offsets into `chain_data`.

Layout of the habit entries: two tables.

* The collective table holds every entry. `_rows[activity][element]`
  maps the entry to its slot and `_c[slot]` holds its collective view.
  Slots are handed out in creation order, so a slot is also the entry's
  place in that order and no per-entry key is stored: `items()`, which
  the tick never calls, recovers the order by sorting the slots.
  `observe` reads and writes only this table.
* The habit table holds strength `_s` and personal view `_p` only for
  entries that `set_views` or `habit_tick` has written, in the order
  they were first written. `_hrows` maps such an entry to its position
  there. An entry that only observation created is not in it and reads
  0.0 strength and personal view: decay and tracking would keep it at
  exactly 0, and pressures treat a zero strength like an absent entry.
  So `pressures`, `habit_tick`, `track_personal` and the strength and
  personal sums walk performed entries only.

Tables only grow. A new entry takes slot `len(_c)` at collective view
0.0; joining the habit table, it takes position `len(_s)` at 0.0
strength and personal view. `set_views`, `habit_tick` and `observe`
each write this out rather than call a helper: a method call per new
entry measured 2-6% of `World.run` on perfbench's 400-agent city world.

`sums` returns correctly rounded totals (`math.fsum`). A total does not
depend on the order of its terms, but whether a partial sum overflows
does, so the compiled store adds them in this store's orders: strengths
and personal views in habit-table order, collective views in slot
order.

This is the reference implementation; the compiled backend in
`_chabits.cpp` must stay bit-identical to it, with a layout of its own.
The kernels share: the same expression for each entry, the same order
of entry creation and the same order of updates within each entry
(`observe` applies, per entry, the positive update first, then the
negative ones). Passes over independent entries may run in any order.
Any arithmetic change here has to be copied there verbatim.

Both kernels rely on one precondition: `ctx_elements` holds no
duplicates, which `ContextSnapshot.ids` guarantees. With a duplicate
element and the acted activity among the competing ones, `observe`
here (a strengthen pass, then a weaken pass per competing row) and the
compiled one (both updates element by element) would order that
entry's updates differently.
"""

from __future__ import annotations

from math import fsum
from typing import Sequence

AGG_MEAN = 0
AGG_MAX = 1
AGG_SUM = 2


# [chain_data, chain_start, element-chain table] of the latest store built
# from new chain arrays. A list updated in place: assigning a class
# attribute instead would invalidate the type's attribute caches once per
# scenario index.
_latest: list = [(), (), {}]


class HabitStore:
    backend = "python"

    __slots__ = ("_chain_data", "_chain_start", "_chains", "_rows", "_c",
                 "_hrows", "_s", "_p")

    def __init__(self, chain_data: Sequence[int], chain_start: Sequence[int]):
        # tuple() returns a tuple argument itself, so stores built from
        # one index share its chains, and with them the element-chain
        # table of the latest store built from those two tuple objects.
        data = self._chain_data = tuple(chain_data)
        start = self._chain_start = tuple(chain_start)
        latest_data, latest_start, table = _latest
        if data is not latest_data or start is not latest_start:
            # Every offset in [0, len(data)], each no less than the last.
            bounds = [0, *start, len(data)]
            if bounds != sorted(bounds):
                raise ValueError("chain_start must be nondecreasing offsets into chain_data")
            table = {}
            _latest[:] = data, start, table
        self._chains: dict[int, tuple[int, ...]] = table
        # Collective table, every entry in creation (slot) order.
        self._rows: dict[int, dict[int, int]] = {}  # activity -> element -> slot
        self._c: list[float] = []
        # Habit table, performed entries in the order first performed.
        self._hrows: dict[int, dict[int, int]] = {}  # activity -> element -> position
        self._s: list[float] = []
        self._p: list[float] = []

    def __len__(self) -> int:
        return len(self._c)

    def set_views(self, activity: int, element: int, strength: float,
                  personal: float, collective: float) -> None:
        row = self._rows.get(activity)
        if row is None:
            row = self._rows[activity] = {}
        i = row.get(element)
        if i is None:
            i = row[element] = len(self._c)
            self._c.append(0.0)
        self._c[i] = collective
        hrow = self._hrows.get(activity)
        if hrow is None:
            hrow = self._hrows[activity] = {}
        h = hrow.get(element)
        if h is None:
            h = hrow[element] = len(self._s)
            self._s.append(0.0)
            self._p.append(0.0)
        self._s[h] = strength
        self._p[h] = personal

    def _chain(self, element: int) -> tuple[int, ...]:
        # Fill the element-chain table for one element. A negative id
        # would index the chain offsets from the end, so check the range
        # before slicing. An empty chain (only a hand-built chain array
        # has one) reads as a miss and is refilled, which is harmless.
        start = self._chain_start
        if not 0 <= element < len(start) - 1:
            raise IndexError(f"context element {element} out of range "
                             f"for {max(len(start) - 1, 0)} elements")
        chain = self._chains[element] = self._chain_data[start[element]:start[element + 1]]
        return chain

    def pressures(self, activities: Sequence[int], ctx_elements: Sequence[int],
                  attenuation: float, aggregation: int) -> list[float]:
        # Per element: the nearest ancestor holding a nonzero strength
        # wins, discounted by attenuation per hierarchy step. Zero-strength
        # entries behave exactly like absent ones. Chains come from the
        # element-chain table; `_chain` fills a missing one and checks
        # its range there, so an unknown element raises IndexError on
        # every query, and a known one costs one dict lookup.
        table = self._chains
        fill = self._chain
        chains = [table.get(e) or fill(e) for e in ctx_elements]
        n = len(chains)
        s = self._s
        hrows = self._hrows
        out = []
        for a in activities:
            acc = 0.0
            row = hrows.get(a)
            if row is not None:
                for chain in chains:
                    v = 0.0
                    factor = 1.0
                    for anc in chain:
                        h = row.get(anc)
                        if h is not None and s[h] > 0.0:
                            v = factor * s[h]
                            break
                        factor = factor * attenuation
                    if aggregation == AGG_MAX:
                        if v > acc:
                            acc = v
                    else:
                        acc = acc + v
            if aggregation == AGG_MEAN:
                acc = acc / n
            out.append(acc)
        return out

    def habit_tick(self, performed: int, ctx_elements: Sequence[int], rate: float,
                   decay_rate: float, decay_all: bool) -> None:
        # One-step update from tick-start values. Reinforced pairs get
        # h + r(1-h), or (1-d)h + r(1-h) when decay applies to all;
        # every other pair gets (1-d)h.
        hrow = self._hrows.get(performed)
        if hrow is None:
            hrow = self._hrows[performed] = {}
        # map(), not a comprehension: no function frame on Python 3.11.
        try:
            at = list(map(hrow.__getitem__, ctx_elements))
        except KeyError:
            # Join in context order, so new entries are created in it.
            row = self._rows.get(performed)
            if row is None:
                row = self._rows[performed] = {}
            col = self._c
            s = self._s
            p = self._p
            for e in ctx_elements:
                if e not in hrow:
                    if e not in row:
                        row[e] = len(col)
                        col.append(0.0)
                    hrow[e] = len(s)
                    s.append(0.0)
                    p.append(0.0)
            at = list(map(hrow.__getitem__, ctx_elements))
        s = self._s
        keep = 1.0 - decay_rate
        if decay_all:
            fresh = [keep * s[h] + rate * (1.0 - s[h]) for h in at]
        else:
            fresh = [s[h] + rate * (1.0 - s[h]) for h in at]
        s = self._s = [keep * v for v in s]
        for h, v in zip(at, fresh):
            s[h] = v

    def track_personal(self, awareness: float) -> None:
        self._p = [p + awareness * (s - p) for p, s in zip(self._p, self._s)]

    def observe(self, acted: int, competing: Sequence[int],
                ctx_elements: Sequence[int], rate: float) -> None:
        # Two passes: strengthen the acted row, then weaken each competing
        # row that exists. Each entry still gets its positive update before
        # its negative ones, because ctx_elements holds no duplicates.
        rows = self._rows
        row = rows.get(acted)
        if row is None:
            row = rows[acted] = {}
        col = self._c
        for e in ctx_elements:
            i = row.get(e)
            if i is None:
                i = row[e] = len(col)
                col.append(0.0)
            c = col[i]
            col[i] = c + rate * (1.0 - c)
        keep = 1.0 - rate
        for a in competing:
            # Fetched after the acted row exists, so an acted activity
            # listed among the competing ones is weakened too.
            other = rows.get(a)
            if other is not None:
                for e in ctx_elements:
                    j = other.get(e)
                    if j is not None:
                        col[j] = keep * col[j]

    def sums(self) -> tuple[int, float, float, float]:
        return (len(self._c), fsum(self._s), fsum(self._p), fsum(self._c))

    def items(self) -> list[tuple[int, int, float, float, float]]:
        # Creation order is slot order.
        keys = sorted((i, a, e) for a, row in self._rows.items() for e, i in row.items())
        hrows = self._hrows
        s = self._s
        p = self._p
        c = self._c
        out = []
        for i, a, e in keys:
            h = hrows.get(a, {}).get(e)
            out.append((a, e, 0.0, 0.0, c[i]) if h is None else (a, e, s[h], p[h], c[i]))
        return out
