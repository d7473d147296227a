"""Pure-Python habit-table kernel.

One `HabitStore` holds a single agent's sparse (activity, element) ->
(strength, personal view, collective view) table plus the shared context
ancestor chains, and implements the per-tick hot loops: pressure
aggregation, reinforcement/decay, view tracking, and observation
smoothing.

Layout: each entry has a slot, its position in three parallel value
columns `_s`, `_p` and `_c`. `_rows[activity][element]` maps an entry to
its slot, so the hot loops fetch an activity's row once and then look
elements up by small int. `_keys[slot]` is the entry's (activity,
element), in creation order.

This is the reference implementation. The compiled backend in
`_chabits.cpp` mirrors it, and the two must stay bit-identical. The
invariant is: the same expression for each entry, the same order of
entry creation, and the same order of updates within each entry
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

from typing import Iterable, Sequence

AGG_MEAN = 0
AGG_MAX = 1
AGG_SUM = 2


class HabitStore:
    backend = "python"

    __slots__ = ("_chain_data", "_chain_start", "_rows", "_keys", "_s", "_p", "_c")

    def __init__(self, chain_data: Sequence[int], chain_start: Sequence[int]):
        # tuple() returns a tuple argument itself, so stores built from
        # one index share its chains.
        self._chain_data = tuple(chain_data)
        self._chain_start = tuple(chain_start)
        self._rows: dict[int, dict[int, int]] = {}  # activity -> element -> slot
        self._keys: list[tuple[int, int]] = []  # creation order
        self._s: list[float] = []
        self._p: list[float] = []
        self._c: list[float] = []

    def __len__(self) -> int:
        return len(self._keys)

    def _add(self, row: dict[int, int], activity: int, element: int) -> int:
        i = row[element] = len(self._keys)
        self._keys.append((activity, element))
        self._s.append(0.0)
        self._p.append(0.0)
        self._c.append(0.0)
        return i

    def _ensure(self, activity: int, element: int) -> int:
        row = self._rows.get(activity)
        if row is None:
            row = self._rows[activity] = {}
        i = row.get(element)
        if i is None:
            i = self._add(row, activity, element)
        return i

    def has(self, activity: int, element: int) -> bool:
        row = self._rows.get(activity)
        return row is not None and element in row

    def set_views(self, activity: int, element: int, strength: float,
                  personal: float, collective: float) -> None:
        i = self._ensure(activity, element)
        self._s[i] = strength
        self._p[i] = personal
        self._c[i] = collective

    def get_views(self, activity: int, element: int) -> tuple[float, float, float]:
        i = self._rows.get(activity, {}).get(element)
        if i is None:
            return (0.0, 0.0, 0.0)
        return (self._s[i], self._p[i], self._c[i])

    def pressures(self, activities: Sequence[int], ctx_elements: Sequence[int],
                  attenuation: float, aggregation: int) -> list[float]:
        # Per element: the nearest ancestor holding a nonzero strength
        # wins, discounted by attenuation per hierarchy step. Zero-strength
        # entries behave exactly like absent ones.
        data = self._chain_data
        start = self._chain_start
        # A negative id would index the chain offsets from the end.
        if ctx_elements and min(ctx_elements) < 0:
            raise IndexError(f"context element {min(ctx_elements)} out of range "
                             f"for {len(start) - 1} elements")
        chains = [data[start[e]:start[e + 1]] for e in ctx_elements]
        n = len(chains)
        s = self._s
        rows = self._rows
        out = []
        for a in activities:
            acc = 0.0
            row = rows.get(a)
            if row is not None:
                for chain in chains:
                    v = 0.0
                    factor = 1.0
                    for anc in chain:
                        i = row.get(anc)
                        if i is not None and s[i] > 0.0:
                            v = factor * s[i]
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

    def reinforce(self, activity: int, ctx_elements: Sequence[int], rate: float) -> None:
        for e in ctx_elements:
            i = self._ensure(activity, e)
            s = self._s[i]
            self._s[i] = s + rate * (1.0 - s)

    def decay(self, performed: int, ctx_elements: Iterable[int], rate: float) -> None:
        # Default mode: pairs reinforced this tick keep their value.
        row = self._rows.get(performed, {})
        skip = {row[e] for e in ctx_elements if e in row}
        keep = 1.0 - rate
        self._s = [v if i in skip else keep * v for i, v in enumerate(self._s)]

    def habit_tick(self, performed: int, ctx_elements: Sequence[int], rate: float,
                   decay_rate: float, decay_all: bool) -> None:
        # One-step update from tick-start values. Reinforced pairs get
        # h + r(1-h), or (1-d)h + r(1-h) when decay applies to all;
        # every other pair gets (1-d)h.
        row = self._rows.get(performed)
        if row is None:
            row = self._rows[performed] = {}
        slots = []
        for e in ctx_elements:
            i = row.get(e)
            if i is None:
                i = self._add(row, performed, e)
            slots.append(i)
        s = self._s
        keep = 1.0 - decay_rate
        if decay_all:
            fresh = [keep * s[i] + rate * (1.0 - s[i]) for i in slots]
        else:
            fresh = [s[i] + rate * (1.0 - s[i]) for i in slots]
        s = self._s = [keep * v for v in s]
        for i, v in zip(slots, fresh):
            s[i] = v

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
        col = self._c  # _add appends to this same list
        for e in ctx_elements:
            i = row.get(e)
            if i is None:
                i = self._add(row, acted, e)
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
        # Plain left-to-right loops: builtin sum() compensates from
        # Python 3.12 on, which would change the bits.
        ts = 0.0
        for v in self._s:
            ts = ts + v
        tp = 0.0
        for v in self._p:
            tp = tp + v
        tc = 0.0
        for v in self._c:
            tc = tc + v
        return (len(self._keys), ts, tp, tc)

    def items(self) -> list[tuple[int, int, float, float, float]]:
        return [
            (a, e, s, p, c)
            for (a, e), s, p, c in zip(self._keys, self._s, self._p, self._c)
        ]
