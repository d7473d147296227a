"""A fixed yardstick for the speed of the machine the benchmark runs on.

On a shared 2-core host the CPU speed was seen to change by up to a
third for minutes at a time (the same city job took 0.78 s in one run
and 1.07 s in the next). Timings are therefore scaled to a nominal
machine: each job's times are multiplied by REFERENCE_S / r, where r is
the mean time of this loop measured just before and just after the job.
The loop uses no sopra code, so no change to sopra can move it; it does
the same kind of work as sopra's hot paths (tuple-keyed dict lookups,
float updates, list appends, small sorts), so it slows down with them.
"""

from __future__ import annotations

import random
import time

# The loop's time on the nominal machine, so that scaled times stay close
# to seconds on a typical machine.
REFERENCE_S = 0.07


def _loop(rounds: int = 6000) -> float:
    rng = random.Random(1)
    slot: dict[tuple[int, int], int] = {}
    values: list[float] = []
    acc = 0.0
    for i in range(rounds):
        a = i % 13
        for e in sorted(rng.sample(range(40), 6)):
            j = slot.get((a, e))
            if j is None:
                j = slot[(a, e)] = len(values)
                values.append(0.0)
            values[j] = values[j] + 0.1 * (1.0 - values[j])
        for j in range(0, len(values), 7):
            acc = acc + values[j]
    return acc


def reference_time() -> float:
    """Seconds one pass of the yardstick loop takes right now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start
