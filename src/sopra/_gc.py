"""Pausing the cyclic garbage collector while sopra works.

The policy: building a scenario, validating it, building a world's
agent states, running the world, and each CLI command run with the
collector paused. Its premise: nothing sopra allocates is cyclic
garbage. What it builds lives as long as the scenario or the world,
and what it drops is freed by reference counting, so a pass the pause
defers frees nothing later than reference counting does. Generational
collection assumes most new objects die young; a scenario, its habit
stores and its event log do not, so each pass only re-scans live
objects. `tests/test_collector_pause.py` checks the premise.
"""

from __future__ import annotations

import gc


class gc_paused:
    """Context manager: run the body with the cyclic collector disabled.

    Nothing collectable is lost, only deferred: the first tracked
    allocation after the body may start a pass the body skipped, and
    cyclic garbage the caller made before the body is freed then.

    The previous state is restored on exit, exception or not. A
    collector found disabled is left disabled, so pauses nest. The
    collector is process-wide: while a pause lasts, other threads'
    allocations are not collected either, and a thread that disables the
    collector during the pause finds it enabled again when the pause
    ends.

    A class, not a `contextlib.contextmanager` generator, which costs a
    few microseconds more per use: about 1% of setting up the bundled
    commuting scenario.
    """

    __slots__ = ("_resume",)

    def __enter__(self) -> None:
        self._resume = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        if self._resume:
            gc.enable()
