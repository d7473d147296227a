"""Pausing the cyclic garbage collector for bulk builds."""

from __future__ import annotations

import gc


class gc_paused:
    """Context manager: run the body with the cyclic collector disabled.

    For code that allocates many tracked objects that all outlive it,
    such as a scenario or a world's agent states: generational
    collection assumes most new objects die young, so each pass the
    allocations would trigger re-scans objects known to be live. Nothing
    collectable is lost, only deferred: the first tracked allocation
    after the body may start the pass the body skipped.

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
