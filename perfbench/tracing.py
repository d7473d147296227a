"""Spans around the calls into each sopra layer, recorded from outside.

`patched()` swaps the public names the engine and CLI call (module
functions, `World` methods and the pure-Python `HabitStore` methods) for
wrappers that record one span per call: (id, parent id, name, start,
end, n), where n is a per-call count such as the observed context size.
Spans stay in memory until the job ends. A layer's self time is its
span's duration minus the part of that interval its child spans cover.

A compiled `HabitStore` cannot be wrapped: its time then stays in the
self time of the calling layer and its `kernel.*` metrics read 0.
Under `sweep --jobs N` threads, a span's duration includes the time its
thread waited for the interpreter lock.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import sopra.cli
import sopra.cognition
import sopra.engine
import sopra.model
from sopra._kernel import get_backend
from sopra.model import DecisionMode

Span = tuple[int, int | None, str, float, float, int]
Measure = Callable[[tuple, Any], int]


class Tracer:
    """Collects spans from any thread. A span opened on a thread with no
    open span of its own (a `--jobs` worker) is a child of the job's
    root span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (observations, habit-store entries) of each finished World.run
        self.runs: list[tuple[int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    def wrap(self, name: str, fn: Callable, measure: Measure | None = None) -> Callable:
        local, clock, spans = self._local, time.perf_counter, self.spans

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            if parent is None:
                self._root = sid
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if self._root == sid:
                    self._root = None
            spans.append((sid, parent, name, start, end,
                          measure(args, result) if measure else 0))
            return result

        return traced

    def note_run(self, args: tuple, result: Any) -> int:
        world = args[0]
        entries = sum(len(s.habits) for s in world.states.values())
        self.runs.append((world.observation_count, entries))
        return 0

    def totals(self) -> dict[str, list[float]]:
        """name -> [calls, self seconds, sum of n]."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0])
        for sid, _, name, start, end, n in self.spans:
            rec = out[name]
            rec[0] += 1
            rec[1] += (end - start) - _covered(children.get(sid, ()), start, end)
            rec[2] += n
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start,end,n\n")
            for sid, parent, name, start, end, n in self.spans:
                fh.write(f"{sid},{'' if parent is None else parent},{name},"
                         f"{start:.9f},{end:.9f},{n}\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _intentional(args: tuple, step) -> int:
    return 1 if step.mode is DecisionMode.INTENTIONAL else 0


def _context_size(args: tuple, result) -> int:
    return len(args[0].context.present)


def _text_bytes(args: tuple, result) -> int:
    return len(args[0].encode("utf-8"))


KERNEL_METHODS = ("pressures", "habit_tick", "track_personal", "observe", "sums")


def layers(tracer: Tracer) -> list[tuple[str, object, str, Measure | None]]:
    """(span name, owner, attribute, measure) for every wrapped call."""
    World = sopra.engine.World
    table = [
        ("cli.main", sopra.cli, "main", None),
        ("scenario.build", sopra.cli, "build_scenario", None),
        ("validate.validate", sopra.cli, "validate_scenario", None),
        ("model.index", sopra.model, "ScenarioIndex", None),
        ("engine.init", World, "__init__", None),
        ("state.init", sopra.engine, "init_agent_state", None),
        ("state.init", sopra.engine, "build_score_cache", None),
        ("engine.run", World, "run", tracer.note_run),
        ("engine.step", World, "step", None),
        ("engine.snapshot", sopra.engine, "snapshot_context", None),
        ("cognition.cycle", sopra.engine, "decision_cycle", None),
        ("cognition.decide", sopra.cognition, "decide_step", _intentional),
        ("learning.habit_tick", sopra.engine, "habit_tick", None),
        ("learning.personal", sopra.engine, "update_personal_view", None),
        ("learning.observe", sopra.engine, "observe", _context_size),
        ("engine.metrics", sopra.engine, "collect_metrics", None),
        ("engine.csv", sopra.cli, "events_csv", None),
        ("engine.csv", sopra.cli, "metrics_csv", None),
        ("engine.write", sopra.cli, "write_text_atomic", _text_bytes),
    ]
    store = get_backend()
    if kernel_wrappable():
        table += [(f"kernel.{m}", store, m, None) for m in KERNEL_METHODS]
    return table


def kernel_wrappable() -> bool:
    return isinstance(get_backend().__dict__.get("observe"), types.FunctionType)


@contextmanager
def patched(tracer: Tracer, full: bool) -> Iterator[Tracer]:
    """Wrap every layer (full) or only `World.run`, which the untraced
    path needs for events/s; restore the originals on exit."""
    table = layers(tracer)
    if not full:
        table = [row for row in table if row[0] == "engine.run"]
    saved = [(owner, attr, getattr(owner, attr)) for _, owner, attr, _ in table]
    try:
        for name, owner, attr, measure in table:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), measure))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


# metric -> (unit, span name, field); field 1 is self seconds, 0 calls, 2 sum of n
SPAN_METRICS: dict[str, tuple[str, str, int]] = {
    "engine.snapshot_s": ("s", "engine.snapshot", 1),
    "engine.snapshot_calls": ("count", "engine.snapshot", 0),
    "learning.observe_s": ("s", "learning.observe", 1),
    "learning.observe_calls": ("count", "learning.observe", 0),
    "learning.observe_ctx_elements": ("count", "learning.observe", 2),
    "kernel.observe_s": ("s", "kernel.observe", 1),
    "kernel.observe_calls": ("count", "kernel.observe", 0),
    "cognition.cycle_s": ("s", "cognition.cycle", 1),
    "cognition.decide_s": ("s", "cognition.decide", 1),
    "cognition.decide_steps": ("count", "cognition.decide", 0),
    "kernel.pressures_s": ("s", "kernel.pressures", 1),
    "kernel.pressures_calls": ("count", "kernel.pressures", 0),
    "learning.habit_tick_s": ("s", "learning.habit_tick", 1),
    "learning.personal_s": ("s", "learning.personal", 1),
    "kernel.habit_tick_s": ("s", "kernel.habit_tick", 1),
    "kernel.track_personal_s": ("s", "kernel.track_personal", 1),
    "kernel.sums_s": ("s", "kernel.sums", 1),
    "engine.step_self_s": ("s", "engine.step", 1),
    "scenario.build_s": ("s", "scenario.build", 1),
    "validate.validate_s": ("s", "validate.validate", 1),
    "model.index_s": ("s", "model.index", 1),
    "state.init_s": ("s", "state.init", 1),
    "engine.metrics_s": ("s", "engine.metrics", 1),
    "engine.csv_s": ("s", "engine.csv", 1),
    "engine.write_s": ("s", "engine.write", 1),
    "engine.bytes_written": ("B", "engine.write", 2),
    "cli.overhead_s": ("s", "cli.main", 1),
}
UNITS = {m: unit for m, (unit, _, _) in SPAN_METRICS.items()}
UNITS.update({"cognition.intentional_ratio": "ratio", "kernel.entries_per_agent": "count"})


def job_metrics(tracer: Tracer, agents_per_run: int, scale: float) -> dict[str, float]:
    """Per-layer metrics of one traced job, times multiplied by `scale`."""
    totals = tracer.totals()
    none = [0, 0.0, 0]
    out = {m: totals.get(span, none)[field] * (scale if field == 1 else 1)
           for m, (_, span, field) in SPAN_METRICS.items()}
    decide = totals.get("cognition.decide", none)
    out["cognition.intentional_ratio"] = decide[2] / decide[0] if decide[0] else 0.0
    entries = sum(e for _, e in tracer.runs)
    out["kernel.entries_per_agent"] = entries / (agents_per_run * len(tracer.runs))
    return out


def median_metrics(jobs: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Each time's median over the jobs, each count's value, and the
    names of counts that did not repeat exactly."""
    out: dict[str, float] = {}
    unsteady: list[str] = []
    for name in jobs[0]:
        values = [j[name] for j in jobs]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
    return out, unsteady
