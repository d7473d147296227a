#!/usr/bin/env python3
"""sopra benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload crowd --seed 3 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # every workload, in turn
    python3 perfbench/run.py --repin                 # rewrite perfbench/pins.json

Every run first runs its workload's job once at the default seed as a
warm-up and checks the logs against the digests pinned in pins.json.

--trace 0 repeats [set-up x setups_per_job, job] in a closed loop (each
job starts when the previous one ends, all in this process) for
--seconds, and reports the medians of events_per_s, wall_s and setup_s,
plus the process's peak_rss_mb.

--trace 1 alternates an untraced and a traced job for --seconds and
reports per-layer metrics (medians over the traced jobs), the tracing
overhead, and the rate of the habit-store micro-loop.

Times are scaled to a nominal machine speed with the yardstick loop in
reference.py, timed between jobs; the info line gives the median speed
factor and the unscaled median wall_s.

Each job's events.csv/metrics.csv digests must match the pins for its
seed, or, for an unpinned seed, every other job at that seed; traced jobs
included. A job that raises, exits non-zero or mismatches counts as
failed, and any failure makes the exit code 1. The last line of stdout
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

from reference import REFERENCE_S, reference_time
from workloads import (HERE, PINS_PATH, WORKLOADS, Job, JobError, Workload, checksum,
                       kernel_loop, load_pins, pinned, shape)
from tracing import UNITS, Tracer, job_metrics, kernel_wrappable, median_metrics, patched

from sopra._kernel import get_backend

OUT = HERE / "_out"
DEFAULT_SEED = 0
PINNED_SEEDS = (0, 1)  # the default seed and one held-out seed
KERNEL_ROUNDS = 2000
KERNEL_REPS = 3


class Bench:
    """Runs one workload's jobs and keeps the correctness tally."""

    def __init__(self, workload: Workload, pins: dict):
        self.workload = workload
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._expected: dict[int, dict[str, str]] = {}
        self.last_runs: list[tuple[int, int]] = []  # (observations, entries) per World.run
        self.scales: list[float] = []  # machine speed relative to nominal, per job
        self.unscaled_wall_s: float | None = None

    def job(self, seed: int) -> Job:
        return Job(self.workload, seed, OUT / self.workload.name / f"seed{seed}")

    def attempt(self, job: Job, traced: bool = False) -> tuple[float, Tracer] | None:
        """Run the job once and check its logs; (wall seconds, tracer), or
        None after recording why it failed."""
        self.attempted += 1
        tracer = Tracer()
        try:
            with patched(tracer, full=traced):
                start = time.perf_counter()
                job.run()
                wall = time.perf_counter() - start
            self.check(job)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            self.failed += 1
            mode = "traced" if traced else "untraced"
            self.errors.append(f"{self.workload.name} {mode} job at seed {job.seed}:\n"
                               + traceback.format_exc(limit=4))
            return None
        self.last_runs = tracer.runs
        return wall, tracer

    def check(self, job: Job) -> None:
        """Raise JobError unless the job's logs match the pins for its
        seed, or, unpinned, the first job run at that seed."""
        digests = job.digests()
        want = self._expected.setdefault(job.seed, self.pinned_logs(job.seed) or digests)
        if digests != want:
            raise JobError(f"logs {digests} differ from {want}")

    def pinned_logs(self, seed: int) -> dict[str, str] | None:
        want = {k: pinned(self.pins, self.workload.name, seed, k) for k in ("events", "metrics")}
        return want if all(want.values()) else None

    def warm_up(self) -> None:
        """Fill caches and check the default seed against its pins."""
        if self.pinned_logs(DEFAULT_SEED) is None:
            self.errors.append(f"no pinned digests for {self.workload.name} "
                               f"seed {DEFAULT_SEED} in {PINS_PATH}")
        self.attempt(self.job(DEFAULT_SEED))

    def events_per_s(self, wall: float, tracer: Tracer) -> float:
        w = self.workload
        if w.runs > 1:  # a sweep: events of all runs over the whole call
            return w.agents * w.ticks * w.runs / wall
        (run,) = [s for s in tracer.spans if s[2] == "engine.run"]
        return w.agents * w.ticks / (run[4] - run[3])

    def rescale(self, before: float) -> tuple[float, float]:
        """Time the yardstick again; return that time and the factor that
        scales times taken since `before` was timed to the nominal machine."""
        after = reference_time()
        scale = REFERENCE_S / ((before + after) / 2)
        self.scales.append(scale)
        return after, scale

    def end_to_end(self, job: Job, seconds: float) -> dict[str, tuple[float, str]]:
        setups, walls, rates, unscaled = [], [], [], []
        ref = reference_time()
        deadline = time.perf_counter() + seconds
        while True:
            batch = []
            for _ in range(self.workload.setups_per_job):
                start = time.perf_counter()
                job.setup()
                batch.append(time.perf_counter() - start)
            result = self.attempt(job)
            ref, scale = self.rescale(ref)
            setups += [t * scale for t in batch]
            if result is not None:
                unscaled.append(result[0])
                walls.append(result[0] * scale)
                rates.append(self.events_per_s(*result) / scale)
            if time.perf_counter() >= deadline:
                break
        if not walls:
            return {}
        self.unscaled_wall_s = statistics.median(unscaled)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "events_per_s": (statistics.median(rates), "1/s"),
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_kib / 1024, "MB"),
        }

    def per_layer(self, job: Job, seconds: float) -> dict[str, tuple[float, str]]:
        plain, traced, layers = [], [], []
        last: Tracer | None = None
        ref = reference_time()
        deadline = time.perf_counter() + seconds
        while True:
            a = self.attempt(job)
            b = self.attempt(job, traced=True)
            ref, scale = self.rescale(ref)
            if a is not None and b is not None:
                plain.append(a[0])
                traced.append(b[0])
                last = b[1]
                layers.append(job_metrics(last, self.workload.agents, scale))
            if time.perf_counter() >= deadline:
                break
        if last is None:
            return {}
        last.write(job.out / "spans.csv")
        values, unsteady = median_metrics(layers)
        for name in unsteady:
            self.errors.append(f"count {name} differs between traced jobs")
        out = {name: (values[name], UNITS[name]) for name in values}
        out["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain),
                                       "ratio")
        out["kernel.loop_rounds_per_s"] = (self.kernel_rate(job.seed), "1/s")
        return out

    def kernel_rate(self, seed: int) -> float:
        """Median rounds/s of the habit-store micro-loop, whose output must
        match its pinned checksum (or repeat, for an unpinned seed)."""
        self.attempted += 1
        store = get_backend()
        want = pinned(self.pins, "kernel_loop", seed, "checksum")
        rates = []
        ref = reference_time()
        for _ in range(KERNEL_REPS):
            start = time.perf_counter()
            out = kernel_loop(store, KERNEL_ROUNDS, seed)
            rates.append(KERNEL_ROUNDS / (time.perf_counter() - start))
            got = checksum(out)
            want = want or got
            if got != want:
                self.failed += 1
                self.errors.append(f"kernel loop checksum {got} differs from {want}")
                break
        _, scale = self.rescale(ref)
        return statistics.median(rates) / scale


def run_one(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(workload, load_pins())
    bench.warm_up()
    job = bench.job(seed)
    if trace:
        metrics = bench.per_layer(job, seconds)
    else:
        metrics = bench.end_to_end(job, seconds)
    for err in bench.errors:
        print(f"error: {err}", file=sys.stderr)
    info = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "backend": get_backend().backend,
        "kernel_traced": kernel_wrappable(),
        "nproc": len(os.sched_getaffinity(0)),
        "scenario_sha256": job.scenario_sha256(),
        "shape": {**shape(job),
                  "observation_count": sum(obs for obs, _ in bench.last_runs)},
        "machine_speed": statistics.median(bench.scales) if bench.scales else None,
        "unscaled_wall_s": bench.unscaled_wall_s,
        "jobs_attempted": bench.attempted,
        "failed_ratio": bench.failed / bench.attempted,
    }
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {unit}")
    return {
        "correct": not bench.errors and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, so peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):  # crashed before its result line
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] = total["correct"] and result["correct"] and proc.returncode == 0
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    return total


def repin() -> int:
    """Pin the log digests of every workload, and the micro-loop checksum,
    for each pinned seed, from the code as it is now."""
    pins: dict = {"kernel_loop": {}}
    for seed in PINNED_SEEDS:
        for name, workload in WORKLOADS.items():
            job = Bench(workload, {}).job(seed)
            job.run()
            pins.setdefault(name, {})[str(seed)] = job.digests()
        pins["kernel_loop"][str(seed)] = {
            "checksum": checksum(kernel_loop(get_backend(), KERNEL_ROUNDS, seed))
        }
    PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {PINS_PATH}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repin", action="store_true")
    args = ap.parse_args(argv)
    if args.repin:
        return repin()
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
