"""Benchmark workloads: fixed-shape inputs and the CLI job each one times.

A workload's shape (agent count, locations, activity tree, values,
timepoints) is fixed. The seed draws only the numbers in it, so every
seed exercises the same O(n^2) snapshot and O(k^3) observation terms.
Each job is one in-process `sopra.cli.main` call, `run` for the
synthetic worlds and `sweep` for the bundled commuting scenario, which
is the whole job a user waits for: parse, set up, simulate, render and
write the CSVs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "sopra").is_dir():
    # Measure this checkout's sources, never an installed copy.
    raise ImportError(f"no sopra sources at {SRC}: run from the root of a checkout")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import sopra.scenarios  # noqa: E402
from sopra import World, build_scenario, cli, validate_scenario  # noqa: E402
from sopra.model import ElementKind  # noqa: E402
from sopra.testing import grid_value  # noqa: E402

PINS_PATH = HERE / "pins.json"
COMMUTING = Path(sopra.scenarios.__file__).resolve().parent / "commuting.json"

# The synthetic activity tree: node -> (type, children). A sequential day
# of three abstract choices; one work option is itself a two-part
# sequence, so the walk is up to three decisions deep.
TREE: dict[str, tuple[str, tuple[str, ...]]] = {
    "day": ("Sequential", ("morning", "work", "evening")),
    "morning": ("Abstract", ("m_coffee", "m_run", "m_read")),
    "work": ("Abstract", ("w_office", "w_remote", "w_meetings")),
    "w_meetings": ("Sequential", ("w_standup", "w_review")),
    "evening": ("Abstract", ("e_cook", "e_order", "e_visit", "e_rest")),
}
ROOT = "day"
VALUES = ("comfort", "health", "thrift")
TIMEPOINTS = ("dawn", "noon", "dusk", "night")

# The sweep's 2 x 2 x 2 = 8 runs. habitThreshold, which decides which
# steps are habitual, takes fixed values; the seed draws two values each
# of the learning rates, which change the logged views but not the
# decisions, so every seed does the same work.
SWEEP_THRESHOLDS = (0.4, 0.6)
SWEEP_DRAWN: tuple[tuple[str, tuple[float, ...]], ...] = (
    ("socialLearningRate", (0.1, 0.2, 0.3, 0.4, 0.5)),
    ("awarenessRate", (0.2, 0.3, 0.5, 0.7)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    ticks: int  # per scenario run
    agents: int  # per scenario run
    locations: int
    runs: int  # scenario runs per job
    setups_per_job: int  # set-ups timed before each job, for setup_s


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crowd", ticks=40, agents=48, locations=3, runs=1, setups_per_job=3),
        Workload("city", ticks=8, agents=400, locations=100, runs=1, setups_per_job=1),
        Workload("sweep", ticks=600, agents=2, locations=3, runs=8, setups_per_job=20),
    )
}


def synthetic_document(rng: random.Random, n_agents: int, n_locations: int) -> dict[str, Any]:
    """A scenario whose shape depends only on the counts; `rng` draws
    rates, budgets, priorities, value connections and habit seeds."""
    atomic = sorted(c for _, kids in TREE.values() for c in kids if c not in TREE)
    locations = [f"loc{i:03d}" for i in range(n_locations)]
    tools = [f"tool{i:03d}" for i in range(n_locations)]
    elements = [{"id": loc, "kind": "Location"} for loc in locations]
    elements += [{"id": tp, "kind": "Timepoint"} for tp in TIMEPOINTS]
    elements.append({"id": "tool", "kind": "Resource"})
    elements += [{"id": t, "kind": "Resource", "parent": "tool"} for t in tools]
    activities = [{"id": a, "type": TREE[a][0]} for a in TREE]
    activities += [{"id": a, "type": "Atomic"} for a in atomic]
    connections = [
        {"child": c, "parent": p, "relation": "IsA" if kind == "Abstract" else "PartOf"}
        for p, (kind, kids) in TREE.items()
        for c in kids
    ]
    agents = [
        {
            "id": f"ag{i:03d}",
            "habitRate": grid_value(rng, 1 / 64, 0.3),
            "attentionBudget": rng.randint(1, 2),
            "location": locations[i % n_locations],  # round-robin
        }
        for i in range(n_agents)
    ]
    priorities = [
        {"agent": ag["id"], "value": v, "strength": (p := grid_value(rng, 1 / 64, 0.25)),
         "personalView": p}
        for ag in agents
        for v in VALUES
    ]
    value_connections = [
        {"agent": ag["id"], "activity": a, "value": v, "strength": (s := grid_value(rng)),
         "personalView": s}
        for ag in agents
        for a in atomic
        for v in VALUES
    ]
    habitual = []
    for ag in agents:
        cues = [ag["location"], *TIMEPOINTS, "tool"]
        for a, e in rng.sample([(a, e) for a in atomic for e in cues], 2):
            h = grid_value(rng)
            habitual.append({"agent": ag["id"], "activity": a, "contextElement": e,
                             "strength": h, "personalView": h})
    return {
        "contextElements": elements,
        "activities": activities,
        "activityConnections": connections,
        "values": list(VALUES),
        "agents": agents,
        "habitualConnections": habitual,
        "valuePriorities": priorities,
        "valueConnections": value_connections,
        "roots": [ROOT],
        "environment": {
            "timepoints": list(TIMEPOINTS),
            "placements": dict(zip(locations, ([t] for t in tools))),
            "relocations": [],
        },
        "globals": {"habitThreshold": 0.6, "decayRate": 0.01},
    }


def sweep_grid(rng: random.Random) -> list[tuple[str, list[float]]]:
    drawn = [(key, sorted(rng.sample(choices, 2))) for key, choices in SWEEP_DRAWN]
    return [("habitThreshold", list(SWEEP_THRESHOLDS)), *drawn]


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class JobError(Exception):
    """A job whose CLI call failed or whose logs are malformed."""


class Job:
    """One workload at one seed: its inputs on disk and the CLI call that
    runs them. Each `run()` overwrites the previous outputs."""

    def __init__(self, workload: Workload, seed: int, out: Path):
        self.workload = workload
        self.seed = seed
        self.out = out
        out.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        if workload.name == "sweep":
            self.scenario_path = COMMUTING
            grid = sweep_grid(rng)
            doc = json.loads(COMMUTING.read_text(encoding="utf-8"))
            first = {key: values[0] for key, values in grid}
            self.setup_document = {**doc, "globals": {**doc["globals"], **first}}
            params = [f"--param={k}={','.join(map(str, vs))}" for k, vs in grid]
            self.argv = ["sweep", "--scenario", str(COMMUTING), *params,
                         "--jobs", str(min(2, len(os.sched_getaffinity(0))))]
            self.run_dirs = [out / f"run_{i:03d}" for i in range(workload.runs)]
        else:
            self.setup_document = synthetic_document(rng, workload.agents, workload.locations)
            self.scenario_path = out / "scenario.json"
            self.scenario_path.write_text(json.dumps(self.setup_document), encoding="utf-8")
            self.argv = ["run", "--scenario", str(self.scenario_path)]
            self.run_dirs = [out]
        self.argv += ["--ticks", str(workload.ticks), "--seed", str(seed),
                      "--out", str(out), "--force"]

    def scenario_sha256(self) -> str:
        return _digest([self.scenario_path])

    def run(self) -> None:
        """The timed call: exactly what `sopra <argv>` does."""
        with redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        if code != 0:
            raise JobError(f"sopra {' '.join(self.argv)} exited with {code}")

    def setup(self) -> None:
        """Build, validate and initialise the first run's world, the way
        the CLI does before it simulates."""
        scenario = build_scenario(self.setup_document, check_refs=False)
        if validate_scenario(scenario):
            raise JobError("set-up document fails validation")
        World(scenario, self.seed, validate=False)

    def digests(self) -> dict[str, str]:
        """sha256 over every run's events.csv, and over every metrics.csv,
        in run order, after checking each log has one row per tick."""
        w = self.workload
        for d in self.run_dirs:
            events = (d / "events.csv").read_bytes()
            metrics = (d / "metrics.csv").read_bytes()
            if events.count(b"\n") != 1 + w.agents * w.ticks:
                raise JobError(f"{d / 'events.csv'}: wrong number of rows")
            if metrics.count(b"\n") != 1 + w.ticks:
                raise JobError(f"{d / 'metrics.csv'}: wrong number of rows")
        return {
            "events": _digest([d / "events.csv" for d in self.run_dirs]),
            "metrics": _digest([d / "metrics.csv" for d in self.run_dirs]),
        }


def load_pins() -> dict[str, Any]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pinned(pins: dict[str, Any], workload: str, seed: int, key: str) -> Any:
    """The pinned value for this workload and seed, or None if unpinned."""
    return pins.get(workload, {}).get(str(seed), {}).get(key)


def shape(job: Job) -> dict[str, Any]:
    """What the workload is made of: the counts the n^2 and k^3 terms
    scale with."""
    w = job.workload
    scenario = build_scenario(job.setup_document)
    idx = scenario.index
    groups = Counter(idx.agent_specs[ag].location for ag in idx.agent_ids)
    return {
        "agents": len(idx.agent_ids),
        "locations": sum(1 for ce in scenario.context_elements
                         if ce.kind is ElementKind.LOCATION),
        # agents at one location -> number of such locations
        "group_sizes": {str(k): n for k, n in sorted(Counter(groups.values()).items())},
        "activities": len(idx.activity_ids),
        "atomic": len(idx.atomic_ids),
        "tree_depth": _depth(scenario, scenario.roots[0]),
        "ticks": w.ticks,
        "runs": w.runs,
        "events": w.agents * w.ticks * w.runs,
    }


def _depth(scenario, node: str) -> int:
    kids = scenario.index.children(node)
    return 1 + max(_depth(scenario, c) for c in kids) if kids else 0


def kernel_loop(store_cls: type, rounds: int, seed: int) -> list[float]:
    """Pressure queries and strength updates on one habit store, with no
    engine around them: the code a compiled kernel replaces."""
    rng = random.Random(seed)
    # A synthetic element forest: 24 elements in chains of depth 1 to 3.
    parents = [None, 0, 1, None, 3, None, 5, 6, None, None, 9, None,
               11, 12, None, 14, None, None, 17, None, 19, 20, None, 22]
    chain_data: list[int] = []
    chain_start = [0]
    for e in range(len(parents)):
        node, chain = e, [e]
        while parents[node] is not None:
            node = parents[node]
            chain.append(node)
        chain_data.extend(chain)
        chain_start.append(len(chain_data))
    store = store_cls(chain_data, chain_start)
    n_acts = 16
    for _ in range(160):
        store.set_views(rng.randrange(n_acts), rng.randrange(len(parents)),
                        rng.random(), rng.random(), rng.random())
    acts = list(range(n_acts))
    out: list[float] = []
    for i in range(rounds):
        ctx = rng.sample(range(len(parents)), 5)
        out.append(max(store.pressures(acts, ctx, 0.5, 0)))
        store.habit_tick(i % n_acts, ctx, 0.1, 0.01, True)
        store.track_personal(0.3)
    return out


def checksum(values: list[float]) -> str:
    return hashlib.sha256(json.dumps([v.hex() for v in values]).encode()).hexdigest()
