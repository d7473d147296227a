"""Command-line interface.

Exit codes: 0 success, 1 usage or I/O problems (including malformed
documents and overrides that are malformed or of the wrong kind), 2
scenario validation failures (an override out of its range included).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections.abc import Mapping
from pathlib import Path
from typing import Any, Iterable, Sequence

from ._gc import gc_paused
from .engine import World, events_csv, metrics_csv, write_text_atomic
from .errors import ScenarioError, UnknownIdError
from .hierarchy import atomic_leaves, propagate_value_connection
from .scenario import build_scenario
from .validate import validate_scenario


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """Ends a command with exit code `code`; the reason is already printed."""

    def __init__(self, code: int):
        super().__init__(code)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # validation failures, so remap to 1.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise _UsageError(message)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _load_document(path: str) -> dict[str, Any]:
    """The parsed scenario document at `path`. One that cannot be read or
    parsed, or is not an object, ends the command with exit code 1 and
    the problem on stderr."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:  # its message names the path
        raise _Exit(_fail(str(exc))) from None
    # Bad JSON or bad UTF-8 (both ValueError), or nesting deeper than the
    # parser's recursion limit.
    except (ValueError, RecursionError) as exc:
        raise _Exit(_fail(f"{path}: {exc}")) from None
    if not isinstance(doc, dict):
        raise _Exit(_fail(f"{path}: scenario document must be an object"))
    return doc


def _parse_override(token: str) -> tuple[str, Any]:
    key, sep, raw = token.partition("=")
    if not sep or not key:
        raise _UsageError(f"override must look like key=value, got {token!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _with_overrides(doc: dict[str, Any], overrides: Sequence[str]) -> dict[str, Any]:
    """`doc` with `overrides` merged into its globals; `doc` is not changed."""
    merged = dict(map(_parse_override, overrides))
    globals_ = doc.get("globals", {})
    # A `globals` that is not an object is left for the builder to report.
    if merged and isinstance(globals_, Mapping):
        doc = {**doc, "globals": {**globals_, **merged}}
    return doc


def _valid_scenario(doc: dict[str, Any], overrides: Sequence[str] = ()):
    """Build `doc` with `overrides` and validate it.

    A bad override or a document that cannot be built ends the command
    with exit code 1 and the problem on stderr; violations end it with
    exit code 2 and the report, one violation per line, on stdout."""
    try:
        scenario = build_scenario(_with_overrides(doc, overrides), check_refs=False)
    except (ScenarioError, _UsageError) as exc:
        raise _Exit(_fail(str(exc))) from None
    violations = validate_scenario(scenario)
    if violations:
        for v in violations:
            print(f"{v.kind.value}: {v.message}")
        raise _Exit(2)
    return scenario


def _cmd_validate(args) -> int:
    _valid_scenario(_load_document(args.scenario))
    print("OK")
    return 0


def _output_problem(paths: Iterable[Path], force: bool) -> str | None:
    """Why one of the output files `paths` cannot be written, if so: the
    nearest existing directory above it is a file, or (without `force`)
    the file exists."""
    for p in paths:
        for d in p.parents:
            if d.exists():
                if not d.is_dir():
                    return f"cannot write {p}: {d} is not a directory"
                break
        if not force and p.exists():
            return f"refusing to overwrite {p} (use --force)"
    return None


def _run_paths(out: Path) -> tuple[Path, Path]:
    return out / "events.csv", out / "metrics.csv"


def _write_run_outputs(out: Path, events: list, metrics: list, atomic_ids) -> None:
    events_path, metrics_path = _run_paths(out)
    out.mkdir(parents=True, exist_ok=True)
    write_text_atomic(events_csv(events), events_path)
    write_text_atomic(metrics_csv(metrics, atomic_ids), metrics_path)


def _cmd_run(args) -> int:
    if args.ticks < 0:
        return _fail("--ticks must be non-negative")
    scenario = _valid_scenario(_load_document(args.scenario), args.override)
    out = Path(args.out)
    problem = _output_problem(_run_paths(out), args.force)
    if problem:
        return _fail(problem)
    world = World(scenario, args.seed, validate=False)
    events, metrics = world.run(args.ticks)
    _write_run_outputs(out, events, metrics, scenario.index.atomic_ids)
    final_fraction = metrics[-1].habitual_fraction if metrics else 0.0
    print(
        f"ticks={args.ticks} agents={len(scenario.index.agent_ids)} "
        f"final_habitual_fraction={final_fraction:.6f}"
    )
    return 0


def _cmd_infer(args) -> int:
    scenario = _valid_scenario(_load_document(args.scenario))
    try:
        if args.op == "leaves":
            for leaf in sorted(atomic_leaves(args.activity, scenario)):
                print(leaf)
        else:
            if not args.value or not args.agent:
                return _fail("--op propagate needs --value and --agent")
            result = propagate_value_connection(args.agent, args.value, args.activity,
                                                scenario)
            print(f"{args.activity} {args.value} {result:.6f}")
    except UnknownIdError as exc:
        return _fail(str(exc))
    return 0


def _cmd_sweep(args) -> int:
    if args.ticks < 0:
        return _fail("--ticks must be non-negative")
    if args.jobs < 1:
        return _fail("--jobs must be at least 1")
    grid: list[tuple[str, list[str]]] = []
    for token in args.param:
        key, sep, raw = token.partition("=")
        if not sep or not key or not raw:
            return _fail(f"--param must look like name=v1,v2,..., got {token!r}")
        # A repeated name would override itself in every run, while
        # sweep.csv labels the runs with the first values.
        if any(key == name for name, _ in grid):
            return _fail(f"--param {key} is given more than once")
        grid.append((key, raw.split(",")))
    out = Path(args.out)
    sweep_path = out / "sweep.csv"
    names = [k for k, _ in grid]
    combos = list(itertools.product(*(vals for _, vals in grid)))
    # Read the document once, so every run starts from the same one. Build
    # and validate every run and check every output path before simulating
    # anything, so a sweep that fails there writes nothing. The runs then
    # go one at a time, in run order, and each is written as soon as it
    # ends, so only one run's logs are held at once: a failure while
    # simulating or writing leaves the earlier runs and no sweep.csv.
    doc = _load_document(args.scenario)
    scenarios = [
        _valid_scenario(doc, [f"{k}={v}" for k, v in zip(names, combo)])
        for combo in combos
    ]
    targets = [sweep_path] + [p for i in range(len(combos))
                              for p in _run_paths(out / f"run_{i:03d}")]
    problem = _output_problem(targets, args.force)
    if problem:
        return _fail(problem)

    rows = [",".join(["run"] + names + ["final_habitual_fraction", "final_mean_strength"])]
    for i, (combo, scenario) in enumerate(zip(combos, scenarios)):
        label = f"run_{i:03d}"
        events, metrics = World(scenario, args.seed, validate=False).run(args.ticks)
        _write_run_outputs(out / label, events, metrics, scenario.index.atomic_ids)
        fraction = metrics[-1].habitual_fraction if metrics else 0.0
        strength = metrics[-1].mean_strength if metrics else 0.0
        rows.append(",".join([label, *combo, f"{fraction:.6f}", f"{strength:.6f}"]))
        del events, metrics
    out.mkdir(parents=True, exist_ok=True)
    write_text_atomic("\n".join(rows) + "\n", sweep_path)
    print(f"runs={len(combos)} out={out}")
    return 0


# Built once per process: parsing leaves the parser as it was, and each
# build leaves a few hundred objects of cyclic garbage.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="sopra", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario document")
    p.add_argument("scenario")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("run", help="simulate and write event/metrics CSVs")
    p.add_argument("--scenario", required=True)
    p.add_argument("--ticks", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="./out")
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                   help="override a globals entry (repeatable)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("infer", help="query the activity hierarchy")
    p.add_argument("--scenario", required=True)
    p.add_argument("--op", choices=("leaves", "propagate"), required=True)
    p.add_argument("--activity", required=True)
    p.add_argument("--value")
    p.add_argument("--agent")
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("sweep", help="run a cartesian grid of overrides")
    p.add_argument("--scenario", required=True)
    p.add_argument("--ticks", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="./out")
    p.add_argument("--param", action="append", default=[], metavar="NAME=V1,V2",
                   help="values to sweep for one globals entry (repeatable)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored (must be at least 1): runs go one at "
                        "a time, in run order")
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # A command's documents, scenarios, worlds and logs all live until it
    # ends, so it runs with the cyclic collector paused (see sopra._gc).
    with gc_paused():
        try:
            args = _build_parser().parse_args(argv)
            return args.fn(args)
        except _UsageError:
            return 1
        except _Exit as exc:
            return exc.code
        except OSError as exc:  # writing outputs; reading is reported by _load_document
            return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
