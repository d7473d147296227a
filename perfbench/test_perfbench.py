"""Self-tests of the benchmark, at a tiny run length.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run
from sopra._kernel import get_backend
from workloads import WORKLOADS, JobError, checksum, kernel_loop

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "B")


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], ticks=3)


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def test_spec_names_the_workloads():
    assert NAMES == list(WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_path_reports_every_end_to_end_metric(name):
    bench = run.Bench(tiny(name), {})
    metrics = bench.end_to_end(bench.job(5), seconds=0)
    assert not bench.errors
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()
    }
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", NAMES)
def test_traced_path_reports_every_layer_metric_and_counts_repeat(name):
    runs = []
    for _ in range(2):
        bench = run.Bench(tiny(name), {})
        runs.append(bench.per_layer(bench.job(5), seconds=0))
        assert not bench.errors
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert expected == {k: unit for k, (_, unit) in runs[0].items()}
    counts = {k for k, (_, unit) in runs[0].items() if unit in COUNT_UNITS}
    counts.add("cognition.intentional_ratio")
    assert {k: runs[0][k] for k in counts} == {k: runs[1][k] for k in counts}
    assert runs[0]["learning.observe_calls"][0] > 0
    assert runs[0]["engine.snapshot_calls"][0] == tiny(name).agents * 3 * tiny(name).runs


@pytest.mark.parametrize("name", NAMES)
def test_traced_job_reproduces_untraced_logs(name):
    bench = run.Bench(tiny(name), {})
    job = bench.job(2)
    assert bench.attempt(job) is not None
    untraced = job.digests()
    assert bench.attempt(job, traced=True) is not None
    assert job.digests() == untraced
    assert bench.failed == 0


@pytest.mark.parametrize("name", NAMES)
def test_digest_check_fails_on_a_corrupted_log(name):
    bench = run.Bench(tiny(name), {})
    job = bench.job(0)
    assert bench.attempt(job) is not None
    events = job.run_dirs[-1] / "events.csv"
    data = bytearray(events.read_bytes())
    data[-3] ^= 1  # one flipped bit in the last row
    events.write_bytes(bytes(data))
    with pytest.raises(JobError):
        bench.check(job)


def test_mismatched_pins_fail_the_run(monkeypatch):
    name = NAMES[0]
    monkeypatch.setitem(WORKLOADS, name, tiny(name))
    wrong = {name: {"0": {"events": "0" * 64, "metrics": "0" * 64}}}
    monkeypatch.setattr(run, "load_pins", lambda: wrong)
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0"]) == 1


@pytest.mark.parametrize("seed", run.PINNED_SEEDS)
@pytest.mark.parametrize("name", NAMES)
def test_pinned_digests_hold_at_full_length(name, seed):
    bench = run.Bench(WORKLOADS[name], run.load_pins())
    assert bench.pinned_logs(seed) is not None
    assert bench.attempt(bench.job(seed)) is not None, bench.errors


@pytest.mark.parametrize("seed", run.PINNED_SEEDS)
def test_pinned_kernel_loop_checksum_holds(seed):
    want = run.load_pins()["kernel_loop"][str(seed)]["checksum"]
    assert checksum(kernel_loop(get_backend(), run.KERNEL_ROUNDS, seed)) == want
