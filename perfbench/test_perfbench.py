"""Smoke tests of the pipeline benchmark at reduced data sizes.

Run from the repository root:  python3 -m pytest perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

sys.path.insert(0, str(run.SRC))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Reduced sizes keep each workload on its full-size moment path; the
# accuracy windows are widened to match the smaller samples.
SMOKE = {
    "blend-1e7": dict(n=100_000, max_l1=0.1),
    "moment-d6m4": dict(n=10_000, max_l1=0.1),
    "spectral-d12m3": dict(n=4_000, max_l1=0.3),
}


def smoke(name, **changes):
    return replace(workloads.WORKLOADS[name], **(SMOKE[name] | changes))


def run_reduced(monkeypatch, capsys, workload, trace):
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    status = run.run_one(workload.name, seed=3, seconds=0, trace=trace)
    lines = capsys.readouterr().out.splitlines()
    stamp = json.loads(next(line for line in lines if line.startswith("stamp: "))[7:])
    return status, stamp, json.loads(lines[-1])


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == harness.PER_LAYER


@pytest.mark.parametrize("name", list(SMOKE))
def test_full_size_path_is_kept(name):
    assert smoke(name).path == workloads.WORKLOADS[name].path


@pytest.mark.parametrize("name", list(SMOKE))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_schema(monkeypatch, capsys, name, trace):
    workload = smoke(name)
    status, stamp, result = run_reduced(monkeypatch, capsys, workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [(m["name"], m["unit"]) for m in expected]
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.replay_exact"]["value"] == 1
        assert result["metrics"]["estimation.path"]["value"] == int(workload.path == "tally")
        assert result["metrics"]["tensors.eigh_max_dim"]["value"] == workload.d**workload.m
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert stamp["workload"] == workload.stamp() | {"seed": 3}
    assert {"git_sha", "backend", "numpy", "blas_threads", "nproc"} <= set(stamp)


def test_accuracy_window_fails_the_run(monkeypatch, capsys):
    status, _, result = run_reduced(monkeypatch, capsys, smoke("spectral-d12m3", max_l1=1e-9), 0)
    assert status == 1
    assert result["correct"] is False and result["metrics"] == {}


def test_failed_replicates_fail_the_run(monkeypatch, capsys):
    # A reference measure on the wrong number of categories makes every
    # replicate raise inside recover_full.
    status, _, result = run_reduced(monkeypatch, capsys, smoke("spectral-d12m3", dominating="fixed:2,1"), 0)
    assert status == 1
    assert result["correct"] is False and result["metrics"] == {}
    assert result["failed"] == result["attempted"] >= 1


def test_exits_nonzero_without_sources(tmp_path):
    # The benchmark alone, without the library it measures.
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in run.HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral-d12m3", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
