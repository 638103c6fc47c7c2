"""Pipeline benchmark: one specmix replicate, end to end and layer by layer.

Run from the repository root.  One workload, as `BENCHMARK.json` runs it:

    python3 perfbench/run.py --workload blend-1e7 --seed 0 --seconds 20 --trace 0

Every workload, each in its own process, with a summary table:

    python3 perfbench/run.py --all --seed 0 --seconds 20 [--trace 1] [--out FILE]

With --trace 0 a run reports the end-to-end metrics (replicate_s, setup_s,
peak_rss_mb); with --trace 1 it reports the per-layer metrics of a traced
replay instead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the line before it,
starting with "stamp: ", records the code and environment the run measured.
A run whose replicates fail or miss the workload's accuracy window prints
correct=false and no metrics, and exits with status 1.

The benchmark imports specmix from the src/ directory next to perfbench/,
never from an installed copy, and exits with status 2 when it is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Runs are comparable only at one BLAS thread count: a 1000x1000 eigh took
# 0.15 s with 2 threads and 0.23 s with 1.  Two matches the 2-core machine
# the baselines were measured on.
BLAS_THREADS = "2"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh processes timed per run for setup_s; one import varied from 0.085
# to 0.18 s, so the median of several is reported.
SETUP_SAMPLES = 9
PROBE_TIMEOUT_S = 60


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload: str) -> list:
    probe = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload]
    return [
        float(subprocess.run(probe, check=True, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S).stdout)
        for _ in range(SETUP_SAMPLES)
    ]


def stamp(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np

    import specmix

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "backend": specmix.BACKEND,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "workload": workload.stamp() | {"seed": seed},
        "seconds": seconds,
        "trace": trace,
    }


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup = None if trace else setup_seconds(name)
    mixture = workload.build_mixture()
    problems = harness.warm_up(workload, mixture, seed)
    loop = harness.traced_run if trace else harness.timed_run
    run = loop(workload, mixture, seed, seconds)
    problems += run.check(workload)

    print(f"workload {name}: d={workload.d} m={workload.m} k={workload.k} n={workload.n} "
          f"path={workload.path} seed={seed}; {run.attempted} replicates, {run.failures} failed, "
          f"mean matched-L1 error {run.mean_l1:.6g} (window <= {workload.max_l1:g})")
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    metrics = {}
    if not problems:
        if trace:
            metrics = harness.metrics(run, harness.PER_LAYER)
        else:
            run.add("setup_s", statistics.median(setup))
            run.add("peak_rss_mb", harness.peak_rss_mb())
            metrics = harness.metrics(run, harness.END_TO_END)
        for key, m in metrics.items():
            print(f"  {key:30s} {m['value']!r:>24} {m['unit']}")
    print("stamp: " + json.dumps(stamp(workload, seed, seconds, trace)))
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failures,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def run_all(names: list, seed: int, seconds: float, trace: int, out: str | None) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    summary = {}
    status = 0
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            status = 1
        try:
            result = json.loads(lines[-1])
            run_stamp = json.loads(next(line for line in lines if line.startswith("stamp: "))[7:])
        except (IndexError, StopIteration, json.JSONDecodeError):
            result, run_stamp = None, None
            status = 1
        summary[name] = {"stamp": run_stamp, "result": result}

    print(f"\n{'workload':16s} {'metric':30s} {'value':>14s} unit")
    for name, entry in summary.items():
        result = entry["result"]
        if not result or not result["correct"]:
            print(f"{name:16s} FAILED")
            continue
        for key, m in result["metrics"].items():
            print(f"{name:16s} {key:30s} {m['value']:14.6g} {m['unit']}")
    if out:
        Path(out).write_text(json.dumps(summary, indent=2) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true", help="run every workload, one process each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write the stamps and results here as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    if not (SRC / "specmix" / "__init__.py").is_file():
        print(f"error: no specmix sources at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import specmix

    if Path(specmix.__file__).resolve().parent != SRC / "specmix":
        print(f"error: imported specmix from {specmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.all:
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace, args.out)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
