"""Timed and traced replicate loops.

An untimed warm-up replicate runs first: the first `eigh` on a pipeline
matrix took 0.66 s where later ones took 0.03 s, and the spectral layers
must be timed on the pipeline's own matrices, which no synthetic warm-up
reproduces.  Replicate i then runs from seed `seed + i`, as
`run_experiment` seeds its replicates, until the run's seconds are used.

The timed loop calls `run_experiment` with reps=1, the path `specmix
experiment` takes, and times it from outside.  The traced loop replays the
stages of `recover_full` through public functions and times each one; see
`traced_replicate`.
"""
from __future__ import annotations

import contextlib
import math
import resource
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

import specmix as sp
from specmix import kernels
from specmix.experiments import run_experiment

from workloads import Workload

# (name, unit) of every metric the benchmark reports, in report order.
END_TO_END = [
    ("replicate_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PER_LAYER = [
    ("sampling.draw_s", "s"),
    ("sampling.draws", "count"),
    ("sampling.groups_bytes", "bytes"),
    ("kernels.sample_s", "s"),
    ("sampling.tally_s", "s"),
    ("kernels.keys_s", "s"),
    ("sampling.distinct_tallies", "count"),
    ("estimation.path", "flag"),
    ("estimation.cells", "count"),
    ("estimation.c_hat_s", "s"),
    ("estimation.q_hat_s", "s"),
    ("estimation.e_hat_s", "s"),
    ("tensors.whiten_s", "s"),
    ("tensors.eigh_calls", "count"),
    ("tensors.eigh_max_dim", "count"),
    ("tensors.eig_tt_s", "s"),
    ("recovery.t_hat_s", "s"),
    ("recovery.weights_s", "s"),
    ("recovery.recover_full_s", "s"),
    ("recovery.unattributed_s", "s"),
    ("experiments.score_s", "s"),
    ("experiments.mean_l1_error", "l1"),
    ("experiments.failed_reps_frac", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.replay_exact", "flag"),
]

# Stages of recover_full that the replay times; recovery.unattributed_s is
# recover_full's time minus their sum.
REPLAYED = [
    "sampling.tally_s",
    "estimation.c_hat_s",
    "tensors.whiten_s",
    "estimation.q_hat_s",
    "recovery.t_hat_s",
    "tensors.eig_tt_s",
    "estimation.e_hat_s",
    "recovery.weights_s",
]


@dataclass
class Run:
    """What a run measured: errors and failures of every scored replicate,
    plus the values each metric takes over the replicates."""

    errors: list = field(default_factory=list)
    failures: int = 0
    samples: dict = field(default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def score(self, report: sp.ExperimentReport) -> None:
        self.failures += report.excluded
        self.errors.extend(e for e in report.errors if e is not None)

    @property
    def attempted(self) -> int:
        return len(self.errors) + self.failures

    @property
    def mean_l1(self) -> float:
        return float(np.mean(self.errors)) if self.errors else math.nan

    def check(self, workload: Workload) -> list:
        """Why this run's output is wrong; empty when it passed."""
        problems = []
        if self.failures:
            problems.append(f"{self.failures} of {self.attempted} replicates failed")
        if not all(math.isfinite(e) for e in self.errors):
            problems.append("non-finite matched-L1 error")
        elif not self.mean_l1 <= workload.max_l1:
            problems.append(f"mean matched-L1 error {self.mean_l1:.4g} above {workload.max_l1:g}")
        return problems


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def warm_up(workload: Workload, mixture: sp.MixtureSpec, seed: int) -> list:
    """Run one untimed replicate; returns its problems, if any."""
    run = Run()
    run.score(run_experiment(workload.config(mixture, seed)))
    return run.check(workload)


def timed_run(workload: Workload, mixture: sp.MixtureSpec, seed: int, seconds: float) -> Run:
    """Back-to-back replicates, each timed from outside `run_experiment`,
    for at least `seconds` and at least one replicate."""
    run = Run()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        cfg = workload.config(mixture, seed + i)
        t0 = time.perf_counter()
        report = run_experiment(cfg)
        run.add("replicate_s", time.perf_counter() - t0)
        run.score(report)
        i += 1
    return run


@contextlib.contextmanager
def _patched(owner, name: str, wrapper):
    """Temporarily replace owner.name with wrapper(original)."""
    original = getattr(owner, name)
    setattr(owner, name, wrapper(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _timing(total: dict, key: str):
    def wrap(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total[key] = total.get(key, 0.0) + time.perf_counter() - t0

        return timed

    return wrap


def _eigh_counting(stats: dict):
    def wrap(fn):
        def counted(a, *args, **kwargs):
            stats["tensors.eigh_calls"] += 1
            stats["tensors.eigh_max_dim"] = max(stats["tensors.eigh_max_dim"], a.shape[0])
            return fn(a, *args, **kwargs)

        return counted

    return wrap


def _cells(workload: Workload, distinct: int) -> int:
    """Cells the three moment passes touch: distinct tallies x d^r x d on
    the tally path, groups x ordered position r-tuples on the raw path."""
    d, m, k, n = workload.d, workload.m, workload.k, workload.n
    orders = (2 * m - 2, 2 * m - 1, m - 1)
    if workload.path == "tally":
        return sum(distinct * d**r * d for r in orders)
    return sum(n * math.perm(k, r) for r in orders)


def traced_replicate(workload: Workload, mixture: sp.MixtureSpec, seed: int) -> tuple:
    """One replicate with each layer timed, plus a replay of recover_full.

    The draw, `recover_full` and the score are timed directly.  Then the
    stages of `recover_full` are replayed one public call at a time on the
    same data.  Returns (matched-L1 error, per-layer values, time of the
    direct calls, whether the replay reproduced recover_full's outputs
    exactly).  Stage times from a replay that is not exact describe other
    code than `recover_full` runs and should not be quoted.
    """
    cfg = workload.config(mixture, seed)
    out: dict = {}
    xi = sp.resolve_dominating(cfg.dominating, workload.d, seed)
    config = replace(cfg.recovery, dominating=xi)

    t0 = time.perf_counter()
    with _patched(kernels, "sample_groups", _timing(out, "kernels.sample_s")):
        data = sp.draw_groups(mixture, workload.k, workload.n, seed)
    t1 = time.perf_counter()
    eigh = {"tensors.eigh_calls": 0, "tensors.eigh_max_dim": 0}
    with _patched(np.linalg, "eigh", _eigh_counting(eigh)):
        result = sp.recover_full(data, config, seed=seed)
    t2 = time.perf_counter()
    err = sp.matched_l1_error(mixture.components, result.components)
    t3 = time.perf_counter()
    out.update(eigh)
    out["sampling.draw_s"] = t1 - t0
    out["recovery.recover_full_s"] = t2 - t1
    out["experiments.score_s"] = t3 - t2
    out["sampling.draws"] = workload.n * workload.k
    out["sampling.groups_bytes"] = data.groups.nbytes

    def stage(name, fn, *args):
        t = time.perf_counter()
        value = fn(*args)
        out[name] = time.perf_counter() - t
        return value

    tally_path = workload.path == "tally"
    if tally_path:
        with _patched(kernels, "group_keys", _timing(out, "kernels.keys_s")):
            source = stage("sampling.tally_s", sp.tally, data)
        distinct = len(source.counts)
    else:
        source = data
        out["sampling.tally_s"] = out["kernels.keys_s"] = 0.0
        distinct = len(sp.tally(data).counts)
    out["sampling.distinct_tallies"] = distinct
    out["estimation.path"] = int(tally_path)
    out["estimation.cells"] = _cells(workload, distinct)

    m = workload.m
    b = None if xi is None else sp.b_map(xi)
    c_hat = stage("estimation.c_hat_s", sp.build_c_hat, source, m, b)

    def spectrum_and_whitener():
        return sp.sym_eig(c_hat).eigenvalues, sp.whiten(c_hat, m, config.eig_floor)

    spectrum, w = stage("tensors.whiten_s", spectrum_and_whitener)
    q = stage("estimation.q_hat_s", sp.empirical_sym_moment, source, 2 * m - 1, b)
    t_hat = stage("recovery.t_hat_s", sp.build_t_hat, q, w)
    dec = stage("tensors.eig_tt_s", lambda: sp.sym_eig(t_hat @ t_hat.T))
    e = stage("estimation.e_hat_s", sp.build_e_hat, source, m)
    weights = stage("recovery.weights_s", sp.recover_weights, e, result.components, config.weight_solver)
    out["recovery.unattributed_s"] = out["recovery.recover_full_s"] - sum(out[k] for k in REPLAYED)

    diag = result.diagnostics
    exact = (
        spectrum.tolist() == diag["whitening_spectrum"]
        and dec.eigenvalues.tolist() == diag["tt_eigenvalues"]
        and np.array_equal(weights.weights, result.weights)
        and weights.residual == diag["weight_residual"]
        and weights.gram_condition == diag["gram_condition"]
    )
    return err, out, t3 - t0, exact


def traced_run(workload: Workload, mixture: sp.MixtureSpec, seed: int, seconds: float) -> Run:
    """Pairs of a plain replicate and a traced one on the same seed.

    trace.overhead_s is the median, over pairs, of the traced replicate's
    direct calls (draw, recover_full, score) minus the plain replicate.
    A seed whose plain replicate failed is not traced; the failure counts.
    """
    run = Run()
    start = time.perf_counter()
    exact = True
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        cfg = workload.config(mixture, seed + i)
        t0 = time.perf_counter()
        report = run_experiment(cfg)
        plain = time.perf_counter() - t0
        run.score(report)
        i += 1
        if report.excluded:
            continue
        err, layers, direct, replay_exact = traced_replicate(workload, mixture, cfg.seed)
        run.errors.append(err)
        exact = exact and replay_exact
        for name, value in layers.items():
            run.add(name, value)
        run.add("trace.overhead_s", direct - plain)
    run.add("experiments.mean_l1_error", run.mean_l1)
    run.add("experiments.failed_reps_frac", run.failures / run.attempted)
    run.add("trace.replay_exact", int(exact))
    return run


def metrics(run: Run, names: list) -> dict:
    """Median of each metric's samples, with its unit."""
    return {
        name: {"value": statistics.median(run.samples[name]), "unit": unit}
        for name, unit in names
    }
