"""Evaluation metrics, random baseline, and the replicated experiment harness.

Component estimates are unordered, so accuracy is the matched L1 error:
the best average L1 distance over pairings of estimated to true
components.  The harness draws data, runs the recovery pipeline, and
aggregates matched errors over replicates, with per-replicate seeds
derived from one master seed so whole reports are reproducible.
"""
from __future__ import annotations

import csv
import itertools
import json
import time
from dataclasses import dataclass, field, fields, replace
from typing import IO, NamedTuple, Sequence

import numpy as np

from . import rng
from .model import (
    DominatingMeasure,
    MixtureSpec,
    _scheme_name,
    json_fields,
    make_mixture,
    resolve_dominating,
)
from .recovery import RecoveryConfig, RecoveryError, recover_full
from .sampling import draw_tally

MAX_MATCH_SIZE = 8


def matched_l1_error(truth: Sequence[np.ndarray] | np.ndarray, est: Sequence[np.ndarray] | np.ndarray) -> float:
    """Min over pairings of the average L1 distance between components.

    Exhaustive over all m! pairings; m is capped at 8, far past the desk
    scale, because the factorial search is the point of simplicity here.
    """
    truth = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    est = np.atleast_2d(np.asarray(est, dtype=np.float64))
    if truth.shape != est.shape:
        raise ValueError(f"shape mismatch: truth {truth.shape} vs estimate {est.shape}")
    m = truth.shape[0]
    if m > MAX_MATCH_SIZE:
        raise ValueError(f"exhaustive matching supports at most {MAX_MATCH_SIZE} components")
    cost = np.abs(truth[:, None, :] - est[None, :, :]).sum(axis=2)
    best = min(
        sum(cost[i, perm[i]] for i in range(m))
        for perm in itertools.permutations(range(m))
    )
    return float(best) / m


class BaselineReport(NamedTuple):
    mean: float
    variance: float
    errors: np.ndarray


def random_baseline(truth: Sequence[np.ndarray] | np.ndarray, trials: int, seed: int) -> BaselineReport:
    """Matched L1 error of guessing as many simplex-uniform components
    as the truth has.

    truth is a nonempty (m, d) array of components.  Each trial draws m
    vectors uniformly from the probability simplex on d categories
    (normalized iid exponentials) and scores them against the truth;
    reports mean and plain variance across trials.
    """
    rng.check_count("trials", trials)
    truth = np.asarray(truth, dtype=np.float64)
    if truth.ndim != 2 or truth.size == 0:
        raise ValueError(f"truth must be a nonempty (m, d) array, got shape {truth.shape}")
    m, d = truth.shape
    base_seed = rng.derive_seed(seed, rng.TAG_BASELINE)
    errors = np.empty(trials)
    for trial in range(trials):
        draws = rng.exponentials(base_seed, trial, m * d).reshape(m, d)
        guess = draws / draws.sum(axis=1, keepdims=True)
        errors[trial] = matched_l1_error(truth, guess)
    return BaselineReport(float(errors.mean()), float(errors.var()), errors)


@dataclass(frozen=True)
class ExperimentConfig:
    """One row of the accuracy table: data scale plus recovery choices.

    group_size, n_groups and reps are integers >= 1 (not bools), and the
    replicate seeds seed .. seed + reps - 1 lie in [0, 2**64).  dominating
    is the experiment's one reference measure, checked here like
    RecoveryConfig's; the recovery config must leave its own dominating
    unset.  run_experiment returns the report; the caller writes it.
    """

    mixture: MixtureSpec
    group_size: int
    n_groups: int
    reps: int
    dominating: DominatingMeasure | str | None
    recovery: RecoveryConfig
    seed: int = 0

    def __post_init__(self):
        for name in ("group_size", "n_groups", "reps"):
            rng.check_count(name, getattr(self, name))
        if not rng.is_integer(self.seed) or not 0 <= self.seed <= 2**64 - int(self.reps):
            raise ValueError(f"seed must be an integer in [0, 2**64 - reps], got {self.seed!r}")
        resolve_dominating(self.dominating, 1, 0)
        if self.recovery.dominating is not None:
            # each replicate's recover_full resolves the top-level dominating
            raise ValueError(
                'recovery.dominating is not read; set the top-level "dominating" key instead'
            )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        obj = json.loads(text)
        unknown = sorted(set(obj) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown experiment config key {unknown[0]!r}")
        mix, group_size, n_groups, reps = json_fields(
            obj, "experiment config", "mixture", "group_size", "n_groups", "reps"
        )
        rec = dict(obj.get("recovery", {}))
        if "m" not in rec:
            raise ValueError('config needs recovery.m (e.g. "recovery": {"m": 3})')
        unknown = sorted(set(rec) - {f.name for f in fields(RecoveryConfig)})
        if unknown:
            raise ValueError(f"unknown recovery key {unknown[0]!r}")
        return cls(
            mixture=make_mixture(*json_fields(mix, "mixture", "weights", "components")),
            group_size=group_size,
            n_groups=n_groups,
            reps=reps,
            dominating=obj.get("dominating", "none"),
            recovery=RecoveryConfig(**rec),
            seed=obj.get("seed", 0),
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Per-rep matched errors and aggregates; failed reps carry None."""

    scheme: str
    n_groups: int
    group_size: int
    seed: int
    errors: list
    seconds: list
    failures: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    @property
    def mean(self) -> float:
        ok = [e for e in self.errors if e is not None]
        return float(np.mean(ok)) if ok else float("nan")

    @property
    def variance(self) -> float:
        ok = [e for e in self.errors if e is not None]
        return float(np.var(ok)) if ok else float("nan")

    @property
    def excluded(self) -> int:
        return len(self.failures)

    def to_json(self) -> str:
        return json.dumps(
            {
                "scheme": self.scheme,
                "n_groups": self.n_groups,
                "group_size": self.group_size,
                "seed": self.seed,
                "errors": self.errors,
                "seconds": self.seconds,
                "failures": self.failures,
                "mean": self.mean,
                "variance": self.variance,
                "excluded": self.excluded,
                "wall_clock": self.wall_clock,
                "config": self.config,
            },
            indent=2,
        )

    def write_csv(self, fh: IO[str]) -> None:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "n_groups", "rep", "error", "seconds"])
        for rep, (err, sec) in enumerate(zip(self.errors, self.seconds)):
            writer.writerow(
                [self.scheme, self.n_groups, rep, "nan" if err is None else repr(err), repr(sec)]
            )

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            if path.endswith(".csv"):
                self.write_csv(fh)
            else:
                fh.write(self.to_json() + "\n")


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Draw, recover, and score cfg.reps independent replicates.

    Replicate i runs entirely from seed cfg.seed + i: its dataset and
    any random reference measure.  Failed replicates are
    recorded with their stage message and excluded from the mean and
    variance; everything else about the report is deterministic.
    """
    errors: list = []
    seconds: list = []
    failures: list = []
    t_start = time.perf_counter()
    recovery = replace(cfg.recovery, dominating=cfg.dominating)
    for rep in range(cfg.reps):
        rep_seed = cfg.seed + rep
        t_rep = time.perf_counter()
        try:
            data = draw_tally(cfg.mixture, cfg.group_size, cfg.n_groups, rep_seed)
            result = recover_full(data, recovery, seed=rep_seed)
            err = matched_l1_error(cfg.mixture.components, result.components)
            errors.append(err)
        except (RecoveryError, ValueError) as exc:
            errors.append(None)
            failures.append({"rep": rep, "tag": str(exc)})
        seconds.append(time.perf_counter() - t_rep)
    scheme = _scheme_name(cfg.dominating)
    return ExperimentReport(
        scheme=scheme,
        # int(): the count rule accepts numpy integers, which json cannot write
        n_groups=int(cfg.n_groups),
        group_size=int(cfg.group_size),
        seed=int(cfg.seed),
        errors=errors,
        seconds=seconds,
        failures=failures,
        config={
            "mixture": json.loads(cfg.mixture.to_json()),
            "reps": int(cfg.reps),
            "recovery": cfg.recovery.echo() | {"dominating": scheme},
        },
        wall_clock=time.perf_counter() - t_start,
    )
