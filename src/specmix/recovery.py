"""Spectral recovery of mixture components and weights from grouped data.

Pipeline for a target component count m, whitened at order c: c = m for
recover_full, which assumes nothing of the components, and c = min(m, 2)
for li_recover, which needs them linearly independent.

1. Rescale coordinates by B = diag(b), b = 1/sqrt(y) the scale vector of
   a reference measure y chosen so the rescaled components have distinct
   Euclidean norms.  Moments are plain (d,)*r arrays of scaled draws.
2. Whiten: from the order-(2c-2) moment form C, build W = C^{-1/2} on
   its top-m eigenspace; W maps the weighted (c-1)-fold component powers
   to an orthonormal family once those powers are linearly independent.
3. Apply I (x) W (x) W to the order-(2c-1) moment and flatten to a
   d^c x d^{c-1} matrix T; the top m eigenvectors of T T^T are, up to
   sign, the rescaled components tensored with their whitened powers.
4. Fold each eigenvector to a d x d^{c-1} map; that map has rank one in
   population, so its top left singular vector is the rescaled
   component (on data, the best rank-1 fit).  Divide by b, fix sign,
   clip stray negatives, normalize.
5. Fit weights by least squares against the order-(c-1) moment in the
   original coordinates, then clip negative weights and renormalize.

The pipeline is fixed; a caller chooses only m, the reference measure
and the whitening floor eig_floor.  m = 1 skips it: the component is the
mean.  A rank-based estimator of the number of components is included.
"""
from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple, Sequence

import numpy as np

from . import rng
from .estimation import _multiset_values, build_c_hat, moment, moment_source
from .model import (
    DominatingMeasure,
    MixtureSpec,
    _finite_vector,
    b_map,
    check_distinct_norms,
    describe_dominating,
    resolve_dominating,
)
from .sampling import GroupedDataset, GroupTallyHistogram
from .tensors import _sym_unfolding, eig_sqrt_pinv, numerical_rank, outer_power, sym_eig


class RecoveryError(RuntimeError):
    """A pipeline stage failed; the message names the stage."""


@dataclass(frozen=True)
class RecoveryConfig:
    """The settings of recover_full.

    dominating is a DominatingMeasure, None (identity rescaling), or a
    descriptor string in the grammar of model.resolve_dominating, stored
    as model.describe_dominating writes it: None or a descriptor.  Random
    schemes are resolved from the run seed.  A malformed descriptor is a
    ValueError here, before any data is drawn; its size is checked
    against the data's when recover_full runs.  probe accepts only
    "singular": each folded eigenvector is contracted to its top left
    singular vector.  m is an integer >= 1, not a bool.  eig_floor is the
    whitening floor relative to the largest eigenvalue of the moment form,
    in (0, 1); lower it when components are nearly coincident (see README).

    Components are always clipped at zero and weights always solved by
    clip-and-renormalize; the two class constants name those fixed
    choices in echo().
    """

    m: int
    dominating: DominatingMeasure | str | None = None
    probe: str = "singular"  # kept only for perfbench, which passes it; ROADMAP item 1(b) can drop it.
    eig_floor: float = 1e-8
    clip_negatives: ClassVar[bool] = True
    weight_solver: ClassVar[str] = "clip-renormalize"

    def __post_init__(self):
        rng.check_count("m", self.m)
        if self.probe != "singular":
            raise ValueError(f"unknown probe {self.probe!r}; the only probe is 'singular'")
        if not (rng.is_real(self.eig_floor, 0.0, 1.0) and self.eig_floor > 0):
            raise ValueError(f"eig_floor must be a number in (0, 1), got {self.eig_floor!r}")
        object.__setattr__(self, "dominating", describe_dominating(self.dominating))

    def echo(self) -> dict:
        return {
            "m": int(self.m),
            "dominating": self.dominating,
            "probe": self.probe,
            "clip_negatives": self.clip_negatives,
            "eig_floor": float(self.eig_floor),
            "weight_solver": self.weight_solver,
        }


@dataclass(frozen=True)
class RecoveryResult:
    """Recovered components (rows), weights, and per-stage diagnostics."""

    components: np.ndarray
    weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.components.shape[0]

    def to_json(self) -> str:
        return json.dumps(
            {
                "components": self.components.tolist(),
                "weights": self.weights.tolist(),
                "diagnostics": self.diagnostics,
            }
        )


class WeightSolution(NamedTuple):
    weights: np.ndarray
    residual: float
    gram_condition: float


def whiten(c_hat: np.ndarray, m: int, eig_floor: float = 1e-8) -> np.ndarray:
    """Inverse square root of the moment form on its top-m eigenspace."""
    rng.check_count("m", m)
    return eig_sqrt_pinv(sym_eig(c_hat), m, eig_floor)


def build_t_hat(q_hat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Flatten (I (x) W (x) W) q_hat to a d^m x d^{m-1} matrix.

    Rows index the leading m tensor axes, columns the trailing m-1; the
    population version of T T^T has the scaled rescaled components as
    its top m eigenvectors.
    """
    q = np.asarray(q_hat, dtype=np.float64)
    if q.ndim % 2 != 1:
        raise ValueError(f"expected an odd-order tensor, got order {q.ndim}")
    m = (q.ndim + 1) // 2
    d = q.shape[0]
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (d ** (m - 1), d ** (m - 1)):
        raise ValueError(f"whitener shape {w.shape} does not match d={d}, m={m}")
    a = q.reshape(d, d ** (m - 1), d ** (m - 1))
    a = np.moveaxis(np.tensordot(w, a, axes=(1, 1)), 0, 1)
    a = np.moveaxis(np.tensordot(w, a, axes=(1, 2)), 0, 2)
    return a.reshape(d**m, d ** (m - 1))


def _finalize_components(eigenvectors: np.ndarray, d: int, b: np.ndarray | None) -> np.ndarray:
    """Contract each eigenvector, folded to a d x (cols) map, to its top
    left singular vector; sign-then-normalize makes the output invariant
    to eigenvector sign flips."""
    rows = []
    for i in range(eigenvectors.shape[1]):
        u = np.linalg.svd(eigenvectors[:, i].reshape(d, -1), full_matrices=False)[0][:, 0]
        if b is not None:
            u = (1.0 / b) * u
        if u.sum() < 0.0:
            u = -u
        u = np.maximum(u, 0.0)
        total = u.sum()
        if total <= 0.0:
            raise RecoveryError(f"component {i} vanished after sign correction and clipping")
        rows.append(u / total)
    return np.vstack(rows)


def recover_weights(
    e_hat: np.ndarray,
    components: Sequence[np.ndarray] | np.ndarray,
    solver: str = RecoveryConfig.weight_solver,
) -> WeightSolution:
    """Least-squares mixture weights against the order-r moment.

    Solves the Gram system of the component r-fold powers (pseudo-
    inverse if nearly singular, with the condition number reported),
    then clips negative weights and renormalizes.  The residual is the
    Frobenius misfit of the returned weights.  components must be a
    nonempty (m, d) array of finite real numbers and e_hat a finite
    (d,)*r array, r >= 1; anything else is a ValueError naming it.  A
    solve with no positive weight, or none that is finite, is a
    RecoveryError; for one component, that is one orthogonal to e_hat.
    """
    # solver is kept only for perfbench, which passes config.weight_solver;
    # ROADMAP item 1(b) can drop it.
    if solver != RecoveryConfig.weight_solver:
        raise ValueError(f"unknown weight solver {solver!r}")
    comp = _finite_vector(components, "components", 2)
    e = np.asarray(e_hat, dtype=np.float64)
    r = e.ndim
    if r == 0 or e.shape != (comp.shape[1],) * r or not np.isfinite(e).all():
        raise ValueError(f"e_hat must be a finite (d,)*r array for the components' d = {comp.shape[1]}, got shape {e.shape}")
    gram = (comp @ comp.T) ** r
    rhs = np.array([float(np.tensordot(e, outer_power(p, r), axes=r)) for p in comp])
    cond = float(np.linalg.cond(gram))
    alpha, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    weights = np.maximum(alpha, 0.0)
    total = weights.sum()
    if not total > 0.0:  # NaN fails too
        raise RecoveryError("weight solve produced no positive mass from e_hat and components")
    weights /= total
    return WeightSolution(weights, _weight_residual(e, comp, weights, r), cond)


def _weight_residual(e: np.ndarray, comp: np.ndarray, weights: np.ndarray, r: int) -> float:
    """Frobenius norm of e minus sum_i weights[i] comp[i]^{(x) r}, summed densely in index order."""
    fit = np.zeros((comp.shape[1],) * r)
    for w, p in zip(weights, comp):
        fit += w * outer_power(p, r)
    return float(np.linalg.norm((e - fit).ravel()))


def _check_fits(shape: str, entries: int, copies: int) -> None:
    """MemoryError if copies dense float64 arrays of the given number of
    entries, shape as the message names it, exceed physical memory
    (unchecked without os.sysconf).

    copies is what the stage that needs such an array holds at once:
    its peak RSS above the level before the call, in units of 8 * entries
    bytes, measured at 1.7e6 to 3.7e6 entries (Linux x86-64, numpy with
    OpenBLAS) and rounded up.
    """
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    need = copies * 8 * entries
    if 0 < physical < need:
        raise MemoryError(f"{copies} dense {shape} arrays need {need} bytes; physical memory is {physical}")


def _check_scale(b: np.ndarray, order: int, dominating: str) -> None:
    """ValueError naming the reference measure by its descriptor unless
    the largest entry of outer_power(b, order), the scale of the highest
    moment, is finite."""
    peak = top = float(b.max())
    for _ in range(order - 1):  # the products outer_power forms, in its order
        top *= peak
    if not np.isfinite(top):
        raise ValueError(
            f"reference measure {dominating!r} scales the order-{order} moment by {peak:.3g}**{order}, "
            "which overflows; raise its smallest mass"
        )


def _check_norms(mix: MixtureSpec, xi: DominatingMeasure | None) -> None:
    """RecoveryError unless the component norms rescaled by xi, or the
    Euclidean norms for None, are pairwise distinct."""
    sep = check_distinct_norms(mix, xi if xi is not None else DominatingMeasure(np.ones(mix.d)))
    if not sep.distinct:
        rescaled = "" if xi is None else "rescaled "
        raise RecoveryError(f"{rescaled}component norms separate by only {sep.min_gap:.3g}")


@contextmanager
def _stage(name: str):
    """Turn any failure inside the block into a RecoveryError naming the stage."""
    try:
        yield
    except RecoveryError:
        raise
    except Exception as exc:
        raise RecoveryError(f"stage {name!r} failed: {exc}") from exc


def _odd_operator(data, c: int, b: np.ndarray | None, w: np.ndarray) -> np.ndarray:
    """T T^T for T from the order-(2c-1) moment under b."""
    t_hat = build_t_hat(moment(data, 2 * c - 1, b), w)
    return t_hat @ t_hat.T


def _setup(data, config: RecoveryConfig, seed: int, c: int) -> tuple:
    """Check the run before any moment is formed; return the moment
    source and the scale vector b (None without a reference measure)."""
    m = config.m
    with _stage("setup"):
        rng.check_seed(seed)
        data = moment_source(data, 2 * c - 1)
        xi = resolve_dominating(config.dominating, data.d, seed)
        if xi is not None and xi.d != data.d:
            raise ValueError(f"reference measure has {xi.d} categories, the data has {data.d}")
        b = None if xi is None else b_map(xi)
        if b is not None:
            _check_scale(b, 2 * c - 1, config.dominating)
        if m > 1:
            # the d^c x d^c operator, T, the moment and eigh's copy, workspace and eigenvectors: 5.1-5.4 copies
            _check_fits(f"{data.d}^{2 * c}", data.d ** (2 * c), 6)
    if m > 1 and isinstance(data, MixtureSpec):
        with _stage("dominating-measure check"):
            _check_norms(data, xi)
    return data, b


def _run_stages(data, config: RecoveryConfig, b: np.ndarray | None, c: int, extra: dict) -> RecoveryResult:
    """The staged pipeline behind recover_full and li_recover, whitened
    at order c.

    data is a moment source already checked by _setup.  C is
    build_c_hat(data, c, b), whitened to rank m; the top m eigenvectors
    of the odd-moment operator are contracted to components, and the
    weights are fit against the order-(c-1) moment.  m = 1 is the mean.
    m and the whitening floor come from config; extra is appended to the
    diagnostics.
    """
    m = config.m
    if m == 1:
        with _stage("mean"):
            mean = moment(data, 1)
            comps = np.atleast_2d(np.maximum(mean, 0.0))
            comps /= comps.sum()
        fit = WeightSolution(np.array([1.0]), 0.0, 1.0)
        tt_eigenvalues, spectrum = [float(np.dot(mean, mean))], [1.0]
    else:
        with _stage("second-moment form"):
            c_dec = sym_eig(build_c_hat(data, c, b))
        with _stage("whitening"):
            w = eig_sqrt_pinv(c_dec, m, config.eig_floor)
        with _stage("odd-moment operator"):
            op = _odd_operator(data, c, b, w)
        with _stage("component extraction"):
            dec = sym_eig(op)
            comps = _finalize_components(dec.eigenvectors[:, :m], data.d, b)
        with _stage("weight estimation"):
            fit = recover_weights(moment(data, c - 1), comps)
        tt_eigenvalues, spectrum = dec.eigenvalues.tolist(), c_dec.eigenvalues.tolist()
    return RecoveryResult(
        comps,
        fit.weights,
        {
            "tt_eigenvalues": tt_eigenvalues,
            "whitening_spectrum": spectrum,
            "weight_residual": fit.residual,
            "gram_condition": fit.gram_condition,
            **extra,
        },
    )


def recover_full(
    data: GroupedDataset | GroupTallyHistogram | MixtureSpec,
    config: RecoveryConfig,
    seed: int = 0,
) -> RecoveryResult:
    """Run the full pipeline; deterministic given the seed, which feeds
    only a random reference measure and must lie in [0, 2**64).

    Passing a MixtureSpec substitutes exact population moments for the
    empirical estimators (useful for validation); otherwise the data
    must have groups of at least 2m-1 draws.  On population input the
    component norms under the reference measure (the Euclidean norms
    without one) must be pairwise distinct; tied norms raise a
    RecoveryError.
    """
    data, b = _setup(data, config, seed, config.m)
    return _run_stages(data, config, b, config.m, {"seed": int(seed), "config": config.echo()})


def li_recover(
    data: GroupedDataset | GroupTallyHistogram | MixtureSpec,
    m: int,
) -> RecoveryResult:
    """Recovery from 3 draws per group for linearly independent components.

    The pipeline of recover_full whitened at order 2, in the original
    coordinates (no rescaling): C is the order-2 moment, W = C^{-1/2} on
    its top-m eigenspace, and the top m eigenvectors of T T^T, for T the
    whitened order-3 moment, factor as p_i (x) W p_i; the weights are fit
    against the mean.  At m = 2 it is recover_full(data,
    RecoveryConfig(2)) without the seed and config diagnostics.  Nothing
    is random, so there is no seed.  Requires pairwise distinct component
    norms; on population input this is checked, and tied norms raise a
    RecoveryError.
    """
    config, c = RecoveryConfig(m), min(m, 2)
    data, b = _setup(data, config, 0, c)
    return _run_stages(data, config, b, c, {})


def estimate_num_components(
    data: GroupedDataset | GroupTallyHistogram | MixtureSpec,
    n: int,
    rel_tol: float = 1e-8,
) -> int:
    """Numerical rank of the order-2n moment unfolded as a d^n x d^n
    matrix.  The moment is symmetric, so that unfolding has the singular
    values of its C(d+n-1, n)-square form in the orthonormal basis of
    Sym^n (tensors._sym_unfolding), built from the moment's multiset
    values without the dense tensor; at n = 1 that form is the dense
    matrix itself.

    For population input this equals the number of components once the
    n-fold powers of the components are linearly independent (n at least
    the span codimension); smaller n reports the span dimension instead.
    Singular values above rel_tol times the largest count; rel_tol must
    be a finite number in [0, 1).
    """
    rng.check_count("power", n)
    with _stage("setup"):
        if not rng.is_real(rel_tol, 0.0, 1.0):
            raise ValueError(f"rel_tol must be a finite number in [0, 1), got {rel_tol!r}")
        data = moment_source(data, 2 * n)
        size = math.comb(data.d + n - 1, n)
        # the unfolding's rank index, its temporary and the sorted word pairs (2n bytes an entry, n/4
        # copies), then the unfolding and the SVD's copy and workspace: 1.9-2.9 copies at n = 3 to 6
        _check_fits(f"{size}x{size}", size**2, 2 + math.ceil(n / 4))
    unfolding = _sym_unfolding(_multiset_values(data, 2 * n), data.d, n)
    return numerical_rank(unfolding, rel_tol)
