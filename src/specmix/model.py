"""Mixtures of categorical measures and their exact population moments.

A mixture is a finite collection of probability vectors on d categories
together with strictly positive weights summing to one.  The order-n
population moment is the symmetric tensor sum_i w_i p_i^{(x) n}, i.e. the
joint law of n exchangeable draws that share a latent component, held as a
plain (d,)*n array.  A reference measure y enters the pipeline only as the
scale vector b = 1/sqrt(y) of the rescaling B = diag(b).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import rng
from .tensors import outer_power

# Tolerances: simplex sums are accepted within SUM_TOL and renormalized
# exactly; component vectors closer than DISTINCT_TOL in L-infinity are
# treated as duplicates (a mixture with duplicates is not minimal).
SUM_TOL = 1e-9
DISTINCT_TOL = 1e-12
SQGAUSS_FLOOR = 1e-12


def probability_vector(x: Sequence[float]) -> np.ndarray:
    """Validate a probability vector: nonnegative entries summing to 1.

    Sums within 1e-9 of one are renormalized (tolerates rounded config
    values); anything further off is rejected.  Returns a read-only
    float64 copy.
    """
    p = np.array(x, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probability vector must be a nonempty 1-D array")
    if np.any(p < 0.0):
        raise ValueError(f"negative probability entry: {p.min():.3g}")
    total = p.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    p /= total
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class MixtureSpec:
    """Validated mixture: weights (m,) and component rows (m, d).

    Construct through make_mixture; fields are read-only arrays.
    """

    weights: np.ndarray
    components: np.ndarray

    @property
    def m(self) -> int:
        return self.weights.size

    @property
    def d(self) -> int:
        return self.components.shape[1]

    def to_json(self) -> str:
        return json.dumps(
            {"weights": self.weights.tolist(), "components": self.components.tolist()}
        )

    @classmethod
    def from_json(cls, text: str) -> "MixtureSpec":
        return make_mixture(*json_fields(json.loads(text), "mixture", "weights", "components"))


def json_fields(obj: dict, what: str, *keys: str) -> list:
    """obj[key] for each key; a missing key is a ValueError naming it."""
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r} key")
    return [obj[key] for key in keys]


@dataclass(frozen=True)
class DominatingMeasure:
    """Finite, strictly positive mass per category (not necessarily
    normalized).  y may be any 1-D sequence; it is checked and stored as
    a read-only float64 copy, so every measure gives a finite, positive
    scale vector b_map."""

    y: np.ndarray

    def __post_init__(self):
        arr = np.array(self.y, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("dominating measure must be a nonempty 1-D array")
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"dominating measure entry {bad[0]} is {arr[bad[0]]}, not finite")
        if np.any(arr <= 0.0):
            raise ValueError(f"dominating measure entries must be > 0, got min {arr.min():.3g}")
        object.__setattr__(self, "y", _readonly(arr))

    @property
    def d(self) -> int:
        return self.y.size

    def to_json(self) -> str:
        return json.dumps({"y": self.y.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "DominatingMeasure":
        return cls(json.loads(text)["y"])


class DistinctNorms(NamedTuple):
    """Outcome of the pairwise component-norm separation check."""

    distinct: bool
    min_gap: float
    norms: np.ndarray


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def dominating_measure(y: Sequence[float]) -> DominatingMeasure:
    """Validate a finite, strictly positive category-mass vector."""
    return DominatingMeasure(y)


def make_mixture(weights: Sequence[float], components: Sequence[Sequence[float]]) -> MixtureSpec:
    """Build a validated mixture.

    Weights must be strictly positive and sum to 1 within 1e-9 (then
    renormalized exactly).  Components must be probability vectors of a
    common dimension, pairwise distinct in L-infinity beyond 1e-12.
    """
    w = np.array(weights, dtype=np.float64)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty 1-D array")
    if np.any(w <= 0.0):
        raise ValueError(f"weights must be strictly positive, got min {w.min():.3g}")
    total = w.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {total!r}, not 1")
    w /= total

    rows = [probability_vector(c) for c in components]
    if len(rows) != w.size:
        raise ValueError(f"{w.size} weights but {len(rows)} components")
    dims = {r.size for r in rows}
    if len(dims) != 1:
        raise ValueError(f"components have mixed dimensions {sorted(dims)}")
    comp = np.vstack(rows)
    for i in range(comp.shape[0]):
        for j in range(i + 1, comp.shape[0]):
            if np.abs(comp[i] - comp[j]).max() <= DISTINCT_TOL:
                raise ValueError(f"components {i} and {j} coincide; mixture is not minimal")
    return MixtureSpec(_readonly(w), _readonly(comp))


def population_moment(mix: MixtureSpec, n: int) -> np.ndarray:
    """Order-n moment tensor sum_i w_i p_i^{(x) n}; symmetric, sums to 1."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    t = np.zeros((mix.d,) * n)
    for w, p in zip(mix.weights, mix.components):
        t += w * outer_power(p, n)
    return t


def random_dominating_measure(
    d: int,
    scheme: str = "uniform",
    seed: int = 0,
    sigma: float = 1.0,
) -> DominatingMeasure:
    """Draw a strictly positive reference measure on d categories.

    Schemes: "uniform" draws each mass iid uniform on [1, 2];
    "sqgauss" squares iid centered normals of standard deviation sigma
    (floored at 1e-12 so the result stays strictly positive).
    Deterministic given seed; dominating_measure validates a given vector.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    stream_seed = rng.derive_seed(seed, rng.TAG_DOMINATING)
    if scheme == "uniform":
        y = 1.0 + rng.uniforms(stream_seed, 0, d)
    elif scheme == "sqgauss":
        if sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {sigma}")
        z = rng.normals(stream_seed, 0, d)
        y = np.maximum((sigma * z) ** 2, SQGAUSS_FLOOR)
    else:
        raise ValueError(f"unknown dominating-measure scheme {scheme!r}")
    return DominatingMeasure(y)


def b_map(xi: DominatingMeasure) -> np.ndarray:
    """The read-only scale vector 1/sqrt(y) of B = diag(1/sqrt(y)).

    Multiplying category coordinates by it makes the Euclidean inner
    product match the xi-weighted L2 inner product of the corresponding
    step functions.  Its entries are finite and positive, because every
    DominatingMeasure is.
    """
    return _readonly(1.0 / np.sqrt(xi.y))


def check_distinct_norms(
    mix: MixtureSpec, xi: DominatingMeasure, gap_tol: float = 1e-3
) -> DistinctNorms:
    """Test whether the xi-weighted squared norms of the components separate.

    The i-th norm is sum_j p_{i,j}^2 / y_j.  The spectral pipeline needs
    these to be pairwise distinct; for a generic random xi they are, with
    probability one.  A single-component mixture is vacuously distinct.
    """
    if mix.d != xi.d:
        raise ValueError(f"mixture dimension {mix.d} != measure dimension {xi.d}")
    norms = (mix.components**2 / xi.y).sum(axis=1)
    if norms.size < 2:
        return DistinctNorms(True, float("inf"), _readonly(norms))
    gaps = np.abs(norms[:, None] - norms[None, :])
    min_gap = float(gaps[np.triu_indices(norms.size, k=1)].min())
    return DistinctNorms(min_gap > gap_tol, min_gap, _readonly(norms))
