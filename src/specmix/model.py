"""Mixtures of categorical measures and their exact population moments.

A mixture is a finite collection of probability vectors on d categories
together with strictly positive weights summing to one.  The order-n
population moment is the symmetric tensor sum_i w_i p_i^{(x) n}, i.e. the
joint law of n exchangeable draws that share a latent component, held as a
plain (d,)*n array.  A reference measure y enters the pipeline only as the
scale vector b = 1/sqrt(y) of the rescaling B = diag(b); this module is the
one place that reads and writes its descriptor strings.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import rng
from .tensors import _multisets, _power_sum

# Tolerances: simplex sums are accepted within SUM_TOL and renormalized
# exactly; component vectors closer than DISTINCT_TOL in L-infinity are
# treated as duplicates (a mixture with duplicates is not minimal);
# rescaled component norms separate when every pair differs by more than
# NORM_GAP_TOL.
SUM_TOL = 1e-9
DISTINCT_TOL = 1e-12
NORM_GAP_TOL = 1e-3
SQGAUSS_FLOOR = 1e-12
DESCRIPTORS = '"none", "uniform", "sqgauss:<sigma>" or "fixed:<comma-separated masses>"'


def _finite_vector(x: Sequence[float], what: str) -> np.ndarray:
    """A float64 copy of x; a ValueError naming what unless it is a
    nonempty 1-D array of finite real numbers.  A bool or a string is no
    number, though numpy reads True as 1 and "0.5" as 0.5."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty 1-D array")
    # an array of one numeric dtype is checked whole, anything else entry by entry
    entries = list(x) if not isinstance(x, np.ndarray) or arr.dtype == object else []
    typed = [i for i, v in enumerate(entries) if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)]
    if typed or arr.dtype.kind not in "iufO":
        i = typed[0] if typed else 0
        raise ValueError(f"{what} entry {i} is {entries[i] if typed else arr[i].item()!r}, not a real number")
    arr = arr.astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{what} entry {bad[0]} is {arr[bad[0]]}, not finite")
    return arr


def probability_vector(x: Sequence[float]) -> np.ndarray:
    """Validate a probability vector: finite nonnegative entries summing to 1.

    Sums within 1e-9 of one are renormalized (tolerates rounded config
    values); anything further off is rejected.  Returns a read-only
    float64 copy.
    """
    p = _finite_vector(x, "probability vector")
    if np.any(p < 0.0):
        raise ValueError(f"negative probability entry: {p.min():.3g}")
    total = p.sum()
    if abs(total - 1.0) > SUM_TOL:
        raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
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
        arr = _finite_vector(self.y, "dominating measure")
        if np.any(arr <= 0.0):
            raise ValueError(f"dominating measure entries must be > 0, got min {arr.min():.3g}")
        object.__setattr__(self, "y", _readonly(arr))

    @property
    def d(self) -> int:
        return self.y.size


class DistinctNorms(NamedTuple):
    """Outcome of the pairwise component-norm separation check."""

    distinct: bool
    min_gap: float
    norms: np.ndarray


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def mixture_weights(weights: Sequence[float]) -> np.ndarray:
    """A float64 copy of weights; a ValueError unless they are a nonempty
    1-D array of finite, strictly positive entries summing to 1 within
    SUM_TOL."""
    w = _finite_vector(weights, "weights")
    if np.any(w <= 0.0):
        raise ValueError(f"weights must be strictly positive, got min {w.min():.3g}")
    if abs(w.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"weights sum to {float(w.sum())!r}, not 1")
    return w


def make_mixture(weights: Sequence[float], components: Sequence[Sequence[float]]) -> MixtureSpec:
    """Build a validated mixture.

    Weights are checked by mixture_weights and then renormalized exactly.
    Components must be probability vectors of a common dimension,
    pairwise distinct in L-infinity beyond 1e-12.
    """
    w = mixture_weights(weights)
    w /= w.sum()

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
    """Order-n moment tensor sum_i w_i p_i^{(x) n}, the dense read-out of
    its multiset values; exactly symmetric, sums to 1."""
    if n < 1:
        raise ValueError(f"moment order must be >= 1, got {n}")
    return _power_sum(mix.weights, mix.components, n)[_multisets(mix.d, n)]


def resolve_dominating(
    spec: DominatingMeasure | str | None, d: int, seed: int
) -> DominatingMeasure | None:
    """Turn a reference-measure descriptor into a measure (None means the
    identity rescaling).

    spec is a DominatingMeasure (returned as is), None, or a descriptor
    string: "none"; "uniform", each of the d masses iid uniform on
    [1, 2]; "sqgauss:<sigma>", squared iid centered normals of standard
    deviation sigma, floored at SQGAUSS_FLOOR; or "fixed:<comma-separated
    masses>".  The random schemes are deterministic given seed.  The
    size of a fixed measure is not compared with d; the caller checks it
    against the data.  Anything else is a ValueError.
    """
    if spec is None or isinstance(spec, DominatingMeasure):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"dominating must be a DominatingMeasure, None or one of {DESCRIPTORS}; got {spec!r}"
        )
    if spec == "none":
        return None
    scheme, _, arg = spec.partition(":")
    stream_seed = rng.derive_seed(seed, rng.TAG_DOMINATING)
    try:
        if spec == "uniform":
            return DominatingMeasure(1.0 + rng.uniforms(stream_seed, 0, d))
        if scheme == "sqgauss":
            sigma = float(arg)
            if not 0.0 < sigma < np.inf:
                raise ValueError(f"sigma must be finite and > 0, got {arg}")
            z = rng.normals(stream_seed, 0, d)
            return DominatingMeasure(np.maximum((sigma * z) ** 2, SQGAUSS_FLOOR))
        if scheme == "fixed":
            return DominatingMeasure([float(v) for v in arg.split(",")])
    except ValueError as exc:
        raise ValueError(f"dominating-measure descriptor {spec!r}: {exc}") from None
    raise ValueError(f"unknown dominating-measure descriptor {spec!r}; the schemes are {DESCRIPTORS}")


def _scheme_name(dominating: DominatingMeasure | str | None) -> str:
    """The descriptor string of a reference measure, for reports."""
    if dominating is None:
        return "none"
    if isinstance(dominating, DominatingMeasure):
        return "fixed:" + ",".join(repr(v) for v in dominating.y)
    return dominating


def b_map(xi: DominatingMeasure) -> np.ndarray:
    """The read-only scale vector 1/sqrt(y) of B = diag(1/sqrt(y)).

    Multiplying category coordinates by it makes the Euclidean inner
    product match the xi-weighted L2 inner product of the corresponding
    step functions.  Its entries are finite and positive, because every
    DominatingMeasure is.
    """
    return _readonly(1.0 / np.sqrt(xi.y))


def check_distinct_norms(mix: MixtureSpec, xi: DominatingMeasure) -> DistinctNorms:
    """Test whether the xi-weighted squared norms of the components separate
    by more than NORM_GAP_TOL.

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
    return DistinctNorms(min_gap > NORM_GAP_TOL, min_gap, _readonly(norms))
