"""Mixtures of categorical measures and reference measures.

A mixture is a finite collection of probability vectors on d categories
together with strictly positive weights summing to one.  Its order-n
population moment, the symmetric tensor sum_i w_i p_i^{(x) n}, i.e. the
joint law of n exchangeable draws that share a latent component, comes
from estimation.moment, the one moment source.  A reference measure y
enters the pipeline only as the scale vector b = 1/sqrt(y) of the
rescaling B = diag(b); this module is the one place that reads and writes
its descriptor strings.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import rng

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


def _finite_vector(x: Sequence[float], what: str, ndim: int = 1) -> np.ndarray:
    """A float64 copy of x; a ValueError naming what unless it is a
    nonempty ndim-D array of finite real numbers, entries numbered in
    row-major order.  A bool or a string is no number, though numpy
    reads True as 1 and "0.5" as 0.5."""
    try:
        arr = np.asarray(x)
    except ValueError:  # rows of different lengths
        arr = np.empty(0)
    if arr.ndim != ndim or arr.size == 0:
        raise ValueError(f"{what} must be a nonempty {ndim}-D array")
    # an array of one numeric dtype is checked whole, anything else entry by
    # entry, as written: an object array keeps each entry's own type
    typed_whole = isinstance(x, np.ndarray) and arr.dtype != object
    entries = [] if typed_whole else np.asarray(x, dtype=object).ravel().tolist()
    typed = [i for i, v in enumerate(entries) if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real)]
    if typed or arr.dtype.kind not in "iufO":
        i = typed[0] if typed else 0
        raise ValueError(f"{what} entry {i} is {entries[i] if typed else arr.flat[i].item()!r}, not a real number")
    arr = arr.astype(np.float64)
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"{what} entry {bad[0]} is {arr.flat[bad[0]]}, not finite")
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
    """A mixture: weights (m,) and component rows (m, d), checked here.

    Weights are checked by mixture_weights and then renormalized exactly.
    Components must be probability vectors of a common dimension, one
    per weight, pairwise distinct in L-infinity beyond DISTINCT_TOL.
    Both are stored as read-only float64 copies.  make_mixture is this
    constructor under its older name.
    """

    weights: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        w = mixture_weights(self.weights)
        w /= w.sum()
        try:
            rows = [probability_vector(c) for c in self.components]
        except (TypeError, ValueError) as exc:  # components is no sequence, or a row no probability vector
            raise type(exc)(f"components: {exc}") from None
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
        object.__setattr__(self, "weights", _readonly(w))
        object.__setattr__(self, "components", _readonly(comp))

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
        return cls(*json_fields(json.loads(text), "mixture", "weights", "components"))


def json_fields(obj: dict, what: str, *keys: str) -> list:
    """obj[key] for each key; a ValueError naming what unless obj is a
    JSON object (a dict), and one naming the key that it lacks."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
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


# MixtureSpec under the name the README and the benchmark call it by
make_mixture = MixtureSpec


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
    against the data.  d must be an integer >= 1 and seed one in
    [0, 2**64), whatever spec is.  Anything else is a ValueError.
    """
    rng.check_count("d", d)
    stream_seed = rng.derive_seed(seed, rng.TAG_DOMINATING)  # checks seed
    if spec is None or isinstance(spec, DominatingMeasure):
        return spec
    if not isinstance(spec, str):
        raise ValueError(
            f"dominating must be a DominatingMeasure, None or one of {DESCRIPTORS}; got {spec!r}"
        )
    if spec == "none":
        return None
    scheme, _, arg = spec.partition(":")
    try:
        if spec == "uniform":
            return DominatingMeasure(1.0 + rng.uniforms(stream_seed, 0, d))
        if scheme == "sqgauss":
            sigma = float(arg)
            if not 0.0 < sigma < np.inf:
                raise ValueError(f"sigma must be finite and > 0, got {arg}")
            z = rng.normals(stream_seed, 0, d)
            with np.errstate(over="ignore"):  # an overflowed mass is refused as not finite
                return DominatingMeasure(np.maximum((sigma * z) ** 2, SQGAUSS_FLOOR))
        if scheme == "fixed":
            return DominatingMeasure([float(v) for v in arg.split(",")])
    except ValueError as exc:
        raise ValueError(f"dominating-measure descriptor {spec!r}: {exc}") from None
    raise ValueError(f"unknown dominating-measure descriptor {spec!r}; the schemes are {DESCRIPTORS}")


def describe_dominating(spec: DominatingMeasure | str | None) -> str | None:
    """The descriptor of a reference measure, checked as
    resolve_dominating(spec, 1, 0) checks it: None or a descriptor
    string as given, a DominatingMeasure as "fixed:" and the shortest
    repr of each mass, which resolve_dominating reads back to the same
    float64."""
    resolve_dominating(spec, 1, 0)
    if isinstance(spec, DominatingMeasure):
        return "fixed:" + ",".join(map(repr, spec.y.tolist()))
    return spec


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
