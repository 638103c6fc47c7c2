"""Bridge between multinomial count data and grouped-sample tensors.

A group of n categorical draws, seen only through its per-category
count vector, is a multinomial observation.  The linear transform
realized by t_nq_apply spreads each count vector uniformly over the
distinct orderings it came from, turning a (signed) measure on count
vectors into a symmetric order-n tensor.  On the multinomial law with
parameter p this recovers exactly p^{(x) n}, so mixtures of multinomial
laws inherit every identifiability statement proved for grouped
samples.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import rng
from .model import mixture_weights, probability_vector
from .tensors import _counts_rank, _multisets, _power_sum, enumerate_compositions

Composition = Tuple[int, ...]
SignedCompositionMeasure = Dict[Composition, float]


@dataclass(frozen=True)
class MultinomialSpec:
    """n trials over q categories with cell probabilities p."""

    n: int
    q: int
    p: np.ndarray

    def __post_init__(self):
        rng.check_count("n", self.n)
        rng.check_count("q", self.q, 2)
        object.__setattr__(self, "p", probability_vector(self.p))
        if self.p.size != self.q:
            raise ValueError(f"p has {self.p.size} cells, expected {self.q}")


def multinomial_pmf(spec: MultinomialSpec, x: Sequence[int]) -> float:
    """P(counts = x) = n!/(x_1! .. x_q!) prod p_i^{x_i}."""
    x = _composition(x, spec.n, spec.q)
    coeff = math.factorial(spec.n)
    for v in x:
        coeff //= math.factorial(v)
    return float(coeff * np.prod(spec.p ** np.array(x)))


def f_nq(x: Sequence[int]) -> Composition:
    """Canonical nondecreasing word with x_i copies of symbol i (1-based)."""
    word: List[int] = []
    for symbol, count in enumerate(x, start=1):
        if count < 0:
            raise ValueError(f"negative count in composition {tuple(x)}")
        word.extend([symbol] * count)
    return tuple(word)


def t_nq_apply(measure: SignedCompositionMeasure, n: int, q: int) -> np.ndarray:
    """Spread a signed measure on count vectors over ordered outcomes.

    Each unit of mass at composition x becomes mass (prod x_i!)/n! on
    every distinct arrangement of its canonical word; the output is a
    symmetric order-n tensor over R^q with the same total mass.  The
    arrangements of a word are the multi-indices of its multiset, so the
    share is added once at that multiset's rank and read out through it.
    """
    rng.check_count("n", n)
    rng.check_count("q", q)
    return _spread(measure, n, q)[_multisets(q, n)]


def _spread(measure: SignedCompositionMeasure, n: int, q: int) -> np.ndarray:
    """t_nq_apply's multiset values: each key's share summed at its rank."""
    counts = _composition_rows(measure, n, q)
    # shares c * x_1! * .. * x_q! / n!, multiplied left to right as in that formula
    fact = np.array([float(math.factorial(v)) for v in range(n + 1)])
    shares = np.array(list(measure.values()), dtype=np.float64)
    for col in counts.T:
        shares *= fact[col]
    shares /= fact[n]
    per_multiset = np.zeros(math.comb(q + n - 1, n))
    np.add.at(per_multiset, _counts_rank(counts, n), shares)
    return per_multiset


def _composition(x: Sequence, n: int, q: int) -> Composition:
    """x as a tuple of ints; a ValueError naming x as written unless it
    is a composition of n into q cells whose entries int() converts
    without change (2.0 and "2" do, 1.5 and True do not)."""
    try:
        counts = tuple(int(v) for v in x)
        exact = all(isinstance(v, str) or (c == v and not isinstance(v, (bool, np.bool_))) for c, v in zip(counts, x))
    except (TypeError, ValueError, OverflowError):
        counts, exact = None, False
    if not exact or len(counts) != q or any(v < 0 for v in counts) or sum(counts) != n:
        raise ValueError(f"key {counts if exact else x} is not a composition of {n} into {q} cells")
    return counts


def _composition_rows(measure: SignedCompositionMeasure, n: int, q: int) -> np.ndarray:
    """The keys of measure as a (len, q) int64 array of compositions of n.

    Unless the keys are already such an array, they are checked one at a
    time in order by _composition, so the first offending key is the one
    reported.
    """
    try:
        counts = np.array(list(measure))
    except ValueError:  # keys of different lengths
        counts = np.empty(0)
    # entries in [0, n] keep the row sums far from int64 overflow; a bool
    # key beside int keys is read as ints, so the entries' types are checked last
    if counts.dtype.kind != "i" or counts.shape != (len(measure), q) or (
        ((counts < 0) | (counts > n)).any() or (counts.sum(axis=1) != n).any()
    ) or not {bool, np.bool_}.isdisjoint(map(type, itertools.chain.from_iterable(measure))):
        counts = np.array([_composition(x, n, q) for x in measure], dtype=np.int64).reshape(len(measure), q)
    return counts


def verify_lemma_mult(spec: MultinomialSpec) -> float:
    """Max gap between the spread-out multinomial law and p^{(x) n},
    over their multiset values.

    Zero (to rounding) for every spec: tallying loses nothing that the
    symmetric tensors can see.
    """
    measure = {x: multinomial_pmf(spec, x) for x in enumerate_compositions(spec.n, spec.q)}
    gap = _spread(measure, spec.n, spec.q) - _power_sum([1.0], [spec.p], spec.n)
    return float(np.abs(gap).max())


def multinomial_mixture_equal(
    mix_a: Sequence[Tuple[float, MultinomialSpec]],
    mix_b: Sequence[Tuple[float, MultinomialSpec]],
    tol: float = 1e-10,
) -> bool:
    """Equality test for two mixtures of multinomial laws.

    Compares the C(n+q-1, n) multiset values of sum_i a_i p_i^{(x) n},
    without building the q^n tensor; valid because the spread transform
    carries mixtures to these tensors injectively.  Each side's
    weights must pass model.mixture_weights (finite, > 0, summing to 1
    within SUM_TOL); they are compared as given, not renormalized.
    Components may repeat.  tol, the largest entrywise difference still
    called equal, must be a finite number >= 0.
    """
    if not 0.0 <= tol < math.inf:  # NaN fails every comparison
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    if not mix_a or not mix_b:
        raise ValueError("mixtures must be nonempty")
    n, q = mix_a[0][1].n, mix_a[0][1].q
    for _, spec in list(mix_a) + list(mix_b):
        if spec.n != n or spec.q != q:
            raise ValueError(f"all specs must share n={n}, q={q}")
    weights = [mixture_weights([w for w, _ in mix]) for mix in (mix_a, mix_b)]
    values = [_power_sum(w, [spec.p for _, spec in mix], n) for w, mix in zip(weights, (mix_a, mix_b))]
    return bool(np.abs(values[0] - values[1]).max() <= tol)
