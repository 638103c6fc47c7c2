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

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import rng
from .model import mixture_weights, probability_vector
from .tensors import _counts_rank, _multisets, _power_sum, count_vector, count_vectors, enumerate_compositions

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
    """P(counts = x) = n!/(x_1! .. x_q!) prod p_i^{x_i}.

    x must be a count vector of n into q cells by tensors.count_vector,
    the one rule for every count-vector key: real, non-bool, integral
    entries >= 0.
    """
    x = count_vector(x, spec.n, spec.q)
    coeff = math.factorial(spec.n) // math.prod(map(math.factorial, x))
    return float(coeff * np.prod(spec.p ** np.array(x)))


def f_nq(x: Sequence[int]) -> Composition:
    """Canonical nondecreasing word with x_i copies of symbol i (1-based).

    x is a count vector of any length and sum by tensors.count_vector,
    the rule every count-vector key follows.
    """
    word: List[int] = []
    for symbol, count in enumerate(count_vector(x), start=1):
        word.extend([symbol] * count)
    return tuple(word)


def t_nq_apply(measure: SignedCompositionMeasure, n: int, q: int) -> np.ndarray:
    """Spread a signed measure on count vectors over ordered outcomes.

    Each unit of mass at composition x becomes mass (prod x_i!)/n! on
    every distinct arrangement of its canonical word; the output is a
    symmetric order-n tensor over R^q with the same total mass.  The
    arrangements of a word are the multi-indices of its multiset, so the
    share is added once at that multiset's rank and read out through it.
    Every key must be a count vector of n into q cells by
    tensors.count_vector (real, non-bool, integral entries >= 0); the
    first that is not is named in the ValueError.
    """
    rng.check_count("n", n)
    rng.check_count("q", q)
    counts = count_vectors(list(measure), n, q)
    return _spread(counts, list(measure.values()), n, q)[_multisets(q, n)]


def _spread(counts: np.ndarray, masses: list, n: int, q: int) -> np.ndarray:
    """t_nq_apply's multiset values: the share of the mass at each count
    vector, a row of counts, summed at its rank."""
    # shares c * x_1! * .. * x_q! / n!, multiplied left to right as in that formula
    fact = np.array([float(math.factorial(v)) for v in range(n + 1)])
    shares = np.array(masses, dtype=np.float64)
    for col in counts.T:
        shares *= fact[col]
    shares /= fact[n]
    per_multiset = np.zeros(math.comb(q + n - 1, n))
    np.add.at(per_multiset, _counts_rank(counts, n), shares)
    return per_multiset


def verify_lemma_mult(spec: MultinomialSpec) -> float:
    """Max gap between the spread-out multinomial law and p^{(x) n},
    over their multiset values.

    Zero (to rounding) for every spec: tallying loses nothing that the
    symmetric tensors can see.
    """
    keys = enumerate_compositions(spec.n, spec.q)
    masses = [multinomial_pmf(spec, x) for x in keys]
    gap = _spread(np.array(keys, dtype=np.int64), masses, spec.n, spec.q) - _power_sum([1.0], [spec.p], spec.n)
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
    if not rng.is_real(tol, 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not mix_a or not mix_b:
        raise ValueError("mixtures must be nonempty")
    n, q = mix_a[0][1].n, mix_a[0][1].q
    for _, spec in list(mix_a) + list(mix_b):
        if spec.n != n or spec.q != q:
            raise ValueError(f"all specs must share n={n}, q={q}")
    weights = [mixture_weights([w for w, _ in mix]) for mix in (mix_a, mix_b)]
    values = [_power_sum(w, [spec.p for _, spec in mix], n) for w, mix in zip(weights, (mix_a, mix_b))]
    return bool(np.abs(values[0] - values[1]).max() <= tol)
