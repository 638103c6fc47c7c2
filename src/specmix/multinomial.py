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
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .model import probability_vector
from .tensors import _multisets, outer_power

Composition = Tuple[int, ...]
SignedCompositionMeasure = Dict[Composition, float]


@dataclass(frozen=True)
class MultinomialSpec:
    """n trials over q categories with cell probabilities p."""

    n: int
    q: int
    p: np.ndarray

    def __post_init__(self):
        if self.n < 1 or self.q < 2:
            raise ValueError(f"need n >= 1 and q >= 2, got n={self.n}, q={self.q}")
        object.__setattr__(self, "p", probability_vector(self.p))
        if self.p.size != self.q:
            raise ValueError(f"p has {self.p.size} cells, expected {self.q}")


def enumerate_compositions(n: int, q: int) -> List[Composition]:
    """All length-q nonnegative integer vectors summing to n.

    Fixed order: first coordinate descending, recursively within.  The
    order is part of the serialization contract.  A composition is read
    off its q-1 stars-and-bars separators among n+q-1 slots; separators
    in increasing lexicographic order give the reverse of this order.
    """
    if n < 0 or q < 1:
        raise ValueError(f"need n >= 0 and q >= 1, got n={n}, q={q}")
    out: List[Composition] = []
    for bars in itertools.combinations(range(n + q - 1), q - 1):
        edges = (-1,) + bars + (n + q - 1,)
        out.append(tuple(hi - lo - 1 for lo, hi in zip(edges, edges[1:])))
    out.reverse()
    return out


def multinomial_pmf(spec: MultinomialSpec, x: Sequence[int]) -> float:
    """P(counts = x) = n!/(x_1! .. x_q!) prod p_i^{x_i}."""
    x = tuple(int(v) for v in x)
    if len(x) != spec.q or any(v < 0 for v in x) or sum(x) != spec.n:
        raise ValueError(f"{x} is not a composition of {spec.n} into {spec.q} cells")
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
    if n < 1 or q < 1:
        raise ValueError(f"need n >= 1 and q >= 1, got n={n}, q={q}")
    rank = _multisets(q, n)
    per_multiset = np.zeros(math.comb(q + n - 1, n))
    for x, c in measure.items():
        x = tuple(int(v) for v in x)
        if len(x) != q or any(v < 0 for v in x) or sum(x) != n:
            raise ValueError(f"key {x} is not a composition of {n} into {q} cells")
        share = c
        for v in x:
            share *= math.factorial(v)
        share /= math.factorial(n)
        per_multiset[rank[tuple(np.subtract(f_nq(x), 1))]] += share
    return per_multiset[rank]


def verify_lemma_mult(spec: MultinomialSpec) -> float:
    """Max gap between the spread-out multinomial law and p^{(x) n}.

    Zero (to rounding) for every spec: tallying loses nothing that the
    symmetric tensors can see.
    """
    measure = {x: multinomial_pmf(spec, x) for x in enumerate_compositions(spec.n, spec.q)}
    gap = t_nq_apply(measure, spec.n, spec.q) - outer_power(spec.p, spec.n)
    return float(np.abs(gap).max())


def multinomial_mixture_equal(
    mix_a: Sequence[Tuple[float, MultinomialSpec]],
    mix_b: Sequence[Tuple[float, MultinomialSpec]],
    tol: float = 1e-10,
) -> bool:
    """Equality test for two mixtures of multinomial laws.

    Compares sum_i a_i p_i^{(x) n} entrywise; valid because the spread
    transform carries mixtures to these tensors injectively.
    """
    if not mix_a or not mix_b:
        raise ValueError("mixtures must be nonempty")
    n, q = mix_a[0][1].n, mix_a[0][1].q
    for _, spec in list(mix_a) + list(mix_b):
        if spec.n != n or spec.q != q:
            raise ValueError(f"all specs must share n={n}, q={q}")

    def tensor(mix):
        acc = np.zeros((q,) * n)
        for weight, spec in mix:
            acc += weight * outer_power(spec.p, n)
        return acc

    return bool(np.abs(tensor(mix_a) - tensor(mix_b)).max() <= tol)


def composition_measure_to_json(measure: SignedCompositionMeasure) -> str:
    items = sorted(measure.items())
    return json.dumps([{"x": list(x), "c": c} for x, c in items])


def composition_measure_from_json(text: str) -> SignedCompositionMeasure:
    out: SignedCompositionMeasure = {}
    for rec in json.loads(text):
        key = tuple(int(v) for v in rec["x"])
        out[key] = out.get(key, 0.0) + float(rec["c"])
    return out
