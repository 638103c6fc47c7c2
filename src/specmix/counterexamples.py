"""Mixture pairs witnessing sharpness of moment identifiability bounds.

Given t distinct mixing levels eps_i in [0, 1] and two distinct base
measures gamma, gamma', the r-fold powers of the blends mu_i = eps_i
gamma + (1 - eps_i) gamma' are polynomials of degree r in eps_i, so the
t-point divided difference alpha_i = 1 / prod_{j != i} (eps_i - eps_j)
gives sum_i alpha_i mu_i^{(x) r} = 0 for every r <= t - 2.  Over sorted
levels the alpha_i alternate in sign; splitting them by sign and
renormalizing each side produces two different mixtures whose grouped-
sample laws agree at all orders up to t - 2 and differ at t - 1:

* t = 2m   gives two order-m mixtures agreeing at order 2m - 2, so
  2m - 2 draws per group cannot identify an order-m mixture;
* t = 2m+1 gives mixtures of orders m and m + 1 agreeing at order
  2m - 1, so 2m - 1 draws cannot pin down the number of components.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import rng
from .model import MixtureSpec, make_mixture, probability_vector
from .tensors import _orbit_sizes, _power_sum


# build_pair's least ratio of the gap one order above eq_order to the gap at
# it.  On the default levels, rounding noise alone gave ratios up to 2.5
# (m = 15..30); the least separable pair, m = 14 with t = 29, gives 14.0.
SEPARATION = 5.0


class MomentComparison(NamedTuple):
    max_abs_diff: float
    equal: bool
    law_l1: float


@dataclass(frozen=True)
class CounterexamplePair:
    """Two distinct mixtures with matching moments up to eq_order = t - 2,
    and their moment comparisons at eq_order and one order above."""

    p: MixtureSpec
    p_prime: MixtureSpec
    t: int
    epsilons: np.ndarray
    alphas: np.ndarray
    at_eq_order: MomentComparison
    above_eq_order: MomentComparison

    @property
    def eq_order(self) -> int:
        return self.t - 2

    def to_json(self) -> str:
        return json.dumps(
            {
                "t": self.t,
                "eq_order": self.eq_order,
                "epsilons": self.epsilons.tolist(),
                "alphas": self.alphas.tolist(),
                "p": json.loads(self.p.to_json()),
                "p_prime": json.loads(self.p_prime.to_json()),
                "verification": {
                    "max_diff_at_eq_order": self.at_eq_order.max_abs_diff,
                    "max_diff_above_eq_order": self.above_eq_order.max_abs_diff,
                    "law_l1_at_eq_order": self.at_eq_order.law_l1,
                    "law_l1_above_eq_order": self.above_eq_order.law_l1,
                },
            }
        )


def dependence_coefficients(epsilons: Sequence[float]) -> np.ndarray:
    """Unit-norm divided difference alpha_i = 1 / prod_{j != i} (eps_i -
    eps_j), sign-fixed so the last entry is positive.

    The smallest |row product| over each row product is alpha over its
    largest |entry|, with one rounding per entry.  Levels whose products
    or coefficients leave the normal float64 range are a ValueError.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    t = eps.size
    if t < 3:
        raise ValueError(f"need at least 3 mixing levels, got {t}")
    if np.unique(eps).size != t:
        raise ValueError("mixing levels must be distinct")
    with np.errstate(all="ignore"):
        gaps = eps[:, None] - eps[None, :]
        np.fill_diagonal(gaps, 1.0)
        prods = gaps.prod(axis=1)
        alpha = np.abs(prods).min() / prods
        alpha /= np.linalg.norm(alpha)
        size = np.abs(np.concatenate([prods, alpha]))
        if not np.all((size >= np.finfo(np.float64).tiny) & (size < np.inf)):
            raise ValueError("mixing levels too close or too far apart for float64 coefficients")
    return alpha if alpha[-1] > 0.0 else -alpha


def build_pair(
    m: int,
    t: int,
    base: tuple[Sequence[float], Sequence[float]] | None = None,
    epsilons: Sequence[float] | None = None,
) -> CounterexamplePair:
    """Construct the sign-split pair for t = 2m or t = 2m + 1 levels.

    alpha is negative at the sorted positions i with i % 2 == t % 2; those
    m levels (with the smallest when t = 2m) form the first mixture.  Side
    weights are the |alpha_i| renormalized to sum 1.  Default levels are
    evenly spaced on [0, 1]; default bases are the coordinate measures on d = 2.

    The pair is checked twice: its order-eq_order moments must agree
    within 1e-8, and its gap one order above must exceed SEPARATION (5)
    times its gap at eq_order, the rounding noise of the check; else
    float64 cannot tell the pair from one that matches one order less,
    and a ValueError names both gaps.  On the default levels and bases
    that first happens at m = 15 for t = 2m + 1 and m = 16 for t = 2m.
    """
    rng.check_count("m", m)
    if not rng.is_integer(t) or t not in (2 * m, 2 * m + 1):
        raise ValueError(f"t must be 2m or 2m+1 for m={m}, got {t}")
    if base is None:
        base = ([1.0, 0.0], [0.0, 1.0])
    gamma, gamma_prime = probability_vector(base[0]), probability_vector(base[1])
    if gamma.size != gamma_prime.size:
        raise ValueError("base measures must share a dimension")
    if np.abs(gamma - gamma_prime).max() <= 1e-12:
        raise ValueError("base measures must be distinct")
    if epsilons is None:
        eps = np.arange(t) / (t - 1.0)
    else:
        eps = np.sort(np.asarray(epsilons, dtype=np.float64))
        if eps.size != t:
            raise ValueError(f"expected {t} mixing levels, got {eps.size}")
        if eps[0] < 0.0 or eps[-1] > 1.0:
            raise ValueError("mixing levels must lie in [0, 1]")

    alpha = dependence_coefficients(eps)
    components = eps[:, None] * gamma[None, :] + (1.0 - eps[:, None]) * gamma_prime[None, :]

    def side(parity: int) -> MixtureSpec:
        w = np.abs(alpha[parity::2])
        return make_mixture(w / w.sum(), components[parity::2])

    p, p_prime = side(t % 2), side(1 - t % 2)
    at = verify_moment_equality(p, p_prime, t - 2, tol=1e-8)
    if not at.equal:
        raise ValueError(f"construction failed: order-{t - 2} moments differ by {at.max_abs_diff:.3g}")
    above = verify_moment_equality(p, p_prime, t - 1)
    if not above.max_abs_diff > SEPARATION * at.max_abs_diff:
        raise ValueError(
            f"order-{t - 1} moments differ by {above.max_abs_diff:.3g} and order-{t - 2} "
            f"moments by {at.max_abs_diff:.3g}; float64 cannot separate the pair"
        )
    return CounterexamplePair(p, p_prime, t, eps, alpha, at, above)


def verify_moment_equality(
    p: MixtureSpec, p_prime: MixtureSpec, n: int, tol: float = 1e-9
) -> MomentComparison:
    """Max absolute entrywise gap between order-n population moments,
    taken over their C(d+n-1, n) multiset values, and the L1 distance
    between the laws of the tallies of n draws from each mixture.

    A tally beta of n draws has probability n(beta) q_beta, for q_beta
    its multiset value and n(beta) its number of orderings, so the L1
    distance is sum_beta n(beta) |q_beta - q'_beta| (twice the total
    variation), the dense sum of |entry gaps| without the dense tensor.
    The moments are called equal when the gap is at most tol, a finite
    number >= 0.
    """
    if p.d != p_prime.d:
        raise ValueError(f"dimension mismatch: {p.d} vs {p_prime.d}")
    rng.check_count("n", n)
    if not rng.is_real(tol, 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    diff = _power_sum(p.weights, p.components, n) - _power_sum(p_prime.weights, p_prime.components, n)
    gap = float(np.abs(diff).max())
    return MomentComparison(gap, gap <= tol, float(np.abs(diff) @ _orbit_sizes(p.d, n)))
