"""Shared fixtures: reference mixtures used across the suite, the
position-tuple moment oracle the estimator is checked against, and the
dense power-sum oracle the multiset population moments are checked
against."""
import itertools
import math

import numpy as np
import pytest

import specmix as sp
from specmix.tensors import outer_power


@pytest.fixture(scope="session")
def blend_mix():
    """Three components on d=3 with the third a 1/3-2/3 blend of the
    first two, so the components are linearly dependent but pairwise
    distinct.  First two are binomial(2, 0.2) and binomial(2, 0.8)."""
    return sp.make_mixture(
        [0.5, 0.3, 0.2],
        [[0.64, 0.32, 0.04], [0.04, 0.32, 0.64], [0.24, 0.32, 0.44]],
    )


@pytest.fixture(scope="session")
def fixed_xi():
    """Reference measure (9, 4, 1): separates the blend_mix norms."""
    return sp.DominatingMeasure([9.0, 4.0, 1.0])


@pytest.fixture(scope="session")
def indep_mix():
    """Linearly independent components with distinct Euclidean norms."""
    return sp.make_mixture(
        [0.3, 0.3, 0.4],
        [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]],
    )


def random_mixture(rng: np.random.Generator, m: int, d: int) -> sp.MixtureSpec:
    """Random mixture with weights bounded away from 0."""
    w = rng.dirichlet(np.full(m, 5.0))
    comps = rng.dirichlet(np.ones(d), size=m)
    return sp.make_mixture(w, comps)


def raw_counts(ds: sp.GroupedDataset, r: int) -> np.ndarray:
    """Reference oracle: the sum over groups and ordered r-tuples of
    distinct within-group positions of the one-hot outer products,
    integer-valued and accumulated exactly in float64."""
    d, k = ds.d, ds.group_size
    groups = ds.groups.astype(np.int64)
    place = d ** np.arange(r - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(d**r)
    for pos in itertools.permutations(range(k), r):
        counts += np.bincount(groups[:, pos] @ place, minlength=d**r)
    return counts.reshape((d,) * r)


def raw_moment(ds: sp.GroupedDataset, r: int, b: np.ndarray | None = None) -> np.ndarray:
    """The order-r estimate from raw_counts, normalized and rescaled as
    the estimator does it, so the two agree bit for bit."""
    tensor = raw_counts(ds, r) / (ds.n_groups * math.perm(ds.group_size, r))
    return tensor if b is None else tensor * outer_power(b, r)


def dense_power_sum(weights, vectors, r: int) -> np.ndarray:
    """Reference oracle: sum_i weights[i] * vectors[i]^{(x) r} as a dense
    (d,)*r array, each outer power multiplied out in index order."""
    t = np.zeros((len(vectors[0]),) * r)
    for w, v in zip(weights, vectors):
        t += w * outer_power(v, r)
    return t
