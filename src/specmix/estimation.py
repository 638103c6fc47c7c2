"""The one moment source: population moments and symmetrized moment
estimates from grouped data.

The order-r estimator is the plain average, over groups and over all
ordered r-tuples of distinct within-group positions, of the outer
product of the selected one-hot draws, each optionally multiplied
entrywise by a scale vector b.  Its expectation is the population
moment sum_i w_i (B p_i)^{(x) r} for B = diag(b).

Both are symmetric, so each is fixed by its C(d+r-1, r) multiset values
(see tensors.py).  The estimator is symmetric in within-group order, so
a group's tally (its category counts) carries everything it sees: a
dataset is tallied once and every order is counted from the tally
histogram by one kernel, which walks each distinct tally's
sub-multisets of size r and so does work in the number of (tally,
sub-multiset) pairs it visits, whatever the group size.  A population
moment's multiset values are its power sums.

moment() is the one function that turns a source into a moment tensor,
and every recovery stage reads it: the multiset values of a MixtureSpec
or of data, read out once to a plain (d,)*r array and scaled by b.
"""
from __future__ import annotations

import math

import numpy as np

from . import rng
from .model import MixtureSpec, _finite_vector
from .sampling import GroupedDataset, GroupTallyHistogram, tally
from .tensors import _multisets, _power_sum, _rank_terms, outer_power

# Nothing in the library reads this.  perfbench/workloads.py imports it to
# label each workload with the moment path it took before every dataset
# was tallied; it goes when the benchmark is next revised.
TALLY_FACTOR = 10


def _tally_counts(h: GroupTallyHistogram, r: int) -> np.ndarray:
    """Sum over groups and ordered distinct-position r-tuples of one-hot
    outer products, as its C(d+r-1, r) multiset values in rank order:
    float64 integer counts.

    A group with tally a puts prod_c falling(a_c, b_c) tuples at every
    multi-index whose tally is b, for each size-r sub-multiset b of a.
    The sub-multisets are grown one draw at a time in nondecreasing
    category order over each tally's held categories, so each is grown as
    its sorted word; a state carries the table entry of its last
    category, the draws of it left, C(d+r-1, r) - 1 less the rank terms
    of its letters (tensors._rank_terms, as _rank sums them) and an int64
    weight.  Taking a category multiplies the weight by its draws left,
    so after r steps the weight is that product exactly and the first
    sum is the multiset's rank.  Weighted by the group counts in float64,
    the sums are exact while they stay below 2^53.
    """
    d, k = h.d, h.group_size
    if math.perm(k, r) >= 2**63:
        raise OverflowError(f"ordered {r}-tuples of {k} draws overflow 64 bits")
    table = h.counts
    cats, draws = table.cats, table.draws
    size = math.comb(d + r - 1, r)
    terms = _rank_terms(d, r)
    last_entry = np.repeat(np.cumsum(table.held) - 1, table.held)
    entry, left, rank, weight = np.arange(len(cats)), draws - 1, (size - 1 - terms[0])[cats], draws
    for j in range(1, r):
        # take the last category again while draws of it are left, or a later one
        fan = (left > 0) + last_entry[entry] - entry
        parent = np.repeat(np.arange(len(entry)), fan)
        jump = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        entry, left = entry[parent], left[parent]
        nxt = entry + jump + (left == 0)
        take = np.where(nxt == entry, left, draws[nxt])
        rank = rank[parent] - terms[j][cats][nxt]
        weight = weight[parent] * take
        entry, left = nxt, take - 1
    groups = np.repeat(table.groups.astype(np.float64), table.held)
    return np.bincount(rank, weights=groups[entry] * weight, minlength=size)


def moment(
    source: MixtureSpec | GroupedDataset | GroupTallyHistogram,
    r: int,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """Order-r moment tensor, a (d,)*r array, with every draw scaled by
    the vector b, from any moment source.

    A MixtureSpec gives the exact population moment, a dataset or
    histogram the estimate; a dataset is tallied first, and the tally
    loses nothing the estimate sees, so both give the same bits.  r must
    be an integer >= 1, and for data at most the group size, and b a
    vector of d finite entries > 0, as every b_map output is; anything
    else is a ValueError, and any other source a TypeError.
    """
    source = moment_source(source, 1)  # checks the type, tallies a dataset
    k = math.inf if isinstance(source, MixtureSpec) else source.group_size
    if not rng.is_integer(r) or not 1 <= r <= k:
        raise ValueError(f"moment order {r!r} is not an integer in [1, {k}]")
    if b is not None:
        if np.shape(b) != (source.d,):
            raise ValueError(f"scale vector b has shape {np.shape(b)}; the source has d = {source.d}")
        b = _finite_vector(b, "scale vector b")
        if np.any(b <= 0.0):
            raise ValueError(f"scale vector b entries must be > 0, got min {b.min():.3g}")
    tensor = _multiset_values(source, r)[_multisets(source.d, r)]
    if b is not None:
        tensor *= outer_power(b, r)
    return tensor


def _multiset_values(source: MixtureSpec | GroupTallyHistogram, r: int) -> np.ndarray:
    """The C(d+r-1, r) multiset values, in rank order, of the order-r
    moment of a source that moment_source returned and whose order it
    checked: the entries that moment() reads out to its dense tensor."""
    if isinstance(source, MixtureSpec):
        return _power_sum(source.weights, source.components, r)
    return _tally_counts(source, r) / (source.n_groups * math.perm(source.group_size, r))


# Nothing in the library reads this name.  perfbench/harness.py calls it;
# it goes when the benchmark is next revised.
empirical_sym_moment = moment


def moment_source(data, max_order: int):
    """Check that data can supply moments up to max_order and return the
    form later moment passes should read.

    A dataset is tallied once, so every pass reads one histogram; a
    histogram is returned as it is, and a MixtureSpec supplies every order.
    """
    if isinstance(data, MixtureSpec):
        return data
    if not isinstance(data, (GroupedDataset, GroupTallyHistogram)):
        raise TypeError(f"unsupported data type {type(data).__name__}")
    if data.group_size < max_order:
        raise ValueError(f"group size {data.group_size} < required {max_order}")
    return tally(data) if isinstance(data, GroupedDataset) else data


def build_c_hat(
    data: MixtureSpec | GroupedDataset | GroupTallyHistogram,
    m: int,
    b: np.ndarray | None,
) -> np.ndarray:
    """Second-moment operator of the transformed (m-1)-fold draws.

    The order-(2m-2) moment under b, read as its plain row-major
    reshape to a d^{m-1} x d^{m-1} matrix (the transpose of its unfolding
    at split m-1, with no copy) and symmetrized; its expectation is the
    Gram-weighted sum of (B p_i)^{(x)(m-1)} projectors, the operator the
    whitening step inverts.  data is any source that moment() reads.
    """
    rng.check_count("m", m)
    if m == 1:
        return np.ones((1, 1))
    mat = moment(data, 2 * m - 2, b).reshape(data.d ** (m - 1), -1)
    return 0.5 * (mat + mat.T)


def build_e_hat(data: GroupedDataset | GroupTallyHistogram, m: int) -> np.ndarray:
    """Order-(m-1) moment in the original space, for the weight solve."""
    rng.check_count("m", m, 2)
    return moment(data, m - 1)

