"""Empirical symmetrized moment tensors from grouped data.

The order-r estimator is the plain average, over groups and over all
ordered r-tuples of distinct within-group positions, of the outer
product of the selected one-hot draws, each optionally multiplied
entrywise by a scale vector b.  It is a plain (d,)*r array whose
expectation is sum_i w_i (B p_i)^{(x) r} for B = diag(b).

The estimator is symmetric in within-group order, so a group's tally
(its category counts) carries everything it sees: a dataset is tallied
once and every moment is counted from the tally histogram by one kernel.
That kernel walks each distinct tally's sub-multisets of size up to r,
so its work is the number of (tally, sub-multiset) pairs it visits plus
a d^r read-out, whatever the group size.

moment() is the one source every recovery stage reads: it gives the
exact population moment for a MixtureSpec and the estimate otherwise.
"""
from __future__ import annotations

import math

import numpy as np

from .model import MixtureSpec, population_moment
from .sampling import GroupedDataset, GroupTallyHistogram, tally
from .tensors import _multisets, outer_power, unfold

# Nothing in the library reads this.  perfbench/workloads.py imports it to
# label each workload with the moment path it took before every dataset
# was tallied; it goes when the benchmark is next revised.
TALLY_FACTOR = 10


def _tally_counts(h: GroupTallyHistogram, r: int) -> np.ndarray:
    """Sum over groups and ordered distinct-position r-tuples of one-hot
    outer products, a (d,)*r float64 array of integer counts.

    A group with tally a puts prod_c falling(a_c, b_c) tuples at every
    multi-index whose tally is b, for each size-r sub-multiset b of a.
    The sub-multisets are grown one draw at a time in nondecreasing
    category order over each tally's held categories; a state carries
    the table entry of its last category, the draws of it left, the flat
    index of the prefix and an int64 weight.  Taking a category
    multiplies the weight by its draws left, so after r steps the weight
    is that product exactly.  Weighted by the group counts in float64,
    the sums are exact while they stay below 2^53; the d^r read-out goes
    through each multi-index's multiset rank.
    """
    d, k = h.d, h.group_size
    if math.perm(k, r) >= 2**63:
        raise OverflowError(f"ordered {r}-tuples of {k} draws overflow 64 bits")
    table = h.counts
    cats, draws = table.cats, table.draws
    last_entry = np.repeat(np.cumsum(table.held) - 1, table.held)
    entry, left, flat, weight = np.arange(len(cats)), draws - 1, cats, draws
    for _ in range(r - 1):
        # take the last category again while draws of it are left, or a later one
        fan = (left > 0) + last_entry[entry] - entry
        parent = np.repeat(np.arange(len(entry)), fan)
        jump = np.arange(len(parent)) - np.repeat(np.cumsum(fan) - fan, fan)
        entry, left = entry[parent], left[parent]
        nxt = entry + jump + (left == 0)
        take = np.where(nxt == entry, left, draws[nxt])
        flat = flat[parent] * d + cats[nxt]
        weight = weight[parent] * take
        entry, left = nxt, take - 1
    groups = np.repeat(table.groups.astype(np.float64), table.held)
    rank = _multisets(d, r)
    per_multiset = np.bincount(
        rank.ravel()[flat], weights=groups[entry] * weight, minlength=math.comb(d + r - 1, r)
    )
    return per_multiset[rank]


def empirical_sym_moment(
    data: GroupedDataset | GroupTallyHistogram,
    r: int,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """Order-r symmetrized moment estimate, a (d,)*r array, from a
    dataset or histogram, each draw scaled by the vector b if given.

    A dataset is tallied first; the tally loses nothing the estimate
    sees, so both inputs give the same bits.
    """
    k, n = data.group_size, data.n_groups
    if not 1 <= r <= k:
        raise ValueError(f"moment order {r} not in [1, {k}]")
    if isinstance(data, GroupedDataset):
        data = tally(data)
    tensor = _tally_counts(data, r) / (n * math.perm(k, r))
    return tensor if b is None else tensor * outer_power(b, r)


def moment(
    source: MixtureSpec | GroupedDataset | GroupTallyHistogram | np.ndarray,
    r: int,
    b: np.ndarray | None = None,
) -> np.ndarray:
    """Order-r moment tensor, with every draw scaled by the vector b,
    from any moment source.

    A MixtureSpec gives the exact population moment, a dataset or
    histogram the empirical estimate.  A precomputed tensor is taken as
    already scaled and only checked for order.
    """
    if isinstance(source, MixtureSpec):
        tensor = population_moment(source, r)
        return tensor if b is None else tensor * outer_power(b, r)
    if isinstance(source, np.ndarray):
        if source.ndim != r:
            raise ValueError(f"expected an order-{r} tensor, got order {source.ndim}")
        return source
    return empirical_sym_moment(source, r, b)


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
    data: MixtureSpec | GroupedDataset | GroupTallyHistogram | np.ndarray,
    m: int,
    b: np.ndarray | None,
) -> np.ndarray:
    """Second-moment operator of the transformed (m-1)-fold draws.

    The order-(2m-2) moment under b, unfolded at split m-1 to a
    d^{m-1} x d^{m-1} matrix and symmetrized; its expectation is the
    Gram-weighted sum of (B p_i)^{(x)(m-1)} projectors, the operator the
    whitening step inverts.  data is any source that moment() reads.
    """
    if m < 1:
        raise ValueError(f"component count must be >= 1, got {m}")
    if m == 1:
        return np.ones((1, 1))
    tensor = moment(data, 2 * m - 2, b)
    mat = unfold(tensor, m - 1)
    return 0.5 * (mat + mat.T)


def build_e_hat(data: GroupedDataset | GroupTallyHistogram, m: int) -> np.ndarray:
    """Order-(m-1) moment in the original space, for the weight solve."""
    if m < 2:
        raise ValueError(f"component count must be >= 2, got {m}")
    return empirical_sym_moment(data, m - 1, None)

