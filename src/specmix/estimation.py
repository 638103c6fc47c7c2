"""Empirical symmetrized moment tensors from grouped data.

The order-r estimator is the plain average, over groups and over all
ordered r-tuples of distinct within-group positions, of the outer
product of the selected one-hot draws (optionally rescaled coordinate-
wise by a diagonal map).  Its expectation is sum_i w_i (B p_i)^{(x) r}.

Two evaluation paths produce bit-identical tensors: a direct sum over
position tuples, and a tally path that reads off, for each per-group
category tally, how many ordered tuples hit each multi-index (a product
of falling factorials).  The tally path forms that product once per
multiset of r categories, #distinct tallies x C(d+r-1, r) x d lookups,
plus a d^r read-out; it is the only practical path at 10^7 groups.

moment() is the one source every recovery stage reads: it gives the
exact population moment for a MixtureSpec and the estimate otherwise.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import DiagonalMap, MixtureSpec, population_moment
from .sampling import GroupedDataset, GroupTallyHistogram, num_compositions, tally
from .tensors import _multisets, outer_power, unfold

# Auto-dispatch: tallying wins once groups outnumber possible tallies by
# this factor (the histogram is then dense and amortized).
TALLY_FACTOR = 10

# Falling-factorial lookups per block of tallies in _tally_counts (at
# 8 bytes each, a 32 MB temporary).
_BLOCK_CELLS = 1 << 22


@dataclass(frozen=True)
class MomentEstimate:
    """Symmetric order-r moment tensor plus provenance.

    transform is the diagonal map applied to each draw (None means
    identity); with identity transform the entries are nonnegative and
    sum to 1 up to float division.
    """

    tensor: np.ndarray
    order: int
    n_groups: int
    transform: DiagonalMap | None = None

    @property
    def dim(self) -> int:
        return self.tensor.shape[0]

    def to_json(self) -> str:
        diag = None if self.transform is None else self.transform.diag.tolist()
        return json.dumps(
            {
                "order": self.order,
                "dim": self.dim,
                "n_groups": self.n_groups,
                "transform": diag,
                "entries": self.tensor.ravel().tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MomentEstimate":
        obj = json.loads(text)
        order, dim = int(obj["order"]), int(obj["dim"])
        tensor = np.array(obj["entries"], dtype=np.float64).reshape((dim,) * order)
        transform = None if obj["transform"] is None else DiagonalMap(np.array(obj["transform"]))
        return cls(tensor, order, int(obj["n_groups"]), transform)


def _raw_counts(ds: GroupedDataset, r: int) -> np.ndarray:
    """Sum over groups and ordered distinct-position r-tuples of one-hot
    outer products; integer-valued, accumulated exactly in float64."""
    d, k = ds.d, ds.group_size
    groups = ds.groups.astype(np.int64)
    place = d ** np.arange(r - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(d**r)
    for pos in itertools.permutations(range(k), r):
        flat = groups[:, pos] @ place
        counts += np.bincount(flat, minlength=d**r)
    return counts.reshape((d,) * r)


def _tally_counts(h: GroupTallyHistogram, r: int) -> np.ndarray:
    """Tally-path equivalent of _raw_counts.

    A group with tally a contributes prod_c falling(a_c, b_c) ordered
    tuples at every multi-index whose own tally is b.  That product is
    formed once per multiset b, #tallies x C(d+r-1, r) x d lookups in
    blocks of tallies, and weighted by the group counts in float64, which
    is exact while the counts stay below 2^53, as on the raw path; the
    d^r read-out goes through each multi-index's multiset rank.
    """
    d, k = h.d, h.group_size
    ff = np.zeros((k + 1, r + 1), dtype=np.int64)
    for a in range(k + 1):
        for b in range(min(a, r) + 1):
            ff[a, b] = math.perm(a, b)
    multisets, rank = _multisets(d, r)
    tallies = np.array(list(h.counts), dtype=np.int64).reshape(-1, d)
    groups = np.array(list(h.counts.values()), dtype=np.float64)
    per_multiset = np.zeros(len(multisets))
    step = max(1, _BLOCK_CELLS // multisets.size)
    for lo in range(0, len(tallies), step):
        table = ff[tallies[lo : lo + step, None, :], multisets].prod(axis=2)
        per_multiset += groups[lo : lo + step] @ table
    return per_multiset[rank]


def _tally_pays(ds: GroupedDataset) -> bool:
    return ds.n_groups > TALLY_FACTOR * num_compositions(ds.group_size, ds.d)


def empirical_sym_moment(
    data: GroupedDataset | GroupTallyHistogram,
    r: int,
    b: DiagonalMap | None = None,
    method: str = "auto",
) -> MomentEstimate:
    """Order-r symmetrized moment estimate from a dataset or histogram.

    method: "auto" tallies large datasets first, "raw" forces the
    position-tuple sum, "tally" forces histogram evaluation; a histogram
    is always read by the tally path.  All paths agree bit-for-bit
    because both sum the same integers.
    """
    k, n = data.group_size, data.n_groups
    if not 1 <= r <= k:
        raise ValueError(f"moment order {r} not in [1, {k}]")
    if method not in ("auto", "raw", "tally"):
        raise ValueError(f"unknown method {method!r}")
    if isinstance(data, GroupedDataset):
        if method == "auto":
            method = "tally" if _tally_pays(data) else "raw"
        if method == "tally":
            data = tally(data)
    count = _raw_counts if isinstance(data, GroupedDataset) else _tally_counts
    tensor = count(data, r) / (n * math.perm(k, r))
    if b is not None:
        tensor = tensor * outer_power(b.diag, r)
    return MomentEstimate(tensor, r, n, b)


def moment(
    source: MixtureSpec | GroupedDataset | GroupTallyHistogram | MomentEstimate | np.ndarray,
    r: int,
    b: DiagonalMap | None = None,
) -> np.ndarray:
    """Order-r moment tensor under b, from any moment source.

    A MixtureSpec gives the exact population moment, a dataset or
    histogram the empirical estimate.  A precomputed MomentEstimate or
    tensor is taken as already transformed and only checked for order.
    """
    if isinstance(source, MixtureSpec):
        tensor = population_moment(source, r)
        return tensor if b is None else tensor * outer_power(b.diag, r)
    if isinstance(source, MomentEstimate):
        if source.order != r:
            raise ValueError(f"expected an order-{r} moment, got order {source.order}")
        return source.tensor
    if isinstance(source, np.ndarray):
        if source.ndim != r:
            raise ValueError(f"expected an order-{r} tensor, got order {source.ndim}")
        return source
    return empirical_sym_moment(source, r, b).tensor


def moment_source(data, max_order: int):
    """Check that data can supply moments up to max_order and return the
    form later moment passes should read.

    A dataset whose groups outnumber its possible tallies TALLY_FACTOR-fold
    is tallied once, so every pass shares one histogram; a MixtureSpec
    supplies every order.
    """
    if isinstance(data, MixtureSpec):
        return data
    if not isinstance(data, (GroupedDataset, GroupTallyHistogram)):
        raise TypeError(f"unsupported data type {type(data).__name__}")
    if data.group_size < max_order:
        raise ValueError(f"group size {data.group_size} < required {max_order}")
    if isinstance(data, GroupedDataset) and _tally_pays(data):
        return tally(data)
    return data


def build_c_hat(
    data: MixtureSpec | GroupedDataset | GroupTallyHistogram | MomentEstimate | np.ndarray,
    m: int,
    b: DiagonalMap,
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


def build_e_hat(data: GroupedDataset | GroupTallyHistogram, m: int) -> MomentEstimate:
    """Order-(m-1) moment in the original space, for the weight solve."""
    if m < 2:
        raise ValueError(f"component count must be >= 2, got {m}")
    return empirical_sym_moment(data, m - 1, None)

