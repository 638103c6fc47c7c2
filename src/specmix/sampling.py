"""Grouped sampling from a mixture and lossless tally compression.

A dataset is n groups of k category indices; each group first draws a
latent component by weight, then k iid draws from that component.  Since
every downstream statistic is symmetric in within-group order, a dataset
compresses without loss to a histogram over per-group category tallies.
draw_tally goes straight from the mixture to that histogram, one block of
groups at a time, without holding the whole dataset.

Category indices are 0-based in memory; the text format on disk is
1-based, one group per line.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import IO, Dict, Iterator, Tuple

import numpy as np

from . import kernels, rng
from .model import MixtureSpec

Composition = Tuple[int, ...]


@dataclass(frozen=True)
class GroupedDataset:
    """n_groups x group_size array of category indices in [0, d)."""

    d: int
    groups: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.groups.shape[0]

    @property
    def group_size(self) -> int:
        return self.groups.shape[1]


@dataclass(frozen=True)
class GroupTallyHistogram:
    """Counts of per-group category tallies.

    Keys are length-d compositions (category occurrence counts summing to
    group_size); values are group counts.  Total count equals the number
    of groups in the source dataset.  counts is always the read-only,
    array-backed mapping tally() builds: any other mapping is checked
    once here and converted, keeping its key order.
    """

    d: int
    group_size: int
    counts: Mapping[Composition, int]

    def __post_init__(self):
        if isinstance(self.counts, _TallyTable):
            return
        d, k = self.d, self.group_size
        if not self.counts:
            raise ValueError("a tally histogram needs at least one group")
        for key, n in self.counts.items():
            if len(key) != d or sum(key) != k:
                raise ValueError(f"tally key {key} does not sum to {k} over {d} categories")
            if n <= 0 or min(key) < 0 or any(v % 1 for v in (n, *key)):
                raise ValueError(f"invalid tally record {key}: {n} groups")
        comps = np.array(list(self.counts), dtype=np.int64).reshape(-1, d)
        # object keeps group counts past 2^63, as from_json allows, exact
        groups = np.array(list(self.counts.values()), dtype=object)
        object.__setattr__(self, "counts", _TallyTable.from_compositions(comps, groups))

    @property
    def n_groups(self) -> int:
        return sum(self.counts.values())

    def to_json(self) -> str:
        items = sorted(self.counts.items())
        return json.dumps(
            {
                "k": self.group_size,
                "d": self.d,
                "counts": [{"key": list(key), "n": n} for key, n in items],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "GroupTallyHistogram":
        obj = json.loads(text)
        k, d = int(obj["k"]), int(obj["d"])
        counts: Dict[Composition, int] = {}
        for rec in obj["counts"]:
            key, n = tuple(int(v) for v in rec["key"]), int(rec["n"])
            old = counts.get(key)
            # a record of no groups keeps its key invalid through the merge
            counts[key] = n if old is None else old + n if min(old, n) > 0 else min(old, n)
        return cls(d, k, counts)


def _check_dataset(d: int, groups: np.ndarray, dtype=None) -> GroupedDataset:
    """Range-check the indices, then store them (cast to dtype if given)."""
    if groups.ndim != 2 or groups.size == 0:
        raise ValueError("expected a nonempty n x k index array")
    if groups.min() < 0 or groups.max() >= d:
        raise ValueError(f"category index out of range [0, {d})")
    g = np.ascontiguousarray(groups, dtype=dtype)
    g.flags.writeable = False
    return GroupedDataset(d, g)


# Groups drawn or tallied at a time.  Blocks of 16k-65k groups drew and
# tallied within about 25% of each other (numpy kernels, 2 cores); larger
# ones were slower and raise the peak memory, which grows with the block,
# not with n_groups.
DRAW_BLOCK = 65_536


def _draw_blocks(mix: MixtureSpec, group_size: int, n_groups: int, seed: int) -> Iterator[np.ndarray]:
    """The groups in DRAW_BLOCK-row blocks.  Group g draws from its own
    counter-derived stream in any block, so the blocks stacked are the
    rows of one kernels.sample_groups call; small blocks stay in cache."""
    if group_size < 1 or n_groups < 1:
        raise ValueError("group_size and n_groups must be >= 1")
    if mix.d > 255:
        raise ValueError("more than 255 categories not supported by the sampler")
    sub_seed = rng.derive_seed(seed, rng.TAG_GROUPS)
    cum_weights, cum_components = np.cumsum(mix.weights), np.cumsum(mix.components, axis=1)
    return (
        kernels.sample_groups(
            sub_seed, min(DRAW_BLOCK, n_groups - lo), group_size, cum_weights, cum_components, start=lo
        )
        for lo in range(0, n_groups, DRAW_BLOCK)
    )


def draw_groups(mix: MixtureSpec, group_size: int, n_groups: int, seed: int) -> GroupedDataset:
    """Sample n_groups exchangeable groups of size group_size.

    Deterministic in seed, independent of how work is partitioned: group
    g consumes its own counter-derived random stream, so any contiguous
    slice of groups can be regenerated in isolation.
    """
    blocks = _draw_blocks(mix, group_size, n_groups, seed)
    groups = np.empty((n_groups, group_size), dtype=np.uint8)
    for lo, block in zip(range(0, n_groups, DRAW_BLOCK), blocks):
        groups[lo : lo + len(block)] = block
    return _check_dataset(mix.d, groups)


def draw_tally(mix: MixtureSpec, group_size: int, n_groups: int, seed: int) -> GroupTallyHistogram:
    """tally(draw_groups(mix, group_size, n_groups, seed)), without the
    n_groups x group_size array: DRAW_BLOCK groups are drawn and tallied
    at a time, so the histogram is the same, array for array."""
    return _tally_blocks(mix.d, group_size, _draw_blocks(mix, group_size, n_groups, seed))


class _TallyTable(Mapping):
    """A tally histogram as sparse arrays, read as a composition -> count map.

    Tally i is held[i] consecutive entries of cats and draws: the
    categories its groups hold, in increasing order, and how often each
    is drawn; groups[i] groups have it.  The dict with length-d keys is
    built only when keys are read, so the moment passes, which read the
    arrays, and n_groups, which reads values(), never build it.
    """

    def __init__(self, d: int, cats: np.ndarray, draws: np.ndarray, held: np.ndarray, groups: np.ndarray):
        self.d, self.cats, self.draws, self.held, self.groups = d, cats, draws, held, groups

    @classmethod
    def from_compositions(cls, comps: np.ndarray, groups: np.ndarray) -> "_TallyTable":
        """From a (#tallies, d) array of category counts."""
        row, cats = np.nonzero(comps)
        return cls(comps.shape[1], cats, comps[row, cats], np.bincount(row, minlength=len(comps)), groups)

    @functools.cached_property
    def _dict(self) -> Dict[Composition, int]:
        comps = np.zeros((len(self.held), self.d), dtype=np.int64)
        comps[np.repeat(np.arange(len(self.held)), self.held), self.cats] = self.draws
        return dict(zip(map(tuple, comps.tolist()), self.groups.tolist()))

    def __getitem__(self, key: Composition) -> int:
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self.groups)

    def values(self):
        return self.groups.tolist()

    def __repr__(self) -> str:
        return repr(self._dict)


def tally(ds: GroupedDataset) -> GroupTallyHistogram:
    """Compress a dataset to its per-group tally histogram.

    Invariant under within-group reordering; together with the moment
    estimators' symmetry this loses no statistical information.  Groups
    are keyed by one base-(k+1) integer while (k+1)^d fits in 63 bits,
    and by their sorted rows otherwise.  The rows are read DRAW_BLOCK at
    a time, as draw_tally draws them.
    """
    g = ds.groups
    return _tally_blocks(ds.d, ds.group_size, (g[lo : lo + DRAW_BLOCK] for lo in range(0, len(g), DRAW_BLOCK)))


def _tally_blocks(d: int, k: int, blocks: Iterable[np.ndarray]) -> GroupTallyHistogram:
    """The tally histogram of the groups in a sequence of row blocks."""
    distinct = _tally_by_keys if (k + 1) ** d < 2**63 else _tally_by_sorting
    return GroupTallyHistogram(d, k, distinct(d, k, blocks))


def _tally_by_keys(d: int, k: int, blocks: Iterable[np.ndarray]) -> _TallyTable:
    """Distinct tallies in increasing order of the base-(k+1) group key."""
    keys, groups = _merge(_distinct(kernels.group_keys(block, d)) for block in blocks)
    comps = keys[:, None] // (k + 1) ** np.arange(d, dtype=np.int64) % (k + 1)
    return _TallyTable.from_compositions(comps, groups)


def _tally_by_sorting(d: int, k: int, blocks: Iterable[np.ndarray]) -> _TallyTable:
    """Distinct tallies in lexicographic order of the sorted rows: equal
    tallies are equal sorted rows, and each run of equal draws in a
    sorted row is one held category."""
    rows, groups = _merge(_distinct(np.sort(block, axis=1)) for block in blocks)
    new = np.ones(rows.shape, dtype=bool)
    new[:, 1:] = rows[:, 1:] != rows[:, :-1]
    first = np.flatnonzero(new)
    return _TallyTable(
        d,
        rows.ravel()[first].astype(np.int64),
        np.diff(first, append=rows.size),
        new.sum(axis=1),
        groups,
    )


def _merge(parts: Iterable[tuple]) -> tuple:
    """Merge the (distinct ids, counts) of several blocks into those of
    all their groups, so where the blocks end does not matter."""
    ids, counts = zip(*parts)
    return _distinct(np.concatenate(ids), np.concatenate(counts))


def _distinct(ids: np.ndarray, counts: np.ndarray | None = None) -> tuple:
    """The distinct ids in increasing order, keys by value and rows
    lexicographically, with the summed counts of each (one per id if
    counts is None)."""
    if counts is None:
        if ids.ndim == 1:
            # sorts the keys alone: a third of the time of argsort and gather
            return np.unique(ids, return_counts=True)
        counts = np.ones(len(ids), dtype=np.int64)
    order = np.argsort(ids) if ids.ndim == 1 else np.lexsort(ids.T[::-1])
    ids = ids[order]
    change = ids[1:] != ids[:-1]
    starts = np.flatnonzero(np.r_[True, change if ids.ndim == 1 else change.any(axis=1)])
    return ids[starts], np.add.reduceat(counts[order], starts)


def num_compositions(k: int, d: int) -> int:
    """Number of length-d nonnegative integer vectors summing to k."""
    return math.comb(k + d - 1, d - 1)


def write_groups(ds: GroupedDataset, fh: IO[str]) -> None:
    """Write one group per line as space-separated 1-based indices."""
    np.savetxt(fh, ds.groups.astype(np.int64) + 1, fmt="%d")


def read_groups(fh: IO[str], d: int | None = None) -> GroupedDataset:
    """Parse the line-based text format; infer d from the data if omitted."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if rows.size == 0:
        raise ValueError("empty dataset")
    if rows.min() < 1:
        raise ValueError("text format uses 1-based category indices")
    groups = rows - 1
    if d is None:
        d = int(groups.max()) + 1
    return _check_dataset(d, groups, np.uint8 if d <= 255 else np.int64)
