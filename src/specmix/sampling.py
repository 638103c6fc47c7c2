"""Grouped sampling from a mixture and lossless tally compression.

A dataset is n groups of k category indices; each group first draws a
latent component by weight, then k iid draws from that component.  Since
every downstream statistic is symmetric in within-group order, a dataset
compresses without loss to a histogram over per-group category tallies.
draw_tally goes straight from the mixture to that histogram, one block of
groups at a time, without holding the whole dataset.  When the possible
tallies are few, one kernel pass keys and counts each group as it draws
it, so no block of rows is written either, and the blocks are split into
contiguous runs, one per CPU the process may run on (at most one per
block), each counted in one kernel call, in its own thread and table.
Every group draws from its own counter stream and integer counts add
exactly, so the histogram does not depend on the number of CPUs.

Category indices are 0-based in memory; the text format on disk is
1-based, one group per line.
"""
from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import IO, Dict, Iterator, Tuple

import numpy as np

from . import kernels, rng
from .model import MixtureSpec
from .tensors import count_vectors

Composition = Tuple[int, ...]


@dataclass(frozen=True)
class GroupedDataset:
    """n_groups x group_size array of category indices in [0, d).

    The indices are checked once, here: the tally keys index a table of
    d entries with them, so an index outside [0, d) would be read as
    another category or fall past the table.
    """

    d: int
    groups: np.ndarray

    def __post_init__(self):
        rng.check_count("d", self.d)
        g = self.groups
        if not isinstance(g, np.ndarray) or g.dtype.kind not in "iu" or g.ndim != 2 or g.size == 0:
            raise ValueError("expected a nonempty n x k integer index array")
        if g.min() < 0 or g.max() >= self.d:
            raise ValueError(f"category index out of range [0, {self.d})")

    @property
    def n_groups(self) -> int:
        return self.groups.shape[0]

    @property
    def group_size(self) -> int:
        return self.groups.shape[1]


@dataclass(frozen=True)
class GroupTallyHistogram:
    """Counts of per-group category tallies.

    d and group_size are integers >= 1, checked by the count rule
    whatever counts holds.  Keys are count vectors of group_size into d
    cells by tensors.count_vector, the one rule for every count-vector
    key: real, non-bool, integral entries >= 0, so (2.0, 1) is the key
    (2, 1) and ("2", "1") and (True, 2) are no keys.  Values are group
    counts in [1, 2**63), real, not bools, integral floats accepted.
    Total count equals the number of groups in the source dataset.
    counts is always the read-only, array-backed mapping tally() builds:
    one given as such is checked against d and group_size by its own d
    and its first tally's draws, and any other mapping is checked once
    here and converted, keeping its key order.
    """

    d: int
    group_size: int
    counts: Mapping[Composition, int]

    def __post_init__(self):
        rng.check_count("d", self.d)
        rng.check_count("group_size", self.group_size)
        d, k = self.d, self.group_size
        if isinstance(self.counts, _TallyTable):
            table = self.counts
            draws = table.draws[: table.held[0]].sum() if len(table) else 0
            if (table.d, draws) != (d, k):
                raise ValueError(f"tally table of groups of {draws} draws from {table.d} categories, not {k} from {d}")
            return
        if not self.counts:
            raise ValueError("a tally histogram needs at least one group")
        comps = count_vectors(list(self.counts), k, d)
        for key, n in self.counts.items():
            if not rng.is_real(n, 1, 2**63) or n % 1:
                raise ValueError(f"invalid tally record {key}: {n} groups")
        groups = np.array(list(self.counts.values()), dtype=np.int64)
        object.__setattr__(self, "counts", _TallyTable.from_compositions(comps, groups))

    @functools.cached_property
    def n_groups(self) -> int:
        """The number of groups, summed once as an exact Python int."""
        return sum(self.counts.values())


# Groups drawn or tallied at a time, and the most cells draw_tally's dense
# tally table may have; the one constant, defined beside the numpy kernels,
# which chunk by it too.
DRAW_BLOCK = kernels.DRAW_BLOCK


def _check_sizes(mix: MixtureSpec, group_size: int, n_groups: int) -> None:
    rng.check_count("group_size", group_size)
    rng.check_count("n_groups", n_groups)
    if mix.d > 255:
        raise ValueError("more than 255 categories not supported by the sampler")


def _thresholds(mix: MixtureSpec) -> tuple:
    """kernels.draw_thresholds of mix, which every block of a draw shares."""
    return kernels.draw_thresholds(np.cumsum(mix.weights), np.cumsum(mix.components, axis=1))


def _draw_blocks(thresholds: tuple, group_size: int, n_groups: int, seed: int) -> Iterator[np.ndarray]:
    """The kernels.sample_groups rows of the groups of a draw, one
    DRAW_BLOCK-group block at a time, with thresholds from _thresholds.
    Group g draws from its own counter-derived stream in any block, so
    the blocks stacked are the output of one kernel call; small blocks
    stay in cache.  The caller has checked the sizes."""
    sub_seed = rng.derive_seed(seed, rng.TAG_GROUPS)
    return (
        kernels.sample_groups(sub_seed, min(DRAW_BLOCK, n_groups - lo), group_size, thresholds, start=lo)
        for lo in range(0, n_groups, DRAW_BLOCK)
    )


def draw_groups(mix: MixtureSpec, group_size: int, n_groups: int, seed: int) -> GroupedDataset:
    """Sample n_groups exchangeable groups of size group_size.

    Deterministic in seed, independent of how work is partitioned: group
    g consumes its own counter-derived random stream, so any contiguous
    slice of groups can be regenerated in isolation.
    """
    _check_sizes(mix, group_size, n_groups)
    groups = np.empty((n_groups, group_size), dtype=np.uint8)
    lo = 0
    for block in _draw_blocks(_thresholds(mix), group_size, n_groups, seed):
        groups[lo : lo + len(block)] = block
        lo += len(block)
    groups.flags.writeable = False
    return GroupedDataset(mix.d, groups)


def draw_tally(mix: MixtureSpec, group_size: int, n_groups: int, seed: int) -> GroupTallyHistogram:
    """tally(draw_groups(mix, group_size, n_groups, seed)), array for
    array, without the n_groups x group_size array.

    While the (k+1)^d possible tallies number at most DRAW_BLOCK,
    kernels.sample_keys keys each group as it draws it and counts it in
    a dense table, whose nonzero cells are the distinct keys in
    increasing order.  The DRAW_BLOCK-group blocks are then split among
    one worker per CPU in the process's affinity set (os.cpu_count()
    where the platform has no affinity call), at most one per block, and
    each worker counts its run of blocks in one kernel call; the
    histogram is the same for any number of workers.  Otherwise
    DRAW_BLOCK groups are drawn and tallied at a time, as tally reads
    them, in the calling thread.
    """
    _check_sizes(mix, group_size, n_groups)
    d, k = mix.d, group_size
    cells = (k + 1) ** d
    thresholds = _thresholds(mix)
    if cells > DRAW_BLOCK:
        return _tally_blocks(d, k, _draw_blocks(thresholds, k, n_groups, seed))
    table = _count_keys(thresholds, k, n_groups, seed, cells)
    keys = np.flatnonzero(table)
    return GroupTallyHistogram(d, k, _from_keys(d, k, keys, table[keys]))


def _count_keys(thresholds: tuple, k: int, n_groups: int, seed: int, cells: int) -> np.ndarray:
    """The table of kernels.sample_keys over the n_groups groups of a draw.

    The ceil(n_groups / DRAW_BLOCK) blocks are split into one contiguous
    run of whole blocks per worker, and each worker counts its run into
    its own table in one sample_keys call, in a thread (the compiled
    kernel releases the GIL, and numpy does in its array loops); the
    calling thread counts the first run.  So one call covers at most
    ceil(blocks / workers) blocks: all n_groups groups with one CPU.
    Each group draws from its own stream, so a call over a run counts
    what its blocks would count one by one.  The tables are summed once
    every thread has ended, and the first worker's exception, if any, is
    raised as it was raised.
    """
    blocks = -(-n_groups // DRAW_BLOCK)
    workers = min(_cpu_count(), blocks)
    bounds = [min(blocks * i // workers * DRAW_BLOCK, n_groups) for i in range(workers + 1)]
    tables = [np.zeros(cells, dtype=np.int64) for _ in range(workers)]
    errors: list = [None] * workers
    sub_seed = rng.derive_seed(seed, rng.TAG_GROUPS)

    def count(i: int) -> None:
        lo, hi = bounds[i], bounds[i + 1]
        try:
            kernels.sample_keys(sub_seed, hi - lo, k, thresholds, tables[i], start=lo)
        except BaseException as exc:  # raised again in the calling thread
            errors[i] = exc

    threads = [threading.Thread(target=count, args=(i,)) for i in range(1, workers)]
    for thread in threads:
        thread.start()
    count(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    for table in tables[1:]:
        tables[0] += table
    return tables[0]


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
    return _from_keys(d, k, keys, groups)


def _from_keys(d: int, k: int, keys: np.ndarray, groups: np.ndarray) -> _TallyTable:
    """The tallies of distinct base-(k+1) keys, groups[i] groups each."""
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
    """Parse the line-based text format; infer d from the data if omitted.

    An index below 1 is a ValueError that names its group, counted from 1
    over the non-blank lines.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        rows = np.loadtxt(fh, dtype=np.int64, ndmin=2)
    if rows.size == 0:
        raise ValueError("empty dataset")
    low = rows.min(axis=1)
    if low.min() < 1:
        group = np.argmax(low < 1)
        raise ValueError(f"group {group + 1}: index {low[group]} is below 1; the text format uses 1-based category indices")
    groups = rows - 1
    if d is None:
        d = int(groups.max()) + 1
    GroupedDataset(d, groups)  # checks the indices before uint8 could wrap them
    groups = groups.astype(np.uint8 if d <= 255 else np.int64, copy=False)
    groups.flags.writeable = False
    return GroupedDataset(d, groups)
