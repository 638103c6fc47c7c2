"""Grouped sampling from a mixture and lossless tally compression.

A dataset is n groups of k category indices; each group first draws a
latent component by weight, then k iid draws from that component.  Since
every downstream statistic is symmetric in within-group order, a dataset
compresses without loss to a histogram over per-group category tallies.

Category indices are 0-based in memory; the text format on disk is
1-based, one group per line.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import IO, Dict, Tuple

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
    of groups in the source dataset.
    """

    d: int
    group_size: int
    counts: Dict[Composition, int]

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
            key = tuple(int(v) for v in rec["key"])
            n = int(rec["n"])
            if len(key) != d or sum(key) != k:
                raise ValueError(f"tally key {key} does not sum to {k} over {d} categories")
            if n <= 0 or any(v < 0 for v in key):
                raise ValueError(f"invalid tally record {rec}")
            counts[key] = counts.get(key, 0) + n
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


def draw_groups(mix: MixtureSpec, group_size: int, n_groups: int, seed: int) -> GroupedDataset:
    """Sample n_groups exchangeable groups of size group_size.

    Deterministic in seed, independent of how work is partitioned: group
    g consumes its own counter-derived random stream, so any contiguous
    slice of groups can be regenerated in isolation.
    """
    if group_size < 1 or n_groups < 1:
        raise ValueError("group_size and n_groups must be >= 1")
    if mix.d > 255:
        raise ValueError("more than 255 categories not supported by the sampler")
    cum_weights = np.cumsum(mix.weights)
    cum_components = np.cumsum(mix.components, axis=1)
    groups = kernels.sample_groups(
        rng.derive_seed(seed, rng.TAG_GROUPS),
        n_groups,
        group_size,
        cum_weights,
        cum_components,
    )
    return _check_dataset(mix.d, groups)


def tally(ds: GroupedDataset) -> GroupTallyHistogram:
    """Compress a dataset to its per-group tally histogram.

    Invariant under within-group reordering; together with the moment
    estimators' symmetry this loses no statistical information.
    """
    k, d = ds.group_size, ds.d
    if (k + 1) ** d >= 2**63:
        raise ValueError(f"tally keys overflow 63 bits for d={d}, k={k}")
    keys = kernels.group_keys(ds.groups, d)
    uniq, counts = np.unique(keys, return_counts=True)
    out: Dict[Composition, int] = {}
    base = k + 1
    for key, n in zip(uniq.tolist(), counts.tolist()):
        comp = []
        for _ in range(d):
            key, rem = divmod(key, base)
            comp.append(rem)
        out[tuple(comp)] = int(n)
    return GroupTallyHistogram(d, k, out)


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
