"""Pure numpy sampling and tally-key kernels.

sample_groups and sample_keys are the fallback used when the compiled
kernels of _kernels.py cannot be built or loaded.  Both backends
implement the same contract: the counter scheme documented in rng.py and
inverse-CDF search on caller-provided cumulative arrays, producing
bit-identical output.  group_keys is the one tally-key encoder, used on
either backend.
"""
from __future__ import annotations

import numpy as np

from .rng import _INV_2_53, COUNTER_MULT, GOLD, MASK, MIX_A, MIX_B, STREAM_MULT, mix64

_U64 = np.uint64


def sample_groups(seed, n_groups, group_size, cum_weights, cum_components, start=0):
    """Draw category codes for n_groups groups.

    Parameters
    ----------
    seed : int
        Subsystem seed (already tag-derived by the caller).
    cum_weights : (m,) float64
        Cumulative mixture weights.
    cum_components : (m, d) float64
        Cumulative category masses per component, rows nondecreasing.
    start : int
        Index of the first group; group g uses stream ``start + g`` so a
        dataset may be produced in blocks without changing the result.

    Returns
    -------
    (n_groups, group_size) uint8 array of 0-based category codes.
    """
    cum_weights = np.asarray(cum_weights, dtype=np.float64)
    cum_components = np.asarray(cum_components, dtype=np.float64)
    n_comp, d = cum_components.shape
    # Three buffers of n_groups words serve every counter: the words, a
    # scratch buffer that ends each counter holding the uniforms, and the
    # categories.  Fresh temporaries per column are paged in anew whenever
    # the allocator has handed the last ones back.
    words, scratch, cats = (np.empty(n_groups, dtype=t) for t in (np.uint64, np.uint64, np.int64))
    bases = np.arange(n_groups, dtype=np.uint64)
    bases += _U64(int(start) & MASK)  # stream numbers wrap modulo 2**64, as the compiled kernels' do
    bases *= _U64(STREAM_MULT)
    bases ^= _U64(mix64((int(seed) + GOLD) & MASK))
    _mix64_into(bases, scratch)

    def uniforms(counter):
        """to_unit of every group's word at counter, in scratch."""
        np.bitwise_xor(bases, _U64((counter * COUNTER_MULT) & MASK), out=words)
        _mix64_into(words, scratch)
        # x = w >> 11 < 2**53 converts exactly, and scaling by 2**-53 rounds nothing
        np.right_shift(words, _U64(11), out=words)
        return np.multiply(words, _INV_2_53, out=scratch.view(np.float64))

    comp = np.searchsorted(cum_weights, uniforms(0), side="right")  # counter 0: component pick
    np.minimum(comp, n_comp - 1, out=comp)

    # A group keeps its component for all its draws, so split once.
    members = [np.flatnonzero(comp == c) for c in range(n_comp)]
    out = np.empty((n_groups, group_size), dtype=np.uint8)
    for j in range(group_size):
        u = uniforms(j + 1)
        for c, idx in enumerate(members):
            cats[idx] = np.searchsorted(cum_components[c], u[idx], side="right")
        np.minimum(cats, d - 1, out=cats)
        out[:, j] = cats
    return out


def _mix64_into(z, scratch):
    """rng._mix64_array(z), computed in z, with scratch as the one temporary."""
    for shift, mult in ((30, MIX_A), (27, MIX_B)):
        np.right_shift(z, _U64(shift), out=scratch)
        np.bitwise_xor(z, scratch, out=z)
        np.multiply(z, _U64(mult), out=z)
    np.right_shift(z, _U64(31), out=scratch)
    np.bitwise_xor(z, scratch, out=z)


def group_keys(groups, d):
    """Encode each group's category tally as one base-(k+1) integer.

    Each draw of category c contributes (k+1)**c, so a group with tally
    (c_0, .., c_{d-1}) maps to sum c_j (k+1)**j; no carries occur because
    every c_j <= k.  The caller guarantees (k+1)**d fits in int64.
    Raises ValueError for a category index outside [0, d).
    """
    groups = np.asarray(groups)
    n, k = groups.shape
    if groups.size and (groups.min() < 0 or groups.max() >= d):
        raise ValueError(f"category index out of range [0, {d})")
    pows = (k + 1) ** np.arange(d, dtype=np.int64)
    keys = np.zeros(n, dtype=np.int64)
    # One reused column buffer: a fresh temporary per column is paged in
    # anew whenever the allocator has handed the last one back, which
    # doubled the encoder's time when tallying 10^7 groups.
    col = np.empty(n, dtype=np.int64)
    for j in range(k):
        keys += pows.take(groups[:, j], mode="clip", out=col)  # indices checked above
    return keys


def sample_keys(seed, n_groups, group_size, cum_weights, cum_components, table, start=0):
    """Count the groups sample_groups draws by their group_keys key: each
    adds one to table[key], and table is returned.  table must be a
    writeable, aligned C-contiguous int64 array of exactly
    (group_size+1)**d cells, which holds every key.
    """
    cum_components = np.asarray(cum_components, dtype=np.float64)
    d = cum_components.shape[-1]
    check_table(table, group_size, d)
    keys = group_keys(sample_groups(seed, n_groups, group_size, cum_weights, cum_components, start), d)
    table += np.bincount(keys, minlength=len(table))
    return table


def check_table(table, group_size, d):
    """Raise ValueError unless table can count every key of groups of
    group_size draws from d categories (see sample_keys)."""
    cells = (group_size + 1) ** d
    if not (
        isinstance(table, np.ndarray)
        and table.dtype == np.int64
        and table.shape == (cells,)
        and table.flags.c_contiguous
        and table.flags.aligned
        and table.flags.writeable
    ):
        raise ValueError(f"table must be a writeable C-contiguous int64 array of (k+1)**d = {cells} cells")
