"""Pure numpy sampling and tally-key kernels.

sample_groups and sample_keys are the fallback used when the compiled
kernels of _kernels.py cannot be built or loaded.  Both backends
implement the same contract: the counter scheme documented in rng.py and
an inverse-CDF pick by the integer thresholds of draw_thresholds,
producing bit-identical output.  draw_thresholds, the one definition of
that pick, and group_keys, the one tally-key encoder, are used on either
backend.
"""
from __future__ import annotations

import numpy as np

from .rng import COUNTER_MULT, GOLD, MASK, STREAM_MULT, mix64, mix64_into

_U64 = np.uint64


def draw_thresholds(cum_weights, cum_components):
    """The integer thresholds both backends draw with.

    Returns the int64 thresholds t(c) of the first min(m, n_comp - 1)
    of the m cumulative weights, and the (n_comp, d - 1) thresholds of
    the first d - 1 cumulative masses of each row of the (n_comp, d)
    cum_components.  A group draws a 64-bit word w, and x = w >> 11
    picks the component, then each category, by counting the thresholds
    of its row that x reaches (x >= t).  Neither count can exceed the
    number of thresholds, so it needs no clip.

    That count is the inverse-CDF pick searchsorted(side="right") of
    u = rng.to_unit(w) on the cumulative masses, clipped to the last
    entry, because u >= c holds exactly when x >= t(c), for

      t(c) = 0                for c <= 0, -0.0 and -inf included;
      t(c) = ceil(c * 2**53)  for 0 < c < 1;
      t(c) = 2**53            for c >= 1, +inf and NaN, which no x reaches.

    The uniform u = x * 2**-53 is exact, since x < 2**53, so u >= c
    exactly when x >= c * 2**53, the scaling by a power of two being
    exact too (subnormal c included), and for an integer x that holds
    exactly when x >= ceil(c * 2**53).  With c >= 1 no u < 1 reaches c,
    and NaN compares false, as searchsorted, which sorts NaN last, also
    treats it.  t is nondecreasing, so nondecreasing rows, the contract
    of the cumulative arrays, give nondecreasing threshold rows.

    Raises ValueError unless cum_weights is 1-D and cum_components 2-D
    and nonempty.
    """
    cum_weights = np.asarray(cum_weights, dtype=np.float64)
    cum_components = np.asarray(cum_components, dtype=np.float64)
    if cum_weights.ndim != 1 or cum_components.ndim != 2 or 0 in cum_components.shape:
        raise ValueError("expected (m,) cumulative weights and nonempty (m, d) cumulative components")
    return _threshold(cum_weights[: len(cum_components) - 1]), _threshold(cum_components[:, :-1])


def _threshold(c):
    """t(c) of draw_thresholds, elementwise."""
    scaled = np.ceil(np.clip(c, 0.0, 1.0) * 2.0**53)  # clipped first, so nothing overflows
    return np.where(c < 1.0, scaled, 2.0**53).astype(np.int64)  # NaN fails c < 1


def sample_groups(seed, n_groups, group_size, thresholds, start=0):
    """Draw category codes for n_groups groups.

    Parameters
    ----------
    seed : int
        Subsystem seed (already tag-derived by the caller).
    thresholds : (weight thresholds, component thresholds)
        draw_thresholds of the cumulative weights and the cumulative
        category masses per component, rows nondecreasing.
    start : int
        Index of the first group; group g uses stream ``start + g`` so a
        dataset may be produced in blocks without changing the result.

    Returns
    -------
    (n_groups, group_size) uint8 array of 0-based category codes.
    """
    weight_t, comp_t = thresholds
    # Two buffers of n_groups words serve every counter: the words and
    # a scratch buffer.  Fresh temporaries per column are paged in anew
    # whenever the allocator has handed the last ones back.
    words, scratch = np.empty(n_groups, dtype=np.uint64), np.empty(n_groups, dtype=np.uint64)
    bases = np.arange(n_groups, dtype=np.uint64)
    bases += _U64(int(start) & MASK)  # stream numbers wrap modulo 2**64, as the compiled kernels' do
    bases *= _U64(STREAM_MULT)
    bases ^= _U64(mix64((int(seed) + GOLD) & MASK))
    mix64_into(bases, scratch)

    def draws(counter):
        """x = w >> 11 of every group's word w at counter, in words."""
        np.bitwise_xor(bases, _U64((counter * COUNTER_MULT) & MASK), out=words)
        mix64_into(words, scratch)
        np.right_shift(words, _U64(11), out=words)
        return words.view(np.int64)  # below 2**53, so compared as the int64 thresholds are

    comp = np.searchsorted(weight_t, draws(0), side="right")  # counter 0: component pick

    # A group keeps its component for all its draws, so split once.
    members = [np.flatnonzero(comp == c) for c in range(len(comp_t))]
    out = np.empty((n_groups, group_size), dtype=np.uint8)
    for j in range(group_size):
        x = draws(j + 1)
        for row, idx in zip(comp_t, members):
            out[idx, j] = np.searchsorted(row, x[idx], side="right")
    return out


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


def sample_keys(seed, n_groups, group_size, thresholds, table, start=0):
    """Count the groups sample_groups draws by their group_keys key: each
    adds one to table[key], and table is returned.  table must be a
    writeable, aligned C-contiguous int64 array of exactly
    (group_size+1)**d cells, which holds every key.
    """
    d = thresholds[1].shape[1] + 1
    check_table(table, group_size, d)
    keys = group_keys(sample_groups(seed, n_groups, group_size, thresholds, start), d)
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
