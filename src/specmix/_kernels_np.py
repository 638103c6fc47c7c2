"""Pure numpy sampling and tally-key kernels.

sample_groups and sample_keys are the fallback used when the compiled
kernels of _kernels.py cannot be built or loaded.  Both backends
implement the same contract: the counter scheme documented in rng.py and
an inverse-CDF pick by the integer thresholds of draw_thresholds,
producing bit-identical output.  draw_thresholds, the one definition of
that pick, group_keys, the one tally-key encoder, and DRAW_BLOCK, the one
block size, are used on either backend.
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


# Groups drawn or tallied at a time: the blocks of sampling's draws, the
# chunks in which sample_keys below reuses its buffers, and the most cells
# draw_tally's dense tally table may have, so the table is never larger
# than the int64 keys of one block of rows.  With the compiled kernels,
# then including a compiled group_keys, draw_tally on 2e5 groups at d=6,
# k=7 took 17.8 / 17.4 / 16.5 / 18.5 ms with blocks of 16k / 32k / 65k /
# 131k groups, and on 4e4 groups at d=12, k=5 5.17 / 5.10 / 4.82 / 4.84
# ms (medians of 10 alternating rounds, 2 cores); no size beat 65k in more
# than 5 of 10 rounds.  Peak memory grows with the block (0.45 to 3.1 MiB
# traced at d=6), not with n_groups.
DRAW_BLOCK = 65_536


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
    check_sizes(n_groups, group_size)
    out = np.empty((n_groups, group_size), dtype=np.uint8)
    words, scratch, bases = (np.empty(n_groups, dtype=np.uint64) for _ in range(3))
    _draw(seed, start, thresholds, out, words, scratch, bases)
    return out


def _draw(seed, start, thresholds, out, words, scratch, bases):
    """Write to out, an (n, group_size) uint8 array, the codes of the n
    groups on streams start, start+1, ..; see sample_groups.  words,
    scratch and bases are uint64 arrays of n entries, overwritten: every
    counter is drawn in them, where fresh temporaries per column would be
    paged in anew whenever the allocator has handed the last ones back."""
    weight_t, comp_t = thresholds
    # as the compiled kernels do, at most n_comp - 1 weights; more would pick a component past comp_t
    weight_t = weight_t[: len(comp_t) - 1]
    # the stream numbers, wrapping modulo 2**64 as the compiled kernels' do,
    # summed in place where np.arange would allocate them
    bases.fill(1)
    bases[:1] = int(start) & MASK
    np.cumsum(bases, out=bases)
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
    del comp  # freed before the draws' temporaries, which would otherwise raise the peak
    for j in range(out.shape[1]):
        x = draws(j + 1)
        for row, idx in zip(comp_t, members):
            out[idx, j] = np.searchsorted(row, x[idx], side="right")


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
    keys = np.empty(n, dtype=np.int64)
    _encode(groups, (k + 1) ** np.arange(d, dtype=np.int64), keys, np.empty(n, dtype=np.int64))
    return keys


def _encode(groups, pows, keys, col):
    """Write the group_keys of groups to keys, where pows[c] = (k+1)**c
    is what a draw of category c adds, with col, an int64 array of as
    many entries, as the one column buffer: a fresh temporary per column
    is paged in anew whenever the allocator has handed the last one back,
    which doubled the encoder's time when tallying 10^7 groups."""
    keys.fill(0)
    for j in range(groups.shape[1]):
        keys += pows.take(groups[:, j], mode="clip", out=col)  # the caller checked the codes


def sample_keys(seed, n_groups, group_size, thresholds, table, start=0):
    """Count the groups sample_groups draws by their group_keys key: each
    adds one to table[key], and table is returned.  table must be a
    writeable, aligned C-contiguous int64 array of exactly
    (group_size+1)**d cells, which holds every key.

    The groups are drawn and keyed DRAW_BLOCK at a time, in one set of
    buffers that every block reuses, so memory does not grow with
    n_groups and no block pages in memory the last one handed back.
    """
    check_sizes(n_groups, group_size)
    d = thresholds[1].shape[1] + 1
    check_table(table, group_size, d)
    size = min(n_groups, DRAW_BLOCK)
    words, scratch, bases = (np.empty(size, dtype=np.uint64) for _ in range(3))
    codes = np.empty((size, group_size), dtype=np.uint8)
    # a block's keys and their column buffer reuse bases and scratch, which its draw no longer reads
    keys, col = bases.view(np.int64), scratch.view(np.int64)
    pows = (group_size + 1) ** np.arange(d, dtype=np.int64)
    for lo in range(0, n_groups, DRAW_BLOCK):
        n = min(DRAW_BLOCK, n_groups - lo)
        _draw(seed, int(start) + lo, thresholds, codes[:n], words[:n], scratch[:n], bases[:n])
        _encode(codes[:n], pows, keys[:n], col[:n])
        table += np.bincount(keys[:n], minlength=len(table))
    return table


def check_sizes(n_groups, group_size):
    """Raise ValueError unless both sizes are >= 0: the size check of
    both backends' samplers."""
    if n_groups < 0 or group_size < 0:
        raise ValueError("n_groups and group_size must be >= 0")


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
