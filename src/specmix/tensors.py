"""Dense tensor algebra for the spectral recovery pipeline.

Conventions
-----------
An order-k tensor over R^d is a numpy array of shape (d,) * k in
row-major layout.  ``unfold(t, s)`` views it as a linear map from the
first s axes to the remaining k - s axes: the result has shape
(d**(k-s), d**s) and sends the coordinate vector of a simple tensor
x_1 (x) .. (x) x_s to the coordinates of the last k - s slots.  ``fold``
is the exact inverse.  Both are reference views the library no longer
calls: the pipeline's moments are symmetric, so it reads the plain
row-major reshape, the transpose of the unfolding, which for a
symmetric tensor equals it.  Operators are plain 2-D arrays.

Symmetric tensors live in the multiset basis: one value per size-r
multiset of [d], C(d+r-1, r) in all, in rank order.  A multiset is held
as its sorted word, the r letters in ascending order.  ``_rank`` is the
one rank formula, with its terms in ``_rank_terms``, and ``_words`` the
one enumerator; ``_multisets`` gives the rank of every multi-index, the
dense read-out, and ``_orbit_sizes`` the number of multi-indices of each
multiset.  Population moments, symmetrization, the moment tally kernel,
the spread map and the rank estimator's unfolding (``_sym_unfolding``)
all work in this basis.
"""
from __future__ import annotations

import itertools
import math
import numbers
from typing import NamedTuple

import numpy as np

from . import rng

class RankDeficiencyError(RuntimeError):
    """Fewer usable eigenvalues than requested; operator rank is below target."""


class EigenDecomposition(NamedTuple):
    """Symmetric eigendecomposition, eigenvalues descending, eigenvector
    columns orthonormal."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def outer_power(v: np.ndarray, k: int) -> np.ndarray:
    """k-fold outer product v (x) v (x) .. (x) v, entry (i_1..i_k) = prod v_{i_j}."""
    rng.check_count("k", k)
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a vector")
    t = v
    for _ in range(k - 1):
        t = np.multiply.outer(t, v)
    return t


def _rank(words: np.ndarray, d: int) -> np.ndarray:
    """The rank of size-r multisets of [d], an int64 array of
    words.shape[1:]; words[j] holds letter j of each sorted word.

    A word w_0 <= .. <= w_{r-1} has its stars-and-bars bars at S_c + c,
    S_c counting its letters <= c.  The rank is their combinadic rank,
    sum_c C(S_c + c, c + 1) = C(d+r-1, r) - 1 - sum_j C(w_j + j, j + 1),
    which numbers the multisets 0 .. C(d+r-1, r) - 1, from r copies of
    d - 1 to r zeros, and so cannot overflow.
    """
    r = len(words)
    terms = _rank_terms(d, r)
    rank = np.full(words.shape[1:], math.comb(d + r - 1, r) - 1, dtype=np.int64)
    for j in range(r):
        rank -= terms[j][words[j]]
    return rank


def _rank_terms(d: int, r: int) -> np.ndarray:
    """The (r, d) int64 table of _rank's terms: entry (j, w) is
    C(w + j, j + 1), the term of letter w at position j of a sorted word."""
    return np.array([[math.comb(w + j, j + 1) for w in range(d)] for j in range(r)], dtype=np.int64)


def _counts_rank(counts: np.ndarray, r: int) -> np.ndarray:
    """The rank of each row of an (N, d) array of count vectors summing to r."""
    n, d = counts.shape
    return _rank(np.repeat(np.tile(np.arange(d), n), counts.ravel()).reshape(n, r).T, d)


def _words(d: int, r: int) -> np.ndarray:
    """The sorted word of every size-r multiset of [d] in rank order, an
    (r, C(d+r-1, r)) int64 array with one word per column."""
    words = np.zeros((0, 1), dtype=np.int64)
    for k in range(r):
        # larger last letters rank first; the words ending in c extend the
        # C(c+k, k) shorter words over [0, c], which rank last
        words = np.hstack(
            [np.vstack([words[:, -math.comb(c + k, k):], np.full(math.comb(c + k, k), c)]) for c in range(d - 1, -1, -1)]
        )
    return words


def _orbit_sizes(d: int, r: int) -> np.ndarray:
    """The number of multi-indices of each size-r multiset of [d] in rank
    order, r! over the product of its letters' multiplicity factorials,
    as float64.

    Along a sorted word, the c-th copy of a letter contributes c to that
    product.  Every quantity formed divides r!, so all are exact up to
    r = 22, the last r whose r! float64 holds exactly.
    """
    words = _words(d, r)
    copies = np.ones(words.shape[1])
    repeats = np.ones(words.shape[1])
    for j in range(1, r):
        copies = np.where(words[j] == words[j - 1], copies + 1.0, 1.0)
        repeats *= copies
    return float(math.factorial(r)) / repeats


def _sym_unfolding(values: np.ndarray, d: int, n: int) -> np.ndarray:
    """The order-2n symmetric tensor with multiset values values, unfolded
    at split n in the orthonormal basis of Sym^n: M_s[a, b] =
    sqrt(n(a) n(b)) values[a + b] over the size-n multisets a, b of [d],
    n(.) their _orbit_sizes.

    e_a, the indicator of a's multi-indices over sqrt(n(a)), is that
    basis, so the dense d^n x d^n unfolding is E M_s E^T and has the
    same nonzero singular values, from a C(d+n-1, n)-square matrix.  The
    multisets run in reverse rank order, so at n = 1 M_s is the dense
    matrix itself.
    """
    words = _words(d, n)[:, ::-1].astype(np.min_scalar_type(d))  # narrow: the pairs are the largest array
    size = words.shape[1]
    pairs = np.empty((2 * n, size, size), dtype=words.dtype)
    pairs[:n], pairs[n:] = words[:, :, None], words[:, None, :]
    pairs.sort(axis=0)  # the sorted word of a + b
    index = _rank(pairs, d)
    del pairs
    unfolding = values[index]
    del index
    scale = np.sqrt(_orbit_sizes(d, n)[::-1])
    unfolding *= scale[:, None]
    unfolding *= scale
    return unfolding


def count_vector(x, n: int | None = None, d: int | None = None) -> tuple[int, ...]:
    """x as a tuple of Python ints, if it is a count vector: the one rule
    for every tally key and multinomial key.

    Each entry must be a real number, not a bool (numpy's bool is no real
    number, nor is a string), integral and >= 0, so 2.0 and np.int64(2)
    pass and 1.5, True and "2" do not.  x must have d entries summing to
    n where the caller fixes them.  Otherwise a ValueError names x as
    written.
    """
    entries = tuple(x) if np.iterable(x) else (None,)
    # checked in this order, so no comparison or % meets a value it is not defined on
    if all(isinstance(v, numbers.Real) and not isinstance(v, bool) and v >= 0 and v % 1 == 0 for v in entries):
        counts = tuple(map(int, entries))
        if (d is None or len(counts) == d) and (n is None or sum(counts) == n):
            return counts
    total = "any n" if n is None else n
    cells = "any number of" if d is None else d
    raise ValueError(f"key {x} is not a composition of {total} into {cells} cells")


def count_vectors(keys: list, n: int, d: int) -> np.ndarray:
    """keys as an (len, d) int64 array whose rows are count_vector's
    tuples for n into d cells; a ValueError names the first key that rule
    refuses.

    Keys whose entries are all Python ints or np.int64, in [0, n] and
    summing to n in each row, pass as one array: count_vector accepts
    them, as the same ints.  Any other keys go through count_vector one
    by one.
    """
    try:
        counts = np.array(keys, dtype=np.int64)
        ints = set(map(type, itertools.chain.from_iterable(keys))) <= {int, np.int64}
    except (TypeError, ValueError, OverflowError):  # a key that is no sequence, keys of different lengths, 2**63
        counts, ints = np.empty(0), False
    # entries in [0, n] keep the row sums far from int64 overflow
    if not ints or counts.shape != (len(keys), d) or ((counts < 0) | (counts > n)).any() or (counts.sum(axis=1) != n).any():
        counts = np.array([count_vector(x, n, d) for x in keys], dtype=np.int64).reshape(len(keys), d)
    return counts


def enumerate_compositions(n: int, q: int) -> list[tuple[int, ...]]:
    """All length-q nonnegative integer vectors summing to n.

    Fixed order: first coordinate descending, recursively within.  The
    order is part of the serialization contract.  It is the rank order
    of the size-n multisets of [q] with each category c renamed q-1-c.
    """
    rng.check_count("n", n, 0)
    rng.check_count("q", q)
    size = math.comb(n + q - 1, n)
    flat = (np.arange(size) * q + (q - 1 - _words(q, n))).ravel()
    return list(map(tuple, np.bincount(flat, minlength=size * q).reshape(size, q).tolist()))


def _multisets(d: int, r: int) -> np.ndarray:
    """The multiset rank of every multi-index in [d]^r, a (d,)*r int64 array.

    Built one axis at a time: a size-k multiset's sorted word with letter
    c inserted has letters max(w_{j-1}, min(w_j, c)), j = 0 .. k.
    """
    rank = np.zeros((), dtype=np.int64)
    for k in range(r):
        words = _words(d, k)
        lo = np.vstack([np.full(words.shape[1], -1), words])[:, :, None]
        hi = np.vstack([words, np.full(words.shape[1], d)])[:, :, None]
        grown = _rank(np.maximum(lo, np.minimum(hi, np.arange(d))), d)
        rank = np.take(grown, rank[..., None] * d + np.arange(d))
    return rank


def _power_sum(weights, vectors, r: int) -> np.ndarray:
    """The multiset values of sum_i weights[i] * vectors[i]^{(x) r}: for
    each sorted word w in rank order, sum_i weights[i] * prod_j
    vectors[i][w_j], the product taken along w and the sum in index
    order."""
    words = _words(len(vectors[0]), r)
    t = np.zeros(words.shape[1])
    for w, v in zip(weights, vectors):
        v = np.asarray(v, dtype=np.float64)
        term = v[words[0]]
        for j in range(1, r):
            term *= v[words[j]]
        t += w * term
    return t


def symmetrize(t: np.ndarray) -> np.ndarray:
    """Average each entry over all permutations of its multi-index.

    The permutations of a multi-index are exactly the multi-indices of
    the same multiset, so this averages over each multiset rank instead
    of materializing k! permutations; the result is identical.
    """
    t = np.asarray(t, dtype=np.float64)
    k = t.ndim
    d = t.shape[0] if k else 0
    if t.shape != (d,) * k:
        raise ValueError(f"expected cubical shape, got {t.shape}")
    if k <= 1 or d == 0:
        return t.copy()
    rank = _multisets(d, k).ravel()
    sums = np.bincount(rank, weights=t.ravel())
    return (sums / np.bincount(rank))[rank].reshape(t.shape)


def unfold(t: np.ndarray, split: int) -> np.ndarray:
    """Matrix of shape (d**(k-split), d**split) mapping the first-split-axes
    coordinates to the trailing-axes coordinates."""
    t = np.asarray(t, dtype=np.float64)
    k = t.ndim
    if not rng.is_integer(split) or not 1 <= split <= k - 1:
        raise ValueError(f"split must be in [1, {k - 1}], got {split!r}")
    d = t.shape[0]
    return np.ascontiguousarray(t.reshape(d**split, -1).T)


def fold(m: np.ndarray, dim: int, order: int, split: int) -> np.ndarray:
    """Inverse of unfold; exact reindexing, no arithmetic."""
    rng.check_count("dim", dim)
    rng.check_count("order", order, 2)
    m = np.asarray(m, dtype=np.float64)
    if not rng.is_integer(split) or not 1 <= split <= order - 1:
        raise ValueError(f"split must be in [1, {order - 1}], got {split!r}")
    rows, cols = dim ** (order - split), dim**split
    if m.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {m.shape}")
    return np.ascontiguousarray(m.T).reshape((dim,) * order)


def sym_eig(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, descending order.

    Requires finite entries and symmetry within 1e-8 relative to the
    largest entry.  A matrix equal to its transpose bit for bit is
    decomposed as given, without a copy; any other is replaced by its
    symmetric part 0.5 * (m + m.T) first, so the decomposition is exact
    for the symmetric part either way.

    The eigenvectors are eigh's columns in reverse order, a view with no
    copy, each with the sign LAPACK gave it: an eigenvector is defined
    only up to sign, and no output of the pipeline depends on it.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    if m.size == 0:
        raise ValueError("expected a non-empty matrix")
    # the largest |entry|; max and min propagate NaN and inf
    peak = max(m.max(), -m.min())
    if not np.isfinite(peak):
        raise ValueError("matrix has non-finite entries")
    # m - m.T is exactly antisymmetric, so its max is the largest asymmetry
    skew = np.subtract(m, m.T)
    if skew.max() > 1e-8 * max(1.0, peak):
        raise ValueError("matrix is not symmetric within tolerance")
    # A sign bit in m - m.T marks an entry that differs from its mirror,
    # if only as -0.0 against +0.0; only then does the symmetric part
    # differ from m, and it reuses the buffer.
    if skew.view(np.int64).min() < 0:
        m = np.multiply(np.add(m, m.T, out=skew), 0.5, out=skew)
    del skew  # free before eigh, unless it now holds m
    lam, vec = np.linalg.eigh(m)
    return EigenDecomposition(lam[::-1].copy(), vec[:, ::-1])


def eig_sqrt_pinv(dec: EigenDecomposition, keep: int, eig_floor: float = 1e-8) -> np.ndarray:
    """Inverse square root of a PSD matrix restricted to its top eigenspace,
    from the matrix's eigendecomposition.

    Returns sum of lam_i**-0.5 v_i v_i^T over the top ``keep`` eigenpairs.
    Eigenvalues below eig_floor times the largest are unusable; if fewer
    than ``keep`` usable eigenvalues remain a RankDeficiencyError is
    raised, signalling that the requested rank exceeds the operator's;
    its message gives eigenvalue ``keep`` as a fraction of the largest,
    so a near miss (nearly coincident components) shows as a ratio just
    under eig_floor and a wrong rank as one near zero.  eig_floor must be
    a number in (0, 1), as RecoveryConfig's is; anything else is a
    ValueError.
    """
    if not (rng.is_real(eig_floor, 0.0, 1.0) and eig_floor > 0):
        raise ValueError(f"eig_floor must be a number in (0, 1), got {eig_floor!r}")
    lam_max = dec.eigenvalues[0]
    if lam_max <= 0.0:
        raise RankDeficiencyError("matrix has no positive eigenvalue")
    usable = int(np.sum(dec.eigenvalues > eig_floor * lam_max))
    if usable < keep:
        if keep > dec.eigenvalues.size:
            margin = f"the matrix has only {dec.eigenvalues.size} eigenvalues"
        else:
            ratio = dec.eigenvalues[keep - 1] / lam_max
            margin = f"eigenvalue {keep} is {ratio:.2g} of the largest"
        raise RankDeficiencyError(
            f"requested {keep} eigenpairs but only {usable} exceed "
            f"{eig_floor:g} of the spectral radius; {margin}"
        )
    vec = dec.eigenvectors[:, :keep]
    lam = dec.eigenvalues[:keep]
    return (vec / np.sqrt(lam)) @ vec.T


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Number of singular values above rel_tol times the largest; rel_tol
    must be a finite number in [0, 1), else a ValueError names it."""
    if not rng.is_real(rel_tol, 0.0, 1.0):
        raise ValueError(f"rel_tol must be a finite number in [0, 1), got {rel_tol!r}")
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
