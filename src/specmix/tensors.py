"""Dense tensor algebra for the spectral recovery pipeline.

Conventions
-----------
An order-k tensor over R^d is a numpy array of shape (d,) * k in
row-major layout.  ``unfold(t, s)`` views it as a linear map from the
first s axes to the remaining k - s axes: the result has shape
(d**(k-s), d**s) and sends the coordinate vector of a simple tensor
x_1 (x) .. (x) x_s to the coordinates of the last k - s slots.  ``fold``
is the exact inverse.  Operators are plain 2-D arrays.

Symmetric tensors live in the multiset basis: one value per size-r
multiset of [d] (a count vector summing to r), C(d+r-1, r) in all.
``_multisets`` gives the multiset rank of every multi-index;
symmetrization, the moment tally kernel and the spread map share it.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

SYM_TOL = 1e-10


class RankDeficiencyError(RuntimeError):
    """Fewer usable eigenvalues than requested; operator rank is below target."""


class EigenDecomposition(NamedTuple):
    """Symmetric eigendecomposition, eigenvalues descending.

    Eigenvector columns are orthonormal and sign-normalized so that each
    vector's first nonzero coordinate is positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def outer_power(v: np.ndarray, k: int) -> np.ndarray:
    """k-fold outer product v (x) v (x) .. (x) v, entry (i_1..i_k) = prod v_{i_j}."""
    if k < 1:
        raise ValueError(f"order must be >= 1, got {k}")
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError("expected a vector")
    t = v
    for _ in range(k - 1):
        t = np.multiply.outer(t, v)
    return t


def _multisets(d: int, r: int) -> np.ndarray:
    """The multiset rank of every multi-index in [d]^r, a (d,)*r int64 array.

    A multiset with partial counts S_c = b_0 + ... + b_c has its
    stars-and-bars separators at S_c + c, c < d-1; its rank is the
    combinadic rank of those positions, sum_c C(S_c + c, c + 1), which
    numbers the size-r multisets 0 .. C(d+r-1, r) - 1 and so cannot
    overflow.
    """
    # sep_rank[s, c] = C(s + c, c + 1) <= C(d+r-1, r), so no entry overflows.
    sep_rank = np.array(
        [[math.comb(s + c, c + 1) for c in range(d - 1)] for s in range(r + 1)], dtype=np.int64
    )
    rank = np.zeros((d,) * r, dtype=np.int64)
    for c in range(d - 1):
        # S_c of every multi-index: how many of its r entries are <= c
        below = (np.arange(d) <= c).astype(np.int64)
        rank += sep_rank[functools.reduce(np.add.outer, [below] * r), c]
    return rank


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
    if not 1 <= split <= k - 1:
        raise ValueError(f"split must be in [1, {k - 1}], got {split}")
    d = t.shape[0]
    return np.ascontiguousarray(t.reshape(d**split, -1).T)


def fold(m: np.ndarray, dim: int, order: int, split: int) -> np.ndarray:
    """Inverse of unfold; exact reindexing, no arithmetic."""
    m = np.asarray(m, dtype=np.float64)
    if not 1 <= split <= order - 1:
        raise ValueError(f"split must be in [1, {order - 1}], got {split}")
    rows, cols = dim ** (order - split), dim**split
    if m.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {m.shape}")
    return np.ascontiguousarray(m.T).reshape((dim,) * order)


def blockwise_apply(t: np.ndarray, maps) -> np.ndarray:
    """Apply one operator per contiguous axis block.

    ``maps`` is a sequence of (block_length, operator) pairs whose block
    lengths partition the tensor's axes in order; ``None`` stands for the
    identity.  Each operator must be square of size d**block_length, so
    the output shape equals the input shape.  On a simple tensor this is
    the usual tensor product of the operators.
    """
    t = np.asarray(t, dtype=np.float64)
    d = t.shape[0]
    if t.shape != (d,) * t.ndim:
        raise ValueError(f"expected cubical shape, got {t.shape}")
    lengths = [int(length) for length, _ in maps]
    if any(length < 1 for length in lengths) or sum(lengths) != t.ndim:
        raise ValueError(f"blocks {lengths} do not partition {t.ndim} axes")
    shaped = t.reshape([d**length for length in lengths])
    for axis, (length, op) in enumerate(maps):
        if op is None:
            continue
        op = np.asarray(op, dtype=np.float64)
        if op.shape != (d**length, d**length):
            raise ValueError(
                f"block {axis} expects a {d**length}x{d**length} operator, "
                f"got {op.shape}"
            )
        shaped = np.moveaxis(np.tensordot(op, shaped, axes=(1, axis)), 0, axis)
    return shaped.reshape(t.shape)


def sym_eig(m: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix, descending order.

    Requires symmetry within 1e-8 relative to the largest entry; the
    matrix is symmetrized before factorization so the decomposition is
    exact for the symmetric part.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    scale = max(1.0, np.abs(m).max())
    if np.abs(m - m.T).max() > 1e-8 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    lam, vec = np.linalg.eigh(0.5 * (m + m.T))
    lam = lam[::-1].copy()
    vec = vec[:, ::-1]
    vec = _sign_normalize(vec)
    return EigenDecomposition(lam, vec)


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    out = np.array(vectors, copy=True)
    for j in range(out.shape[1]):
        col = out[:, j]
        support = np.nonzero(np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300))[0]
        if support.size and col[support[0]] < 0:
            out[:, j] = -col
    return out


def eig_sqrt_pinv(dec: EigenDecomposition, keep: int, floor_tol: float = 1e-8) -> np.ndarray:
    """Inverse square root of a PSD matrix restricted to its top eigenspace,
    from the matrix's eigendecomposition.

    Returns sum of lam_i**-0.5 v_i v_i^T over the top ``keep`` eigenpairs.
    Eigenvalues below floor_tol times the largest are unusable; if fewer
    than ``keep`` usable eigenvalues remain a RankDeficiencyError is
    raised, signalling that the requested rank exceeds the operator's.
    """
    lam_max = dec.eigenvalues[0]
    if lam_max <= 0.0:
        raise RankDeficiencyError("matrix has no positive eigenvalue")
    usable = int(np.sum(dec.eigenvalues > floor_tol * lam_max))
    if usable < keep:
        raise RankDeficiencyError(
            f"requested {keep} eigenpairs but only {usable} exceed "
            f"{floor_tol:g} of the spectral radius"
        )
    vec = dec.eigenvectors[:, :keep]
    lam = dec.eigenvalues[:keep]
    return (vec / np.sqrt(lam)) @ vec.T


def numerical_rank(m: np.ndarray, rel_tol: float = 1e-8) -> int:
    """Number of singular values above rel_tol times the largest."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))
