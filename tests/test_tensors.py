"""Tensor algebra: outer powers, symmetrization, fold/unfold, whitened operators."""
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from specmix.tensors import (
    RankDeficiencyError,
    _counts_rank,
    _multisets,
    _power_sum,
    _rank,
    _words,
    enumerate_compositions,
    numerical_rank,
    outer_power,
)


class TestOuterPower:
    def test_indicator(self):
        t = outer_power([1.0, 0.0], 3)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        assert_array_equal(t, expected)

    def test_ones(self):
        assert_array_equal(outer_power([1.0, 1.0], 2), np.ones((2, 2)))

    def test_order_one_identity(self):
        assert_array_equal(outer_power([0.5, 0.5], 1), [0.5, 0.5])

    def test_entries_are_products(self):
        v = np.array([0.2, -1.0, 3.0])
        t = outer_power(v, 3)
        assert_allclose(t[1, 2, 0], v[1] * v[2] * v[0])

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            outer_power([1.0], 0)


class TestMultisetBasis:
    @pytest.mark.parametrize("d, r", [(d, r) for d in range(1, 6) for r in range(1, 6)])
    def test_words_are_in_rank_order(self, d, r):
        # the word at rank j is the sorted multi-index of every multi-index
        # of rank j, and the ranks are the bars' combinadic rank
        words = _words(d, r)
        rank = _multisets(d, r)
        assert words.shape == (r, math.comb(d + r - 1, r))
        assert_array_equal(_rank(words, d), np.arange(words.shape[1]))
        for idx in itertools.product(range(d), repeat=r):
            assert_array_equal(sorted(idx), words[:, rank[idx]])
            partial = np.cumsum(np.bincount(idx, minlength=d))[:-1]
            assert rank[idx] == sum(math.comb(int(s) + c, c + 1) for c, s in enumerate(partial))

    def test_counts_rank_is_word_rank(self):
        words = _words(4, 3)
        counts = np.array([np.bincount(w, minlength=4) for w in words.T])
        assert_array_equal(_counts_rank(counts, 3), np.arange(words.shape[1]))

    def test_enumeration_order_is_not_rank_order(self):
        # enumerate_compositions keeps its public order, the rank order with
        # categories renamed; for d >= 3 it is neither the rank order nor
        # its reverse
        listed = enumerate_compositions(2, 3)
        ranked = [tuple(np.bincount(w, minlength=3)) for w in _words(3, 2).T]
        assert listed == [v[::-1] for v in ranked]
        assert listed != ranked and listed != ranked[::-1]

    def test_power_sum_at_high_order(self):
        # 2^80 dense entries; the 81 multiset values hold (1/2)^80 each
        values = _power_sum([1.0], [[0.5, 0.5]], 80)
        assert_array_equal(values, np.full(81, 0.5**80))


class TestSymmetrize:
    def test_two_by_two(self):
        assert_array_equal(sp.symmetrize(np.array([[0.0, 1.0], [0.0, 0.0]])), [[0, 0.5], [0.5, 0]])

    def test_order_three_orbit(self):
        t = np.zeros((2, 2, 2))
        t[0, 0, 1] = 1.0
        s = sp.symmetrize(t)
        for idx in [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
            assert_allclose(s[idx], 1 / 3)
        assert_allclose(s.sum(), 1.0)

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        for order, d in [(2, 4), (3, 3), (4, 2), (5, 2), (3, 4)]:
            t = rng.standard_normal((d,) * order)
            once = sp.symmetrize(t)
            assert_allclose(sp.symmetrize(once), once, atol=1e-12)

    def test_matches_permutation_average(self):
        import math

        rng = np.random.default_rng(2)
        for d, k in [(3, 4), (1, 3), (2, 2), (4, 3), (2, 5), (3, 5)]:
            t = rng.standard_normal((d,) * k)
            acc = np.zeros_like(t)
            for perm in itertools.permutations(range(k)):
                acc += np.transpose(t, perm)
            assert_allclose(sp.symmetrize(t), acc / math.factorial(k), atol=1e-13)

    def test_linear(self):
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal((2, 2, 2, 2))
        assert_allclose(
            sp.symmetrize(2.0 * a - 3.0 * b),
            2.0 * sp.symmetrize(a) - 3.0 * sp.symmetrize(b),
            atol=1e-13,
        )


class TestUnfoldFold:
    def test_rank_one_split(self):
        m = sp.unfold(outer_power([1.0, 0.0], 2), 1)
        assert_array_equal(m, [[1.0, 0.0], [0.0, 0.0]])

    def test_simple_tensor_acts_as_inner_product_map(self):
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, 3))
        m = sp.unfold(np.multiply.outer(a, b), 1)
        x = rng.standard_normal(3)
        assert_allclose(m @ x, np.dot(a, x) * b, atol=1e-14)

    def test_order_four_split_two(self):
        rng = np.random.default_rng(5)
        a, b, c, e = rng.standard_normal((4, 2))
        t = np.einsum("i,j,k,l->ijkl", a, b, c, e)
        m = sp.unfold(t, 2)
        assert_allclose(m, np.outer(np.kron(c, e), np.kron(a, b)), atol=1e-14)

    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(6)
        for order, d in [(2, 3), (3, 3), (4, 2), (5, 2)]:
            t = rng.standard_normal((d,) * order)
            for split in range(1, order):
                assert_array_equal(sp.fold(sp.unfold(t, split), d, order, split), t)

    def test_fold_zero(self):
        assert_array_equal(sp.fold(np.zeros((4, 2)), 2, 3, 1), np.zeros((2, 2, 2)))

    def test_invalid_split(self):
        t = np.zeros((2, 2))
        with pytest.raises(ValueError):
            sp.unfold(t, 2)
        with pytest.raises(ValueError):
            sp.fold(np.zeros((2, 2)), 2, 2, 0)

    def test_fold_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            sp.fold(np.zeros((3, 2)), 2, 3, 1)


class TestWhitenedOperators:
    """The whitened operators of the recovery pipeline against Kronecker
    products acting on the flattened moment."""

    def test_identity_whitener(self):
        t = np.random.default_rng(7).standard_normal((2, 2, 2))
        assert_array_equal(sp.build_t_hat(t, np.eye(2)), t.reshape(4, 2))

    def test_scalar_whitener_scales(self):
        t = outer_power([0.4, 0.6], 5)
        c = 1.7
        out = sp.build_t_hat(t, c * np.eye(4))
        assert_allclose(out, c * c * t.reshape(8, 4), atol=1e-13)

    def test_odd_operator_matches_kronecker(self):
        rng = np.random.default_rng(8)
        for d, m in [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)]:
            q = rng.standard_normal((d,) * (2 * m - 1))
            w = rng.standard_normal((d ** (m - 1),) * 2)
            big = np.kron(np.eye(d), np.kron(w, w))
            assert_allclose(sp.build_t_hat(q, w).ravel(), big @ q.ravel(), atol=1e-12)

    def test_whitened_odd_moment_has_rank_m(self):
        # the whitened population moment collapses to an m-dimensional family
        rng = np.random.default_rng(9)
        from conftest import random_mixture

        mix = random_mixture(rng, 2, 3)
        m2 = sp.moment(mix, 2)
        c = sp.unfold(m2, 1)
        w = sp.whiten(0.5 * (c + c.T), 2)
        t_hat = sp.build_t_hat(sp.moment(mix, 3), w)
        assert numerical_rank(t_hat, 1e-8) == 2


class TestSymEig:
    def test_identity(self):
        dec = sp.sym_eig(np.eye(3))
        assert_allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        dec = sp.sym_eig(np.diag([3.0, 1.0]))
        assert_allclose(dec.eigenvalues, [3.0, 1.0])
        assert_allclose(np.abs(dec.eigenvectors), np.eye(2), atol=1e-15)

    def test_two_by_two_by_hand(self):
        dec = sp.sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(dec.eigenvalues, [3.0, 1.0], atol=1e-14)
        s = 1.0 / np.sqrt(2.0)
        # each eigenvector is defined only up to sign
        for vec, want in zip(dec.eigenvectors.T, ([s, s], [s, -s])):
            assert_allclose(vec * np.sign(vec[0]), want, atol=1e-14)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((6, 6))
        m = a + a.T
        dec = sp.sym_eig(m)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
        assert np.linalg.norm(recon - m) <= 1e-10 * np.linalg.norm(m)
        assert_allclose(dec.eigenvectors.T @ dec.eigenvectors, np.eye(6), atol=1e-10)
        assert np.all(np.diff(dec.eigenvalues) <= 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sp.sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            sp.sym_eig(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="^expected a non-empty matrix$"):
            sp.sym_eig(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            sp.sym_eig(m)

    @staticmethod
    def spy_eigh(monkeypatch):
        """Record every matrix sym_eig hands to np.linalg.eigh."""
        seen = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        return seen

    def test_exactly_symmetric_input_is_not_copied(self, monkeypatch):
        a = np.random.default_rng(13).standard_normal((6, 6))
        m = a + a.T
        seen = self.spy_eigh(monkeypatch)
        sp.sym_eig(m)
        assert [np.shares_memory(x, m) for x in seen] == [True]

    def test_asymmetry_within_tolerance_decomposes_the_symmetric_part(self, monkeypatch):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 6))
        m = a + a.T + 1e-12 * rng.standard_normal((6, 6))
        want = sp.sym_eig(0.5 * (m + m.T))
        seen = self.spy_eigh(monkeypatch)
        got = sp.sym_eig(m)
        assert not np.shares_memory(seen[0], m)
        assert_array_equal(got.eigenvalues, want.eigenvalues)
        assert_array_equal(got.eigenvectors, want.eigenvectors)

    def test_signed_zero_pair_decomposes_the_symmetric_part(self, monkeypatch):
        # -0.0 against +0.0 is no asymmetry in value, but LAPACK reads one
        # triangle and the sign of a zero can change its Householder steps
        m = np.array([[2.0, 0.0, 1.0], [-0.0, 3.0, 0.5], [1.0, 0.5, 1.0]])
        want = sp.sym_eig(0.5 * (m + m.T))
        seen = self.spy_eigh(monkeypatch)
        got = sp.sym_eig(m)
        assert not np.shares_memory(seen[0], m) and not np.signbit(seen[0][1, 0])
        assert_array_equal(got.eigenvectors.view(np.int64), want.eigenvectors.view(np.int64))

    def test_asymmetry_tolerance_edge(self):
        m = np.diag([4.0, 1.0])
        m[0, 1] = 1e-8 * 4.0
        sp.sym_eig(m)
        m[0, 1] = np.nextafter(1e-8 * 4.0, np.inf)
        with pytest.raises(ValueError, match="^matrix is not symmetric within tolerance$"):
            sp.sym_eig(m)

    def test_entries_above_half_the_largest_double(self):
        # 0.5 * (m + m.T) would overflow here; an exactly symmetric m is used as given
        dec = sp.sym_eig(np.diag([1e308, 1.5e308]))
        assert_array_equal(dec.eigenvalues, [1.5e308, 1e308])

class TestPsdSqrtPinv:
    """sp.whiten: the PSD inverse square root on the top eigenspace."""

    def test_identity(self):
        assert_allclose(sp.whiten(np.eye(2), 2), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        w = sp.whiten(np.diag([4.0, 1.0, 0.0]), 2)
        assert_allclose(w, np.diag([0.5, 1.0, 0.0]), atol=1e-14)

    def test_rank_deficiency_raises(self):
        with pytest.raises(RankDeficiencyError, match="eigenvalue 2 is 0 of the largest"):
            sp.whiten(np.diag([1.0, 0.0]), 2)
        with pytest.raises(RankDeficiencyError, match="the matrix has only 2 eigenvalues"):
            sp.whiten(np.diag([1.0, 0.5]), 3)

    def test_whitens_to_projector(self):
        rng = np.random.default_rng(12)
        for r in (1, 2, 3):
            f = rng.standard_normal((5, r))
            m = f @ f.T
            w = sp.whiten(m, r)
            dec = sp.sym_eig(m)
            proj = dec.eigenvectors[:, :r] @ dec.eigenvectors[:, :r].T
            assert_allclose(w @ m @ w, proj, atol=1e-8)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(4)) == 4

    def test_zero(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_span_dimension(self):
        vs = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
        m = sum(np.outer(v, v) for v in vs)
        assert_array_equal(m, [[2.0, 1.0], [1.0, 2.0]])
        assert numerical_rank(m) == 2
