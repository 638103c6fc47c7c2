"""Mixture pairs that match moments up to a cutoff and differ above it."""
import json
import math
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import dense_power_sum
from specmix.counterexamples import SEPARATION, MomentComparison, dependence_coefficients
from specmix.tensors import _multisets, _orbit_sizes


class TestDependenceCoefficients:
    def test_three_levels(self):
        alpha = dependence_coefficients([0.0, 0.5, 1.0])
        assert_allclose(alpha, np.array([1.0, -2.0, 1.0]) / np.sqrt(6.0), atol=1e-12)

    def test_four_levels(self):
        alpha = dependence_coefficients(np.arange(4) / 3.0)
        assert_allclose(alpha, np.array([-1.0, 3.0, -3.0, 1.0]) / np.sqrt(20.0), atol=1e-12)

    def test_five_levels(self):
        alpha = dependence_coefficients(np.arange(5) / 4.0)
        assert_allclose(alpha, np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / np.sqrt(70.0), atol=1e-12)

    def test_annihilates_monomials(self):
        # the defining property: sum_i alpha_i eps_i^l = 0 for l <= t-2
        for eps in ([0.1, 0.3, 0.55, 0.8, 0.95], np.arange(6) / 5.0, np.arange(30) / 29.0):
            eps = np.asarray(eps)
            alpha = dependence_coefficients(eps)
            for power in range(eps.size - 1):
                assert abs(np.dot(alpha, eps**power)) < 1e-12

    @pytest.mark.parametrize("t", range(3, 31))
    def test_even_levels_give_alternating_binomials(self, t):
        # the t-point divided difference on an even grid is the (t-1)-th
        # forward difference, up to scale
        binom = np.array([(-1) ** (t - 1 - i) * math.comb(t - 1, i) for i in range(t)], dtype=float)
        alpha = dependence_coefficients(np.arange(t) / (t - 1.0))
        assert np.abs(alpha - binom / np.linalg.norm(binom)).max() <= 1e-15

    @pytest.mark.parametrize("scale", [1e-15, 1e10])
    def test_out_of_range_levels_raise_without_warning(self, scale):
        # the gap products underflow (1e-15) or overflow (1e10) float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="levels"):
                dependence_coefficients(np.arange(30) * scale)

    def test_unit_norm_and_sign(self):
        alpha = dependence_coefficients([0.0, 0.2, 0.7, 1.0])
        assert abs(np.linalg.norm(alpha) - 1.0) < 1e-12
        assert alpha[-1] > 0

    def test_alternating_signs(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            t = int(rng.integers(3, 9))
            eps = np.sort(rng.uniform(0.0, 1.0, size=t))
            alpha = dependence_coefficients(eps)
            signs = np.sign(alpha)
            assert np.all(signs[:-1] == -signs[1:])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="distinct"):
            dependence_coefficients([0.0, 0.5, 0.5])

    def test_rejects_too_few(self):
        with pytest.raises(ValueError, match="at least 3"):
            dependence_coefficients([0.0, 1.0])


class TestBuildPairOrderM:
    def test_m2_exact_construction(self):
        pair = sp.build_pair(2, 4)
        assert_allclose(pair.p.weights, [0.25, 0.75], atol=1e-12)
        assert_allclose(pair.p.components, [[0.0, 1.0], [2 / 3, 1 / 3]], atol=1e-12)
        assert_allclose(pair.p_prime.weights, [0.75, 0.25], atol=1e-12)
        assert_allclose(pair.p_prime.components, [[1 / 3, 2 / 3], [1.0, 0.0]], atol=1e-12)
        assert pair.eq_order == 2

    def test_m2_shared_second_moment(self):
        pair = sp.build_pair(2, 4)
        v2 = sp.moment(pair.p, 2)
        assert_allclose(v2, [[1 / 3, 1 / 6], [1 / 6, 1 / 3]], atol=1e-12)
        assert_allclose(sp.moment(pair.p_prime, 2), v2, atol=1e-12)

    def test_m2_third_moment_gap(self):
        pair = sp.build_pair(2, 4)
        a = sp.moment(pair.p, 3)[0, 0, 0]
        b = sp.moment(pair.p_prime, 3)[0, 0, 0]
        assert_allclose([a, b], [2 / 9, 10 / 36], atol=1e-12)
        comp = sp.verify_moment_equality(pair.p, pair.p_prime, 3)
        assert not comp.equal
        assert_allclose(comp.max_abs_diff, 1 / 18, atol=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_equal_sides(self, m):
        pair = sp.build_pair(m, 2 * m)
        assert pair.p.m == m and pair.p_prime.m == m
        assert pair.eq_order == 2 * m - 2
        assert sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order).equal
        assert not sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order + 1, tol=1e-8).equal


class TestBuildPairOrderGap:
    def test_m1_equal_means_different_spread(self):
        pair = sp.build_pair(1, 3)
        assert pair.p.m == 1 and pair.p_prime.m == 2
        assert_allclose(pair.p.components, [[0.5, 0.5]], atol=1e-12)
        assert_allclose(
            sp.moment(pair.p, 1), sp.moment(pair.p_prime, 1), atol=1e-12
        )
        gap = sp.verify_moment_equality(pair.p, pair.p_prime, 2)
        assert not gap.equal
        assert_allclose(gap.max_abs_diff, 0.25, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_unequal_sides(self, m):
        pair = sp.build_pair(m, 2 * m + 1)
        assert pair.p.m == m and pair.p_prime.m == m + 1
        assert pair.eq_order == 2 * m - 1
        assert sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order).equal
        assert not sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order + 1, tol=1e-8).equal


class TestBuildPairSeparation:
    @pytest.mark.parametrize("m,t", [(14, 28), (14, 29), (15, 30)])
    def test_last_separable_pairs_build(self, m, t):
        # build_pair(14, 29) took 117 s with dense 2^28-entry moments; its
        # multiset values number 29 and 30
        pair = sp.build_pair(m, t)
        at = sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order)
        above = sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order + 1)
        assert at.equal and above.max_abs_diff > SEPARATION * at.max_abs_diff

    def test_last_separable_pair_builds_in_under_a_second(self):
        # the law gaps in to_json read C(d+n-1, n) orbit sizes, no dense tensor
        start = time.perf_counter()
        json.loads(sp.build_pair(14, 29).to_json())
        assert time.perf_counter() - start < 1.0

    def test_close_levels_raise(self):
        # nine levels 0.001 apart: the order-8 gap is rounding noise
        with pytest.raises(ValueError, match="float64 cannot separate the pair$"):
            sp.build_pair(4, 9, epsilons=np.arange(9) / 1000.0)

    @pytest.mark.parametrize("m,t", [(15, 31), (16, 32)])
    def test_raises_where_float64_cannot_separate(self, m, t):
        # the gap one order above eq_order is rounding noise, no larger than
        # the gap at eq_order; the absolute 1e-8 check alone accepted these
        with pytest.raises(
            ValueError,
            match=rf"^order-{t - 1} moments differ by \S+ and order-{t - 2} moments by \S+; "
            "float64 cannot separate the pair$",
        ):
            sp.build_pair(m, t)


class TestBuildPairInvariants:
    @pytest.mark.parametrize("m,t", [(2, 4), (2, 5), (3, 6), (3, 7)])
    def test_weights_and_segment(self, m, t):
        pair = sp.build_pair(m, t)
        for side in (pair.p, pair.p_prime):
            assert np.all(side.weights > 0)
            assert abs(side.weights.sum() - 1.0) < 1e-12
        # every component lies on the segment between the bases
        comps = np.vstack([pair.p.components, pair.p_prime.components])
        assert_allclose(comps[:, 0] + comps[:, 1], 1.0, atol=1e-12)
        assert comps.shape[0] == t

    def test_cross_side_distinct(self):
        pair = sp.build_pair(3, 6)
        comps = np.vstack([pair.p.components, pair.p_prime.components])
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.abs(comps[i] - comps[j]).max() > 1e-9

    def test_custom_base_dimension_three(self):
        base = ([0.7, 0.2, 0.1], [0.1, 0.3, 0.6])
        pair = sp.build_pair(2, 4, base=base)
        assert pair.p.d == 3
        assert sp.verify_moment_equality(pair.p, pair.p_prime, 2).equal
        assert not sp.verify_moment_equality(pair.p, pair.p_prime, 3, tol=1e-8).equal

    def test_custom_epsilons(self):
        pair = sp.build_pair(2, 4, epsilons=[0.9, 0.1, 0.4, 0.65])
        assert_allclose(pair.epsilons, [0.1, 0.4, 0.65, 0.9])  # sorted
        assert sp.verify_moment_equality(pair.p, pair.p_prime, 2).equal

    def test_rejects_identical_bases(self):
        with pytest.raises(ValueError, match="distinct"):
            sp.build_pair(2, 4, base=([0.5, 0.5], [0.5, 0.5]))

    def test_rejects_bad_t(self):
        with pytest.raises(ValueError, match="2m"):
            sp.build_pair(2, 6)
        with pytest.raises(ValueError, match=r"^t must be 2m or 2m\+1 for m=1, got 3\.0$"):
            sp.build_pair(1, 3.0)  # built a pair with t = 3.0

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError, match="levels"):
            sp.build_pair(2, 4, epsilons=[0.0, 0.5, 1.0])
        with pytest.raises(ValueError, match="levels"):
            sp.build_pair(2, 4, epsilons=[-0.1, 0.3, 0.6, 1.0])


bases = st.integers(2, 4).flatmap(
    lambda d: st.tuples(*[st.lists(st.integers(1, 9), min_size=d, max_size=d)] * 2)
)


class TestBuildPairProperties:
    # Levels 0.05 apart and bases more than 0.2 apart keep every pair
    # separable: over thousands of draws, and the most clustered levels
    # against the closest such bases, the gap one order above eq_order
    # was at least 227 times the gap at it.  Closer levels raise instead;
    # TestBuildPairSeparation covers that.
    @settings(max_examples=60, deadline=None)
    @given(levels=st.lists(st.integers(0, 20), min_size=3, max_size=9, unique=True),
           base=st.none() | bases)
    @example(levels=list(range(9)), base=None)
    @example(levels=[0, 3, 5, 8, 10, 13, 15, 18, 20], base=None)
    def test_sides_are_parity_classes(self, levels, base):
        t = len(levels)
        if base is not None:
            base = tuple(np.array(v) / sum(v) for v in base)
            assume(np.abs(base[0] - base[1]).max() > 0.2)
        gamma, gamma_prime = ([1.0, 0.0], [0.0, 1.0]) if base is None else base
        gamma, gamma_prime = sp.probability_vector(gamma), sp.probability_vector(gamma_prime)
        eps = np.sort(levels) / 20.0
        comps = eps[:, None] * gamma[None, :] + (1.0 - eps[:, None]) * gamma_prime[None, :]
        first, second = slice(t % 2, None, 2), slice(1 - t % 2, None, 2)
        # the sides built by hand: the blends at each parity class of levels, weighted by |alpha|
        alpha = np.abs(dependence_coefficients(eps))
        sides = [sp.make_mixture(alpha[s] / alpha[s].sum(), comps[s]) for s in (first, second)]
        pair = sp.build_pair(t // 2, t, base=base, epsilons=np.array(levels) / 20.0)
        # each side's rows are the blends at its levels, renormalized as make_mixture does
        assert_array_equal(pair.p.components, sides[0].components)
        assert_array_equal(pair.p_prime.components, sides[1].components)
        assert_array_equal(pair.p.components, [sp.probability_vector(c) for c in comps[first]])
        assert_array_equal(pair.p_prime.components, [sp.probability_vector(c) for c in comps[second]])
        assert np.all(pair.alphas[first] < 0) and np.all(pair.alphas[second] > 0)
        assert sp.verify_moment_equality(pair.p, pair.p_prime, t - 2).equal


class TestVerifyMomentEquality:
    def test_identical_mixtures(self, blend_mix):
        comp = sp.verify_moment_equality(blend_mix, blend_mix, 4)
        assert comp.equal and comp.max_abs_diff == 0.0

    def test_dimension_mismatch(self, blend_mix):
        other = sp.make_mixture([1.0], [[0.5, 0.5]])
        with pytest.raises(ValueError, match="dimension"):
            sp.verify_moment_equality(blend_mix, other, 2)

    def test_bad_order(self, blend_mix):
        with pytest.raises(ValueError):
            sp.verify_moment_equality(blend_mix, blend_mix, 0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9, True, "1e-9", None])
    def test_rejects_bad_tol(self, blend_mix, tol):
        # tol was not checked: NaN returned equal=False for a mixture against itself
        with pytest.raises(ValueError, match=rf"^tol must be a finite number >= 0, got {re.escape(repr(tol))}$"):
            sp.verify_moment_equality(blend_mix, blend_mix, 2, tol=tol)
        assert sp.verify_moment_equality(blend_mix, blend_mix, 2, tol=np.float64(0.0)).equal

    def test_high_order_on_two_categories(self):
        # a dense order-60 moment on d = 2 has 2^60 entries and could not be
        # allocated; its multiset values are 61
        p = sp.make_mixture([0.5, 0.5], [[0.1, 0.9], [0.9, 0.1]])
        q = sp.make_mixture([1.0], [[0.5, 0.5]])
        assert sp.verify_moment_equality(p, p, 60) == (0.0, True, 0.0)
        gap = sp.verify_moment_equality(p, q, 60)
        # the largest gap is at the two entries with all draws in one category
        assert not gap.equal
        assert gap.max_abs_diff == pytest.approx(0.5 * 0.9**60 + 0.5 * 0.1**60 - 0.5**60, rel=1e-12)

    def test_gap_is_the_dense_max_gap(self, blend_mix, indep_mix):
        for n in range(1, 6):
            dense = np.abs(dense_power_sum(blend_mix.weights, blend_mix.components, n)
                           - dense_power_sum(indep_mix.weights, indep_mix.components, n)).max()
            assert sp.verify_moment_equality(blend_mix, indep_mix, n).max_abs_diff == pytest.approx(dense, rel=1e-14, abs=1e-17)

    @staticmethod
    def pairs(top_m):
        return [sp.build_pair(m, t) for m in range(1, top_m + 1) for t in (2 * m, 2 * m + 1) if t >= 3]

    def test_orbit_sizes_count_multi_indices(self):
        for d in range(1, 6):
            for r in range(6):
                want = np.bincount(_multisets(d, r).ravel()) if r else [1]
                assert_array_equal(_orbit_sizes(d, r), want)

    def test_law_gap_vanishes_at_eq_order(self):
        for pair in self.pairs(8):
            assert sp.verify_moment_equality(pair.p, pair.p_prime, pair.eq_order).law_l1 <= 1e-15

    def test_law_gap_above_eq_order_is_the_dense_sum(self):
        # the dense moment counts each tally once per ordering of its draws
        for pair in self.pairs(4):
            n = pair.eq_order + 1
            dense = np.abs(sp.moment(pair.p, n) - sp.moment(pair.p_prime, n)).sum()
            assert sp.verify_moment_equality(pair.p, pair.p_prime, n).law_l1 == pytest.approx(dense, rel=1e-15)


class TestPairJson:
    def test_embeds_verification(self):
        obj = json.loads(sp.build_pair(2, 4).to_json())
        assert obj["t"] == 4 and obj["eq_order"] == 2
        assert obj["verification"]["max_diff_at_eq_order"] < 1e-9
        assert obj["verification"]["max_diff_above_eq_order"] > 1e-6
        assert obj["verification"]["law_l1_at_eq_order"] <= 1e-15
        assert obj["verification"]["law_l1_above_eq_order"] == pytest.approx(4 / 9, rel=1e-15)
        assert len(obj["alphas"]) == 4
        assert obj["p"]["weights"] and obj["p_prime"]["weights"]

    def test_writes_the_comparisons_build_pair_made(self):
        pair = sp.build_pair(3, 7)
        assert pair.at_eq_order == sp.verify_moment_equality(pair.p, pair.p_prime, 5, tol=1e-8)
        assert pair.above_eq_order == sp.verify_moment_equality(pair.p, pair.p_prime, 6)
        marked = replace(pair, at_eq_order=MomentComparison(1.0, False, 2.0), above_eq_order=MomentComparison(3.0, False, 4.0))
        assert json.loads(marked.to_json())["verification"] == {
            "max_diff_at_eq_order": 1.0,
            "max_diff_above_eq_order": 3.0,
            "law_l1_at_eq_order": 2.0,
            "law_l1_above_eq_order": 4.0,
        }
