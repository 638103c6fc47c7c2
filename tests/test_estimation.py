"""Moment estimators: exact small cases, the position-tuple oracle, statistics."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import raw_counts, raw_moment
from specmix.estimation import _tally_counts, moment
from specmix.sampling import _tally_by_keys, _tally_by_sorting


def dataset(rows, d):
    return sp.GroupedDataset(d, np.array(rows, dtype=np.uint8))


class TestExactSmallCases:
    def test_single_group_pairs(self):
        # ordered distinct pairs of (0,0,1): (0,0) twice, (0,1) twice, (1,0) twice
        est = sp.empirical_sym_moment(dataset([[0, 0, 1]], 2), 2)
        assert_allclose(est, [[1 / 3, 1 / 3], [1 / 3, 0.0]], atol=1e-15)

    def test_order_one_is_frequency(self):
        est = sp.empirical_sym_moment(dataset([[0, 0, 1]], 2), 1)
        assert_allclose(est, [2 / 3, 1 / 3], atol=1e-15)

    def test_constant_group(self):
        est = sp.empirical_sym_moment(dataset([[1, 1, 1]], 3), 3)
        assert_array_equal(est, sp.outer_power([0.0, 1.0, 0.0], 3))

    def test_five_draw_group(self):
        est = sp.empirical_sym_moment(dataset([[0, 0, 1, 1, 1]], 2), 2)
        assert_allclose(est, [[0.1, 0.3], [0.3, 0.3]], atol=1e-15)

    def test_mass_one_and_symmetry(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 4, 200, seed=4)
        for r in (1, 2, 3, 4):
            t = sp.empirical_sym_moment(ds, r)
            assert abs(t.sum() - 1.0) < 1e-12
            assert np.all(t >= 0)
            assert_allclose(sp.symmetrize(t), t, atol=1e-14)

    def test_diagonal_transform(self):
        b = np.array([2.0, 10.0])
        plain = sp.empirical_sym_moment(dataset([[0, 0, 1]], 2), 2)
        scaled = sp.empirical_sym_moment(dataset([[0, 0, 1]], 2), 2, b=b)
        assert_allclose(scaled, plain * np.outer([2, 10], [2, 10]), atol=1e-14)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError, match="order"):
            sp.empirical_sym_moment(dataset([[0, 1]], 2), 3)
        with pytest.raises(ValueError, match="order"):
            sp.empirical_sym_moment(dataset([[0, 1]], 2), 0)


class TestPathEquivalence:
    """The tally kernel against the position-tuple oracle in conftest."""

    def test_tally_matches_raw_bitwise(self, blend_mix):
        rng = np.random.default_rng(0)
        for trial in range(12):
            d = int(rng.integers(2, 4))
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 101))
            rows = rng.integers(0, d, size=(n, k))
            ds = dataset(rows, d)
            h = sp.tally(ds)
            for r in range(1, k + 1):
                assert_array_equal(sp.empirical_sym_moment(h, r), raw_moment(ds, r))

    def test_large_dataset_matches_oracle(self, blend_mix):
        # n=2000 groups share 10 possible tallies
        ds = sp.draw_groups(blend_mix, 3, 2000, seed=7)
        assert_array_equal(sp.empirical_sym_moment(ds, 2), raw_moment(ds, 2))

    def test_histogram_input(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 150, seed=9)
        h = sp.tally(ds)
        assert_array_equal(sp.empirical_sym_moment(h, 2), raw_moment(ds, 2))
        # the same histogram as a plain dict, as from_json builds it
        plain = sp.GroupTallyHistogram(h.d, h.group_size, dict(h.counts))
        assert_array_equal(sp.empirical_sym_moment(plain, 2), raw_moment(ds, 2))

    def test_tally_matches_raw_bitwise_at_full_order(self):
        # d=5, k=7 reaches r = k and 5^7-entry tensors, past the property tests' range
        rng = np.random.default_rng(11)
        ds = dataset(rng.integers(0, 5, size=(40, 7)), 5)
        h = sp.tally(ds)
        for r in range(1, 8):
            assert_array_equal(_tally_counts(h, r), raw_counts(ds, r))

    def test_wide_text_dataset(self):
        # d=300 needs int64 codes and (k+1)^d overflows a 63-bit tally key
        rng = np.random.default_rng(5)
        rows = rng.integers(1, 301, size=(60, 3))
        rows[0, 0] = 300
        ds = sp.read_groups(io.StringIO("\n".join(" ".join(map(str, row)) for row in rows)))
        assert ds.d == 300 and ds.groups.dtype == np.int64
        for r in (1, 2):
            assert_array_equal(sp.empirical_sym_moment(ds, r), raw_moment(ds, r))

    def test_many_categories(self):
        # d=30, k=5: 6^30 overflows a 63-bit tally key
        rng = np.random.default_rng(6)
        ds = dataset(rng.integers(0, 30, size=(300, 5)), 30)
        for r in range(1, 5):
            assert_array_equal(sp.empirical_sym_moment(ds, r), raw_moment(ds, r))

    def test_counts_past_2_53_stay_within_rounding(self):
        # k=20, d=2 with up to 1e9 groups per tally: counts reach ~1e27.  A
        # count sums at most 21 products, each rounded twice, so it is off
        # by at most 22 half-ulps of the exact integer
        rng = np.random.default_rng(8)
        counts = {(a, 20 - a): int(n) for a, n in zip(range(21), rng.integers(1e5, 1e9, size=21))}
        h = sp.GroupTallyHistogram(2, 20, counts)
        for r in range(1, 21):
            got = _tally_counts(h, r)
            for b0 in range(r + 1):
                exact = sum(
                    n * math.perm(a0, b0) * math.perm(a1, r - b0) for (a0, a1), n in counts.items()
                )
                value = got[(0,) * b0 + (1,) * (r - b0)]
                assert abs(int(value) - exact) <= 22 * np.finfo(float).eps * exact

    def test_tuple_count_overflow_is_refused(self):
        # 21 draws have 21! > 2^63 ordered 21-tuples, but 21!/6! < 2^63 ordered 15-tuples
        ds = dataset(np.zeros((1, 21)), 1)
        with pytest.raises(OverflowError, match="64 bits"):
            sp.empirical_sym_moment(ds, 21)
        assert_array_equal(sp.empirical_sym_moment(ds, 15), np.ones((1,) * 15))


@st.composite
def small_datasets(draw):
    """Random grouped datasets with d <= 4 and k <= 5, some with many
    groups per tally, plus an optional scale vector."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 150))
    rows = draw(arrays(np.uint8, (n, k), elements=st.integers(0, d - 1)))
    diag = draw(st.none() | arrays(np.float64, d, elements=st.floats(0.25, 4.0)))
    return dataset(rows, d), diag


class TestMomentSourceProperties:
    """The contract every recovery stage reads through moment()."""

    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_dataset_histogram_and_oracle_bit_identical(self, case):
        ds, b = case
        h = sp.tally(ds)
        for r in range(1, ds.group_size + 1):
            raw = raw_moment(ds, r, b)
            for other in (
                sp.empirical_sym_moment(ds, r, b),
                sp.empirical_sym_moment(h, r, b),
                moment(ds, r, b),
                moment(h, r, b),
            ):
                assert_array_equal(other, raw)

    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_histogram_from_a_dict_bit_identical(self, case):
        ds, b = case
        h = sp.tally(ds)
        plain = sp.GroupTallyHistogram(h.d, h.group_size, dict(h.counts))
        for r in range(1, ds.group_size + 1):
            assert_array_equal(sp.empirical_sym_moment(plain, r, b), sp.empirical_sym_moment(h, r, b))

    @settings(max_examples=60, deadline=None)
    @given(small_datasets(), st.integers(0, 2**32 - 1))
    def test_invariant_to_within_group_order(self, case, seed):
        ds, b = case
        shuffled = dataset(np.random.default_rng(seed).permuted(ds.groups, axis=1), ds.d)
        assert sp.tally(shuffled) == sp.tally(ds)
        for r in range(1, ds.group_size + 1):
            assert_array_equal(
                sp.empirical_sym_moment(shuffled, r, b),
                sp.empirical_sym_moment(ds, r, b),
            )

    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_sorted_rows_and_group_keys_tally_alike(self, case):
        ds, _ = case
        d, k = ds.d, ds.group_size
        blocks = np.array_split(ds.groups, min(3, ds.n_groups))
        by_keys = sp.GroupTallyHistogram(d, k, _tally_by_keys(d, k, blocks))
        by_sorting = sp.GroupTallyHistogram(d, k, _tally_by_sorting(d, k, blocks))
        assert dict(by_sorting.counts) == dict(by_keys.counts)
        for r in range(1, ds.group_size + 1):
            assert_array_equal(_tally_counts(by_sorting, r), _tally_counts(by_keys, r))

    @settings(max_examples=60, deadline=None)
    @given(small_datasets())
    def test_lower_order_counts_are_marginals(self, case):
        # each ordered (r-1)-tuple of distinct positions extends in k-r+1 ways
        ds, _ = case
        h = sp.tally(ds)
        k = ds.group_size
        lower = _tally_counts(h, 1)
        assert_array_equal(lower.sum(), ds.n_groups * k)
        for r in range(2, k + 1):
            counts = _tally_counts(h, r)
            assert_array_equal(counts.sum(axis=-1), (k - r + 1) * lower)
            lower = counts

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 5),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_population_source_is_exact(self, d, m, r, seed, scaled):
        rng = np.random.default_rng(seed)
        mix = sp.make_mixture(rng.dirichlet(np.full(m, 5.0)), rng.dirichlet(np.ones(d), size=m))
        if not scaled:
            assert_array_equal(moment(mix, r), sp.population_moment(mix, r))
            return
        b = rng.uniform(0.25, 4.0, size=d)
        assert_array_equal(
            moment(mix, r, b), sp.population_moment(mix, r) * sp.outer_power(b, r)
        )


class TestStatisticalBehaviour:
    def test_unbiased_over_seeds(self, blend_mix):
        n_seeds = 200
        per = {r: [] for r in range(1, 6)}
        for s in range(n_seeds):
            h = sp.tally(sp.draw_groups(blend_mix, 5, 2000, seed=1000 + s))
            for r in per:
                per[r].append(sp.empirical_sym_moment(h, r))
        for r, tensors in per.items():
            stack = np.stack(tensors)
            se = stack.std(axis=0, ddof=1) / np.sqrt(n_seeds)
            dev = np.abs(stack.mean(axis=0) - sp.population_moment(blend_mix, r))
            assert np.all(dev <= 4.5 * se + 1e-12), f"bias at order {r}"

    def test_error_decays_like_root_n(self):
        single = sp.make_mixture([1.0], [[0.3, 0.7]])
        pop = sp.population_moment(single, 2)
        ns = [500, 2000, 8000, 32000]
        errs = []
        for n in ns:
            runs = [
                np.linalg.norm(
                    sp.empirical_sym_moment(sp.draw_groups(single, 2, n, seed=300 + s), 2)
                    - pop
                )
                for s in range(20)
            ]
            errs.append(np.mean(runs))
        slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
        assert abs(slope + 0.5) < 0.15


class TestBuildCHat:
    def test_m_one(self, blend_mix, fixed_xi):
        ds = sp.draw_groups(blend_mix, 2, 10, seed=0)
        assert_array_equal(sp.build_c_hat(ds, 1, sp.b_map(fixed_xi)), [[1.0]])

    def test_exactly_symmetric(self, blend_mix, fixed_xi):
        ds = sp.draw_groups(blend_mix, 4, 500, seed=2)
        c = sp.build_c_hat(ds, 3, sp.b_map(fixed_xi))
        assert_array_equal(c, c.T)
        assert c.shape == (9, 9)

    def test_population_spectrum_matches_gram(self, blend_mix, fixed_xi):
        # nonzero spectrum of the population operator equals the spectrum of
        # G_ij = sqrt(w_i w_j) <B p_i, B p_j>^2
        b = sp.b_map(fixed_xi)
        c = sp.build_c_hat(moment(blend_mix, 4, b), 3, b)
        lam = np.sort(np.linalg.eigvalsh(c))[::-1]
        bp = blend_mix.components * b
        w = blend_mix.weights
        gram = np.sqrt(np.outer(w, w)) * (bp @ bp.T) ** 2
        assert_allclose(lam[:3], np.sort(np.linalg.eigvalsh(gram))[::-1], atol=1e-12)
        assert_allclose(
            lam[:3], [6.65228917e-02, 2.78648007e-03, 3.79295864e-04], rtol=1e-6
        )
        assert np.abs(lam[3:]).max() < 1e-14
        assert sp.numerical_rank(c) == 3

    def test_rejects_wrong_precomputed_order(self, blend_mix, fixed_xi):
        b = sp.b_map(fixed_xi)
        with pytest.raises(ValueError, match="order"):
            sp.build_c_hat(moment(blend_mix, 3, b), 3, b)


class TestBuildEHat:
    def test_population_value(self, blend_mix):
        # expectation of the order-2 estimate is the order-2 population moment
        per = [
            sp.build_e_hat(sp.draw_groups(blend_mix, 4, 2000, seed=50 + s), 3)
            for s in range(100)
        ]
        stack = np.stack(per)
        se = stack.std(axis=0, ddof=1) / np.sqrt(len(per))
        dev = np.abs(stack.mean(axis=0) - sp.population_moment(blend_mix, 2))
        assert np.all(dev <= 4.5 * se + 1e-12)

    def test_m_two_is_mean(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 400, seed=6)
        assert_array_equal(
            sp.build_e_hat(ds, 2), sp.empirical_sym_moment(ds, 1)
        )

    def test_rejects_small_m(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 10, seed=0)
        with pytest.raises(ValueError):
            sp.build_e_hat(ds, 1)
