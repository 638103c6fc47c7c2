"""Moment estimators: exact small cases, the position-tuple oracle, statistics."""
import hashlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import raw_counts, raw_moment
from specmix.estimation import _tally_counts, moment
from specmix.sampling import _tally_by_keys, _tally_by_sorting, draw_tally
from specmix.tensors import _multisets, _power_sum


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
        # the same histogram as a plain dict, checked and converted by the constructor
        plain = sp.GroupTallyHistogram(h.d, h.group_size, dict(h.counts))
        assert_array_equal(sp.empirical_sym_moment(plain, 2), raw_moment(ds, 2))

    def test_tally_matches_raw_bitwise_at_full_order(self):
        # d=5, k=7 reaches r = k and 5^7-entry tensors, past the property tests' range
        rng = np.random.default_rng(11)
        ds = dataset(rng.integers(0, 5, size=(40, 7)), 5)
        h = sp.tally(ds)
        for r in range(1, 8):
            assert_array_equal(_tally_counts(h, r)[_multisets(5, r)], raw_counts(ds, r))

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
            got = _tally_counts(h, r)[_multisets(2, r)]
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


# perfbench's workload mixtures as (group size, reference measure y,
# weights, components): the blend mixture and, for the other two, equal
# weights on the Dirichlet(0.2) rows that perfbench draws with numpy's
# default_rng(1), written out so that no generator version moves them.
# Each moment is scaled by 1/sqrt(y).
DIGEST_MIXTURES = {
    "blend-1e7": (5, [9.0, 4.0, 1.0], [0.5, 0.3, 0.2], [[0.64, 0.32, 0.04], [0.04, 0.32, 0.64], [0.24, 0.32, 0.44]]),
    "moment-d6m4": (7, [6.0, 5.0, 4.0, 3.0, 2.0, 1.0], [0.25] * 4, [
        [0.023098822411429295, 0.9307336917561547, 0.00894074487333239, 0.007545190803750853, 1.0454972175733285e-08, 0.029681539700360676],
        [0.0054630463380991685, 0.0030317436719163042, 0.0003537206570834764, 0.0004937605657198761, 0.9336912574019092, 0.05696647136527214],
        [0.0013407317391222208, 1.720160219296637e-05, 0.2328173857842666, 0.7318310389608944, 0.033992865731244035, 7.761822796727739e-07],
        [0.4214306635197067, 0.0010597270469333367, 0.030564475996617334, 0.21556366399236604, 0.3313782579801746, 3.2114642021502175e-06],
    ]),
    "spectral-d12m3": (5, [float(v) for v in range(12, 0, -1)], [1 / 3] * 3, [
        [0.006980445666944561, 0.28126697759639385, 0.002701885953260943, 0.0022801506290750164, 3.1594842335344625e-09, 0.008969737569267075,
         0.0038121181020245544, 0.0021155531579166225, 0.00024682655728618916, 0.00034454651748415323, 0.6515305058317217, 0.03975124925914097],
        [0.0006963755223202519, 8.934505212589856e-06, 0.12092525588817635, 0.3801127452537377, 0.017655880694116496, 4.0314876171778203e-07,
         0.20253974756179552, 0.0005093052479325541, 0.014689299542210352, 0.10359998421535814, 0.15926052498938206, 1.543430996156814e-06],
        [0.11680579734734965, 0.00538576676940254, 4.128041803725045e-12, 0.04449816515555505, 0.0004095033972812306, 0.024580065641248098,
         0.44529379365642874, 0.0059999101773898205, 0.0031059969352128874, 2.0274816327125243e-09, 0.20906509769981196, 0.14485590118871036],
    ]),
}

# SHA-256 of moment(source, r, b).tobytes() for (workload, source, r,
# scaled), r = m-1, 2m-2 and 2m-1, source the population or
# draw_tally(mix, k, 20_000, seed=7).  No LAPACK call is involved, so
# these hold on every backend and BLAS.
MOMENT_DIGESTS = {
    ("blend-1e7", "population", 2, False): "d3ea4a04d2f016b5446e995bbe9d6f72018d2afa619dc6faed13df749f29e120",
    ("blend-1e7", "population", 2, True): "eb3569a511e5d616527c8ce741e45cf0c3e3fd02e3eab960629714aaf39616c0",
    ("blend-1e7", "population", 4, False): "2191e84fbddfba66cc4e58670847724e39e0498d595b65b55fff4c792a6534f1",
    ("blend-1e7", "population", 4, True): "09fad9965a680471345dbd4f7a330c64ff7cb7515ca63101d49e622b56df4e15",
    ("blend-1e7", "population", 5, False): "4c9e4e1d3171cee9875ac10274f41d7a7f1a6f31d93125ca7cb529e0703809b0",
    ("blend-1e7", "population", 5, True): "eabe2b0c227362e0af65ae492f02947db2369e917eee7ae566334b335ba946e8",
    ("blend-1e7", "data", 2, False): "f5f731c77cfe6234b311b7ed8ccb19910047e15e8749af5ae82d4cbc53ba1535",
    ("blend-1e7", "data", 2, True): "1865721001d26cbe2bdba034d2a6b364892ca384f5835b145f723f491a090701",
    ("blend-1e7", "data", 4, False): "1c233680a391a4547dee16636a2a81aa9cfe9197029960e1b30979e7186bb6dc",
    ("blend-1e7", "data", 4, True): "e2f09ce54b45fd7871a8b66a996c9693cda258155ed416202dac5ab9baca1f46",
    ("blend-1e7", "data", 5, False): "973435a62daf305246057e951a2d789158ca901cfbfa11ff289dacf27071563f",
    ("blend-1e7", "data", 5, True): "e87c3b4a1818da97edd6bb624269ff52f7c286427bdd028cffc968aa99fc0d4f",
    ("moment-d6m4", "population", 3, False): "c344b58aeba40f22ba16868ecbb47a6aec33c82665514fa6b63377a8ad1d13ed",
    ("moment-d6m4", "population", 3, True): "ef2b4f1cdcfe77049b07d96f7de0272343fd962a170e67a7ad25445f40cc1a03",
    ("moment-d6m4", "population", 6, False): "e1434987b5f1ed0a7721a73fe88560267d7ac552a80d9019c8264922354575a9",
    ("moment-d6m4", "population", 6, True): "b53713aa12dc0a960cd2ab775d4dedeb75f6f5bbcd7df8e452c54b9aa65ade00",
    ("moment-d6m4", "population", 7, False): "5138ceb4a8f089182f8128ed94a65b7eb11798cdc6ed3bb7a992bf7f12b44309",
    ("moment-d6m4", "population", 7, True): "6a27b993df673c366d54ec45328133ca7e4c7ea15f7abde43e78c5f07b65c577",
    ("moment-d6m4", "data", 3, False): "fa64a08421bf230485c1e38c8ec16ddcf14dd53a66b589f0ace07a4b7b086f91",
    ("moment-d6m4", "data", 3, True): "481a58805a97c8e827bea1f92b7dbc59a6d49b338844ff1240e4124217b27d5f",
    ("moment-d6m4", "data", 6, False): "61707f9a11a2cb1c0d0d4cea675fe0768e411888f67f8c9c3cfd580eb46ff061",
    ("moment-d6m4", "data", 6, True): "59f99016f701f79cdae7b85ed24acc6df0fb92d01f21350cc89aeccd3fd31a82",
    ("moment-d6m4", "data", 7, False): "04babca43d0a97e1fa4faa71e15d2246a6d6e3ec586d6cffae77c045a6f55a0c",
    ("moment-d6m4", "data", 7, True): "1dd16a46044582d66461e37a6f9e8a62b52b396c5d4d438c546db26c471951bd",
    ("spectral-d12m3", "population", 2, False): "6c6ce7aa7f0ef581e84a9a5e1276e8823a0e2107414a3f38c7f725648c2fe492",
    ("spectral-d12m3", "population", 2, True): "805b5b84d9fe3d2682ec0a13aec9b4c74896bcb2d5f02522a415c1b8fbc39dc8",
    ("spectral-d12m3", "population", 4, False): "b518b51a8cf1610785ae18be954de0b6716fe3630788316ef3dc9ad256a5255b",
    ("spectral-d12m3", "population", 4, True): "c2a868cb8c1ce3a530885439543eff3b85ea7e6672e343f262ca0e0776c8d1a2",
    ("spectral-d12m3", "population", 5, False): "455ca2db9b4464ac2ba41bb2444874b4663dbae6ae0dd9991afb6364d78b089f",
    ("spectral-d12m3", "population", 5, True): "d5105af2fdf5782248f3e912d91395f5d3752dc1e2dd25bc48ad441bc7d4986e",
    ("spectral-d12m3", "data", 2, False): "6884a10735efd5f57357b8f7cd87f78ac99678e7d63aa232397ef3f9e9736aeb",
    ("spectral-d12m3", "data", 2, True): "a02017025ff36201ad3ce405845ff0ffd8ae54167c4f5aca9f7800efceae905c",
    ("spectral-d12m3", "data", 4, False): "72fce8c8e3836eedc2e825ff438b41f937240d9d4eb06e8cf4dd051346aeb0fe",
    ("spectral-d12m3", "data", 4, True): "60315e0dabacbb7bda672819dd69100c9d7ded0101c62c43087692a0e2986485",
    ("spectral-d12m3", "data", 5, False): "92c14872143bab44c762a6769a93b2c7dc6c6a0f44738d5fd2e15e2cd8b2e04c",
    ("spectral-d12m3", "data", 5, True): "723fccc1bb06823e40bf45866ff02bb3764475cae8e1950b06a87a5253c9aea0",
}


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
        lower = _tally_counts(h, 1)[_multisets(ds.d, 1)]
        assert_array_equal(lower.sum(), ds.n_groups * k)
        for r in range(2, k + 1):
            counts = _tally_counts(h, r)[_multisets(ds.d, r)]
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
        dense = _power_sum(mix.weights, mix.components, r)[_multisets(d, r)]
        if not scaled:
            assert_array_equal(moment(mix, r), dense)
            return
        b = rng.uniform(0.25, 4.0, size=d)
        assert_array_equal(moment(mix, r, b), dense * sp.outer_power(b, r))


class TestMomentChecks:
    """moment() checks its order and source once, for every source."""

    @pytest.mark.parametrize("r", [True, False, 2.0, "2", None, 0, -1])
    def test_order_must_be_an_integer_from_one(self, blend_mix, r):
        ds = sp.draw_groups(blend_mix, 3, 20, seed=1)
        for source in (blend_mix, ds, sp.tally(ds)):
            with pytest.raises(ValueError, match=rf"^moment order {re.escape(repr(r))} is not an integer in \[1, "):
                moment(source, r)

    def test_data_order_at_most_group_size(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 20, seed=1)
        for source in (ds, sp.tally(ds)):
            with pytest.raises(ValueError, match=r"^moment order 4 is not an integer in \[1, 3\]$"):
                moment(source, 4)
        assert moment(blend_mix, 4).shape == (3,) * 4

    def test_numpy_integer_order(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 20, seed=1)
        for source in (blend_mix, ds):
            assert_array_equal(moment(source, np.int64(2)), moment(source, 2))

    @pytest.mark.parametrize("source", [[[0, 1]], np.zeros((2, 2), dtype=np.uint8), None])
    def test_other_sources_are_type_errors(self, source):
        with pytest.raises(TypeError, match=rf"^unsupported data type {type(source).__name__}$"):
            moment(source, 1)


class TestMomentDigests:
    """The moment source, pinned bit for bit on the benchmark's mixtures."""

    @pytest.mark.parametrize("name", list(DIGEST_MIXTURES))
    def test_digests(self, name):
        k, y, weights, comps = DIGEST_MIXTURES[name]
        mix = sp.make_mixture(weights, comps)
        b = 1.0 / np.sqrt(np.array(y))
        sources = {"population": mix, "data": draw_tally(mix, k, 20_000, seed=7)}
        got, want = {}, {}
        for (workload, source, r, scaled), digest in MOMENT_DIGESTS.items():
            if workload == name:
                t = moment(sources[source], r, b if scaled else None)
                got[source, r, scaled] = hashlib.sha256(t.tobytes()).hexdigest()
                want[source, r, scaled] = digest
        assert len(got) == 12
        assert got == want


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
            dev = np.abs(stack.mean(axis=0) - sp.moment(blend_mix, r))
            assert np.all(dev <= 4.5 * se + 1e-12), f"bias at order {r}"

    def test_error_decays_like_root_n(self):
        single = sp.make_mixture([1.0], [[0.3, 0.7]])
        pop = sp.moment(single, 2)
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

    @pytest.mark.parametrize("m", [0, True, 2.5])
    def test_rejects_non_integer_m(self, blend_mix, m):
        # True once built the m = 1 form, and 2.5 was blamed as moment order 3.0
        with pytest.raises(ValueError, match=f"^m must be an integer >= 1, got {m!r}$"):
            sp.build_c_hat(blend_mix, m, None)

    def test_exactly_symmetric(self, blend_mix, fixed_xi):
        ds = sp.draw_groups(blend_mix, 4, 500, seed=2)
        c = sp.build_c_hat(ds, 3, sp.b_map(fixed_xi))
        assert_array_equal(c, c.T)
        assert c.shape == (9, 9)

    def test_population_spectrum_matches_gram(self, blend_mix, fixed_xi):
        # nonzero spectrum of the population operator equals the spectrum of
        # G_ij = sqrt(w_i w_j) <B p_i, B p_j>^2
        b = sp.b_map(fixed_xi)
        c = sp.build_c_hat(blend_mix, 3, b)
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


class TestBuildEHat:
    def test_population_value(self, blend_mix):
        # expectation of the order-2 estimate is the order-2 population moment
        per = [
            sp.build_e_hat(sp.draw_groups(blend_mix, 4, 2000, seed=50 + s), 3)
            for s in range(100)
        ]
        stack = np.stack(per)
        se = stack.std(axis=0, ddof=1) / np.sqrt(len(per))
        dev = np.abs(stack.mean(axis=0) - sp.moment(blend_mix, 2))
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

    @pytest.mark.parametrize("m", [0, True, 2.5])
    def test_rejects_non_integer_m(self, blend_mix, m):
        ds = sp.draw_groups(blend_mix, 3, 10, seed=0)
        with pytest.raises(ValueError, match=f"^m must be an integer >= 2, got {m!r}$"):
            sp.build_e_hat(ds, m)
