"""Count-vector laws and their spread onto symmetric tensors."""
import itertools
import math
import re
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import raw_moment
from specmix.multinomial import (
    MultinomialSpec,
    enumerate_compositions,
    f_nq,
    multinomial_mixture_equal,
    multinomial_pmf,
    t_nq_apply,
    verify_lemma_mult,
)
from specmix.tensors import _multisets


class TestEnumerateCompositions:
    def test_two_into_two(self):
        assert enumerate_compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_zero_trials(self):
        assert enumerate_compositions(0, 3) == [(0, 0, 0)]

    def test_count(self):
        assert len(enumerate_compositions(6, 4)) == 84
        assert len(enumerate_compositions(6, 4)) == sp.num_compositions(6, 4)

    def test_single_cell(self):
        assert enumerate_compositions(5, 1) == [(5,)]

    def test_all_valid_and_distinct(self):
        comps = enumerate_compositions(4, 3)
        assert len(set(comps)) == len(comps)
        assert all(sum(x) == 4 and min(x) >= 0 for x in comps)

    def test_order_is_first_coordinate_descending_recursively(self):
        def reference(n, q):
            if q == 1:
                return [(n,)]
            return [(a,) + rest for a in range(n, -1, -1) for rest in reference(n - a, q - 1)]

        for n in range(7):
            for q in range(1, 7):
                assert enumerate_compositions(n, q) == reference(n, q)

    def test_many_cells(self):
        # one frame per cell would pass Python's recursion limit here
        comps = enumerate_compositions(1, 1000)
        assert len(comps) == 1000
        assert comps[0] == (1,) + (0,) * 999 and comps[-1] == (0,) * 999 + (1,)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            enumerate_compositions(-1, 2)
        with pytest.raises(ValueError):
            enumerate_compositions(2, 0)


class TestMultinomialPmf:
    def test_fair_coin(self):
        spec = MultinomialSpec(2, 2, np.array([0.5, 0.5]))
        assert_allclose(multinomial_pmf(spec, (1, 1)), 0.5)

    def test_biased(self):
        spec = MultinomialSpec(2, 2, np.array([0.2, 0.8]))
        assert_allclose(multinomial_pmf(spec, (2, 0)), 0.04)

    def test_sums_to_one(self):
        spec = MultinomialSpec(5, 3, np.array([0.5, 0.3, 0.2]))
        total = sum(multinomial_pmf(spec, x) for x in enumerate_compositions(5, 3))
        assert abs(total - 1.0) < 1e-12

    def test_rejects_wrong_composition(self):
        spec = MultinomialSpec(2, 2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            multinomial_pmf(spec, (1, 0))
        with pytest.raises(ValueError):
            multinomial_pmf(spec, (1, 1, 0))

    @pytest.mark.parametrize("x", [(True, True), (2, False), (np.True_, 1)])
    def test_rejects_bool_counts(self, x):
        # (True, True) was read as (1, 1), probability 0.5
        spec = MultinomialSpec(2, 2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match=rf"^key {re.escape(str(x))} is not a composition of 2 into 2 cells$"):
            multinomial_pmf(spec, x)
        assert multinomial_pmf(spec, (1.0, "1")) == multinomial_pmf(spec, (1, 1))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MultinomialSpec(0, 2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MultinomialSpec(2, 3, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("n, q", [(2.5, 2), (2.0, 2), (True, 2), (2, 2.0), ("2", 2)])
    def test_spec_rejects_non_integer_sizes(self, n, q):
        # MultinomialSpec(2.5, 2, ...) was accepted
        name, value, low = ("n", n, 1) if type(n) is not int else ("q", q, 2)
        with pytest.raises(ValueError, match=rf"^{name} must be an integer >= {low}, got {re.escape(repr(value))}$"):
            MultinomialSpec(n, q, np.array([0.5, 0.5]))
        assert MultinomialSpec(np.int64(2), 2, [0.5, 0.5]).n == 2


class TestCanonicalWord:
    def test_example(self):
        assert f_nq((1, 0, 3, 2)) == (1, 3, 3, 3, 4, 4)

    def test_single_cell_mass(self):
        assert f_nq((4, 0, 0)) == (1, 1, 1, 1)

    def test_unit_counts(self):
        assert f_nq((0, 0, 1)) == (3,)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            f_nq((1, -1, 2))


class TestSpreadTransform:
    def test_off_diagonal_atom(self):
        out = t_nq_apply({(1, 1): 1.0}, 2, 2)
        assert_allclose(out, [[0.0, 0.5], [0.5, 0.0]], atol=1e-15)

    def test_diagonal_atom(self):
        out = t_nq_apply({(2, 0): 1.0}, 2, 2)
        assert_allclose(out, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_mass_and_symmetry_preserved(self):
        rng = np.random.default_rng(3)
        comps = enumerate_compositions(3, 3)
        measure = {x: float(c) for x, c in zip(comps, rng.standard_normal(len(comps)))}
        out = t_nq_apply(measure, 3, 3)
        assert abs(out.sum() - sum(measure.values())) < 1e-12
        assert_allclose(sp.symmetrize(out), out, atol=1e-14)

    def test_entries_match_tally_formula(self):
        # entry at word w equals measure(tally(w)) * prod(tally!) / n!
        rng = np.random.default_rng(4)
        for n, q in [(3, 2), (3, 1), (1, 3), (2, 2), (4, 3), (3, 4), (5, 2)]:
            comps = enumerate_compositions(n, q)
            measure = {x: float(c) for x, c in zip(comps, rng.standard_normal(len(comps)))}
            out = t_nq_apply(measure, n, q)
            for word in itertools.product(range(q), repeat=n):
                x = tuple(np.bincount(word, minlength=q))
                share = measure[x] * math.prod(math.factorial(v) for v in x) / math.factorial(n)
                assert_allclose(out[word], share, atol=1e-14)

    def test_rejects_bad_key(self):
        with pytest.raises(ValueError):
            t_nq_apply({(1, 0): 1.0}, 2, 2)

    def test_equals_per_key_loop(self):
        # reference: each key's share added one at a time at its word's rank
        rng = np.random.default_rng(6)
        for n, q in itertools.product(range(1, 6), range(1, 6)):
            comps = enumerate_compositions(n, q)
            keep = rng.permutation(len(comps))[: max(1, len(comps) // 2)]
            measure = {comps[i]: float(c) for i, c in zip(keep, rng.standard_normal(keep.size))}
            rank = _multisets(q, n)
            per_multiset = np.zeros(math.comb(q + n - 1, n))
            for x, c in measure.items():
                share = c
                for v in x:
                    share *= math.factorial(v)
                share /= math.factorial(n)
                per_multiset[rank[tuple(np.subtract(f_nq(x), 1))]] += share
            assert_array_equal(t_nq_apply(measure, n, q), per_multiset[rank])

    def test_reports_first_offending_key(self):
        for measure, first in [
            ({(1, 1): 1.0, (3, -1): 1.0, (2,): 1.0}, "(3, -1)"),
            ({(1, 1): 1.0, (2,): 1.0, (3, -1): 1.0}, "(2,)"),
            # named as written: int() would truncate it to (1, 0)
            ({(1.5, 0.5): 1.0, (1, 1, 0): 1.0}, "(1.5, 0.5)"),
        ]:
            with pytest.raises(ValueError, match=rf"^key {re.escape(first)} is not a composition"):
                t_nq_apply(measure, 2, 2)

    @pytest.mark.parametrize(
        "key", [(1.5, 1.5, 1.0), (1.0, 1.0, 1.5), (0.5, 2.5, 0.0), (2.000001, 1.0, 0.0), ("1.5", "1.5", "1")]
    )
    def test_rejects_fractional_key(self, key):
        # int() would truncate (1.5, 1.5, 1.0) to the composition (1, 1, 1)
        written = re.escape(str(key))
        with pytest.raises(ValueError, match=rf"^key {written} is not a composition of 3 into 3 cells$"):
            t_nq_apply({key: 1.0}, 3, 3)
        with pytest.raises(ValueError, match=rf"^key {written} is not a composition of 3 into 3 cells$"):
            t_nq_apply({(1, 1, 1): 0.5, key: 0.5}, 3, 3)
        with pytest.raises(ValueError, match=rf"^key {written} is not a composition of 3 into 3 cells$"):
            multinomial_pmf(MultinomialSpec(3, 3, [0.2, 0.3, 0.5]), key)

    @pytest.mark.parametrize("key", [(True, False), (1, False), (np.True_, np.False_)])
    def test_rejects_bool_key(self, key):
        # int() reads True as 1, so (True, False) was accepted as (1, 0)
        written = re.escape(str(key))
        with pytest.raises(ValueError, match=rf"^key {written} is not a composition of 1 into 2 cells$"):
            t_nq_apply({key: 1.0}, 1, 2)
        # beside int keys numpy reads a bool key as ints
        with pytest.raises(ValueError, match=rf"^key {written} is not a composition of 1 into 2 cells$"):
            t_nq_apply({(0, 1): 1.0, key: 1.0}, 1, 2)

    def test_keys_convert_with_int(self):
        expected = t_nq_apply({(1, 1): 0.25, (2, 0): 0.75}, 2, 2)
        assert_array_equal(t_nq_apply({(1.0, 1.0): 0.25, ("2", "0"): 0.75}, 2, 2), expected)

    def test_many_cells(self):
        rng = np.random.default_rng(5)
        comps = enumerate_compositions(1, 900)
        values = rng.standard_normal(900)
        out = t_nq_apply(dict(zip(comps, values)), 1, 900)
        # compositions of 1 come in descending order: the unit vector of cell 0 first
        assert_array_equal(out, values)


class TestLawRecovery:
    @pytest.mark.parametrize(
        "n,q,p",
        [
            (1, 2, [0.3, 0.7]),
            (3, 2, [0.2, 0.8]),
            (4, 3, [0.5, 0.3, 0.2]),
            (2, 4, [0.1, 0.2, 0.3, 0.4]),
        ],
    )
    def test_multinomial_spreads_to_power(self, n, q, p):
        gap = verify_lemma_mult(MultinomialSpec(n, q, np.array(p)))
        assert gap < 1e-14


class TestMixtureEquality:
    def test_permutation_equal(self):
        a = [
            (0.4, MultinomialSpec(2, 2, np.array([0.3, 0.7]))),
            (0.6, MultinomialSpec(2, 2, np.array([0.8, 0.2]))),
        ]
        assert multinomial_mixture_equal(a, list(reversed(a)))

    def test_counterexample_pair_reencoded(self):
        # the moment-matched pair gives equal 2-trial multinomial mixtures
        # but different 3-trial ones
        pair = sp.build_pair(2, 4)

        def encode(mix, n):
            return [
                (float(w), MultinomialSpec(n, mix.d, comp))
                for w, comp in zip(mix.weights, mix.components)
            ]

        assert multinomial_mixture_equal(encode(pair.p, 2), encode(pair.p_prime, 2))
        assert not multinomial_mixture_equal(encode(pair.p, 3), encode(pair.p_prime, 3))

    def test_rejects_mismatched_shapes(self):
        a = [(1.0, MultinomialSpec(2, 2, np.array([0.5, 0.5])))]
        b = [(1.0, MultinomialSpec(3, 2, np.array([0.5, 0.5])))]
        with pytest.raises(ValueError, match="share"):
            multinomial_mixture_equal(a, b)

    @pytest.mark.parametrize("tol", [-1e-10, float("nan"), float("inf")])
    def test_rejects_bad_tol(self, tol):
        # a NaN or negative tol called a mixture different from itself
        a = [(1.0, MultinomialSpec(2, 2, np.array([0.5, 0.5])))]
        with pytest.raises(ValueError, match=rf"^tol must be a finite number >= 0, got {tol}$"):
            multinomial_mixture_equal(a, a, tol=tol)
        assert multinomial_mixture_equal(a, a, tol=0.0)

    def test_rejects_empty(self):
        a = [(1.0, MultinomialSpec(2, 2, np.array([0.5, 0.5])))]
        with pytest.raises(ValueError):
            multinomial_mixture_equal(a, [])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([float("nan")], "^weights entry 0 is nan, not finite$"),
            ([float("inf")], "^weights entry 0 is inf, not finite$"),
            ([-3.0, 4.0], "^weights must be strictly positive, got min -3$"),
            ([0.0, 1.0], "^weights must be strictly positive, got min 0$"),
            ([0.5, 0.6], r"^weights sum to 1\.1, not 1$"),
        ],
    )
    def test_rejects_bad_weights_on_either_side(self, weights, message):
        # make_mixture's rules; a NaN weight called a mixture different from
        # itself, and -3, 4 on one p equal to 1 on that p
        p = MultinomialSpec(2, 2, np.array([0.5, 0.5]))
        bad = [(w, p) for w in weights]
        good = [(1.0, p)]
        for a, b in [(bad, good), (good, bad), (bad, bad)]:
            with pytest.raises(ValueError, match=message):
                multinomial_mixture_equal(a, b)

    def test_weights_are_checked_not_renormalized(self):
        # within SUM_TOL of 1 passes, and the tensors use the weights as given
        p = MultinomialSpec(2, 2, np.array([0.5, 0.5]))
        off = [(0.5, p), (0.5 + 5e-10, p)]
        assert multinomial_mixture_equal(off, [(1.0, p)], tol=1e-9)
        assert not multinomial_mixture_equal(off, [(1.0, p)], tol=0.0)

    def test_forty_trials(self):
        # the dense 2^40-entry tensor needed 8 TiB (MemoryError); the
        # multiset values are 41
        p, p_swap = MultinomialSpec(40, 2, [0.3, 0.7]), MultinomialSpec(40, 2, [0.7, 0.3])
        a = [(0.25, p), (0.75, p_swap)]
        assert multinomial_mixture_equal(a, list(reversed(a)))
        assert multinomial_mixture_equal(a, a, tol=0.0)
        assert not multinomial_mixture_equal(a, [(0.75, p), (0.25, p_swap)])

    def test_thousand_categories(self):
        # q = 1000, n = 2: 500500 multiset values.  A table of count vectors
        # as 1000-int tuples took gigabytes here; sorted words take 8 MB.
        rng = np.random.default_rng(3)
        p, p2 = (MultinomialSpec(2, 1000, rng.dirichlet(np.ones(1000))) for _ in range(2))
        start = time.perf_counter()
        assert multinomial_mixture_equal([(0.5, p), (0.5, p2)], [(0.5, p2), (0.5, p)])
        assert not multinomial_mixture_equal([(0.5, p), (0.5, p2)], [(1.0, p)])
        assert time.perf_counter() - start < 2.0

    def test_repeated_components_allowed(self):
        p = MultinomialSpec(2, 2, np.array([0.3, 0.7]))
        assert multinomial_mixture_equal([(0.25, p), (0.75, p)], [(1.0, p)])


class TestBridgeToGroupedData:
    def test_tally_spread_equals_full_order_moment(self, blend_mix):
        # spreading the empirical tally measure recovers the order-k
        # symmetrized moment exactly
        ds = sp.draw_groups(blend_mix, 4, 300, seed=12)
        h = sp.tally(ds)
        measure = {x: c / h.n_groups for x, c in h.counts.items()}
        spread = t_nq_apply(measure, ds.group_size, ds.d)
        direct = raw_moment(ds, ds.group_size)
        assert_allclose(spread, direct, atol=1e-12)
