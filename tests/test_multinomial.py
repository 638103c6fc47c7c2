"""Count-vector laws and their spread onto symmetric tensors."""
import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import raw_moment
from specmix.multinomial import (
    MultinomialSpec,
    composition_measure_from_json,
    composition_measure_to_json,
    enumerate_compositions,
    f_nq,
    multinomial_mixture_equal,
    multinomial_pmf,
    t_nq_apply,
    verify_lemma_mult,
)


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

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MultinomialSpec(0, 2, np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            MultinomialSpec(2, 3, np.array([0.5, 0.5]))


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

    def test_rejects_empty(self):
        a = [(1.0, MultinomialSpec(2, 2, np.array([0.5, 0.5])))]
        with pytest.raises(ValueError):
            multinomial_mixture_equal(a, [])


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


class TestMeasureJson:
    def test_round_trip(self):
        measure = {(2, 0): 0.25, (1, 1): -0.5, (0, 2): 1.25}
        again = composition_measure_from_json(composition_measure_to_json(measure))
        assert again == measure

    def test_merges_duplicates(self):
        text = '[{"x": [1, 1], "c": 0.5}, {"x": [1, 1], "c": 0.25}]'
        assert composition_measure_from_json(text) == {(1, 1): 0.75}
