"""Mixture construction, population moments, reference measures, norms."""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import dense_power_sum, random_mixture
from specmix.model import mixture_weights


class TestProbabilityVector:
    def test_valid(self):
        p = sp.probability_vector([0.3, 0.7])
        assert_array_equal(p, [0.3, 0.7])
        assert not p.flags.writeable

    def test_renormalizes_rounded_input(self):
        p = sp.probability_vector([0.3 + 4e-10, 0.7])
        assert abs(p.sum() - 1.0) < 1e-15

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            sp.probability_vector([1.1, -0.1])

    def test_rejects_bad_sum(self):
        # the plain float, not numpy 2's np.float64(1.1)
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.1, not 1$"):
            sp.probability_vector([0.5, 0.6])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=f"probability vector entry 0 is {bad}, not finite"):
            sp.probability_vector([bad, 1.0])


class TestMakeMixture:
    def test_single_component(self):
        mix = sp.make_mixture([1.0], [[0.5, 0.5]])
        assert mix.m == 1 and mix.d == 2

    def test_reference_mixture(self, blend_mix):
        assert blend_mix.m == 3 and blend_mix.d == 3
        # third component is the 1/3-2/3 blend of the first two
        blend = blend_mix.components[0] / 3 + 2 * blend_mix.components[1] / 3
        assert_allclose(blend_mix.components[2], blend, atol=1e-15)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="coincide"):
            sp.make_mixture([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            sp.make_mixture([1.2, -0.2], [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_off_simplex_weights(self):
        with pytest.raises(ValueError, match="sum"):
            sp.make_mixture([0.6, 0.6], [[1.0, 0.0], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        comps = [[0.5, 0.5], [0.2, 0.8]]
        with pytest.raises(ValueError, match="weights entry 0 is nan, not finite"):
            sp.make_mixture([np.nan, 1.0], comps)
        with pytest.raises(ValueError, match="entry 0 is nan, not finite"):
            sp.make_mixture([0.5, 0.5], [[np.nan, 0.5, 0.5], [0.2, 0.3, 0.5]])

    @pytest.mark.parametrize(
        "weights, entry",
        [([True], "0 is True"), ([0.5, True], "1 is True"), (np.array([True]), "0 is True"),
         (["1.0"], "0 is '1.0'"), ([0.5, "0.5"], "1 is '0.5'"), (np.array(["1.0"]), "0 is '1.0'")],
    )
    def test_rejects_bool_and_string_weights(self, weights, entry):
        # numpy reads True as the weight 1.0 and "1.0" as 1.0
        with pytest.raises(ValueError, match=rf"^weights entry {entry}, not a real number$"):
            mixture_weights(weights)

    @pytest.mark.parametrize("p", [[True, False], ["0.5", "0.5"], np.array([0.5, 0.5], dtype=complex)])
    def test_rejects_probabilities_that_are_no_real_numbers(self, p):
        with pytest.raises(ValueError, match=r"^probability vector entry 0 is .+, not a real number$"):
            sp.probability_vector(p)
        with pytest.raises(ValueError, match=r"^dominating measure entry 0 is .+, not a real number$"):
            sp.DominatingMeasure(p)

    def test_accepts_real_number_types(self):
        for p in ([1, 0], [np.float32(0.5), np.int64(0), 0.5], np.array([0.5, 0.5], dtype=object)):
            assert sp.probability_vector(p).dtype == np.float64

    def test_renormalizes_near_simplex_weights(self):
        mix = sp.make_mixture([0.5 + 2e-10, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        assert mix.weights.sum() == 1.0

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            sp.make_mixture([0.5, 0.5], [[1.0, 0.0], [0.0, 0.5, 0.5]])

    def test_json_round_trip(self, blend_mix):
        again = sp.MixtureSpec.from_json(blend_mix.to_json())
        assert_array_equal(again.weights, blend_mix.weights)
        assert_array_equal(again.components, blend_mix.components)


class TestPopulationMoment:
    def test_single_component_is_outer_product(self):
        mix = sp.make_mixture([1.0], [[0.3, 0.7]])
        assert_allclose(sp.population_moment(mix, 2), np.outer([0.3, 0.7], [0.3, 0.7]))

    def test_reference_mean(self, blend_mix):
        assert_allclose(sp.population_moment(blend_mix, 1), [0.38, 0.32, 0.30], atol=1e-15)

    def test_symmetric_and_normalized(self, blend_mix):
        for n in range(1, 7):
            t = sp.population_moment(blend_mix, n)
            assert_allclose(t.sum(), 1.0, atol=1e-12)
            assert_allclose(sp.symmetrize(t), t, atol=1e-15)

    def test_marginalization_consistency(self, blend_mix):
        # summing out the last draw recovers the lower-order moment
        for n in range(2, 7):
            assert_allclose(
                sp.population_moment(blend_mix, n).sum(axis=-1),
                sp.population_moment(blend_mix, n - 1),
                atol=1e-14,
            )

    def test_rejects_order_zero(self, blend_mix):
        with pytest.raises(ValueError):
            sp.population_moment(blend_mix, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        d=st.integers(1, 5),
        r=st.integers(1, 6),
        m=st.integers(1, 4),
    )
    def test_multiset_values_match_dense_power_sum(self, data, d, r, m):
        # components with entries in multiples of 1/(20 d) and weights in
        # multiples of 1/(20 m) keep every product far above underflow
        rows = data.draw(st.lists(st.lists(st.integers(0, 20), min_size=d, max_size=d).filter(any),
                                  min_size=m, max_size=m, unique_by=tuple))
        counts = data.draw(st.lists(st.integers(1, 20), min_size=m, max_size=m))
        comps = [np.array(row) / sum(row) for row in rows]
        assume(all(np.abs(a - b).max() > 1e-12 for i, a in enumerate(comps) for b in comps[:i]))
        mix = sp.make_mixture(np.array(counts) / sum(counts), comps)
        t = sp.population_moment(mix, r)
        oracle = dense_power_sum(mix.weights, mix.components, r)
        # each side forms every term with at most r + d multiplications and
        # adds m nonnegative terms, each operation within half an ulp
        # (2**-53 relative), so the two differ by at most (r + d + m) eps
        assert np.all(np.abs(t - oracle) <= (r + d + m) * np.finfo(float).eps * oracle)
        # read out of one value per multiset, the tensor is exactly symmetric
        perm = data.draw(st.permutations(range(r)))
        assert_array_equal(t.transpose(perm), t)


class TestDominatingMeasure:
    def test_fixed(self):
        xi = sp.DominatingMeasure([9.0, 4.0, 1.0])
        assert_array_equal(xi.y, [9.0, 4.0, 1.0])

    def test_fixed_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="> 0"):
            sp.DominatingMeasure([1.0, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("build", [sp.DominatingMeasure])
    def test_rejects_non_finite_mass(self, build, bad):
        with pytest.raises(ValueError, match=f"entry 1 is {bad}, not finite"):
            build([1.0, bad, 1.0])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_fixed_descriptor_rejects_non_finite_mass(self, bad):
        # the descriptor is checked when the config is built, before any data
        with pytest.raises(ValueError, match=f"entry 1 is {bad}"):
            sp.RecoveryConfig(3, dominating=f"fixed:1,{bad},1")

    def test_uniform_support_and_determinism(self):
        a = sp.resolve_dominating("uniform", 50, seed=7)
        b = sp.resolve_dominating("uniform", 50, seed=7)
        assert_array_equal(a.y, b.y)
        assert np.all((a.y >= 1.0) & (a.y <= 2.0))
        c = sp.resolve_dominating("uniform", 50, seed=8)
        assert not np.array_equal(a.y, c.y)

    def test_sqgauss_positive(self):
        xi = sp.resolve_dominating("sqgauss:0.03", 200, seed=3)
        assert np.all(xi.y > 0.0)
        # scale should be around sigma^2
        assert 1e-6 < np.median(xi.y) < 1e-2

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            sp.resolve_dominating("bogus", 3, seed=0)


class TestBMap:
    def test_inverse_square_roots(self, fixed_xi):
        assert_allclose(sp.b_map(fixed_xi), [1 / 3, 1 / 2, 1.0])

    def test_unit_measure_gives_identity(self):
        b = sp.b_map(sp.DominatingMeasure(np.ones(4)))
        assert_array_equal(np.diag(b), np.eye(4))

    def test_read_only(self, fixed_xi):
        with pytest.raises(ValueError):
            sp.b_map(fixed_xi)[0] = 1.0


class TestDistinctNorms:
    def test_unit_measure_ties(self, blend_mix):
        res = sp.check_distinct_norms(blend_mix, sp.DominatingMeasure(np.ones(3)))
        assert not res.distinct
        assert_allclose(res.norms[0], 0.5136)
        assert_allclose(res.norms[1], 0.5136)

    def test_separating_measure(self, blend_mix, fixed_xi):
        res = sp.check_distinct_norms(blend_mix, fixed_xi)
        assert res.distinct
        assert_allclose(res.norms, [0.07271111, 0.43537778, 0.2256], atol=1e-8)
        assert_allclose(res.min_gap, 0.2256 - 0.07271111, atol=1e-8)

    def test_single_component_vacuous(self):
        mix = sp.make_mixture([1.0], [[0.5, 0.5]])
        res = sp.check_distinct_norms(mix, sp.DominatingMeasure([1.0, 1.0]))
        assert res.distinct and res.min_gap == np.inf

    def test_random_measure_separates(self):
        # ties have probability zero under a continuous measure draw
        rng = np.random.default_rng(0)
        for trial in range(1000):
            mix = random_mixture(rng, 3, 3)
            xi = sp.resolve_dominating("uniform", 3, trial)
            assert sp.check_distinct_norms(mix, xi).min_gap > 1e-12

    def test_dimension_mismatch(self, blend_mix):
        with pytest.raises(ValueError, match="dimension"):
            sp.check_distinct_norms(blend_mix, sp.DominatingMeasure([1.0, 1.0]))
