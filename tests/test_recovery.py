"""Pipeline stages and end-to-end recovery, population and empirical."""
import itertools
import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import random_mixture
from specmix.estimation import moment
from specmix.recovery import (
    RecoveryConfig,
    RecoveryError,
    RecoveryResult,
    _finalize_components,
    build_t_hat,
    recover_full,
    recover_weights,
    resolve_dominating,
    whiten,
)
from specmix.tensors import RankDeficiencyError


@pytest.fixture(scope="module")
def two_mix():
    return sp.make_mixture([0.6, 0.4], [[1.0, 0.0], [0.5, 0.5]])


class TestResolveDominating:
    def test_none_and_passthrough(self, fixed_xi):
        assert resolve_dominating(None, 3, 0) is None
        assert resolve_dominating("none", 3, 0) is None
        assert resolve_dominating(fixed_xi, 3, 0) is fixed_xi

    def test_uniform_scheme(self):
        xi = resolve_dominating("uniform", 4, 7)
        again = resolve_dominating("uniform", 4, 7)
        assert_array_equal(xi.y, again.y)
        assert np.all(xi.y >= 1.0) and np.all(xi.y < 2.0)
        other = resolve_dominating("uniform", 4, 8)
        assert not np.array_equal(xi.y, other.y)

    def test_sqgauss_scheme(self):
        xi = resolve_dominating("sqgauss:0.5", 3, 1)
        assert np.all(xi.y >= 1e-12)
        small = resolve_dominating("sqgauss:0.001", 3, 1)
        assert small.y.max() < xi.y.max()

    def test_fixed_scheme(self):
        xi = resolve_dominating("fixed:9,4,1", 3, 0)
        assert_array_equal(xi.y, [9.0, 4.0, 1.0])

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="descriptor 'bogus'; the schemes are"):
            resolve_dominating("bogus", 3, 0)
        malformed = {
            "unifrom": "unknown dominating-measure descriptor 'unifrom'",
            "sqgauss:abc": "'sqgauss:abc': could not convert",
            "sqgauss:-1": "'sqgauss:-1': sigma must be finite and > 0",
            "sqgauss:nan": "'sqgauss:nan': sigma must be finite and > 0",
            "fixed:1,x,3": "'fixed:1,x,3': could not convert",
            "fixed:": "'fixed:': could not convert",
        }
        for spec, message in malformed.items():
            with pytest.raises(ValueError, match=message):
                resolve_dominating(spec, 3, 0)
        for spec in ([9, 4, 1], 3.0):
            with pytest.raises(ValueError, match='dominating must be .* "uniform"'):
                resolve_dominating(spec, 3, 0)


class TestRecoveryConfig:
    def test_defaults(self):
        cfg = RecoveryConfig(m=3)
        assert cfg.probe == "gaussian" and cfg.weight_solver == "clip-renormalize"

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(m=0)
        with pytest.raises(ValueError, match="probe"):
            RecoveryConfig(m=2, probe="bogus")
        for m in ("2", 2.0, 2.5, None):
            with pytest.raises(ValueError, match="m must be an integer >= 1"):
                RecoveryConfig(m=m)
        for eig_floor in ("1e-8", 0.0, -1.0, 1.0, float("nan"), None):
            with pytest.raises(ValueError, match=r"eig_floor must be a number in \(0, 1\)"):
                RecoveryConfig(m=2, eig_floor=eig_floor)
        for dominating in ("unifrom", "sqgauss:abc", "sqgauss:-1", "fixed:1,x,3", "fixed:", [9, 4, 1]):
            with pytest.raises(ValueError, match="dominating"):
                RecoveryConfig(m=2, dominating=dominating)
        # a numpy integer m and a numpy float floor are accepted and echoed as JSON numbers
        cfg = RecoveryConfig(m=np.int64(2), eig_floor=np.float64(1e-9))
        assert json.dumps(cfg.echo()) == json.dumps(RecoveryConfig(m=2, eig_floor=1e-9).echo())

    def test_settable_fields(self):
        assert [f.name for f in fields(RecoveryConfig)] == ["m", "dominating", "probe", "eig_floor"]

    def test_echo_reports_fixed_choices(self):
        # recover and experiment reports carry all six keys
        assert RecoveryConfig(m=3).echo() == {
            "m": 3,
            "dominating": None,
            "probe": "gaussian",
            "clip_negatives": True,
            "eig_floor": 1e-8,
            "weight_solver": "clip-renormalize",
        }

    def test_echo_serializes_measure(self, fixed_xi):
        echo = RecoveryConfig(m=2, dominating=fixed_xi).echo()
        assert echo["dominating"] == {"y": [9.0, 4.0, 1.0]}
        assert json.dumps(echo)  # json-safe


class TestWhiten:
    def test_rank_one(self):
        p = np.array([3.0, 4.0])
        w = whiten(np.outer(p, p), 1)
        assert_allclose(w, np.outer(p, p) / np.linalg.norm(p) ** 3, atol=1e-12)

    def test_identity(self):
        assert_allclose(whiten(np.eye(3), 3), np.eye(3), atol=1e-14)

    def test_rank_deficiency(self):
        with pytest.raises(RankDeficiencyError):
            whiten(np.diag([1.0, 0.0]), 2)
        with pytest.raises(ValueError, match="^m must be >= 1, got 0$"):
            whiten(np.eye(2), 0)

    def test_orthonormalizes_weighted_powers(self, blend_mix, fixed_xi):
        # W applied to sqrt(w_i) (B p_i)^{(x)2} yields an orthonormal family
        b = sp.b_map(fixed_xi)
        c = sp.build_c_hat(blend_mix, 3, b)
        w = whiten(c, 3)
        bp = blend_mix.components * b
        family = np.stack(
            [np.sqrt(wt) * np.kron(p, p) for wt, p in zip(blend_mix.weights, bp)]
        )
        gram = (family @ w.T) @ (w @ family.T)
        assert_allclose(gram, np.eye(3), atol=1e-8)


class TestBuildTHat:
    def test_two_component_spectrum(self, two_mix):
        c = sp.build_c_hat(two_mix, 2, None)
        t = build_t_hat(moment(two_mix, 3, None), whiten(c, 2))
        lam = np.sort(np.linalg.eigvalsh(t @ t.T))[::-1]
        # eigenvalues are the squared component norms 1 and 0.5
        assert_allclose(lam[:2], [1.0, 0.5], atol=1e-10)
        assert np.abs(lam[2:]).max() < 1e-10

    def test_spectrum_equals_rescaled_norms(self, blend_mix, fixed_xi):
        b = sp.b_map(fixed_xi)
        c = sp.build_c_hat(blend_mix, 3, b)
        t = build_t_hat(moment(blend_mix, 5, b), whiten(c, 3))
        lam = np.sort(np.linalg.eigvalsh(t @ t.T))[::-1]
        norms = np.sort(sp.check_distinct_norms(blend_mix, fixed_xi).norms)[::-1]
        assert_allclose(lam[:3], norms, atol=1e-10)

    def test_zero_whitener(self, two_mix):
        t = build_t_hat(moment(two_mix, 3, None), np.zeros((2, 2)))
        assert_array_equal(t, np.zeros((4, 2)))

    def test_order_one(self):
        t = build_t_hat(np.array([0.3, 0.7]), np.eye(1))
        assert t.shape == (2, 1)

    def test_rejects_even_order(self):
        with pytest.raises(ValueError, match="odd"):
            build_t_hat(np.zeros((2, 2)), np.eye(2))

    def test_rejects_bad_whitener(self):
        with pytest.raises(ValueError, match="whitener"):
            build_t_hat(np.zeros((2, 2, 2)), np.eye(3))


class TestExtractComponents:
    @staticmethod
    def _t_hat(mix):
        c = sp.build_c_hat(mix, 2, None)
        return build_t_hat(moment(mix, 3, None), whiten(c, 2))

    def test_population_exact(self, two_mix):
        comps = recover_full(two_mix, RecoveryConfig(2), seed=0).components
        err = sp.matched_l1_error(two_mix.components, comps)
        assert err < 1e-8

    def test_sign_flip_invariant(self, two_mix):
        t = self._t_hat(two_mix)
        dec = sp.sym_eig(t @ t.T)
        v = dec.eigenvectors[:, :2]
        a = _finalize_components(v, 2, None, "gaussian", 0)
        flipped = _finalize_components(-v, 2, None, "gaussian", 0)
        assert_array_equal(a, flipped)

    def test_probe_seed_invariant(self, two_mix):
        a = recover_full(two_mix, RecoveryConfig(2, probe="gaussian"), seed=1).components
        b = recover_full(two_mix, RecoveryConfig(2, probe="gaussian"), seed=2).components
        assert np.abs(a - b).max() < 1e-6

    def test_probes_agree_on_population(self, two_mix):
        g = recover_full(two_mix, RecoveryConfig(2, probe="gaussian"), seed=0).components
        s = recover_full(two_mix, RecoveryConfig(2, probe="singular"), seed=0).components
        assert_allclose(np.sort(g, axis=0), np.sort(s, axis=0), atol=1e-8)

    def test_degenerate_eigenvector_exhausts_probes(self):
        v = np.full((4, 1), 1e-15)
        with pytest.raises(RecoveryError, match="probe"):
            _finalize_components(v, 2, None, "gaussian", 0)


class TestRecoverWeights:
    def test_population_exact(self, blend_mix):
        e = sp.population_moment(blend_mix, 2)
        sol = recover_weights(e, blend_mix.components)
        assert_allclose(sol.weights, [0.5, 0.3, 0.2], atol=1e-10)
        assert sol.residual < 1e-12
        assert sol.gram_condition >= 1.0

    def test_pure_component(self, blend_mix):
        e = sp.outer_power(blend_mix.components[0], 2)
        sol = recover_weights(e, blend_mix.components)
        assert_allclose(sol.weights, [1.0, 0.0, 0.0], atol=1e-9)

    def test_single_component(self):
        sol = recover_weights(np.array([0.4, 0.6]), np.array([[0.4, 0.6]]))
        assert_array_equal(sol.weights, [1.0])
        assert sol.residual < 1e-15

    def test_weights_on_simplex(self, blend_mix):
        # perturbed moment still yields a proper weight vector
        e = sp.population_moment(blend_mix, 2) + 1e-3
        sol = recover_weights(e, blend_mix.components)
        assert np.all(sol.weights >= 0.0)
        assert abs(sol.weights.sum() - 1.0) < 1e-12

    def test_unknown_solver(self, blend_mix):
        with pytest.raises(ValueError, match="solver"):
            recover_weights(sp.population_moment(blend_mix, 2), blend_mix.components, "x")


class TestRecoverFull:
    def test_population_blend(self, blend_mix, fixed_xi):
        res = sp.recover_full(blend_mix, RecoveryConfig(m=3, dominating=fixed_xi))
        assert sp.matched_l1_error(blend_mix.components, res.components) < 1e-6
        assert_allclose(np.sort(res.weights), [0.2, 0.3, 0.5], atol=1e-6)

    def test_population_two_component(self, two_mix):
        res = sp.recover_full(two_mix, RecoveryConfig(m=2))
        assert sp.matched_l1_error(two_mix.components, res.components) < 1e-8

    def test_diagnostics_keys(self, blend_mix, fixed_xi):
        res = sp.recover_full(blend_mix, RecoveryConfig(m=3, dominating=fixed_xi), seed=5)
        assert set(res.diagnostics) == {
            "tt_eigenvalues",
            "whitening_spectrum",
            "weight_residual",
            "gram_condition",
            "seed",
            "config",
        }
        assert res.diagnostics["seed"] == 5
        assert res.m == 3

    def test_m_one_returns_mean(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 2, 5000, seed=0)
        res = sp.recover_full(ds, RecoveryConfig(m=1))
        assert_array_equal(res.weights, [1.0])
        assert_allclose(res.components[0], sp.empirical_sym_moment(ds, 1), atol=1e-12)

    def test_small_groups_rejected(self, blend_mix, fixed_xi):
        ds = sp.draw_groups(blend_mix, 3, 50, seed=0)
        with pytest.raises(RecoveryError, match="setup"):
            sp.recover_full(ds, RecoveryConfig(m=3, dominating=fixed_xi))

    def test_overshooting_m_fails_in_whitening(self, blend_mix, fixed_xi):
        with pytest.raises(RecoveryError, match="whitening"):
            sp.recover_full(blend_mix, RecoveryConfig(m=4, dominating=fixed_xi))

    def test_nearly_coincident_components_need_a_lower_floor(self):
        # two components 0.0024 apart in L-infinity: the third eigenvalue of
        # the moment form sits just under the default floor of 1e-8
        mix = random_mixture(np.random.default_rng(1737), 3, 2)
        config = RecoveryConfig(m=3, dominating="uniform")
        margin = r"'whitening'.*eigenvalue 3 is 6\.6e-09 of the largest"
        with pytest.raises(RecoveryError, match=margin):
            recover_full(mix, config, seed=1737)
        res = recover_full(mix, replace(config, eig_floor=1e-10), seed=1737)
        assert sp.matched_l1_error(mix.components, res.components) < 1e-7

    def test_tied_norms_rejected(self):
        mix = sp.make_mixture([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
        with pytest.raises(RecoveryError, match="separate"):
            sp.recover_full(mix, RecoveryConfig(m=2, dominating=sp.DominatingMeasure([1.0, 1.0])))

    @pytest.mark.parametrize("m", [1, 2])
    def test_reference_measure_must_match_categories(self, blend_mix, m):
        ds = sp.draw_groups(blend_mix, 3, 200, seed=0)
        for data in (blend_mix, ds):
            for dominating in ("fixed:1,2,3,4", sp.DominatingMeasure([1.0, 2.0])):
                with pytest.raises(RecoveryError, match=r"'setup'.* has \d categories, the data has 3"):
                    sp.recover_full(data, RecoveryConfig(m=m, dominating=dominating))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_population_recovery_of_random_mixtures(self, m, d, seed):
        mix = random_mixture(np.random.default_rng(seed), m, d)
        # Near-coincident components are ill-conditioned: their error grows
        # as the separation shrinks, past 1e-8 below about 0.02.
        gaps = [np.abs(p - q).max() for p, q in itertools.combinations(mix.components, 2)]
        assume(min(gaps) >= 0.05)
        try:
            res = recover_full(mix, RecoveryConfig(m=m, dominating="uniform"), seed=seed)
        except RecoveryError as exc:
            assume("rescaled component norms separate by only" not in str(exc))
            raise
        err = min(
            max(
                np.abs(res.components[list(perm)] - mix.components).max(),
                np.abs(res.weights[list(perm)] - mix.weights).max(),
            )
            for perm in itertools.permutations(range(m))
        )
        assert err < 1e-8

    def test_histogram_input_equivalent(self, blend_mix, fixed_xi):
        ds = sp.draw_groups(blend_mix, 5, 2000, seed=11)
        cfg = RecoveryConfig(m=3, dominating=fixed_xi, probe="singular")
        a = sp.recover_full(ds, cfg, seed=11)
        b = sp.recover_full(sp.tally(ds), cfg, seed=11)
        assert_array_equal(a.components, b.components)
        assert_array_equal(a.weights, b.weights)

    def test_empirical_fifty_thousand_groups(self, blend_mix, fixed_xi):
        ds = sp.draw_groups(blend_mix, 5, 50_000, seed=100)
        res = sp.recover_full(
            ds, RecoveryConfig(m=3, dominating=fixed_xi, probe="singular"), seed=100
        )
        assert sp.matched_l1_error(blend_mix.components, res.components) < 0.15
        assert np.abs(np.sort(res.weights) - [0.2, 0.3, 0.5]).sum() < 0.3


class TestLiRecover4:
    def test_population_exact(self, indep_mix):
        res = sp.li_recover_4(indep_mix, 3)
        assert sp.matched_l1_error(indep_mix.components, res.components) < 1e-8
        assert_allclose(np.sort(res.weights), [0.3, 0.3, 0.4], atol=1e-8)

    def test_population_spectrum(self, indep_mix):
        res = sp.li_recover_4(indep_mix, 3)
        lam = np.array(res.diagnostics["tt_eigenvalues"])
        assert_allclose(lam[:3], [0.54, 0.46, 0.44], atol=1e-10)
        assert np.abs(lam[3:]).max() < 1e-10

    def test_equal_norm_gate(self):
        eq = sp.make_mixture([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
        with pytest.raises(RecoveryError, match=r"^component norms separate by only \S+$"):
            sp.li_recover_4(eq, 2)

    def test_m_one(self, indep_mix):
        res = sp.li_recover_4(indep_mix, 1)
        assert_array_equal(res.weights, [1.0])
        assert_allclose(res.components[0], sp.population_moment(indep_mix, 1), atol=1e-12)

    def test_empirical_hundred_thousand_groups(self, indep_mix):
        ds = sp.draw_groups(indep_mix, 4, 100_000, seed=3)
        res = sp.li_recover_4(ds, 3, seed=3)
        assert sp.matched_l1_error(indep_mix.components, res.components) < 0.2

    def test_rejects_bad_m(self, indep_mix):
        with pytest.raises(ValueError):
            sp.li_recover_4(indep_mix, 0)


class TestEstimateNumComponents:
    def test_population_ranks(self, blend_mix):
        # the three components span only a 2-dimensional space, so the
        # order-2 moment sees 2; higher powers separate all 3
        assert sp.estimate_num_components(blend_mix, 1) == 2
        assert sp.estimate_num_components(blend_mix, 2) == 3
        assert sp.estimate_num_components(blend_mix, 3) == 3

    def test_single_component(self):
        mix = sp.make_mixture([1.0], [[0.2, 0.3, 0.5]])
        assert sp.estimate_num_components(mix, 2) == 1

    def test_rejects_bad_power(self, blend_mix):
        with pytest.raises(ValueError):
            sp.estimate_num_components(blend_mix, 0)

    def test_empirical(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 5, 50_000, seed=9)
        assert sp.estimate_num_components(ds, 1, rel_tol=1e-2) == 2


class TestRecoveryResultJson:
    def test_round_trip_fields(self, blend_mix, fixed_xi):
        res = sp.recover_full(blend_mix, RecoveryConfig(m=3, dominating=fixed_xi))
        obj = json.loads(res.to_json())
        assert set(obj) == {"components", "weights", "diagnostics"}
        assert_allclose(obj["weights"], res.weights)
        assert np.array(obj["components"]).shape == (3, 3)
