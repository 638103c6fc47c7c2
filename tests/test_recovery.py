"""Pipeline stages and end-to-end recovery, population and empirical."""
import itertools
import json
import math
import os
import platform
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
import specmix.recovery as recovery
from conftest import random_mixture, run_child
from specmix.estimation import moment
from specmix.model import check_distinct_norms
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
from specmix.sampling import draw_tally
from specmix.tensors import RankDeficiencyError, outer_power


def _physical_memory() -> int:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 0


# Without a known memory size the setup check is skipped, and these inputs
# would try to allocate terabytes.
needs_memory_size = pytest.mark.skipif(_physical_memory() <= 0, reason="physical memory size unknown")


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
        assert cfg.probe == "singular" and cfg.weight_solver == "clip-renormalize"

    def test_validation(self):
        with pytest.raises(ValueError):
            RecoveryConfig(m=0)
        for probe in ("bogus", "gaussian"):
            with pytest.raises(ValueError, match="the only probe is 'singular'"):
                RecoveryConfig(m=2, probe=probe)
        for m in ("2", 2.0, 2.5, None, True, False):
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
            "probe": "singular",
            "clip_negatives": True,
            "eig_floor": 1e-8,
            "weight_solver": "clip-renormalize",
        }

    def test_echo_serializes_measure(self, fixed_xi):
        echo = RecoveryConfig(m=2, dominating=fixed_xi).echo()
        assert echo["dominating"] == "fixed:9.0,4.0,1.0"
        assert json.dumps(echo)  # json-safe

    def test_a_measure_is_stored_as_its_descriptor(self, fixed_xi):
        # a config that held the array could be neither compared nor hashed
        by_measure = RecoveryConfig(3, fixed_xi)
        by_descriptor = RecoveryConfig(3, "fixed:9.0,4.0,1.0")
        assert by_measure.dominating == "fixed:9.0,4.0,1.0"
        assert by_measure == by_descriptor and hash(by_measure) == hash(by_descriptor)
        assert RecoveryConfig(3).dominating is None

    @pytest.mark.parametrize("population", [True, False])
    def test_a_measure_and_its_descriptor_fit_alike(self, blend_mix, fixed_xi, population):
        data = blend_mix if population else sp.draw_groups(blend_mix, 5, 3000, seed=2)
        a = recover_full(data, RecoveryConfig(3, fixed_xi), seed=4)
        b = recover_full(data, RecoveryConfig(3, "fixed:9,4,1"), seed=4)
        assert a.components.tobytes() == b.components.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()


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
        with pytest.raises(ValueError, match="^m must be an integer >= 1, got 0$"):
            whiten(np.eye(2), 0)

    @pytest.mark.parametrize("m", [0, True, 2.5])
    def test_rejects_non_integer_m(self, m):
        # True once whitened as m = 1, and 2.5 died slicing the eigenvectors
        with pytest.raises(ValueError, match=f"^m must be an integer >= 1, got {m!r}$"):
            whiten(np.eye(3), m)

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
        norms = np.sort(check_distinct_norms(blend_mix, fixed_xi).norms)[::-1]
        assert_allclose(lam[:3], norms, atol=1e-10)

    @pytest.mark.parametrize("c", [2, 3, 4])
    @pytest.mark.parametrize("population", [True, False])
    @pytest.mark.parametrize("scaled", [False, True])
    def test_odd_operator_is_the_replay_product(self, blend_mix, fixed_xi, c, population, scaled):
        # perfbench's replay forms the operator as build_t_hat(...) @ ....T;
        # the pipeline's preallocated product must keep its bytes
        data = blend_mix if population else draw_tally(blend_mix, 2 * c - 1, 2000, seed=c)
        b = sp.b_map(fixed_xi) if scaled else None
        w = np.random.default_rng(c).standard_normal((3 ** (c - 1),) * 2)
        t = build_t_hat(moment(data, 2 * c - 1, b), w)
        op = recovery._odd_operator(data, c, b, w)
        assert op.shape == (3**c, 3**c)
        assert op.tobytes() == (t @ t.T).tobytes()

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

    def test_sign_flip_invariant(self, two_mix, indep_mix, monkeypatch):
        t = self._t_hat(two_mix)
        dec = sp.sym_eig(t @ t.T)
        v = dec.eigenvectors[:, :2]
        a = _finalize_components(v, 2, None)
        flipped = _finalize_components(-v, 2, None)
        assert_array_equal(a, flipped)

        # sym_eig's eigenvectors carry LAPACK's signs; negating a seeded
        # random set of its columns changes no bit of W or of any fit
        wide = random_mixture(np.random.default_rng(31), 3, 5)
        sources = [
            source
            for mix in (indep_mix, wide)
            for source in (mix, sp.draw_groups(mix, 5, 4000, seed=32))
        ]

        def outputs():
            for source in sources:
                yield whiten(sp.build_c_hat(source, 3, None), 3).tobytes()
                yield whiten(sp.build_c_hat(source, 2, None), 3).tobytes()
                for dominating in (None, "uniform"):
                    yield recover_full(source, RecoveryConfig(3, dominating=dominating), seed=33).to_json()
                yield sp.li_recover(source, 3).to_json()

        want = list(outputs())
        signs = np.random.default_rng(34)
        flips = []
        sym_eig = recovery.sym_eig

        def sym_eig_flipped(m):
            dec = sym_eig(m)
            flips.append(signs.random(dec.eigenvalues.size) < 0.5)
            # x * -1.0 is exactly -x
            return dec._replace(eigenvectors=dec.eigenvectors * np.where(flips[-1], -1.0, 1.0))

        monkeypatch.setattr(recovery, "sym_eig", sym_eig_flipped)
        assert list(outputs()) == want
        # each of the top three columns was negated in some calls, kept in others
        top = np.array([flip[:3] for flip in flips])
        assert 0 < top.mean(axis=0).min() and top.mean(axis=0).max() < 1

    def test_probe_seed_invariant(self, two_mix):
        a = recover_full(two_mix, RecoveryConfig(2), seed=1).components
        b = recover_full(two_mix, RecoveryConfig(2), seed=2).components
        assert_array_equal(a, b)


class TestRecoverWeights:
    def test_population_exact(self, blend_mix):
        e = sp.moment(blend_mix, 2)
        sol = recover_weights(e, blend_mix.components)
        assert_allclose(sol.weights, [0.5, 0.3, 0.2], atol=1e-10)
        assert sol.residual < 1e-12
        assert sol.gram_condition >= 1.0

    def test_pure_component(self, blend_mix):
        e = outer_power(blend_mix.components[0], 2)
        sol = recover_weights(e, blend_mix.components)
        assert_allclose(sol.weights, [1.0, 0.0, 0.0], atol=1e-9)

    def test_single_component(self):
        sol = recover_weights(np.array([0.4, 0.6]), np.array([[0.4, 0.6]]))
        assert_array_equal(sol.weights, [1.0])
        assert sol.residual < 1e-15
        assert sol.gram_condition == 1.0

    def test_single_component_orthogonal_to_moment(self):
        # one component is solved like many: no positive mass is a failure
        with pytest.raises(RecoveryError, match="no positive mass"):
            recover_weights(np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
        with pytest.raises(RecoveryError, match="no positive mass"):
            recover_weights(np.outer([0.0, 1.0], [0.0, 1.0]), np.array([[1.0, 0.0]]))

    def test_weights_on_simplex(self, blend_mix):
        # perturbed moment still yields a proper weight vector
        e = sp.moment(blend_mix, 2) + 1e-3
        sol = recover_weights(e, blend_mix.components)
        assert np.all(sol.weights >= 0.0)
        assert abs(sol.weights.sum() - 1.0) < 1e-12

    def test_unknown_solver(self, blend_mix):
        with pytest.raises(ValueError, match="solver"):
            recover_weights(sp.moment(blend_mix, 2), blend_mix.components, "x")


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
        # a numpy integer seed is reported as a JSON number
        numpy_seed = sp.recover_full(blend_mix, RecoveryConfig(m=3, dominating=fixed_xi), seed=np.int64(5))
        assert json.loads(numpy_seed.to_json())["diagnostics"]["seed"] == 5

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

    def test_tied_norms_rejected_without_reference_measure(self, blend_mix, fixed_xi):
        # the identity rescaling needs distinct Euclidean norms, as
        # li_recover does; blend_mix's first two components tie
        for mix in (blend_mix, sp.make_mixture([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])):
            with pytest.raises(RecoveryError, match=r"^component norms separate by only 0$"):
                sp.recover_full(mix, RecoveryConfig(m=mix.m))
        # data is not checked, and a measure that separates the norms passes
        sp.recover_full(sp.draw_groups(blend_mix, 5, 2000, seed=0), RecoveryConfig(m=3))
        sp.recover_full(blend_mix, RecoveryConfig(m=3, dominating=fixed_xi))

    @pytest.mark.parametrize(
        ("m", "seed", "message"),
        [
            (1, -1, r"in \[0, 2\*\*64\), got -1"),
            (2, -5, r"in \[0, 2\*\*64\), got -5"),
            (2, 2**64, r"in \[0, 2\*\*64\), got 18446744073709551616"),
            (2, 1.5, r"an integer, got 1\.5"),
            (2, True, r"an integer, got True"),
        ],
    )
    def test_bad_seed_fails_at_setup(self, blend_mix, m, seed, message):
        ds = sp.draw_groups(blend_mix, 3, 200, seed=0)
        for data in (blend_mix, ds):
            for dominating in (None, "fixed:9,4,1", "uniform"):
                with pytest.raises(RecoveryError, match=rf"^stage 'setup' failed: seed must be {message}$"):
                    recover_full(data, RecoveryConfig(m=m, dominating=dominating), seed=seed)

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

    @needs_memory_size
    def test_operator_too_large_for_memory_fails_at_setup(self):
        # d=40, m=4: the 40^4 x 40^4 operator stage needs 6 * 8 * 40^8, about 3e14 bytes
        mix = random_mixture(np.random.default_rng(0), 4, 40)
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: 6 dense 40\^8 arrays need 314572800000000 bytes; physical memory is \d+$"):
            recover_full(mix, RecoveryConfig(4))

    @pytest.mark.parametrize(
        "call, times, shape, entries",
        [
            (lambda mix: recover_full(mix, RecoveryConfig(2)), 1.5, "3^4", 3**4),
            (lambda mix: recover_full(mix, RecoveryConfig(2)), 4.9, "3^4", 3**4),
            (lambda mix: sp.li_recover(mix, 2), 1.5, "3^4", 3**4),
            (lambda mix: sp.li_recover(mix, 2), 4.9, "3^4", 3**4),
            # the rank stage's array is the moment's 6 x 6 form on Sym^2
            (lambda mix: sp.estimate_num_components(mix, 2), 1.5, "6x6", 6**2),
            (lambda mix: sp.estimate_num_components(mix, 2), 2.9, "6x6", 6**2),
        ],
        ids=["recover_full-1.5", "recover_full-4.9", "li_recover-1.5", "li_recover-4.9", "rank-1.5", "rank-2.9"],
    )
    def test_stage_footprint_checked_at_setup(self, indep_mix, monkeypatch, call, times, shape, entries):
        # the largest array of each call fits this memory more than once,
        # but its stage holds more copies than that at once
        physical = int(times * 8 * entries)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}.get)
        with pytest.raises(
            RecoveryError,
            match=rf"^stage 'setup' failed: \d dense {re.escape(shape)} arrays need \d+ bytes; physical memory is {physical}$",
        ):
            call(indep_mix)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the later-fit growth it guards against is glibc's heap layout")
    @pytest.mark.parametrize("d, m", [(6, 4), (12, 3)], ids=["d6m4", "d12m3"])
    def test_later_fits_peak_no_higher_than_the_first(self, d, m):
        # Once a fit has freed eigh's workspace, glibc raises its mmap
        # threshold and serves later fits' arrays from the heap, where
        # temporaries freed below the live operator stay resident, too small
        # for eigh's buffers.  With the operator allocated after them, fit 3
        # peaked 8.9 MB (d6m4) and 8.0 MB (d12m3) above fit 1.
        code = (
            "import resource\n"
            "import numpy as np\n"
            "import specmix as sp\n"
            f"d, m = {d}, {m}\n"
            "gen = np.random.default_rng(1)\n"
            "mix = sp.make_mixture(np.full(m, 1.0 / m), gen.dirichlet(np.full(d, 0.5), size=m))\n"
            "for _ in range(3):\n"
            "    sp.recover_full(mix, sp.RecoveryConfig(m))\n"
            "    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        first, _, third = map(int, run_child(code).split())
        # ru_maxrss is in KiB on Linux; the bound is a quarter of one d^m x d^m float64 copy
        assert (third - first) * 1024 < 8 * d ** (2 * m) / 4

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("population", [True, False])
    def test_overflowing_reference_measure_fails_its_stage(self, indep_mix, m, population):
        # a mass of 1e-300 rescales by 1e150, so the order-(2m-1) moment
        # overflows; setup says so before any moment is formed, and with
        # RuntimeWarnings raised as errors no overflow warning comes first
        data = indep_mix if population else sp.draw_groups(indep_mix, 2 * m - 1, 200, seed=1)
        message = (
            rf"^stage 'setup' failed: reference measure 'fixed:1e-300,1,1' scales the order-{2 * m - 1} "
            rf"moment by 1e\+150\*\*{2 * m - 1}, which overflows; raise its smallest mass$"
        )
        with pytest.raises(RecoveryError, match=message):
            recover_full(data, RecoveryConfig(m=m, dominating="fixed:1e-300,1,1"))
        measure = sp.DominatingMeasure([1e-300, 1.0, 1.0])
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: reference measure 'fixed:1e-300,1\.0,1\.0' scales"):
            recover_full(data, RecoveryConfig(m=m, dominating=measure))

    def test_largest_finite_reference_scale_passes_setup(self, indep_mix, monkeypatch):
        # the smallest mass whose max(b)**3, multiplied out as outer_power
        # does, is finite passes setup at m=2; the next smaller one fails it
        def cube(mass):
            b = 1.0 / math.sqrt(mass)  # b_map; Python floats overflow to inf without a warning
            return b * b * b

        tiny = sys.float_info.max ** (-2 / 3)
        while math.isinf(cube(tiny)):
            tiny = math.nextafter(tiny, 1.0)
        while math.isfinite(cube(math.nextafter(tiny, 0.0))):
            tiny = math.nextafter(tiny, 0.0)
        reached = []
        monkeypatch.setattr(recovery, "_run_stages", lambda *args, **kwargs: reached.append(True))
        recover_full(indep_mix, RecoveryConfig(m=2, dominating=sp.DominatingMeasure([tiny, 1.0, 1.0])))
        assert reached == [True]
        smaller = sp.DominatingMeasure([math.nextafter(tiny, 0.0), 1.0, 1.0])
        with pytest.raises(RecoveryError, match="^stage 'setup' failed: reference measure"):
            recover_full(indep_mix, RecoveryConfig(m=2, dominating=smaller))

    def test_non_finite_operator_fails_component_extraction(self, indep_mix, monkeypatch):
        odd_operator = recovery._odd_operator

        def poisoned(*args):
            op = odd_operator(*args)
            op[0, 1] = op[1, 0] = np.nan
            return op

        monkeypatch.setattr(recovery, "_odd_operator", poisoned)
        message = r"^stage 'component extraction' failed: matrix has non-finite entries$"
        with pytest.raises(RecoveryError, match=message):
            recover_full(indep_mix, RecoveryConfig(m=3))


class TestLiRecover:
    def test_population_exact(self, indep_mix):
        res = sp.li_recover(indep_mix, 3)
        assert sp.matched_l1_error(indep_mix.components, res.components) < 1e-8
        assert_allclose(np.sort(res.weights), [0.3, 0.3, 0.4], atol=1e-8)

    def test_population_spectrum(self, indep_mix):
        res = sp.li_recover(indep_mix, 3)
        lam = np.array(res.diagnostics["tt_eigenvalues"])
        assert_allclose(lam[:3], [0.54, 0.46, 0.44], atol=1e-10)
        assert np.abs(lam[3:]).max() < 1e-10

    def test_equal_norm_gate(self):
        eq = sp.make_mixture([0.5, 0.5], [[0.6, 0.4], [0.4, 0.6]])
        with pytest.raises(RecoveryError, match=r"^component norms separate by only \S+$"):
            sp.li_recover(eq, 2)

    def test_m_one(self, indep_mix):
        res = sp.li_recover(indep_mix, 1)
        assert_array_equal(res.weights, [1.0])
        assert_allclose(res.components[0], sp.moment(indep_mix, 1), atol=1e-12)

    @pytest.mark.parametrize("group_size", [3, 4])
    def test_empirical_hundred_thousand_groups(self, indep_mix, group_size):
        ds = sp.draw_groups(indep_mix, group_size, 100_000, seed=3)
        res = sp.li_recover(ds, 3)
        assert sp.matched_l1_error(indep_mix.components, res.components) < 0.2

    def test_two_draws_fail_at_setup(self, indep_mix):
        ds = sp.draw_groups(indep_mix, 2, 100, seed=3)
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: group size 2 < required 3$"):
            sp.li_recover(ds, 3)

    def test_is_recover_full_at_m_two(self, indep_mix):
        # whitened at order 2, li_recover is recover_full at m = 2 without
        # the seed and config diagnostics
        mix = sp.make_mixture([0.4, 0.6], indep_mix.components[:2])
        ds = sp.draw_groups(mix, 3, 5000, seed=4)
        for source in (mix, sp.tally(ds), ds):
            full = recover_full(source, RecoveryConfig(2)).to_json()
            res = json.loads(full)
            del res["diagnostics"]["seed"], res["diagnostics"]["config"]
            assert sp.li_recover(source, 2).to_json() == json.dumps(res)

    @pytest.mark.parametrize("m", [0, True])
    def test_rejects_bad_m(self, indep_mix, m):
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            sp.li_recover(indep_mix, m)

    @needs_memory_size
    def test_operator_too_large_for_memory_fails_at_setup(self):
        # d=1000: the 10^6 x 10^6 operator stage needs 6 * 8e12 bytes
        spread = np.full(1000, 1e-3)
        peaked = np.r_[0.5, np.full(999, 0.5 / 999)]
        mix = sp.make_mixture([0.5, 0.5], [spread, peaked])
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: 6 dense 1000\^4 arrays need 48000000000000 bytes"):
            sp.li_recover(mix, 2)


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

    @pytest.mark.parametrize("d, m, n", [(3, 3, 1), (5, 4, 1), (4, 3, 2), (6, 4, 2), (5, 5, 3)])
    @pytest.mark.parametrize("population", [True, False])
    def test_rank_of_the_dense_unfolding(self, d, m, n, population):
        # the moment's C(d+n-1, n)-square form on Sym^n has the singular
        # values of the dense d^n x d^n unfolding, and at n = 1 it is that
        # matrix, bit for bit
        mix = random_mixture(np.random.default_rng(d * m + n), m, d)
        source = mix if population else draw_tally(mix, 2 * n, 20_000, seed=n)
        dense = moment(source, 2 * n).reshape(d**n, -1)
        values = recovery._multiset_values(source, 2 * n)
        sym = recovery._sym_unfolding(values, d, n)
        assert sym.shape == (math.comb(d + n - 1, n),) * 2
        if n == 1:
            assert sym.tobytes() == dense.tobytes()
        s, s_dense = np.linalg.svd(sym, compute_uv=False), np.linalg.svd(dense, compute_uv=False)
        assert_allclose(s, s_dense[: len(s)], rtol=0, atol=1e-13 * s_dense[0])
        assert_allclose(s_dense[len(s) :], 0, atol=1e-13 * s_dense[0])
        for rel_tol in (1e-8, 1e-3):
            assert sp.estimate_num_components(source, n, rel_tol) == recovery.numerical_rank(dense, rel_tol)

    @pytest.mark.parametrize("power", [0, 2.5, True])
    def test_rejects_bad_power(self, blend_mix, power):
        with pytest.raises(ValueError, match=f"^power must be an integer >= 1, got {power!r}$"):
            sp.estimate_num_components(blend_mix, power)

    def test_empirical(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 5, 50_000, seed=9)
        assert sp.estimate_num_components(ds, 1, rel_tol=1e-2) == 2

    @pytest.mark.parametrize("rel_tol", [-1.0, 1.0, 2.0, float("nan"), float("inf")])
    def test_rejects_bad_rel_tol_at_setup(self, blend_mix, rel_tol):
        # -1 used to count all 9 singular values at power 2 and NaN none
        h = sp.tally(sp.draw_groups(blend_mix, 4, 500, seed=0))
        with pytest.raises(RecoveryError, match=rf"^stage 'setup' failed: rel_tol must be a finite number in \[0, 1\), got {rel_tol}$") as info:
            sp.estimate_num_components(h, 2, rel_tol=rel_tol)
        assert isinstance(info.value.__cause__, ValueError)
        # 0 is allowed: it counts every nonzero singular value
        assert sp.estimate_num_components(h, 2, rel_tol=0.0) >= sp.estimate_num_components(h, 2, rel_tol=0.5)

    @pytest.mark.parametrize("rel_tol", [False, True, np.True_, "0.1", None])
    def test_rejects_non_number_rel_tol_at_setup(self, blend_mix, rel_tol):
        # False was read as 0 (2 components at power 1), and "0.1" failed comparing a str with a float
        with pytest.raises(
            RecoveryError,
            match=rf"^stage 'setup' failed: rel_tol must be a finite number in \[0, 1\), got {re.escape(repr(rel_tol))}$",
        ):
            sp.estimate_num_components(blend_mix, 1, rel_tol=rel_tol)

    def test_bad_input_fails_at_setup(self, blend_mix):
        ds = sp.draw_groups(blend_mix, 3, 50, seed=0)
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: group size 3 < required 4$"):
            sp.estimate_num_components(ds, 2)
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: unsupported data type ndarray$"):
            sp.estimate_num_components(ds.groups, 1)

    @needs_memory_size
    def test_moment_too_large_for_memory_fails_at_setup(self):
        mix = random_mixture(np.random.default_rng(0), 4, 40)
        # the moment's form on Sym^4 is C(43, 4) = 123410 square
        with pytest.raises(RecoveryError, match=r"^stage 'setup' failed: 3 dense 123410x123410 arrays need"):
            sp.estimate_num_components(mix, 4)

    def test_rank_fits_in_three_and_a_half_moments(self, indep_mix, monkeypatch):
        # the rank stage holds the moment's 6 x 6 form on Sym^2, its rank
        # index and their temporary, then the SVD's copy and workspace
        physical = int(3.5 * 8 * 6**2)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": physical}.get)
        assert sp.estimate_num_components(indep_mix, 2) == 3


# Median matched-L1 error of the seeded Gaussian probe, which contracted each
# folded eigenvector with a random vector before the top left singular vector
# replaced it, on the sweeps below: per n for recover_full (run seed = sweep
# seed), and for li_recover_4, li_recover's 4-draw predecessor, at its former
# default probe seed 0.
GAUSSIAN_PROBE_MEDIANS = {3_000: 0.0678571, 30_000: 0.0232583, 300_000: 0.00715565}
GAUSSIAN_PROBE_LI4_MEDIAN = 0.0479246


def _sweep_mixture(rng: np.random.Generator, m: int, d: int) -> sp.MixtureSpec:
    return sp.make_mixture(rng.dirichlet(np.full(m, 5.0)), rng.dirichlet(np.full(d, 0.5), size=m))


class TestAccuracySweep:
    """Seeded sweeps on drawn data: the singular-vector contraction beats
    the median error of the Gaussian probe it replaced, with no failed fit."""

    def test_recover_full(self):
        # 90 seeds: m 2-3, d 3-8, Dirichlet(0.5) components, groups of 2m-1,
        # n cycling through 3e3, 3e4 and 3e5 with the seed
        sizes = list(GAUSSIAN_PROBE_MEDIANS)
        errors = {n: [] for n in sizes}
        for seed in range(90):
            n, m = sizes[seed % 3], 2 + (seed // 3) % 2
            rng = np.random.default_rng(seed)
            mix = _sweep_mixture(rng, m, int(rng.integers(3, 9)))
            data = draw_tally(mix, 2 * m - 1, n, seed=seed)
            res = recover_full(data, RecoveryConfig(m, dominating="uniform"), seed=seed)
            errors[n].append(sp.matched_l1_error(mix.components, res.components))
        for n in sizes:
            assert np.median(errors[n]) < GAUSSIAN_PROBE_MEDIANS[n], (n, np.median(errors[n]))

    @pytest.mark.parametrize("group_size", [3, 4])
    def test_li_recover(self, group_size):
        # 60 seeds: m 2-4, d m+1..8, Dirichlet(0.5) components, 3e4 groups
        errors = []
        for seed in range(60):
            m = 2 + seed % 3
            rng = np.random.default_rng(seed)
            mix = _sweep_mixture(rng, m, int(rng.integers(m + 1, 9)))
            res = sp.li_recover(draw_tally(mix, group_size, 30_000, seed=seed), m)
            errors.append(sp.matched_l1_error(mix.components, res.components))
        assert np.median(errors) < GAUSSIAN_PROBE_LI4_MEDIAN, np.median(errors)


class TestRecoveryResultJson:
    def test_round_trip_fields(self, blend_mix, fixed_xi):
        res = sp.recover_full(blend_mix, RecoveryConfig(m=3, dominating=fixed_xi))
        obj = json.loads(res.to_json())
        assert set(obj) == {"components", "weights", "diagnostics"}
        assert_allclose(obj["weights"], res.weights)
        assert np.array(obj["components"]).shape == (3, 3)
