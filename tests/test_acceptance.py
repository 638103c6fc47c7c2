"""Acceptance gate: one test per deliverable criterion.

Each test is a single pass/fail line under pytest -v.  Tolerances and
seeds are pinned; a failure here means the artifact no longer meets its
contract, not that a tolerance needs loosening.
"""
import itertools
import time

import numpy as np
from numpy.testing import assert_allclose, assert_array_equal

import specmix as sp
from conftest import raw_moment
from specmix.estimation import moment
from specmix.experiments import ExperimentConfig, run_experiment
from specmix.multinomial import MultinomialSpec, verify_lemma_mult
from specmix.recovery import RecoveryConfig, build_t_hat, whiten

BLEND_WEIGHTS = [0.5, 0.3, 0.2]
BLEND_COMPONENTS = [
    [0.64, 0.32, 0.04],
    [0.04, 0.32, 0.64],
    [0.24, 0.32, 0.44],
]
FIXED_Y = [9.0, 4.0, 1.0]


def blend():
    return sp.make_mixture(BLEND_WEIGHTS, BLEND_COMPONENTS)


def test_criterion_1_identifiability_pairs_match_below_and_differ_at_cutoff():
    # For each m in 2..5 the constructed pair of order-m mixtures agrees
    # at order 2m-2 (within 1e-9) and differs at 2m-1 (by more than 1e-6),
    # all four pairs in under a second.
    start = time.perf_counter()
    for m in (2, 3, 4, 5):
        pair = sp.build_pair(m, 2 * m)
        assert pair.p.m == m and pair.p_prime.m == m
        eq = sp.verify_moment_equality(pair.p, pair.p_prime, 2 * m - 2)
        gap = sp.verify_moment_equality(pair.p, pair.p_prime, 2 * m - 1)
        assert eq.max_abs_diff < 1e-9, f"m={m}: moments differ at order {2 * m - 2}"
        assert gap.max_abs_diff > 1e-6, f"m={m}: no gap at order {2 * m - 1}"
    assert time.perf_counter() - start < 1.0


def test_criterion_2_determinedness_pairs_match_below_and_differ_at_cutoff():
    # For each m in 1..4 the pair with m and m+1 components agrees at
    # order 2m-1 and differs at 2m, all pairs in under a second.
    start = time.perf_counter()
    for m in (1, 2, 3, 4):
        pair = sp.build_pair(m, 2 * m + 1)
        assert pair.p.m == m and pair.p_prime.m == m + 1
        eq = sp.verify_moment_equality(pair.p, pair.p_prime, 2 * m - 1)
        gap = sp.verify_moment_equality(pair.p, pair.p_prime, 2 * m)
        assert eq.max_abs_diff < 1e-9, f"m={m}: moments differ at order {2 * m - 1}"
        assert gap.max_abs_diff > 1e-6, f"m={m}: no gap at order {2 * m}"
    assert time.perf_counter() - start < 1.0


def test_criterion_3_population_moments_recover_mixture_exactly():
    # Both pipelines, fed exact population moments, return the mixture
    # to 1e-6 in matched L1 (components and weights).
    mix = blend()
    res = sp.recover_full(mix, RecoveryConfig(m=3, dominating=sp.DominatingMeasure(FIXED_Y)))
    assert sp.matched_l1_error(mix.components, res.components) < 1e-6
    assert np.abs(np.sort(res.weights) - np.sort(mix.weights)).max() < 1e-6

    indep = sp.make_mixture([0.3, 0.3, 0.4], [[0.7, 0.2, 0.1], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]])
    res4 = sp.li_recover_4(indep, 3)
    assert sp.matched_l1_error(indep.components, res4.components) < 1e-6
    assert np.abs(np.sort(res4.weights) - np.sort(indep.weights)).max() < 1e-6


def test_criterion_4_replicated_accuracy_within_reference_windows():
    # 20-replicate matched-L1 accuracy at pinned seeds falls inside the
    # reference windows for three data scales plus the random baseline.
    mix = blend()
    fixed = sp.DominatingMeasure(FIXED_Y)

    def mean_error(dominating, n_groups):
        cfg = ExperimentConfig(
            mixture=mix,
            group_size=5,
            n_groups=n_groups,
            reps=20,
            dominating=dominating,
            recovery=RecoveryConfig(m=3, probe="singular"),
            seed=100,
        )
        report = run_experiment(cfg)
        assert report.excluded == 0
        return report.mean

    err_fixed = mean_error(fixed, 50_000)
    assert 0.02 <= err_fixed <= 0.10, f"fixed-measure mean {err_fixed:.4f}"

    err_random = mean_error("sqgauss:0.03", 50_000)
    assert 0.05 <= err_random <= 0.30, f"random-measure mean {err_random:.4f}"

    err_large = mean_error(fixed, 10_000_000)
    assert err_large <= 0.02, f"large-sample mean {err_large:.4f}"

    base = sp.random_baseline(3, 3, 1000, 42, mix.components)
    assert 0.48 <= base.mean <= 0.58, f"baseline mean {base.mean:.4f}"
    assert err_fixed < base.mean and err_large < err_fixed


def test_criterion_5_count_vector_laws_spread_to_exact_power_tensors():
    # Spreading the multinomial law over ordered outcomes reproduces
    # p^{(x)n} to 1e-12 on every corner (n <= 6, q in {2,3,4}) and on
    # 100 random specs, in under five seconds.
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for n, q in itertools.product(range(1, 7), (2, 3, 4)):
        for p in (np.ones(q) / q, np.arange(1.0, q + 1.0) / (q * (q + 1) / 2)):
            worst = max(worst, verify_lemma_mult(MultinomialSpec(n, q, p)))
    for _ in range(100):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        worst = max(worst, verify_lemma_mult(MultinomialSpec(n, q, rng.dirichlet(np.ones(q)))))
    assert worst < 1e-12, f"worst reduction gap {worst:.3g}"
    assert time.perf_counter() - start < 5.0


def test_criterion_6_operator_estimate_converges_with_sample_size():
    # Median Frobenius distance between the estimated spectral operator
    # and its population value, over seeds 0..9, strictly decreases
    # along n = 5e3, 5e4, 5e5.
    mix = blend()
    b = sp.b_map(sp.DominatingMeasure(FIXED_Y))
    c_pop = sp.build_c_hat(mix, 3, b)
    t_pop = build_t_hat(moment(mix, 5, b), whiten(c_pop, 3))
    target = t_pop @ t_pop.T

    medians = []
    for n in (5_000, 50_000, 500_000):
        errs = []
        for seed in range(10):
            ds = sp.draw_groups(mix, 5, n, seed=seed)
            w = whiten(sp.build_c_hat(ds, 3, b), 3)
            t_hat = build_t_hat(sp.empirical_sym_moment(ds, 5, b), w)
            errs.append(np.linalg.norm(t_hat @ t_hat.T - target))
        medians.append(float(np.median(errs)))
    assert medians[0] > medians[1] > medians[2], f"medians {medians}"


def test_criterion_7_moment_rank_counts_components():
    # The rank estimator reports the Gram rank of the component powers:
    # the blend mixture spans only 2 dimensions linearly (power 1) but
    # separates into 3 at power 3; a single component reports 1.
    mix = blend()
    p = mix.components
    for power in (1, 2, 3):
        oracle = np.linalg.matrix_rank((p @ p.T) ** power)
        assert sp.estimate_num_components(mix, power) == oracle
    assert sp.estimate_num_components(mix, 1) == 2
    assert sp.estimate_num_components(mix, 3) == 3
    single = sp.make_mixture([1.0], [[0.2, 0.3, 0.5]])
    assert sp.estimate_num_components(single, 2) == 1


def test_criterion_8_structural_property_bundle():
    # Grab bag of load-bearing invariants: symmetrization idempotence,
    # bitwise fold/unfold round trips, whitening orthonormality, exact
    # tally/raw estimator agreement, rank identities on 100 random
    # instances each, and probe-seed invariance.
    rng = np.random.default_rng(2024)

    for order, d in [(2, 3), (3, 3), (4, 2)]:
        t = rng.standard_normal((d,) * order)
        s = sp.symmetrize(t)
        assert_allclose(sp.symmetrize(s), s, atol=1e-12)
        for split in range(1, order):
            assert_array_equal(sp.fold(sp.unfold(t, split), d, order, split), t)

    mix = blend()
    b = sp.b_map(sp.DominatingMeasure(FIXED_Y))
    c = sp.build_c_hat(mix, 3, b)
    w = whiten(c, 3)
    bp = mix.components * b
    family = np.stack([np.sqrt(wt) * np.kron(v, v) for wt, v in zip(mix.weights, bp)])
    assert_allclose((family @ w.T) @ (w @ family.T), np.eye(3), atol=1e-8)

    ds = sp.draw_groups(mix, 5, 400, seed=0)
    h = sp.tally(ds)
    for r in range(1, 6):
        assert_array_equal(raw_moment(ds, r), sp.empirical_sym_moment(h, r))

    for _ in range(100):
        d = int(rng.integers(2, 5))
        m = int(rng.integers(1, d + 1))
        comps = rng.dirichlet(np.ones(d), size=m)
        weights = rng.dirichlet(np.ones(m))
        try:
            inst = sp.make_mixture(weights, comps)
        except ValueError:
            continue  # a degenerate draw (duplicate rows); rank oracle needs a valid mixture
        assert sp.estimate_num_components(inst, 1) == np.linalg.matrix_rank(comps)

    for _ in range(100):
        d = int(rng.integers(2, 4))
        h_rows = rng.dirichlet(np.ones(d), size=d + 1)
        gram = (h_rows @ h_rows.T) ** 2
        assert np.linalg.matrix_rank(gram) == d + 1

    config = RecoveryConfig(m=3, dominating=sp.DominatingMeasure(FIXED_Y))
    a = sp.recover_full(mix, config, seed=1).components
    bb = sp.recover_full(mix, config, seed=2).components
    assert np.abs(a - bb).max() < 1e-6
