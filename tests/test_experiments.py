"""Matched error metric, random baseline, and the experiment harness."""
import csv
import io
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import linear_sum_assignment

import specmix as sp
from specmix.experiments import ExperimentConfig, ExperimentReport, run_experiment
from specmix.recovery import RecoveryConfig
from specmix.sampling import DRAW_BLOCK


class TestMatchedL1Error:
    def test_zero_on_equal(self, blend_mix):
        assert sp.matched_l1_error(blend_mix.components, blend_mix.components) == 0.0

    def test_zero_on_permuted(self, blend_mix):
        assert sp.matched_l1_error(blend_mix.components, blend_mix.components[::-1]) < 1e-15

    def test_hand_computed(self):
        truth = [[1.0, 0.0], [0.0, 1.0]]
        est = [[0.9, 0.1], [0.2, 0.8]]
        assert_allclose(sp.matched_l1_error(truth, est), 0.3, atol=1e-15)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = rng.dirichlet(np.ones(4), size=3)
            b = rng.dirichlet(np.ones(4), size=3)
            assert_allclose(sp.matched_l1_error(a, b), sp.matched_l1_error(b, a), atol=1e-14)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a, b, c = (rng.dirichlet(np.ones(3), size=3) for _ in range(3))
            ab = sp.matched_l1_error(a, b)
            bc = sp.matched_l1_error(b, c)
            ac = sp.matched_l1_error(a, c)
            assert ac <= ab + bc + 1e-12

    def test_matches_hungarian_solver(self):
        rng = np.random.default_rng(3)
        for m in (2, 4, 6):
            truth = rng.dirichlet(np.ones(5), size=m)
            est = rng.dirichlet(np.ones(5), size=m)
            cost = np.abs(truth[:, None, :] - est[None, :, :]).sum(axis=2)
            rows, cols = linear_sum_assignment(cost)
            expected = cost[rows, cols].sum() / m
            assert_allclose(sp.matched_l1_error(truth, est), expected, atol=1e-12)

    def test_rejects_large_m(self):
        big = np.ones((9, 2)) / 2
        with pytest.raises(ValueError, match="at most"):
            sp.matched_l1_error(big, big)

    def test_rejects_shape_mismatch(self, blend_mix):
        with pytest.raises(ValueError, match="mismatch"):
            sp.matched_l1_error(blend_mix.components, blend_mix.components[:2])


class TestRandomBaseline:
    def test_deterministic(self, blend_mix):
        a = sp.random_baseline(blend_mix.components, 50, 7)
        b = sp.random_baseline(blend_mix.components, 50, 7)
        assert_array_equal(a.errors, b.errors)
        assert a.mean == b.mean and a.variance == b.variance

    def test_seed_matters(self, blend_mix):
        a = sp.random_baseline(blend_mix.components, 50, 7)
        b = sp.random_baseline(blend_mix.components, 50, 8)
        assert not np.array_equal(a.errors, b.errors)

    def test_plausible_range(self, blend_mix):
        rep = sp.random_baseline(blend_mix.components, 200, 42)
        assert 0.3 < rep.mean < 0.8
        assert rep.variance > 0.0
        assert rep.errors.shape == (200,)

    def test_point_mass_truth(self):
        # |u - e_1|_1 = 2 u_2 for simplex-uniform u, so the mean error is 1
        rep = sp.random_baseline(np.array([[1.0, 0.0]]), 2000, 0)
        assert abs(rep.mean - 1.0) < 0.06

    def test_validation(self, blend_mix):
        with pytest.raises(ValueError):
            sp.random_baseline(blend_mix.components, 0, 0)
        for truth in ([0.5, 0.5], [[]], np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="truth must be a nonempty"):
                sp.random_baseline(truth, 10, 0)

    def test_shape_comes_from_truth(self, blend_mix):
        # m and d are the truth's; the old leading (d, m) arguments are gone
        with pytest.raises(TypeError):
            sp.random_baseline(3, 3, 10, 0, blend_mix.components)


def small_config(blend_mix, fixed_xi, **overrides):
    base = dict(
        mixture=blend_mix,
        group_size=5,
        n_groups=2000,
        reps=3,
        dominating=fixed_xi,
        recovery=RecoveryConfig(m=3, probe="singular"),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_deterministic(self, blend_mix, fixed_xi):
        a = run_experiment(small_config(blend_mix, fixed_xi))
        b = run_experiment(small_config(blend_mix, fixed_xi))
        assert a.errors == b.errors
        assert a.mean == b.mean

    def test_reasonable_errors(self, blend_mix, fixed_xi):
        rep = run_experiment(small_config(blend_mix, fixed_xi))
        assert rep.excluded == 0
        assert all(e is not None and 0.0 <= e <= 2.0 for e in rep.errors)
        assert 0.0 <= rep.mean <= 2.0
        assert len(rep.seconds) == 3
        assert rep.wall_clock > 0.0

    def test_all_reps_fail(self, blend_mix, fixed_xi):
        # groups of 3 cannot support m=3 (needs 2m-1 = 5 draws)
        cfg = small_config(blend_mix, fixed_xi, group_size=3, n_groups=100)
        rep = run_experiment(cfg)
        assert rep.excluded == 3
        assert rep.errors == [None, None, None]
        assert np.isnan(rep.mean) and np.isnan(rep.variance)
        assert all("setup" in f["tag"] for f in rep.failures)

    def test_rep_seeds_shift_with_master(self, blend_mix, fixed_xi):
        # replicate r of seed s equals replicate r+1 of seed s-1
        a = run_experiment(small_config(blend_mix, fixed_xi, seed=10))
        b = run_experiment(small_config(blend_mix, fixed_xi, seed=11))
        assert a.errors[1:] == b.errors[:-1]

    def test_scheme_name(self, blend_mix):
        cfg = small_config(blend_mix, None, dominating="uniform")
        assert run_experiment(cfg).scheme == "uniform"

    def test_validation(self, blend_mix, fixed_xi):
        with pytest.raises(ValueError, match="reps"):
            small_config(blend_mix, fixed_xi, reps=0)
        # data-scale fields are whole numbers >= 1, checked before anything is drawn
        for name, value in [
            ("group_size", 3.7), ("n_groups", 0), ("reps", 2.5), ("n_groups", "10"),
            ("group_size", True), ("n_groups", True), ("reps", True),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
                small_config(blend_mix, fixed_xi, **{name: value})
        # replicate seeds seed .. seed + reps - 1 must lie in [0, 2**64)
        small_config(blend_mix, fixed_xi, seed=2**64 - 3)
        for seed in (-1, 2**64 - 2, 2**70, 1.0, True):
            with pytest.raises(ValueError, match="seed must be an integer"):
                small_config(blend_mix, fixed_xi, seed=seed)
        for dominating in ("unifrom", "sqgauss:-1", "fixed:", [9, 4, 1]):
            with pytest.raises(ValueError, match="dominating"):
                small_config(blend_mix, None, dominating=dominating)

    def test_one_reference_measure(self, blend_mix):
        # the top-level dominating is the experiment's only reference measure
        with pytest.raises(ValueError, match='top-level "dominating"'):
            small_config(blend_mix, None, recovery=RecoveryConfig(3, dominating="uniform"))

    def test_recover_full_resolves_the_descriptor(self, blend_mix):
        # the replicate's recover_full resolves the descriptor, so an
        # overflowing scale names it instead of "given as a DominatingMeasure"
        report = run_experiment(small_config(blend_mix, None, dominating="fixed:1e-300,1,1", reps=1))
        assert report.failures == [{"rep": 0, "tag": (
            "stage 'setup' failed: reference measure 'fixed:1e-300,1,1' scales the order-5 moment "
            "by 1e+150**5, which overflows; raise its smallest mass"
        )}]

    # 5 groups: replicate 0 of seed 0 fails whitening, the others succeed.
    # DRAW_BLOCK + 1 groups: two draw blocks.
    @pytest.mark.parametrize("n_groups, reps", [(5, 4), (DRAW_BLOCK + 1, 2)])
    def test_equals_drawing_every_group(self, blend_mix, fixed_xi, n_groups, reps):
        cfg = small_config(blend_mix, fixed_xi, n_groups=n_groups, reps=reps)
        errors, failures = [], []
        for rep in range(reps):
            seed = cfg.seed + rep
            try:
                data = sp.draw_groups(cfg.mixture, cfg.group_size, cfg.n_groups, seed)
                result = sp.recover_full(data, replace(cfg.recovery, dominating=fixed_xi), seed=seed)
                errors.append(sp.matched_l1_error(cfg.mixture.components, result.components))
            except sp.RecoveryError as exc:
                errors.append(None)
                failures.append({"rep": rep, "tag": str(exc)})
        report = run_experiment(cfg)
        assert report.errors == errors and report.failures == failures
        assert len(failures) == (n_groups == 5)

    def test_memory_does_not_grow_with_groups(self, blend_mix, fixed_xi):
        # 10^6 groups of 5 draws are 5 MB of category codes and 8 MB of
        # int64 tally keys; drawn a block at a time, neither is ever whole.
        cfg = small_config(blend_mix, fixed_xi, n_groups=10**6, reps=1)
        tracemalloc.start()
        try:
            report = run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.excluded == 0
        assert peak < 16 * 2**20


class TestReportSerialization:
    def test_json_fields(self, blend_mix, fixed_xi):
        rep = run_experiment(small_config(blend_mix, fixed_xi))
        obj = json.loads(rep.to_json())
        for key in ("scheme", "n_groups", "errors", "mean", "variance", "excluded", "config"):
            assert key in obj
        assert obj["n_groups"] == 2000
        assert obj["config"]["recovery"]["m"] == 3

    def test_numpy_integer_counts(self):
        # the count rule accepts numpy integers; the report writes them as ints
        mix = sp.make_mixture([0.5, 0.5], [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])

        def report(count):
            cfg = ExperimentConfig(mix, count(3), count(100), count(2), None, RecoveryConfig(2), seed=count(7))
            obj = json.loads(run_experiment(cfg).to_json())
            del obj["seconds"], obj["wall_clock"]
            return obj

        got = report(np.int64)
        assert got == report(int)
        assert (got["group_size"], got["n_groups"], got["seed"], got["config"]["reps"]) == (3, 100, 7, 2)

    def test_csv_format(self, blend_mix, fixed_xi):
        rep = run_experiment(small_config(blend_mix, fixed_xi, group_size=3, n_groups=50))
        buf = io.StringIO()
        rep.write_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["scheme", "n_groups", "rep", "error", "seconds"]
        assert len(rows) == 4
        assert rows[1][3] == "nan"  # failed rep

    def test_write_by_extension(self, blend_mix, fixed_xi, tmp_path):
        rep = run_experiment(small_config(blend_mix, fixed_xi))
        json_path = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        rep.write(str(json_path))
        rep.write(str(csv_path))
        assert json.loads(json_path.read_text())["mean"] == rep.mean
        assert csv_path.read_text().startswith("scheme,")

    def test_config_has_no_report_path(self, blend_mix, fixed_xi):
        # the report goes where the caller writes it (specmix experiment --out)
        with pytest.raises(TypeError):
            small_config(blend_mix, fixed_xi, out="report.json")


class TestConfigFromJson:
    def test_parses_full_config(self):
        text = json.dumps(
            {
                "mixture": {
                    "weights": [0.5, 0.5],
                    "components": [[0.9, 0.1], [0.2, 0.8]],
                },
                "group_size": 5,
                "n_groups": 1000,
                "reps": 2,
                "dominating": "uniform",
                "recovery": {"m": 2, "probe": "singular"},
                "seed": 3,
            }
        )
        cfg = ExperimentConfig.from_json(text)
        assert cfg.recovery.m == 2 and cfg.recovery.probe == "singular"
        assert cfg.dominating == "uniform" and cfg.seed == 3
        assert cfg.mixture.m == 2

    def test_requires_recovery_m(self):
        text = json.dumps(
            {
                "mixture": {"weights": [1.0], "components": [[0.5, 0.5]]},
                "group_size": 2,
                "n_groups": 10,
                "reps": 1,
            }
        )
        with pytest.raises(ValueError, match="recovery.m"):
            ExperimentConfig.from_json(text)

    def test_rejects_dominating_inside_recovery(self):
        text = json.dumps(
            {
                "mixture": {"weights": [0.5, 0.5], "components": [[0.9, 0.1], [0.2, 0.8]]},
                "group_size": 5,
                "n_groups": 10,
                "reps": 1,
                "recovery": {"m": 2, "dominating": "fixed:9,4"},
            }
        )
        with pytest.raises(ValueError, match='top-level "dominating"'):
            ExperimentConfig.from_json(text)

    # a misspelt setting is an error, not silently the default; the report
    # path is the command's --out, not a config key
    @pytest.mark.parametrize("key, value", [("sed", 7), ("out", "report.csv")])
    def test_rejects_unknown_key(self, key, value):
        text = json.dumps(
            {
                "mixture": {"weights": [1.0], "components": [[0.5, 0.5]]},
                "group_size": 2,
                "n_groups": 10,
                "reps": 1,
                "recovery": {"m": 1},
                key: value,
            }
        )
        with pytest.raises(ValueError, match=f"^unknown experiment config key '{key}'$"):
            ExperimentConfig.from_json(text)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("group_size", 3.7, "group_size must be an integer >= 1, got 3.7"),
            ("reps", 2.5, "reps must be an integer >= 1, got 2.5"),
            ("reps", True, "reps must be an integer >= 1, got True"),
            ("group_size", True, "group_size must be an integer >= 1, got True"),
            ("n_groups", True, "n_groups must be an integer >= 1, got True"),
            ("seed", True, "seed must be an integer in"),
            ("n_groups", 0, "n_groups must be an integer >= 1, got 0"),
            ("seed", 2**70, "seed must be an integer in"),
            ("seed", -1, "seed must be an integer in"),
        ],
    )
    def test_rejects_bad_scale_and_seed(self, key, value, message):
        # values are taken as written: no truncation, no seed aliasing modulo 2**64
        obj = {
            "mixture": {"weights": [1.0], "components": [[0.5, 0.5]]},
            "group_size": 2,
            "n_groups": 10,
            "reps": 1,
            "recovery": {"m": 1},
        }
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.from_json(json.dumps(obj | {key: value}))

    @pytest.mark.parametrize(
        "key, value", [("clip_negatives", False), ("weight_solver", "simplex-projection")]
    )
    def test_rejects_fixed_choices_inside_recovery(self, key, value):
        text = json.dumps(
            {
                "mixture": {"weights": [1.0], "components": [[0.5, 0.5]]},
                "group_size": 2,
                "n_groups": 10,
                "reps": 1,
                "recovery": {"m": 1, key: value},
            }
        )
        with pytest.raises(ValueError, match=f"unknown recovery key '{key}'"):
            ExperimentConfig.from_json(text)
