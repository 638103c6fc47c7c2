"""Command-line interface, exercised in-process through cli.main."""
import io
import json
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import specmix as sp
from specmix import cli


@pytest.fixture()
def data_file(tmp_path, blend_mix):
    ds = sp.draw_groups(blend_mix, 5, 3000, seed=100)
    path = tmp_path / "groups.txt"
    with open(path, "w") as fh:
        sp.write_groups(ds, fh)
    return str(path)


def run_cli(args):
    return cli.main(args)


class TestRecoverCommand:
    def test_stdout_json(self, data_file, capsys):
        code = run_cli(
            ["recover", "--data", data_file, "--m", "3",
             "--dominating", "fixed:9,4,1", "--probe", "singular", "--seed", "100"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert np.array(obj["components"]).shape == (3, 3)
        assert_allclose(sum(obj["weights"]), 1.0, atol=1e-9)
        assert "tt_eigenvalues" in obj["diagnostics"]

    def test_out_file(self, data_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        run_cli(["recover", "--data", data_file, "--m", "2", "--out", str(out)])
        assert capsys.readouterr().out == ""
        assert "weights" in json.loads(out.read_text())

    def test_group_size_check(self, data_file):
        with pytest.raises(SystemExit, match="group"):
            run_cli(["recover", "--data", data_file, "--m", "2", "--group-size", "4"])

    def test_group_size_match_passes(self, data_file):
        assert run_cli(["recover", "--data", data_file, "--m", "2", "--group-size", "5"]) == 0

    def test_library_error_exits_with_one_line(self, data_file):
        with pytest.raises(SystemExit, match="group size 5 < required 7"):
            run_cli(["recover", "--data", data_file, "--m", "4"])
        with pytest.raises(SystemExit, match="descriptor"):
            run_cli(["recover", "--data", data_file, "--m", "2", "--dominating", "bogus"])

    def test_stdin(self, blend_mix, capsys, monkeypatch):
        ds = sp.draw_groups(blend_mix, 5, 500, seed=1)
        buf = io.StringIO()
        sp.write_groups(ds, buf)
        monkeypatch.setattr("sys.stdin", io.StringIO(buf.getvalue()))
        assert run_cli(["recover", "--data", "-", "--m", "2"]) == 0
        assert "components" in json.loads(capsys.readouterr().out)


class TestExperimentCommand:
    @pytest.fixture()
    def config_file(self, tmp_path):
        cfg = {
            "mixture": {
                "weights": [0.5, 0.3, 0.2],
                "components": [
                    [0.64, 0.32, 0.04],
                    [0.04, 0.32, 0.64],
                    [0.24, 0.32, 0.44],
                ],
            },
            "group_size": 5,
            "n_groups": 2000,
            "reps": 2,
            "dominating": "fixed:9,4,1",
            "recovery": {"m": 3, "probe": "singular"},
            "seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_stdout_report(self, config_file, capsys):
        assert run_cli(["experiment", "--config", config_file]) == 0
        captured = capsys.readouterr()
        obj = json.loads(captured.out)
        assert len(obj["errors"]) == 2
        assert "mean=" in captured.err

    def test_out_file_silences_stdout(self, config_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run_cli(["experiment", "--config", config_file, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out.read_text().startswith("scheme,")

    def test_missing_config_exits_with_one_line(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit, match="^specmix experiment: .*missing.json"):
            run_cli(["experiment", "--config", missing])

    @staticmethod
    def _edit(config_file, **changes):
        cfg = json.loads(Path(config_file).read_text())
        for key, value in changes.items():
            if value is None:
                del cfg[key]
            else:
                cfg[key] = value
        Path(config_file).write_text(json.dumps(cfg))

    def test_missing_key_exits_with_one_line(self, config_file):
        self._edit(config_file, group_size=None)
        with pytest.raises(SystemExit, match="^specmix experiment: .* no 'group_size' key"):
            run_cli(["experiment", "--config", config_file])

    def test_unknown_recovery_key_exits_with_one_line(self, config_file):
        self._edit(config_file, recovery={"m": 1, "bogus": 2})
        with pytest.raises(SystemExit, match="^specmix experiment: unknown recovery key 'bogus'"):
            run_cli(["experiment", "--config", config_file])

    def test_malformed_setting_exits_with_one_line(self, config_file, tmp_path):
        # checked when the config is built, so no replicate runs and no report is written
        out = tmp_path / "report.json"
        cases = [
            ({"dominating": "unifrom"}, "unknown dominating-measure descriptor 'unifrom'"),
            ({"dominating": [9, 4, 1]}, "dominating must be a DominatingMeasure"),
            ({"dominating": "uniform", "recovery": {"m": "2"}}, "m must be an integer >= 1, got '2'"),
            ({"recovery": {"m": 3, "eig_floor": "1e-8"}}, "eig_floor must be a number in"),
        ]
        for changes, message in cases:
            self._edit(config_file, **changes)
            with pytest.raises(SystemExit, match=f"^specmix experiment: {message}[^\n]*$"):
                run_cli(["experiment", "--config", config_file, "--out", str(out)])
            assert not out.exists()

    def test_unknown_key_exits_with_one_line(self, config_file):
        self._edit(config_file, n_group=5)
        with pytest.raises(SystemExit, match="^specmix experiment: unknown experiment config key 'n_group'$"):
            run_cli(["experiment", "--config", config_file])


class TestCounterexampleCommand:
    def test_identifiability(self, capsys):
        assert run_cli(["counterexample", "--m", "2", "--kind", "identifiability"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["t"] == 4 and obj["eq_order"] == 2
        assert obj["verification"]["max_diff_at_eq_order"] < 1e-9

    def test_determinedness(self, capsys):
        assert run_cli(["counterexample", "--m", "2", "--kind", "determinedness"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["t"] == 5 and obj["eq_order"] == 3
        assert len(obj["p"]["weights"]) == 2
        assert len(obj["p_prime"]["weights"]) == 3

    def test_custom_eps_and_out(self, tmp_path, capsys):
        out = tmp_path / "pair.json"
        code = run_cli(
            ["counterexample", "--m", "2", "--kind", "identifiability",
             "--eps", "0.05,0.35,0.6,0.92", "--out", str(out)]
        )
        assert code == 0 and capsys.readouterr().out == ""
        obj = json.loads(out.read_text())
        assert_allclose(obj["epsilons"], [0.05, 0.35, 0.6, 0.92])

    def test_zero_components_exits_with_one_line(self, capsys):
        with pytest.raises(SystemExit, match="^specmix counterexample: need at least 3"):
            run_cli(["counterexample", "--m", "0", "--kind", "identifiability"])
        assert capsys.readouterr().out == ""


class TestMultinomialCheckCommand:
    @staticmethod
    def _write_mix(path, n, comps):
        path.write_text(
            json.dumps(
                {
                    "n": n,
                    "q": 2,
                    "components": [{"weight": w, "p": p} for w, p in comps],
                }
            )
        )

    def test_equal_pair_exits_zero(self, tmp_path, capsys):
        pair = sp.build_pair(2, 4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, 2, zip(pair.p.weights.tolist(), pair.p.components.tolist()))
        self._write_mix(b, 2, zip(pair.p_prime.weights.tolist(), pair.p_prime.components.tolist()))
        assert run_cli(["multinomial-check", "--a", str(a), "--b", str(b)]) == 0
        assert capsys.readouterr().out.strip() == "equal"

    def test_different_pair_exits_one(self, tmp_path, capsys):
        pair = sp.build_pair(2, 4)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, 3, zip(pair.p.weights.tolist(), pair.p.components.tolist()))
        self._write_mix(b, 3, zip(pair.p_prime.weights.tolist(), pair.p_prime.components.tolist()))
        assert run_cli(["multinomial-check", "--a", str(a), "--b", str(b)]) == 1
        assert capsys.readouterr().out.strip() == "different"

    def test_missing_file_exits_with_one_line(self, tmp_path):
        a = tmp_path / "a.json"
        self._write_mix(a, 2, [(1.0, [0.5, 0.5])])
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit, match="^specmix multinomial-check: .*missing.json"):
            run_cli(["multinomial-check", "--a", str(a), "--b", missing])

    def test_missing_key_exits_with_one_line(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, 2, [(1.0, [0.5, 0.5])])
        b.write_text(json.dumps({"n": 2, "components": [{"weight": 1.0, "p": [0.5, 0.5]}]}))
        with pytest.raises(SystemExit, match="^specmix multinomial-check: .*b.json has no 'q' key"):
            run_cli(["multinomial-check", "--a", str(a), "--b", str(b)])
        b.write_text(json.dumps({"n": 2, "q": 2, "components": [{"p": [0.5, 0.5]}]}))
        with pytest.raises(SystemExit, match="no 'weight' key"):
            run_cli(["multinomial-check", "--a", str(a), "--b", str(b)])


class TestRankCommand:
    def test_prints_rank(self, data_file, capsys):
        assert run_cli(["rank", "--data", data_file, "--power", "1", "--tol", "0.01"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_names_group_size_when_power_too_high(self, data_file, capsys):
        with pytest.raises(SystemExit, match="group size 5 < required 6"):
            run_cli(["rank", "--data", data_file, "--power", "3"])
        assert capsys.readouterr().out == ""


class TestBaselineCommand:
    def test_prints_stats(self, tmp_path, blend_mix, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text(blend_mix.to_json())
        code = run_cli(
            ["baseline", "--d", "3", "--m", "3", "--trials", "100",
             "--truth", str(truth), "--seed", "42"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert 0.3 < obj["mean"] < 0.8 and obj["variance"] > 0.0

    def test_rejects_mismatched_truth(self, tmp_path, blend_mix):
        truth = tmp_path / "truth.json"
        truth.write_text(blend_mix.to_json())
        with pytest.raises(SystemExit, match="truth"):
            run_cli(["baseline", "--d", "2", "--m", "3", "--trials", "5", "--truth", str(truth)])

    def test_missing_truth_exits_with_one_line(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit, match="^specmix baseline: .*missing.json"):
            run_cli(["baseline", "--d", "3", "--m", "3", "--trials", "5", "--truth", missing])

    def test_truth_without_components_exits_with_one_line(self, tmp_path):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"weights": [0.5, 0.5]}))
        with pytest.raises(SystemExit, match="^specmix baseline: mixture has no 'components' key"):
            run_cli(["baseline", "--d", "3", "--m", "2", "--trials", "5", "--truth", str(truth)])


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            run_cli([])
        assert "command" in capsys.readouterr().err

    @staticmethod
    def _project_table() -> dict:
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            return tomllib.load(fh)["project"]

    def test_console_script_entry(self):
        import importlib.metadata as md

        scripts = self._project_table().get("scripts", {})
        assert scripts.get("specmix") == "specmix.cli:main"

        # An installed copy must register the same entry point.
        try:
            dist = md.distribution("specmix")
        except md.PackageNotFoundError:
            return
        installed = {ep.name: ep.value for ep in dist.entry_points.select(group="console_scripts")}
        assert installed.get("specmix") == "specmix.cli:main"

    def test_version_matches_pyproject(self):
        assert sp.__version__ == self._project_table()["version"]
