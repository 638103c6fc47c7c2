"""Command-line interface, exercised in-process through cli.main, and
in a fresh interpreter where a test limits its memory."""
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import specmix as sp
from specmix import cli
from specmix.sampling import write_groups


@pytest.fixture()
def data_file(tmp_path, blend_mix):
    ds = sp.draw_groups(blend_mix, 5, 3000, seed=100)
    path = tmp_path / "groups.txt"
    with open(path, "w") as fh:
        write_groups(ds, fh)
    return str(path)


def run_cli(args):
    return cli.main(args)


def run_failing(capsys, args, pattern):
    """stdout of run_cli(args), which must exit with status 2 and print
    one stderr line that pattern matches (re.search)."""
    status = run_cli(args)
    captured = capsys.readouterr()
    assert status == 2
    assert captured.err.count("\n") == 1 and re.search(pattern, captured.err.rstrip("\n")), captured.err
    return captured.out


class TestRecoverCommand:
    def test_stdout_json(self, data_file, capsys):
        code = run_cli(
            ["recover", "--data", data_file, "--m", "3",
             "--dominating", "fixed:9,4,1", "--seed", "100"]
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

    def test_group_size_comes_from_the_data(self, data_file, capsys):
        # the file fixes the group size; the flag that could only agree or fail is gone
        with pytest.raises(SystemExit) as info:
            run_cli(["recover", "--data", data_file, "--m", "2", "--group-size", "5"])
        assert info.value.code == 2
        assert "unrecognized arguments: --group-size 5" in capsys.readouterr().err

    def test_library_error_exits_with_one_line(self, data_file, capsys):
        run_failing(capsys, ["recover", "--data", data_file, "--m", "4"], "group size 5 < required 7")
        run_failing(capsys, ["recover", "--data", data_file, "--m", "2", "--dominating", "bogus"], "descriptor")

    def test_malformed_data_line_names_its_group(self, tmp_path, capsys):
        path = tmp_path / "groups.txt"
        path.write_text("1 2\n3 1\n1 2.5\n")
        run_failing(capsys, ["recover", "--data", str(path), "--m", "1"], r": group 3: entry 2, '2\.5', is not an integer index$")
        path.write_text("1 2\n3\n")
        run_failing(capsys, ["rank", "--data", str(path), "--power", "1"], r": group 2: 1 indices, where the groups before")

    def test_stdin(self, blend_mix, capsys, monkeypatch):
        ds = sp.draw_groups(blend_mix, 5, 500, seed=1)
        buf = io.StringIO()
        write_groups(ds, buf)
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

    def test_missing_config_exits_with_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        run_failing(capsys, ["experiment", "--config", missing], "^specmix experiment: .*missing.json")

    @staticmethod
    def _edit(config_file, **changes):
        cfg = json.loads(Path(config_file).read_text())
        for key, value in changes.items():
            if value is None:
                del cfg[key]
            else:
                cfg[key] = value
        Path(config_file).write_text(json.dumps(cfg))

    def test_missing_key_exits_with_one_line(self, config_file, capsys):
        self._edit(config_file, group_size=None)
        run_failing(capsys, ["experiment", "--config", config_file], "^specmix experiment: .* no 'group_size' key")

    def test_unknown_recovery_key_exits_with_one_line(self, config_file, capsys):
        self._edit(config_file, recovery={"m": 1, "bogus": 2})
        run_failing(capsys, ["experiment", "--config", config_file],
            "^specmix experiment: unknown recovery key 'bogus'")

    def test_malformed_setting_exits_with_one_line(self, config_file, tmp_path, capsys):
        # checked when the config is built, so no replicate runs and no report is written
        out = tmp_path / "report.json"
        cases = [
            ({"dominating": "unifrom"}, "unknown dominating-measure descriptor 'unifrom'"),
            ({"dominating": [9, 4, 1]}, "dominating must be a DominatingMeasure"),
            ({"dominating": "uniform", "recovery": {"m": "2"}}, "m must be an integer >= 1, got '2'"),
            ({"recovery": {"m": 3, "eig_floor": "1e-8"}}, "eig_floor must be a number in"),
            ({"recovery": {"m": 3}, "n_groups": 0}, "n_groups must be an integer >= 1, got 0"),
            ({"n_groups": 2000, "group_size": 3.7}, "group_size must be an integer >= 1, got 3.7"),
            ({"group_size": 5, "seed": -1}, r"seed must be an integer in \[0, 2\*\*64 - reps\]"),
            ({"seed": 2**64 - 1}, r"seed must be an integer in \[0, 2\*\*64 - reps\]"),
            # JSON true is not an integer
            ({"seed": True}, r"seed must be an integer in \[0, 2\*\*64 - reps\], got True"),
            ({"seed": 0, "recovery": {"m": True}}, "m must be an integer >= 1, got True"),
            ({"recovery": {"m": 3}, "reps": True}, "reps must be an integer >= 1, got True"),
            ({"reps": 2, "group_size": True}, "group_size must be an integer >= 1, got True"),
            ({"group_size": 5, "n_groups": True}, "n_groups must be an integer >= 1, got True"),
            # the report path is --out alone
            ({"n_groups": 2000, "out": str(out)}, "unknown experiment config key 'out'"),
        ]
        for changes, message in cases:
            self._edit(config_file, **changes)
            run_failing(capsys, ["experiment", "--config", config_file, "--out", str(out)],
                f"^specmix experiment: {message}[^\n]*$")
            assert not out.exists()

    def test_unknown_key_exits_with_one_line(self, config_file, capsys):
        self._edit(config_file, n_group=5)
        run_failing(capsys, ["experiment", "--config", config_file],
            "^specmix experiment: unknown experiment config key 'n_group'$")


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
        assert run_failing(capsys, ["counterexample", "--m", "0", "--kind", "identifiability"],
            "^specmix counterexample: m must be an integer >= 1, got 0$") == ""


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

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exits_with_one_line(self, tmp_path, tol, capsys):
        a = tmp_path / "a.json"
        self._write_mix(a, 2, [(1.0, [0.5, 0.5])])
        assert run_failing(capsys, ["multinomial-check", "--a", str(a), "--b", str(a), "--tol", tol],
            r"^specmix multinomial-check: tol must be a finite number >= 0, got (-1.0|nan)$") == ""

    @pytest.mark.parametrize(
        "left, right, message",
        [
            # a NaN weight printed "different" for a file against itself
            ([(float("nan"), [0.5, 0.5])], None, "weights entry 0 is nan, not finite"),
            # weights -3 and 4 on one p printed "equal" against weight 1 on it
            ([(-3.0, [0.5, 0.5]), (4.0, [0.5, 0.5])], [(1.0, [0.5, 0.5])], "weights must be strictly positive, got min -3"),
            ([(0.5, [0.5, 0.5]), (0.6, [0.2, 0.8])], [(1.0, [0.5, 0.5])], r"weights sum to 1\.1, not 1"),
        ],
    )
    def test_bad_weights_exit_with_one_line(self, tmp_path, left, right, message, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, 2, left)
        self._write_mix(b, 2, left if right is None else right)
        for x, y in [(a, b), (b, a)]:
            assert run_failing(capsys, ["multinomial-check", "--a", str(x), "--b", str(y)],
                rf"^specmix multinomial-check: .*\.json: {message}$") == ""

    @pytest.mark.parametrize(
        "n, weight, message",
        [
            # n 2.5 and weight true against n 2 and weight 1.0 printed "equal"
            (2.5, 1.0, ".*a.json: n must be an integer >= 1, got 2.5"),
            (2, True, ".*a.json: weights entry 0 is True, not a real number"),
            (2, "1.0", ".*a.json: weights entry 0 is '1.0', not a real number"),
        ],
    )
    def test_uncoerced_fields_exit_with_one_line(self, tmp_path, n, weight, message, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, n, [(weight, [0.5, 0.5])])
        self._write_mix(b, 2, [(1.0, [0.5, 0.5])])
        assert run_failing(capsys, ["multinomial-check", "--a", str(a), "--b", str(b)],
            f"^specmix multinomial-check: {message}$") == ""

    @pytest.mark.parametrize("p, entry", [([True, False], "True"), (["0.5", "0.5"], "'0.5'")])
    def test_uncoerced_probabilities_exit_with_one_line(self, tmp_path, p, entry, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, 2, [(1.0, p)])
        self._write_mix(b, 2, [(1.0, [0.5, 0.5])])
        message = f".*a.json: probability vector entry 0 is {entry}, not a real number"
        assert run_failing(capsys, ["multinomial-check", "--a", str(a), "--b", str(b)],
            f"^specmix multinomial-check: {message}$") == ""

    def test_missing_file_exits_with_one_line(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._write_mix(a, 2, [(1.0, [0.5, 0.5])])
        missing = str(tmp_path / "missing.json")
        run_failing(capsys, ["multinomial-check", "--a", str(a), "--b", missing],
            "^specmix multinomial-check: .*missing.json")

    def test_missing_key_exits_with_one_line(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write_mix(a, 2, [(1.0, [0.5, 0.5])])
        b.write_text(json.dumps({"n": 2, "components": [{"weight": 1.0, "p": [0.5, 0.5]}]}))
        run_failing(capsys, ["multinomial-check", "--a", str(a), "--b", str(b)],
            "^specmix multinomial-check: .*b.json has no 'q' key")
        b.write_text(json.dumps({"n": 2, "q": 2, "components": [{"p": [0.5, 0.5]}]}))
        run_failing(capsys, ["multinomial-check", "--a", str(a), "--b", str(b)], "no 'weight' key")


class TestRankCommand:
    def test_prints_rank(self, data_file, capsys):
        assert run_cli(["rank", "--data", data_file, "--power", "1", "--tol", "0.01"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("tol", ["-1", "nan"])
    def test_bad_tol_exits_with_one_line(self, data_file, tol, capsys):
        assert run_failing(capsys, ["rank", "--data", data_file, "--power", "2", "--tol", tol],
            r"^specmix rank: stage 'setup' failed: rel_tol must be a finite number in \[0, 1\), got (-1.0|nan)$") == ""

    def test_names_group_size_when_power_too_high(self, data_file, capsys):
        assert run_failing(capsys, ["rank", "--data", data_file, "--power", "3"], "group size 5 < required 6") == ""


class TestBaselineCommand:
    def test_prints_stats(self, tmp_path, blend_mix, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text(blend_mix.to_json())
        code = run_cli(["baseline", "--trials", "100", "--truth", str(truth), "--seed", "42"])
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert 0.3 < obj["mean"] < 0.8 and obj["variance"] > 0.0
        report = sp.random_baseline(blend_mix.components, 100, 42)
        assert obj == {"mean": report.mean, "variance": report.variance}

    @pytest.mark.parametrize("flag", ["--d", "--m"])
    def test_shape_comes_from_the_truth(self, tmp_path, blend_mix, flag, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text(blend_mix.to_json())
        with pytest.raises(SystemExit) as info:
            run_cli(["baseline", flag, "3", "--trials", "5", "--truth", str(truth)])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    def test_missing_truth_exits_with_one_line(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        run_failing(capsys, ["baseline", "--trials", "5", "--truth", missing], "^specmix baseline: .*missing.json")

    def test_truth_without_components_exits_with_one_line(self, tmp_path, capsys):
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps({"weights": [0.5, 0.5]}))
        run_failing(capsys, ["baseline", "--trials", "5", "--truth", str(truth)],
            "^specmix baseline: mixture has no 'components' key")


@pytest.mark.parametrize(
    "command, flags",
    [("experiment", ["--config"]), ("baseline", ["--trials", "5", "--truth"]), ("multinomial-check", ["--b", None, "--a"])],
)
def test_malformed_json_names_the_file(tmp_path, command, flags, capsys):
    # a truth file of "{}{}" printed "specmix baseline: Extra data: line 1 column 3 (char 2)"
    bad = tmp_path / "bad.json"
    bad.write_text("{}{}")
    args = [command] + [str(bad) if flag is None else flag for flag in flags] + [str(bad)]
    run_failing(capsys, args, rf"^specmix {command}: \S*bad\.json: Extra data: line 1 column 3 \(char 2\)$")
    # a JSON value that is no object where one is read printed a TypeError's
    # traceback with status 1, multinomial-check's "different"
    config = {"mixture": {"weights": [1.0], "components": [[0.5, 0.5]]}, "group_size": 2, "n_groups": 10, "reps": 1}
    not_objects = {
        "experiment": [
            (5, "experiment config must be a JSON object, got int"),
            (config | {"recovery": [1]}, "recovery must be a JSON object, got list"),
        ],
        "baseline": [(5, "mixture must be a JSON object, got int")],
        "multinomial-check": [
            ({"n": 2, "q": 3, "components": [5]}, r"a component in \S*bad\.json must be a JSON object, got int"),
            ({"n": 2, "q": 3, "components": 5}, r"components in \S*bad\.json must be a JSON array, got int"),
            ({"n": 2, "q": 3, "components": {"weight": 1}}, r"components in \S*bad\.json must be a JSON array, got dict"),
            ({"n": 2, "q": 3, "components": "ab"}, r"components in \S*bad\.json must be a JSON array, got str"),
        ],
    }
    for value, message in not_objects[command]:
        bad.write_text(json.dumps(value))
        run_failing(capsys, args, rf"^specmix {command}: {message}$")


@pytest.mark.parametrize(
    "command, args",
    [
        # a 298 GiB level-gap matrix
        ("counterexample", ["--m", "100000", "--kind", "identifiability"]),
        # 14.9 GiB of trial errors
        ("baseline", ["--trials", "2000000000", "--truth", None]),
    ],
    ids=["counterexample", "baseline"],
)
def test_failed_allocation_exits_with_one_line(tmp_path, blend_mix, command, args):
    # each printed numpy's _ArrayMemoryError traceback with status 1,
    # multinomial-check's "different"
    pytest.importorskip("resource")
    truth = tmp_path / "truth.json"
    truth.write_text(blend_mix.to_json())
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
        "from specmix import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    root = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    argv = [command] + [str(truth) if arg is None else arg for arg in args]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"specmix {command}: "), proc.stderr


def readme_command_lines() -> list:
    """Every `specmix ...` command in the README's sh blocks, with
    backslash continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in re.sub(r"\\\n\s*", " ", block).splitlines():
            if line.startswith("specmix "):
                lines.append(line)
    return lines


def test_readme_quickstart_runs(capsys):
    # catches a drift of the public API, such as a renamed or removed name
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the block's comments promise an equal and an unequal comparison
    assert "equal=True" in lines[-2] and "equal=False" in lines[-1]


class TestParser:
    def test_readme_commands_parse(self):
        commands = [cli.build_parser().parse_args(shlex.split(line)[1:]).command for line in readme_command_lines()]
        # every subcommand has an example; counterexample has two
        assert sorted(commands) == sorted(
            ["recover", "experiment", "counterexample", "counterexample", "multinomial-check", "rank", "baseline"]
        )

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
