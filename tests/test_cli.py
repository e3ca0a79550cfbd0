"""Command-line interface: reports, manifests, determinism, exit codes."""

import argparse
import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import renyireg
from renyireg import cli, exclude_rows, fit_rp_path, gross_error_sensitivity, load_dataset
from renyireg.cli import EXIT_ERROR, EXIT_NONCONVERGED, EXIT_OK, build_parser, main
from renyireg.simulation import ContaminationSpec, DesignSpec, StudyConfig


def read_csv(path):
    with open(path) as handle:
        return list(csv.DictReader(handle))


class TestAre:
    def test_reproduces_published_table(self, tmp_path):
        alphas = "0,0.1,0.2,0.3,0.4,0.5,0.8,1,1.5"
        code = main(["are", "--alphas", alphas, "--output", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "are.csv")
        expected_beta = [100.00, 98.76, 95.86, 92.12, 88.01, 83.81, 71.89, 64.95, 51.20]
        expected_sigma = [100.00, 97.54, 91.92, 84.95, 77.65, 70.57, 52.50, 43.30, 27.77]
        for row, eb, es in zip(rows, expected_beta, expected_sigma):
            assert float(row["are_beta_x100"]) == pytest.approx(eb, abs=0.005)
            assert float(row["are_sigma_x100"]) == pytest.approx(es, abs=0.005)
        assert (tmp_path / "are.csv.manifest.json").exists()

    def test_huge_alpha(self, tmp_path):
        code = main(["are", "--alphas", "0,1e200", "--output", str(tmp_path)])
        assert code == EXIT_OK
        for row in read_csv(tmp_path / "are.csv"):
            assert 0.0 <= float(row["are_beta_x100"]) <= 100.0
            assert 0.0 <= float(row["are_sigma_x100"]) <= 100.0


class TestFit:
    def test_bundled_with_exclusion(self, tmp_path):
        code = main(
            [
                "fit",
                "--data",
                "brain_weight",
                "--alphas",
                "0,0.4",
                "--exclude",
                "6,16,25",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "fit.csv")
        by_key = {(r["subset"], r["alpha"]): r for r in rows}
        clean0 = by_key[("excluded_6_16_25", "0.0")]
        assert float(clean0["sigma"]) == pytest.approx(0.6962, abs=5e-3)
        assert float(clean0["beta0"]) == pytest.approx(2.1504, abs=5e-3)
        dirty04 = by_key[("all_rows", "0.4")]
        assert float(dirty04["beta1"]) == pytest.approx(0.7560, abs=5e-3)

    def test_csv_round_trip_bit_exact(self, tmp_path):
        main(["fit", "--data", "first_word", "--alphas", "0,0.6", "--output", str(tmp_path)])
        rows = read_csv(tmp_path / "fit.csv")
        # floats are written with repr, so parsing them back is exact
        from renyireg.data import load_dataset
        from renyireg.estimation import SolverOptions, fit_rp_path

        fits = fit_rp_path(load_dataset("first_word").data, [0, 0.6], SolverOptions())
        assert float(rows[1]["sigma"]) == fits[0.6].theta_hat.sigma

    def test_user_csv(self, tmp_path):
        path = tmp_path / "mine.csv"
        rng = np.random.default_rng(4)
        x = rng.normal(size=12)
        y = 1.0 + 2.0 * x + 0.1 * rng.normal(size=12)
        path.write_text("resp,cov\n" + "\n".join(f"{a},{b}" for a, b in zip(y, x)) + "\n")
        code = main(
            [
                "fit",
                "--data",
                str(path),
                "--response",
                "resp",
                "--covariates",
                "cov",
                "--alphas",
                "0",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "out" / "fit.csv")
        assert float(rows[0]["beta1"]) == pytest.approx(2.0, abs=0.05)
        manifest = json.loads((tmp_path / "out" / "fit.csv.manifest.json").read_text())
        assert str(path) in manifest["input_checksums"]

    def test_multistart(self, tmp_path):
        code = main(
            ["fit", "--data", "brain_weight", "--alphas", "0,0.5", "--multistart", "2",
             "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "fit.csv")
        assert [r["converged"] for r in rows] == ["True", "True"]

    def test_bad_dataset_exit_code(self, tmp_path, capsys):
        code = main(["fit", "--data", "missing.csv", "--output", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_bad_direction_exit_code(self, tmp_path, capsys):
        argv = ["influence", "--data", "first_word", "--direction", "-2"]
        assert main([*argv, "--output", str(tmp_path / "out")]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: --direction")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", [["--response", "y"], ["--covariates", "x1"], []])
    def test_user_csv_needs_response_and_covariates(self, tmp_path, capsys, given):
        argv = ["fit", "--data", str(user_csv(tmp_path)), *given, "--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: user CSV files need --response and --covariates")

    def test_negative_column_position_is_an_error(self, tmp_path, capsys):
        # positions are 0-based; -1 is not the last column
        code = main(
            ["fit", "--data", str(user_csv(tmp_path)), "--response", "-1", "--covariates", "-2",
             "--output", str(tmp_path / "out")]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: column position -1 outside 0..2")

    def test_rank_deficient_design_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("y,x\n" + "".join(f"{v},3.0\n" for v in (1.0, 2.5, 2.0, 4.0, 3.5)))
        code = main(
            ["fit", "--data", str(path), "--response", "y", "--covariates", "x",
             "--output", str(tmp_path / "out")]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: design is rank deficient")

    @pytest.mark.parametrize(
        "argv", [["fit", "--data", "first_word", "--alphas", ","], ["power", "--dx", " , "]]
    )
    def test_empty_list_is_refused(self, tmp_path, capsys, argv):
        # refused by argparse, as a value that is not a number is
        with pytest.raises(SystemExit) as err:
            main(argv + ["--output", str(tmp_path)])
        assert err.value.code == 2
        assert "invalid _float_list value" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_scale_collapse_is_one_error_line(self, tmp_path):
        # the continuation to alpha 1.2 falls into the sigma -> 0 spike of
        # first_word's 21 rows; run as a command, so that a traceback shows
        src = str(Path(renyireg.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "renyireg.cli", "fit", "--data", "first_word",
             "--alphas", "1.2", "--output", str(tmp_path / "out")],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_ERROR
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: scale collapsed"), proc.stderr
        assert not (tmp_path / "out").exists()

    def test_scale_collapse_reports_floor_in_response_units(self, tmp_path, capsys):
        # the floor is 1e-10 of first_word's maximum-likelihood scale, 10.48,
        # although the stages run on the response divided by 8
        argv = ["fit", "--data", "first_word", "--alphas", "1.2", "--output", str(tmp_path)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: scale collapsed below 1.048e-09 during fitting\n"

    @pytest.mark.parametrize(
        "scale,code,err",
        # 1e150: the stages run at unit response scale, and the fit at 0.5
        # converges as at scale 1; 1e155: the residuals' sum of squares
        # overflows
        [(1e150, EXIT_OK, ""),
         (1e155, EXIT_ERROR, "error: the response is too large: its sum of squares overflows\n")],
    )
    def test_extreme_response_scale(self, tmp_path, capsys, scale, code, err):
        gen = np.random.default_rng(0)
        x = gen.standard_normal(40)
        y = 1.0 + 2.0 * x + gen.standard_normal(40)
        y[:5] += 5.0
        path = tmp_path / "rows.csv"
        rows = zip((scale * y).tolist(), x.tolist())
        path.write_text("y,x\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        argv = ["fit", "--data", str(path), "--response", "y", "--covariates", "x",
                "--alphas", "0,0.5", "--output", str(tmp_path / "out")]
        assert main(argv) == code
        assert capsys.readouterr().err == err
        if code == EXIT_OK:
            rows = read_csv(tmp_path / "out" / "fit.csv")
            assert [(row["alpha"], row["converged"]) for row in rows] == [
                ("0.0", "True"), ("0.5", "True")
            ]

    def test_negative_multistart_is_an_error(self, tmp_path, capsys):
        code = main(
            ["fit", "--data", "brain_weight", "--multistart", "-3", "--output", str(tmp_path)]
        )
        assert code == EXIT_ERROR
        assert "multistart" in capsys.readouterr().err


class TestTest:
    def test_pvalue_one_at_fitted_values(self, tmp_path):
        fit_dir = tmp_path / "f"
        main(["fit", "--data", "first_word", "--alphas", "0.4", "--output", str(fit_dir)])
        row = read_csv(fit_dir / "fit.csv")[0]
        null = f"beta0={row['beta0']},beta1={row['beta1']}"
        code = main(
            [
                "test",
                "--data",
                "first_word",
                "--alphas",
                "0.4",
                "--null",
                null,
                "--output",
                str(tmp_path / "t"),
            ]
        )
        assert code == EXIT_OK
        out = read_csv(tmp_path / "t" / "test.csv")[0]
        assert float(out["p_value"]) == pytest.approx(1.0, abs=1e-12)
        assert out["df"] == "2"

    def test_sigma_hypothesis(self, tmp_path):
        code = main(
            [
                "test",
                "--data",
                "first_word",
                "--alphas",
                "0,0.4",
                "--null",
                "sigma=9.0",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "test.csv")
        assert all(r["df"] == "1" for r in rows)

    def test_bad_hypothesis(self, tmp_path, capsys):
        code = main(
            ["test", "--data", "first_word", "--null", "gamma=1", "--output", str(tmp_path)]
        )
        assert code == EXIT_ERROR

    @pytest.mark.parametrize(
        "null, named",
        [
            pytest.param(null, named, id=null)
            for null, named in [
                ("beta=1", "'beta=1'"),
                ("beta1=abc", "'beta1=abc'"),
                ("betax=1", "'betax=1'"),
                ("beta1", "'beta1'; use name=value"),
                ("beta2=1", "beta2 out of range for 2 coefficients"),
                (" , ", "empty hypothesis"),
            ]
        ],
    )
    def test_malformed_hypothesis_token(self, tmp_path, capsys, null, named):
        # an error line naming the token, not a traceback
        code = main(["test", "--data", "first_word", "--null", null, "--output", str(tmp_path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err


class TestInfluence:
    def test_excluded_rows_are_dropped_before_fitting(self, tmp_path):
        out = tmp_path / "out"
        argv = ["influence", "--data", "first_word", "--alphas", "0.5", "--direction", "0",
                "--exclude", "18", "--output", str(out)]
        assert main(argv) == EXIT_OK
        data = exclude_rows(load_dataset("first_word").data, [18])
        theta = fit_rp_path(data, [0.5])[0.5].theta_hat
        summary = json.loads((out / "influence_summary.json").read_text())["0.5"]
        got = (summary["gross_error_beta"], summary["gross_error_sigma"])
        assert got == gross_error_sensitivity(data, 0, theta, 0.5)

    def test_summary_flags_unbounded_mle(self, tmp_path):
        code = main(
            [
                "influence",
                "--data",
                "first_word",
                "--alphas",
                "0,0.5",
                "--direction",
                "0",
                "--t-grid",
                "40,180,29",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "influence_summary.json").read_text())
        assert summary["0.0"]["bounded"] is False
        assert summary["0.0"]["gross_error_beta"] == "unbounded"
        assert summary["0.5"]["bounded"] is True
        assert float(summary["0.5"]["gross_error_beta"]) > 0
        rows = read_csv(tmp_path / "influence.csv")
        assert len(rows) == 2 * 29


    def test_all_directions_summary_has_no_sensitivity(self, tmp_path):
        # no closed-form sensitivity covers all directions at once
        code = main(
            ["influence", "--data", "first_word", "--alphas", "0,0.5", "--direction", "-1",
             "--t-grid", "40,180,5", "--output", str(tmp_path)]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "influence_summary.json").read_text())
        for key, bounded in (("0.0", False), ("0.5", True)):
            assert summary[key]["gross_error_beta"] is None
            assert summary[key]["gross_error_sigma"] is None
            assert summary[key]["bounded"] is bounded
            assert summary[key]["converged"] is True

    @pytest.mark.parametrize("grid", ["0,1", "0,1,0"])
    def test_grid_checked_before_fitting(self, tmp_path, monkeypatch, capsys, grid):
        calls = []
        monkeypatch.setattr(cli, "fit_rp_path", lambda *args, **kwargs: calls.append(args))
        code = main(
            ["influence", "--data", "first_word", "--t-grid", grid, "--output", str(tmp_path)]
        )
        assert code == EXIT_ERROR
        assert "--t-grid" in capsys.readouterr().err
        assert calls == []


class TestRefusedBeforeAnyFit:
    """Arguments that no fit can use exit 1 with one error line, before any
    fit runs and before the output directory is made."""

    @staticmethod
    def refused(monkeypatch, capsys, tmp_path, argv):
        calls = []
        monkeypatch.setattr(cli, "fit_rp_path", lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(cli, "contiguous_table", lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "out"
        assert main([*argv, "--output", str(out)]) == EXIT_ERROR
        assert calls == [] and not out.exists()
        return capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--data", "first_word"],
            ["test", "--data", "first_word", "--null", "beta1=0"],
            ["influence", "--data", "first_word"],
            ["are"],
            ["power"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("alphas", ["0.5,0.5", "0,0.50,1,0.5", "0,0.0"])
    def test_repeated_tuning_value(self, monkeypatch, capsys, tmp_path, argv, alphas):
        err = self.refused(monkeypatch, capsys, tmp_path, [*argv, "--alphas", alphas])
        value = "0.0" if alphas == "0,0.0" else "0.5"
        assert err == f"error: repeated tuning value {value} in --alphas\n"

    @pytest.mark.parametrize("level", ["1.5", "0", "nan"])
    def test_level_outside_unit_interval(self, monkeypatch, capsys, tmp_path, level):
        argv = ["test", "--data", "first_word", "--null", "beta1=0", "--level", level]
        err = self.refused(monkeypatch, capsys, tmp_path, argv)
        assert err == f"error: --level must lie in (0, 1), got {float(level)}\n"

    @pytest.mark.parametrize(
        "direction, exclude, last", [(21, [], 20), (20, ["--exclude", "18"], 19), (-2, [], 20)]
    )
    def test_direction_outside_the_rows(
        self, monkeypatch, capsys, tmp_path, direction, exclude, last
    ):
        argv = ["influence", "--data", "first_word", "--direction", str(direction), *exclude]
        err = self.refused(monkeypatch, capsys, tmp_path, argv)
        assert err == f"error: --direction must be an index in 0..{last} or -1, got {direction}\n"


class TestPower:
    def test_table_cells(self, tmp_path):
        code = main(
            [
                "power",
                "--alphas",
                "0,0.5",
                "--dx",
                "0,10",
                "--sigma",
                "1",
                "--output",
                str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "power.csv")
        cells = {(r["alpha"], r["d_x"]): float(r["power"]) for r in rows}
        assert cells[("0.0", "0.0")] == 0.05
        assert cells[("0.0", "10.0")] == pytest.approx(0.88, abs=0.01)
        assert cells[("0.5", "10.0")] == pytest.approx(0.81, abs=0.02)

    def test_huge_alpha(self, tmp_path):
        code = main(["power", "--alphas", "1e120", "--output", str(tmp_path)])
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "power.csv")
        assert rows and all(0.05 <= float(r["power"]) <= 1.0 for r in rows)


CONFIG = """
# toy study
design = two_point
n = 40
a = 1
b = 5
alphas = 0.0,0.5
replications = 20
seed = 321
"""


class TestSimulate:
    def test_runs_and_is_deterministic(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--output", str(out1)]) == EXIT_OK
        assert (
            main(["simulate", "--config", str(cfg), "--output", str(out2), "--workers", "2"])
            == EXIT_OK
        )
        assert (out1 / "study.csv").read_bytes() == (out2 / "study.csv").read_bytes()
        manifest = json.loads((out1 / "study.csv.manifest.json").read_text())
        assert str(cfg) in manifest["input_checksums"]

    def test_nonconverged_cell_exit_code(self, tmp_path, monkeypatch):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG)
        run_study = cli.run_study

        def one_nonconverged(config):
            result = run_study(config)
            key = next(iter(result.cells))
            cell = dict(result.cells[key], non_converged=1)
            cell["replications_used"] -= 1
            return dataclasses.replace(
                result, cells={**result.cells, key: cell}, non_convergence_count=1
            )

        monkeypatch.setattr(cli, "run_study", one_nonconverged)
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--output", str(out)])
        assert code == EXIT_NONCONVERGED
        assert (out / "study.csv").exists()
        assert json.loads((out / "study.json").read_text())["non_convergence_count"] == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        code = main(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == EXIT_ERROR
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["n = abc", "alphas = 0,x", "level =", "sample_sizes =", "alphas = ,", "n 20"]
    )
    def test_bad_value_names_its_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# study\n{line}\n")
        code = main(["simulate", "--config", str(cfg), "--output", str(tmp_path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: ")

    @pytest.mark.parametrize(
        "text, workers, named",
        [
            ("true_beta = 1,2,3\n", 1, "true_beta"),
            ("true_beta = 1\n", 1, "true_beta"),
            ("contamination_fraction = 0.1\ncontaminating_beta = 1.5\n", 1, "contaminating_beta"),
            ("", 0, "worker"),
            ("", -3, "worker"),
            ("sample_sizes = 20,21\n", 2, "even n"),
            ("sample_sizes = 2,20\n", 2, "n >= 4"),
            ("sample_sizes = 20,20\n", 1, "repeat"),
            ("alphas = 0.5,0,0.5\n", 1, "alphas repeat"),
            (
                "replications = 2\n# again\nreplications = 3\n",
                1,
                "bad.cfg:3: repeated key 'replications' (first on line 1)",
            ),
        ],
    )
    def test_config_refused_before_the_study(
        self, tmp_path, capsys, monkeypatch, text, workers, named
    ):
        studies = []
        monkeypatch.setattr(cli, "run_study", studies.append)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--workers", str(workers), "--output", str(out)]
        assert main(argv) == EXIT_ERROR
        error = capsys.readouterr().err
        assert error.startswith("error: ") and named in error, error
        assert studies == [] and not out.exists()


class TestConfigDefaults:
    def test_absent_keys_take_dataclass_defaults(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing set\n")
        assert cli._parse_config_file(cfg) == StudyConfig()

    def test_seed_flag_overrides_the_file(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("seed = 3\n")
        assert cli._parse_config_file(cfg).seed == 3
        assert cli._parse_config_file(cfg, seed_override=9).seed == 9

    def test_every_key_sets_its_field(self, tmp_path):
        values = {
            "design": "fixed_normal", "n": "50", "a": "2", "b": "7", "design_seed": "3",
            "contamination_fraction": "0.3", "contaminating_beta": "1,1",
            "placement": "random_indices", "placement_seed": "4", "true_beta": "2,2",
            "true_sigma": "2", "alphas": "0,0.5", "replications": "7", "level": "0.1",
            "seed": "9", "sample_sizes": "20,40", "beta1_null": "2",
            "beta1_alternative": "0.5", "sigma_null": "2", "sigma_alternative": "0.6",
        }
        assert set(values) == set(cli._CONFIG_KEYS)
        cfg = tmp_path / "full.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        assert cli._parse_config_file(cfg, workers=2) == StudyConfig(
            design=DesignSpec(kind="fixed_normal", n=50, a=2.0, b=7.0, seed=3),
            true_beta=(2.0, 2.0),
            true_sigma=2.0,
            alphas=(0.0, 0.5),
            replications=7,
            level=0.1,
            seed=9,
            contamination=ContaminationSpec(
                fraction=0.3,
                contaminating_beta=(1.0, 1.0),
                placement="random_indices",
                placement_seed=4,
            ),
            sample_sizes=(20, 40),
            hypotheses=(("beta1", 1, 2.0, 0.5), ("sigma", 2, 2.0, 0.6)),
            n_workers=2,
        )

    def test_zero_contamination_fraction_is_clean(self, tmp_path):
        cfg = tmp_path / "clean.cfg"
        cfg.write_text("contamination_fraction = 0\nplacement = random_indices\n")
        assert cli._parse_config_file(cfg).contamination is None


class TestPositionalColumns:
    def test_headerless_csv_with_indices(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.0,2.0\n2.1,3.0\n2.9,4.0\n4.2,5.0\n")
        code = main(
            [
                "fit",
                "--data",
                str(path),
                "--response",
                "0",
                "--covariates",
                "1",
                "--no-header",
                "--alphas",
                "0",
                "--output",
                str(tmp_path / "out"),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv(tmp_path / "out" / "fit.csv")
        assert float(rows[0]["beta1"]) == pytest.approx(1.05, abs=0.1)


def user_csv(tmp_path):
    path = tmp_path / "user.csv"
    rng = np.random.default_rng(6)
    x = rng.normal(size=(15, 2))
    y = 1.0 + x @ np.array([2.0, -1.0]) + 0.2 * rng.normal(size=15)
    rows = "".join(f"{a!r},{b!r},{c!r}\n" for a, (b, c) in zip(y.tolist(), x.tolist()))
    path.write_text("y,x1,x2\n" + rows)
    return path


TABLE_RUNS = {
    "fit": ["fit", "--data", "first_word", "--alphas", "0,0.5", "--exclude", "18"],
    "test": ["test", "--data", "brain_weight", "--alphas", "0,0.5", "--null", "beta1=0.7"],
    "influence": ["influence", "--data", "first_word", "--alphas", "0,0.5", "--direction", "3"],
    "are": ["are", "--alphas", "0,0.5,1"],
    "power": ["power", "--alphas", "0,0.5", "--dx", "0,10"],
}


class TestReportFormats:
    @pytest.mark.parametrize("stem", sorted(TABLE_RUNS))
    def test_json_holds_the_csv_table(self, tmp_path, stem):
        argv = TABLE_RUNS[stem]
        assert main(argv + ["--output", str(tmp_path / "c")]) == EXIT_OK
        assert main(argv + ["--format", "json", "--output", str(tmp_path / "j")]) == EXIT_OK
        with open(tmp_path / "c" / f"{stem}.csv") as handle:
            header, *rows = list(csv.reader(handle))
        table = json.loads((tmp_path / "j" / f"{stem}.json").read_text())
        assert table["columns"] == header
        assert [[str(v) for v in row] for row in table["rows"]] == rows
        assert (tmp_path / "j" / f"{stem}.json.manifest.json").exists()

    def test_influence_cells_are_numbers(self, tmp_path):
        # every cell parses as a float equal to the JSON value of the same run
        argv = ["influence", "--data", "first_word", "--direction", "3"]
        assert main(argv + ["--output", str(tmp_path / "c")]) == EXIT_OK
        assert main(argv + ["--format", "json", "--output", str(tmp_path / "j")]) == EXIT_OK
        with open(tmp_path / "c" / "influence.csv") as handle:
            rows = list(csv.reader(handle))[1:]
        table = json.loads((tmp_path / "j" / "influence.json").read_text())
        assert len(rows) == len(table["rows"]) == 606
        for row, expected in zip(rows, table["rows"]):
            assert [float(cell) for cell in row] == expected

    def test_influence_summary_written_once(self, tmp_path):
        # the summary lives in influence_summary.json only, in either format
        argv = ["influence", "--data", "first_word", "--direction", "3", "--format", "json"]
        assert main(argv + ["--output", str(tmp_path)]) == EXIT_OK
        table = json.loads((tmp_path / "influence.json").read_text())
        assert sorted(table) == ["columns", "rows"]
        summary = json.loads((tmp_path / "influence_summary.json").read_text())
        assert sorted(summary) == [str(a) for a in cli.DEFAULT_ALPHAS]


class TestEveryOptionIsRead:
    """Each option a subcommand parses changes what it does: the command
    reads it.  The manifest records options through ``vars()``, which does
    not count as a read."""

    @staticmethod
    def run_recording(argv):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if not name.startswith("__"):
                    reads.add(name)
                return super().__getattribute__(name)

        args = build_parser().parse_args(argv, namespace=Recording())
        func = args.func
        parsed = set(vars(args)) - {"func"}
        reads.clear()
        assert func(args) == EXIT_OK
        return parsed - reads

    def test_data_subcommands_on_a_user_csv(self, tmp_path):
        data = ["--data", str(user_csv(tmp_path)), "--response", "y", "--covariates", "x1,x2"]
        runs = [
            ["fit", "--alphas", "0,0.5"],
            ["test", "--alphas", "0,0.5", "--null", "beta1=2"],
            ["influence", "--alphas", "0,0.5", "--t-grid", "0,2,3"],
        ]
        for argv in runs:
            unread = self.run_recording(argv + data + ["--output", str(tmp_path / argv[0])])
            assert not unread, (argv[0], unread)

    @pytest.mark.parametrize("stem", ["are", "power"])
    def test_tables_without_data(self, tmp_path, stem):
        assert not self.run_recording(TABLE_RUNS[stem] + ["--output", str(tmp_path)])

    def test_simulate(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(CONFIG)
        argv = ["simulate", "--config", str(cfg), "--output", str(tmp_path / "o")]
        assert not self.run_recording(argv)


@pytest.fixture
def one_unconverged(monkeypatch):
    """Every fit path the CLI runs reports its largest alpha unconverged."""
    fit_rp_path = cli.fit_rp_path

    def path(data, alphas, options=None):
        fits = fit_rp_path(data, alphas, options)
        last = max(fits)
        fits[last] = dataclasses.replace(fits[last], converged=False)
        return fits

    monkeypatch.setattr(cli, "fit_rp_path", path)


class TestNonconvergedExitCode:
    @pytest.mark.parametrize("stem", ["fit", "test", "influence"])
    def test_reports_written_and_exit_3(self, tmp_path, one_unconverged, stem):
        argv = TABLE_RUNS[stem] + ["--format", "json", "--output", str(tmp_path)]
        assert main(argv) == EXIT_NONCONVERGED
        table = json.loads((tmp_path / f"{stem}.json").read_text())
        if stem == "influence":
            summary = json.loads((tmp_path / "influence_summary.json").read_text())
            assert [v["converged"] for _, v in sorted(summary.items())] == [True, False]
        else:
            converged = [row[table["columns"].index("converged")] for row in table["rows"]]
            assert converged.count(False) == (2 if stem == "fit" else 1)


class TestEveryFileIsAnnounced:
    @pytest.mark.parametrize("stem", sorted(TABLE_RUNS) + ["simulate"])
    def test_printed_with_a_manifest(self, tmp_path, capsys, stem):
        if stem == "simulate":
            cfg = tmp_path / "study.cfg"
            cfg.write_text(CONFIG)
            argv = ["simulate", "--config", str(cfg)]
        else:
            argv = TABLE_RUNS[stem]
        out = tmp_path / "out"
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        printed = sorted(capsys.readouterr().out.splitlines())
        reports = sorted(p for p in out.iterdir() if not p.name.endswith(".manifest.json"))
        assert printed == [f"wrote {p}" for p in reports]
        for report in reports:
            manifest = json.loads(Path(f"{report}.manifest.json").read_text())
            assert manifest["command"] == argv[0]
