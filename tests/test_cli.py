"""Command-line interface: reports, manifests, determinism, exit codes."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from renyireg import cli
from renyireg.cli import EXIT_ERROR, EXIT_NONCONVERGED, EXIT_OK, main


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


class TestInfluence:
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
