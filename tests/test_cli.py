"""Command-line interface: exit codes, artifacts, reproducibility."""

import subprocess
import sys

import numpy as np
import pytest

from varsearch import load_dataset, parse_report, read_matrix_csv, write_csv
from varsearch.cli import cli_main


@pytest.fixture
def counting_csv(tmp_path):
    path = tmp_path / "counting.csv"
    path.write_text("y\n1\n2\n3\n4\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def noisy_csv(tmp_path):
    rng = np.random.default_rng(0)
    y = np.zeros((80, 2))
    for j in range(1, 80):
        y[j] = y[j - 1] @ np.array([[0.5, 0.1], [0.0, 0.4]]) + rng.normal(
            scale=0.5, size=2
        )
    path = tmp_path / "noisy.csv"
    write_csv(path, ("y1", "y2"), y)
    return str(path)


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_main(["fit"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_unknown_flag_is_usage_error(self, counting_csv):
        assert cli_main(["fit", "--input", counting_csv, "--p", "1", "--bogus"]) == 1

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        rc = cli_main(["fit", "--input", str(tmp_path / "nope.csv"), "--p", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_cell_is_runtime_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a\n1\nabc\n", encoding="utf-8")
        assert cli_main(["fit", "--input", str(bad), "--p", "1"]) == 2

    def test_bad_criterion_is_runtime_error(self, counting_csv):
        rc = cli_main(
            ["fit", "--input", counting_csv, "--p", "1", "--criterion", "aicc"]
        )
        assert rc == 2

    def test_bad_method_is_runtime_error(self, noisy_csv):
        rc = cli_main(
            ["select", "--input", noisy_csv, "--p-max", "2", "--method", "anneal"]
        )
        assert rc == 2

    def test_collinear_data_is_runtime_error(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("y\n2\n2\n2\n2\n2\n", encoding="utf-8")
        assert cli_main(["fit", "--input", str(path), "--p", "1"]) == 2

    def test_unknown_partition_column_is_runtime_error(self, noisy_csv):
        rc = cli_main(
            [
                "select", "--input", noisy_csv, "--p-max", "2",
                "--search-partition", "zz",
            ]
        )
        assert rc == 2

    def test_forecast_without_future_values_is_runtime_error(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "exog.csv"
        write_csv(path, ("y", "z"), rng.normal(size=(60, 2)))
        rc = cli_main(
            [
                "forecast", "--input", str(path), "--dependent", "y",
                "--p", "1", "--q", "1", "--horizon", "3",
            ]
        )
        assert rc == 2


class TestFit:
    def test_prints_criteria(self, counting_csv, capsys):
        assert cli_main(["fit", "--input", counting_csv, "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "AIC =" in out and "BIC =" in out and "HQC =" in out
        assert "A_1:" in out

    def test_json_artifact_is_reproducible(self, counting_csv, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for target in (first, second):
            rc = cli_main(
                [
                    "fit", "--input", counting_csv, "--p", "1",
                    "--out-json", str(target),
                ]
            )
            assert rc == 0
        assert first.read_bytes() == second.read_bytes()
        doc = parse_report(first.read_bytes())
        assert doc["kind"] == "fit"
        assert doc["run"]["settings"]["p"] == 1

    def test_out_writes_human_report(self, counting_csv, tmp_path, capsys):
        target = tmp_path / "report.txt"
        cli_main(["fit", "--input", counting_csv, "--p", "1", "--out", str(target)])
        assert target.read_text(encoding="utf-8") == capsys.readouterr().out


class TestSelect:
    def test_metaheuristic_without_budget_runs(self, noisy_csv, capsys):
        rc = cli_main(
            [
                "select", "--input", noisy_csv, "--method", "ga",
                "--criterion", "bic", "--p-max", "4", "--seed", "42",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget=1000" in out
        assert "method = ga" in out

    def test_exhaustive_default(self, noisy_csv, capsys):
        rc = cli_main(["select", "--input", noisy_csv, "--p-max", "3"])
        assert rc == 0
        assert "method = exhaustive" in capsys.readouterr().out

    def test_workers_flag_removed(self, noisy_csv, capsys):
        rc = cli_main(
            ["select", "--input", noisy_csv, "--p-max", "2", "--workers", "2"]
        )
        assert rc == 1
        assert "--workers" in capsys.readouterr().err

    def test_search_partition_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        path = tmp_path / "three.csv"
        write_csv(path, ("y", "u", "v"), rng.normal(size=(70, 3)))
        rc = cli_main(
            [
                "select", "--input", str(path), "--dependent", "y",
                "--p-max", "2", "--q-max", "1",
                "--search-partition", "u", "--search-partition", "v",
                "--budget", "30", "--seed", "1", "--method", "grasp",
            ]
        )
        assert rc == 0


class TestCoefficientCommands:
    def test_search_coeffs(self, noisy_csv, tmp_path, capsys):
        target = tmp_path / "sc.json"
        rc = cli_main(
            [
                "search-coeffs", "--input", noisy_csv, "--p", "1",
                "--method", "tabu", "--budget", "120", "--seed", "5",
                "--out-json", str(target),
            ]
        )
        assert rc == 0
        doc = parse_report(target.read_bytes())
        assert doc["kind"] == "coefficient-search"
        assert doc["result"]["evaluations_used"] <= 120

    def test_compare_reports_gap(self, noisy_csv, tmp_path, capsys):
        target = tmp_path / "cmp.json"
        rc = cli_main(
            [
                "compare", "--input", noisy_csv, "--p", "1",
                "--method", "ga", "--budget", "200", "--seed", "4",
                "--out-json", str(target),
            ]
        )
        assert rc == 0
        doc = parse_report(target.read_bytes())
        assert doc["kind"] == "comparison"
        assert doc["result"]["gap"] >= -1e-9
        assert "gap (search - ols)" in capsys.readouterr().out

    def test_exhaustive_rejected_for_coefficients(self, noisy_csv, capsys):
        rc = cli_main(
            [
                "search-coeffs", "--input", noisy_csv, "--p", "1",
                "--method", "exhaustive", "--budget", "10",
            ]
        )
        assert rc == 1
        assert "coefficient space" in capsys.readouterr().err


class TestSimulate:
    def test_stdout_csv_is_loadable(self, capsys, tmp_path):
        rc = cli_main(
            ["simulate", "--n-vars", "2", "--t", "50", "--p", "2", "--seed", "3"]
        )
        assert rc == 0
        text = capsys.readouterr().out
        path = tmp_path / "sim.csv"
        path.write_text(text, encoding="utf-8")
        ds = load_dataset(path)
        assert ds.names == ("y1", "y2")
        assert ds.n_obs == 50

    def test_out_file_plus_metadata(self, tmp_path, capsys):
        csv_path = tmp_path / "sim.csv"
        json_path = tmp_path / "sim.json"
        rc = cli_main(
            [
                "simulate", "--n-vars", "1", "--t", "40", "--n-exog", "1",
                "--noise", "0.5", "--seed", "6",
                "--out", str(csv_path), "--out-json", str(json_path),
            ]
        )
        assert rc == 0
        names, matrix = read_matrix_csv(csv_path)
        assert names == ("y1", "z1")
        assert matrix.shape == (40, 2)
        doc = parse_report(json_path.read_bytes())
        assert doc["kind"] == "simulation"
        assert doc["result"]["seed"] == 6
        assert "simulation" in capsys.readouterr().out

    def test_same_seed_same_csv(self, tmp_path):
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            rc = cli_main(
                [
                    "simulate", "--n-vars", "2", "--t", "30", "--seed", "11",
                    "--out", str(path),
                ]
            )
            assert rc == 0
            texts.append(path.read_text(encoding="utf-8"))
        assert texts[0] == texts[1]

    def test_exog_q_consistency_errors(self, capsys):
        assert cli_main(
            ["simulate", "--n-vars", "1", "--t", "20", "--q", "1"]
        ) == 2
        assert cli_main(
            ["simulate", "--n-vars", "1", "--t", "20", "--n-exog", "1", "--q", "0"]
        ) == 2


class TestForecast:
    def test_counting_series_forecast(self, counting_csv, tmp_path, capsys):
        out_csv = tmp_path / "fc.csv"
        out_json = tmp_path / "fc.json"
        rc = cli_main(
            [
                "forecast", "--input", counting_csv, "--p", "1",
                "--horizon", "3", "--out", str(out_csv),
                "--out-json", str(out_json),
            ]
        )
        assert rc == 0
        names, matrix = read_matrix_csv(out_csv)
        assert names == ("y",)
        np.testing.assert_allclose(matrix, [[5.0], [6.0], [7.0]], atol=1e-9)
        doc = parse_report(out_json.read_bytes())
        assert doc["kind"] == "forecast"
        assert doc["result"]["horizon"] == 3
        assert "forecast" in capsys.readouterr().out

    def test_future_input_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        data = tmp_path / "exog.csv"
        write_csv(data, ("y", "z"), rng.normal(size=(60, 2)))
        future = tmp_path / "future.csv"
        write_csv(future, ("z",), rng.normal(size=(2, 1)))
        out_csv = tmp_path / "fc.csv"
        rc = cli_main(
            [
                "forecast", "--input", str(data), "--dependent", "y",
                "--p", "1", "--q", "1", "--horizon", "3",
                "--future-input", str(future), "--out", str(out_csv),
            ]
        )
        assert rc == 0
        names, matrix = read_matrix_csv(out_csv)
        assert matrix.shape == (3, 1)


def test_module_entry_point_reports_version():
    proc = subprocess.run(
        [sys.executable, "-m", "varsearch.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()
