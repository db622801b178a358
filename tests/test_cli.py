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

    def test_overflowing_data_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        huge = np.random.default_rng(0).normal(size=(40, 2)) * 1e160
        write_csv(path, ("y1", "y2"), huge)
        assert cli_main(["select", "--input", str(path), "--p-max", "2"]) == 2
        assert "overflow" in capsys.readouterr().err

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

    def test_same_seed_same_csv(self, tmp_path, capsys):
        # past one block of rows, written to --out twice and streamed to stdout
        argv = ["simulate", "--n-vars", "2", "--n-exog", "1", "--t", "4200", "--seed", "11"]
        texts = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            assert cli_main(argv + ["--out", str(path)]) == 0
            texts.append(path.read_text(encoding="utf-8"))
        capsys.readouterr()
        assert cli_main(argv) == 0
        texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2]

    def test_exog_q_consistency_errors(self, capsys):
        assert cli_main(
            ["simulate", "--n-vars", "1", "--t", "20", "--q", "1"]
        ) == 2
        assert cli_main(
            ["simulate", "--n-vars", "1", "--t", "20", "--n-exog", "1", "--q", "0"]
        ) == 2

    @pytest.mark.parametrize("sizes", [["--q", "-1"], ["--n-exog", "-1", "--q", "0"]])
    def test_negative_exog_sizes_error(self, capsys, sizes):
        assert cli_main(["simulate", "--n-vars", "1", "--t", "5", *sizes]) == 2
        assert capsys.readouterr().out == ""

    def test_a_seed_outside_64_bits_errors(self, tmp_path, capsys):
        # -1 and 2**64 would alias 2**64 - 1 and 0, yet the report records
        # each seed as typed, so they are refused as select refuses them
        argv = ["simulate", "--n-vars", "1", "--t", "20", "--out"]
        for seed in (-1, 2**64):
            path = tmp_path / f"refused{seed}.csv"
            assert cli_main(argv + [str(path), "--seed", str(seed)]) == 2
            assert "unsigned 64-bit" in capsys.readouterr().err
            assert not path.exists()
        path = tmp_path / "largest.csv"
        assert cli_main(argv + [str(path), "--seed", str(2**64 - 1)]) == 0
        assert read_matrix_csv(path)[1].shape == (20, 1)


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


@pytest.fixture
def contract_files(tmp_path):
    rng = np.random.default_rng(12)
    data = tmp_path / "data.csv"
    write_csv(data, ("y1", "y2", "z"), rng.normal(size=(60, 3)))
    future = tmp_path / "future.csv"
    write_csv(future, ("y2", "z"), rng.normal(size=(2, 2)))
    return {"data": str(data), "future": str(future)}


# (argv with {data}/{future} placeholders, the exact settings recorded).
# The settings are the flags as given, ``constant``, the sorted role lists
# where the command has role flags, and the values the command resolved
# (the canonical criterion of every command that takes one, the canonical
# method of select and the coefficient commands, the budget default,
# simulate's q).
_CONTRACT_CASES = {
    "fit": (
        "fit --input {data} --p 1 --criterion BIC --dependent y2 --dependent y1",
        {
            "input": "{data}", "criterion": "bic", "p": 1, "q": 0,
            "constant": True, "dependent": ["y1", "y2"], "independent": [],
        },
    ),
    "select-exhaustive": (
        "select --input {data} --p-max 2 --method Exhaustive --criterion HQC "
        "--independent z --no-constant",
        {
            "input": "{data}", "criterion": "hqc", "method": "exhaustive",
            "p_max": 2, "q_max": 0, "search_partition": [], "budget": None,
            "stagnation": 200, "seed": 0, "constant": False,
            "dependent": [], "independent": ["z"],
        },
    ),
    "select-tabu": (
        "select --input {data} --dependent y1 --p-max 2 --q-max 1 "
        "--search-partition z --search-partition y2 --method TABU --seed 3",
        {
            "input": "{data}", "criterion": "aic", "method": "tabu",
            "p_max": 2, "q_max": 1, "search_partition": ["y2", "z"],
            "budget": 1000, "stagnation": 200, "seed": 3, "constant": True,
            "dependent": ["y1"], "independent": [],
        },
    ),
    "search-coeffs": (
        "search-coeffs --input {data} --p 1 --method Grasp --criterion Bic "
        "--budget 40 --stagnation 15 --seed 2 --dependent y1 "
        "--independent z --independent y2",
        {
            "input": "{data}", "criterion": "bic", "method": "grasp",
            "p": 1, "q": 0, "budget": 40, "stagnation": 15, "seed": 2,
            "constant": True, "dependent": ["y1"], "independent": ["y2", "z"],
        },
    ),
    "compare": (
        "compare --input {data} --p 1 --q 1 --method ga --budget 40 "
        "--independent z",
        {
            "input": "{data}", "criterion": "aic", "method": "ga",
            "p": 1, "q": 1, "budget": 40, "stagnation": 200, "seed": 0,
            "constant": True, "dependent": [], "independent": ["z"],
        },
    ),
    "simulate": (
        "simulate --n-vars 2 --t 30 --n-exog 1 --noise 0.5 --seed 4",
        {
            "n_vars": 2, "t": 30, "p": 1, "n_exog": 1, "q": 1, "noise": 0.5,
            "radius": 0.9, "burn_in": 100, "seed": 4, "constant": True,
        },
    ),
    "forecast": (
        "forecast --input {data} --p 1 --criterion Hqc --horizon 2 "
        "--dependent y1 --dependent y2",
        {
            "input": "{data}", "criterion": "hqc", "p": 1, "q": 0,
            "horizon": 2, "constant": True, "future_input": None,
            "dependent": ["y1", "y2"], "independent": [],
        },
    ),
    "forecast-future": (
        "forecast --input {data} --dependent y1 --p 1 --q 1 --horizon 2 "
        "--future-input {future}",
        {
            "input": "{data}", "criterion": "aic", "p": 1, "q": 1,
            "horizon": 2, "constant": True, "future_input": "{future}",
            "dependent": ["y1"], "independent": [],
        },
    ),
}

# the literal settings line of each case's human report
_CONTRACT_LINES = {
    "fit": "settings: constant=True, criterion=bic, dependent=['y1', 'y2'], "
    "independent=[], input={data}, p=1, q=0",
    "select-exhaustive": "settings: budget=None, constant=False, criterion=hqc, "
    "dependent=[], independent=['z'], input={data}, method=exhaustive, "
    "p_max=2, q_max=0, search_partition=[], seed=0, stagnation=200",
    "select-tabu": "settings: budget=1000, constant=True, criterion=aic, "
    "dependent=['y1'], independent=[], input={data}, method=tabu, p_max=2, "
    "q_max=1, search_partition=['y2', 'z'], seed=3, stagnation=200",
    "search-coeffs": "settings: budget=40, constant=True, criterion=bic, "
    "dependent=['y1'], independent=['y2', 'z'], input={data}, method=grasp, "
    "p=1, q=0, seed=2, stagnation=15",
    "compare": "settings: budget=40, constant=True, criterion=aic, "
    "dependent=[], independent=['z'], input={data}, method=ga, p=1, q=1, "
    "seed=0, stagnation=200",
    "simulate": "settings: burn_in=100, constant=True, n_exog=1, n_vars=2, "
    "noise=0.5, p=1, q=1, radius=0.9, seed=4, t=30",
    "forecast": "settings: constant=True, criterion=hqc, dependent=['y1', 'y2'], "
    "future_input=None, horizon=2, independent=[], input={data}, p=1, q=0",
    "forecast-future": "settings: constant=True, criterion=aic, "
    "dependent=['y1'], future_input={future}, horizon=2, independent=[], "
    "input={data}, p=1, q=1",
}


def _fill(value, files):
    if isinstance(value, str):
        return value.format(**files)
    if isinstance(value, list):
        return [_fill(v, files) for v in value]
    if isinstance(value, dict):
        return {k: _fill(v, files) for k, v in value.items()}
    return value


@pytest.mark.parametrize("outputs", ["none", "json", "both"])
@pytest.mark.parametrize("case", sorted(_CONTRACT_CASES))
def test_settings_and_artifact_routing(case, outputs, contract_files, tmp_path, capsys):
    """Each command records its settings by one rule and routes its output:
    stdout the human report (simulate without --out: the CSV), --out the
    command's artifact (the human report when it has none), --out-json the
    JSON report."""
    argv_text, expected = _CONTRACT_CASES[case]
    command = argv_text.split()[0]
    argv = argv_text.format(**contract_files).split()
    expected = _fill(expected, contract_files)
    settings_line = _fill(_CONTRACT_LINES[case], contract_files)
    out_path = tmp_path / "artifact.out"
    json_path = tmp_path / "report.json"
    if outputs == "both":
        argv += ["--out", str(out_path)]
    if outputs in ("json", "both"):
        argv += ["--out-json", str(json_path)]

    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    stdout = captured.out
    csv_artifact = {"simulate": "y1,y2,z1\n", "forecast": "y1"}.get(command)

    if command == "simulate" and outputs != "both":
        assert stdout.startswith(csv_artifact)
        assert "settings:" not in stdout
    else:
        lines = stdout.splitlines()
        assert lines[0].startswith(f"varsearch {command} report")
        assert lines[1] == settings_line
    if outputs == "both":
        written = out_path.read_text(encoding="utf-8")
        if csv_artifact is None:
            assert written == stdout
        else:
            assert written.startswith(csv_artifact)
            assert "settings:" not in written
    else:
        assert not out_path.exists()
    if outputs == "none":
        assert not json_path.exists()
    else:
        doc = parse_report(json_path.read_bytes())
        assert doc["run"] == {"command": command, "settings": expected}
