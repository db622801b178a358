"""Report rendering: strict JSON machine format and fixed human layout."""

import json
import math

import numpy as np
import pytest

from varsearch import (
    CriterionKind,
    ModelConfig,
    RunConfig,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    SimulationReport,
    ForecastReport,
    compare_with_ols,
    exhaustive_search,
    fit,
    forecast,
    parse_report,
    random_stable_coefficients,
    write_report,
)

from .conftest import make_dataset, noisy_dataset
from .test_engines import rank_one_drive


@pytest.fixture
def counting_fit():
    ds = make_dataset([1.0, 2.0, 3.0, 4.0], names=("y",))
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
    return ds, fit(ds, cfg)


RUN = RunConfig(command="fit", settings={"criterion": "aic", "seed": 3})


class TestHumanFormat:
    def test_exact_fit_coefficients_rendered_to_six_digits(self, counting_fit):
        ds, result = counting_fit
        text = write_report(result, "human", RUN, names=ds.names).decode("utf-8")
        assert "A_1:" in text
        assert "C:" in text
        assert "1.00000" in text
        assert "degenerate fit: sigma is singular, so the criteria are -inf" in text

    @pytest.mark.parametrize("scale", [1.0, 1e8])
    def test_singular_fit_far_from_perfect_is_not_called_perfect(self, scale):
        # y driven by a rank-one B z: without lag 1 of z the residuals have
        # rank one, a singular sigma, yet they are far from zero
        ds = rank_one_drive(scale)
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True, False))
        result = fit(ds, cfg)
        assert result.degenerate
        y = ds.observations[result.row_start :, :2]
        assert np.linalg.norm(result.residuals) > 0.05 * np.linalg.norm(y)
        text = write_report(result, "human", RUN, names=ds.names).decode("utf-8")
        assert "sigma is singular" in text
        assert "perfect" not in text
        report = compare_with_ols(
            ds, cfg, CriterionKind.AIC, SearchMethod.GA, SearchBudget(60, master_seed=1)
        )
        assert report.degenerate
        text = write_report(report, "human", RUN, names=ds.names).decode("utf-8")
        assert "least-squares sigma is singular (degenerate)" in text
        assert "perfect" not in text

    def test_header_names_command_and_settings(self, counting_fit):
        ds, result = counting_fit
        text = write_report(result, "human", RUN, names=ds.names).decode("utf-8")
        first, second = text.splitlines()[:2]
        assert first.startswith("varsearch fit report (tool version ")
        assert second == "settings: criterion=aic, seed=3"

    def test_settings_sorted_by_key(self, counting_fit):
        _, result = counting_fit
        run = RunConfig(command="fit", settings={"zeta": 1, "alpha": 2})
        text = write_report(result, "human", run).decode("utf-8")
        assert "settings: alpha=2, zeta=1" in text

    def test_returns_bytes(self, counting_fit):
        _, result = counting_fit
        out = write_report(result, "human", RUN)
        assert isinstance(out, bytes)
        assert out.endswith(b"\n")


class TestMachineFormat:
    def test_document_envelope(self, counting_fit):
        ds, result = counting_fit
        raw = write_report(result, "json", RUN, names=ds.names)
        doc = parse_report(raw)
        assert doc["schema_version"] == 1
        assert doc["tool"]["name"] == "varsearch"
        assert doc["kind"] == "fit"
        assert doc["run"]["command"] == "fit"
        assert doc["run"]["settings"] == {"criterion": "aic", "seed": 3}

    def test_non_finite_floats_survive_round_trip(self, counting_fit):
        ds, result = counting_fit
        doc = parse_report(write_report(result, "json", RUN, names=ds.names))
        criteria = doc["result"]["criteria"]
        assert criteria["aic"] == -math.inf
        assert criteria["bic"] == -math.inf

    def test_raw_text_is_standard_json(self, counting_fit):
        ds, result = counting_fit
        raw = write_report(result, "json", RUN, names=ds.names).decode("utf-8")

        def reject_bare_token(token):
            raise AssertionError(f"bare non-finite token {token!r} in report")

        plain = json.loads(raw, parse_constant=reject_bare_token)
        assert plain["result"]["criteria"]["aic"] == {"$float": "-Infinity"}

    def test_every_non_finite_float_is_wrapped_and_revived(self, counting_fit):
        ds, result = counting_fit
        run = RunConfig(
            command="fit", settings={"a": math.nan, "b": math.inf, "c": -math.inf}
        )
        raw = write_report(result, "json", run, names=ds.names)
        plain = json.loads(raw)["run"]["settings"]
        assert plain == {
            "a": {"$float": "NaN"},
            "b": {"$float": "Infinity"},
            "c": {"$float": "-Infinity"},
        }
        settings = parse_report(raw)["run"]["settings"]
        assert math.isnan(settings["a"])
        assert (settings["b"], settings["c"]) == (math.inf, -math.inf)

    def test_nan_revival(self):
        assert math.isnan(parse_report('{"x": {"$float": "NaN"}}')["x"])
        assert parse_report('{"x": {"$float": "Infinity"}}')["x"] == math.inf

    def test_byte_identical_across_calls(self, counting_fit):
        ds, result = counting_fit
        first = write_report(result, "json", RUN, names=ds.names)
        second = write_report(result, "json", RUN, names=ds.names)
        assert first == second

    def test_search_report_round_trip(self):
        ds = noisy_dataset(seed=0, n=2, p=2, t=150, noise=0.5)
        space = SearchSpace(p_max=4)
        result = exhaustive_search(ds, space, CriterionKind.BIC, SearchBudget(4))
        run = RunConfig(command="select", settings={"method": "exhaustive"})
        doc = parse_report(write_report(result, "json", run, names=ds.names))
        assert doc["kind"] == "search"
        assert doc["result"]["best_value"] == result.best_value
        assert doc["result"]["evaluations_used"] == result.evaluations_used
        assert doc["result"]["best"]["config"]["p"] == result.best_config.p

    def test_forecast_and_simulation_kinds(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], names=("y",))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
        result = fit(ds, cfg)
        path = forecast(ds, result, horizon=2)
        fr = ForecastReport(values=path, columns=("y",), horizon=2)
        doc = parse_report(write_report(fr, "json", RunConfig(command="forecast")))
        assert doc["kind"] == "forecast"
        np.testing.assert_allclose(doc["result"]["values"], [[5.0], [6.0]], atol=1e-9)

        coef = random_stable_coefficients(n=1, p=1, seed=0)
        sim = SimulationReport(
            names=("y1",), t=10, burn_in=2, seed=7, noise_scale=0.5,
            radius=0.9, coefficients=coef,
        )
        doc = parse_report(write_report(sim, "json", RunConfig(command="simulate")))
        assert doc["kind"] == "simulation"
        assert doc["result"]["seed"] == 7


class TestErrors:
    def test_unknown_format(self, counting_fit):
        _, result = counting_fit
        with pytest.raises(ValueError, match="format"):
            write_report(result, "xml", RUN)

    def test_unknown_result_type(self):
        with pytest.raises(TypeError, match="report writer"):
            write_report(object(), "json", RUN)
