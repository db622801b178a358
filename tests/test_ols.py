"""Least-squares solver: exactness, rank handling, optimality."""

from unittest import mock

import numpy as np
import pytest

from varsearch import (
    ModelConfig,
    NumericOverflowError,
    RankDeficientError,
    Role,
    TimeSeriesDataset,
    build_regression_system,
    fit,
    residual_covariance,
    solve_least_squares,
    unflatten_coefficients,
)

from varsearch import ols

from .conftest import make_dataset, noisy_dataset


def test_consistent_system_solved_exactly(counting_series, counting_config):
    sys = build_regression_system(counting_series, counting_config)
    theta = solve_least_squares(sys)
    np.testing.assert_allclose(theta, [[1.0], [1.0]], atol=1e-14)


def test_duplicated_column_raises_rank_deficient():
    # z is an exact copy of y, so the lag blocks collide
    y = np.random.default_rng(0).normal(size=30)
    ds = TimeSeriesDataset(
        observations=np.column_stack([y, y]),
        names=("y", "z"),
        roles=(Role.DEPENDENT, Role.INDEPENDENT),
    )
    cfg = ModelConfig(p=1, q=1, dependent_mask=(True, False))
    sys = build_regression_system(ds, cfg)
    with pytest.raises(RankDeficientError) as info:
        solve_least_squares(sys)
    assert info.value.detected_rank < info.value.n_columns


def test_recovers_planted_coefficients():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(50, 5))
    theta_true = rng.normal(size=(5, 2))
    y = x @ theta_true
    ds = make_dataset(np.zeros((10, 1)))
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
    from varsearch.design import RegressionSystem

    sys = RegressionSystem(y=y, x=x, config=cfg, row_start=1)
    theta = solve_least_squares(sys)
    rel = np.linalg.norm(theta - theta_true) / np.linalg.norm(theta_true)
    assert rel <= 1e-10


class TestUnflatten:
    def test_univariate_blocks(self, counting_series, counting_config):
        coef = unflatten_coefficients(
            np.array([[1.0], [1.0]]), counting_config, counting_series
        )
        np.testing.assert_array_equal(coef.a[0], [[1.0]])
        np.testing.assert_array_equal(coef.c, [[1.0]])

    def test_exogenous_blocks(self, mixed_dataset):
        cfg = ModelConfig(p=1, q=1, dependent_mask=(True, False))
        coef = unflatten_coefficients(
            np.array([[2.0], [3.0], [4.0]]), cfg, mixed_dataset
        )
        np.testing.assert_array_equal(coef.a[0], [[2.0]])
        np.testing.assert_array_equal(coef.b[0], [[3.0]])
        np.testing.assert_array_equal(coef.c, [[4.0]])

    def test_round_trip(self):
        ds = make_dataset(
            np.random.default_rng(1).normal(size=(60, 3)),
            roles=(Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT),
        )
        cfg = ModelConfig(p=2, q=2, dependent_mask=(True, True, False))
        k = cfg.n_design_columns()
        theta = np.random.default_rng(2).normal(size=(k, 2))
        coef = unflatten_coefficients(theta, cfg, ds)
        np.testing.assert_array_equal(coef.flatten(), theta)

    def test_accepts_flat_vector(self, counting_series, counting_config):
        coef = unflatten_coefficients(
            np.array([5.0, 6.0]), counting_config, counting_series
        )
        np.testing.assert_array_equal(coef.a[0], [[5.0]])
        np.testing.assert_array_equal(coef.c, [[6.0]])

    def test_dimension_mismatch_raises(self, counting_series, counting_config):
        with pytest.raises(ValueError, match="expected"):
            unflatten_coefficients(
                np.ones((3, 1)), counting_config, counting_series
            )


class TestResidualCovariance:
    def test_exact_fit_gives_zero_sigma(self, counting_series, counting_config):
        sys = build_regression_system(counting_series, counting_config)
        theta = solve_least_squares(sys)
        residuals, sigma = residual_covariance(sys, theta)
        np.testing.assert_allclose(residuals, 0.0, atol=1e-13)
        np.testing.assert_allclose(sigma, 0.0, atol=1e-13)

    def test_ml_divisor(self):
        # residuals (1, -1) with T' = 2 average to variance 1
        from varsearch.design import RegressionSystem

        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
        sys = RegressionSystem(
            y=np.array([[1.0], [-1.0]]),
            x=np.zeros((2, 1)),
            config=cfg,
            row_start=1,
        )
        _, sigma = residual_covariance(sys, np.array([[0.0]]))
        np.testing.assert_allclose(sigma, [[1.0]])

    def test_sigma_symmetric_psd(self):
        ds = noisy_dataset(seed=5, n=3, p=1, t=150)
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,) * 3)
        sys = build_regression_system(ds, cfg)
        theta = solve_least_squares(sys)
        _, sigma = residual_covariance(sys, theta)
        np.testing.assert_allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma).min() >= -1e-12


class TestFit:
    def test_exact_recurrence(self, counting_series, counting_config):
        result = fit(counting_series, counting_config)
        np.testing.assert_allclose(result.coefficients.a[0], [[1.0]], atol=1e-12)
        np.testing.assert_allclose(result.coefficients.c, [[1.0]], atol=1e-12)
        assert result.degenerate
        assert all(v == -np.inf for v in result.criterion_values.values())

    def test_row_start_override_changes_sample(self):
        ds = noisy_dataset(seed=9, n=2, p=1, t=100)
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True))
        natural = fit(ds, cfg)
        common = fit(ds, cfg, row_start=4)
        assert natural.effective_t == 99
        assert common.effective_t == 96

    def test_bit_identical_reruns(self):
        ds = noisy_dataset(seed=11, n=2, p=2, t=120)
        cfg = ModelConfig(p=2, q=0, dependent_mask=(True, True))
        first = fit(ds, cfg)
        second = fit(ds, cfg)
        np.testing.assert_array_equal(
            first.coefficients.flatten(), second.coefficients.flatten()
        )
        assert first.criterion_values == second.criterion_values

    def test_overflowing_residuals_raise_typed_error(
        self, counting_series, counting_config
    ):
        # ||Y|| is finite here, but E'E of these coefficients overflows
        def huge(sys):
            return np.full((sys.x.shape[1], sys.y.shape[1]), 1e300)

        with mock.patch.object(ols, "solve_least_squares", huge):
            with pytest.raises(NumericOverflowError):
                fit(counting_series, counting_config)


def test_residual_orthogonality():
    """X' E vanishes relative to the problem scale for every valid fit."""
    cases = [
        (noisy_dataset(seed=1, n=1, p=1, t=80), ModelConfig(1, 0, (True,))),
        (noisy_dataset(seed=2, n=2, p=2, t=150),
         ModelConfig(2, 0, (True, True))),
        (noisy_dataset(seed=3, n=2, p=1, d=1, q=1, t=150),
         ModelConfig(1, 1, (True, True, False))),
        (noisy_dataset(seed=4, n=3, p=3, t=250),
         ModelConfig(3, 0, (True,) * 3, include_constant=False)),
    ]
    for ds, cfg in cases:
        sys = build_regression_system(ds, cfg)
        result = fit(ds, cfg)
        bound = 1e-8 * np.linalg.norm(sys.x) * np.linalg.norm(sys.y)
        assert np.abs(sys.x.T @ result.residuals).max() <= bound


def test_ols_beats_random_perturbations():
    """ln det of the residual covariance is minimal at the OLS solution."""
    from varsearch import log_det_cov

    ds = noisy_dataset(seed=21, n=2, p=2, t=200)
    cfg = ModelConfig(p=2, q=0, dependent_mask=(True, True))
    sys = build_regression_system(ds, cfg)
    theta = solve_least_squares(sys)
    _, sigma = residual_covariance(sys, theta)
    base = log_det_cov(sigma)
    rng = np.random.default_rng(99)
    for _ in range(100):
        perturbed = theta + rng.normal(0.0, 0.05, size=theta.shape)
        _, sigma_p = residual_covariance(sys, perturbed)
        assert log_det_cov(sigma_p) >= base - 1e-9
