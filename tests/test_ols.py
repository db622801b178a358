"""Least-squares solver: exactness, rank handling, optimality."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from varsearch import (
    CoefficientGenome,
    CriterionKind,
    ModelConfig,
    NumericOverflowError,
    RankDeficientError,
    Role,
    TimeSeriesDataset,
    build_regression_system,
    coefficient_fitness,
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


@pytest.mark.parametrize("scale", [1e-150, 1e-12, 1.0, 1e12, 1e150])
def test_rank_verdict_does_not_depend_on_column_scale(scale):
    from varsearch.design import RegressionSystem

    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
    sys = RegressionSystem(y=rng.normal(size=(40, 1)), x=x * [1.0, scale, 1.0],
                           config=cfg, row_start=1)
    assert np.all(np.isfinite(solve_least_squares(sys)))
    # a column that is a scaled copy of another stays deficient at any scale
    x[:, 2] = x[:, 1]
    sys = RegressionSystem(y=sys.y, x=x * [1.0, scale, 1.0], config=cfg, row_start=1)
    with pytest.raises(RankDeficientError) as info:
        solve_least_squares(sys)
    assert info.value.detected_rank == 2


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


@pytest.mark.parametrize("copy", [False, True])
@pytest.mark.parametrize("b_dependent", [False, True])
def test_solve_leaves_its_system_as_it_was(b_dependent, copy):
    # X = [a(t-1) | b(t-1) | 1] is stacked in C order when b is independent
    # and in Fortran order when it is dependent; with b a copy of a, X is
    # deficient and the solve raises after factoring it
    obs = np.random.default_rng(8).normal(size=(40, 2))
    if copy:
        obs[:, 1] = obs[:, 0]
    mask = (True, b_dependent)
    ds = make_dataset(obs, roles=[Role.DEPENDENT if m else Role.INDEPENDENT for m in mask])
    sys = build_regression_system(ds, ModelConfig(p=1, q=1 - b_dependent, dependent_mask=mask))
    assert sys.x.flags.f_contiguous == b_dependent
    before = [(a.tobytes("A"), a.strides) for a in (sys.x, sys.y)]
    if copy:
        with pytest.raises(RankDeficientError):
            solve_least_squares(sys)
    else:
        solve_least_squares(sys)
    assert [(a.tobytes("A"), a.strides) for a in (sys.x, sys.y)] == before


# bytes a fit may hold beyond its arrays of T' rows: R, Theta, Sigma,
# LAPACK's workspace and Python objects (about 14 KB measured)
FIT_SLACK = 64 * 1024


def test_a_fit_holds_its_design_or_its_q_never_both():
    # X or its Q (T' x K), Y and E (T' x n each): (K + 2n) T' doubles at
    # most, where a copy of X next to its Q would add K T' more
    ds = noisy_dataset(seed=5, n=4, p=2, t=20_002)
    cfg = ModelConfig(p=2, q=0, dependent_mask=(True,) * 4)
    first = fit(ds, cfg)
    tracemalloc.start()
    try:
        result = fit(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t, k, n = result.effective_t, cfg.n_design_columns(), cfg.n_dependent
    assert (t, k, n) == (20_000, 9, 4)
    assert peak <= (k + 2 * n) * t * 8 + FIT_SLACK
    assert result.residuals.tobytes() == first.residuals.tobytes()


def test_a_fit_never_holds_its_design_and_its_residuals_at_once():
    # Y is read in place, X (or its Q) is freed before E is made, and E is
    # taken over blocks of X gathered again: K T' doubles at most, where the
    # design and E at once would add n T' more
    ds = noisy_dataset(seed=5, n=4, p=2, t=20_002)
    cfg = ModelConfig(p=2, q=0, dependent_mask=(True,) * 4)
    fit(ds, cfg)
    tracemalloc.start()
    try:
        result = fit(ds, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    t, k = result.effective_t, cfg.n_design_columns()
    assert (t, k) == (20_000, 9)
    assert peak <= k * t * 8 + FIT_SLACK


@pytest.mark.parametrize("n, p", [(2, 1), (3, 3), (4, 2)])
def test_blocked_residuals_are_the_whole_product_bit_for_bit(n, p):
    # E = Y - X Theta is taken over blocks of rows of a Fortran-ordered X,
    # and is the same to the bit as one product over all of X
    ds = noisy_dataset(seed=n + p, n=n, p=p, d=1, q=1, t=3 * 4096 + 50)
    cfg = ModelConfig(p=p, q=1, dependent_mask=(True,) * n + (False,))
    sys = build_regression_system(ds, cfg)
    assert sys.x.flags.f_contiguous and not sys.x.flags.c_contiguous
    result = fit(ds, cfg)
    whole = sys.y - sys.x @ result.coefficients.flatten()
    assert result.residuals.tobytes() == whole.tobytes()
    residuals, sigma = residual_covariance(sys, result.coefficients.flatten())
    assert residuals.tobytes() == whole.tobytes()
    assert sigma.tobytes() == result.sigma.tobytes()


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

    @pytest.mark.parametrize("order", [(0, 1, 2), (0, 2, 1), (2, 1, 0)])
    def test_a_perfect_fit_of_one_equation_is_degenerate(self, order):
        # a constant series is its own lag, so without an intercept its
        # equation is fitted exactly: its residuals are rounding error, 4e-15
        # against ||y|| = 16, beside two equations with residuals near 5.
        # Sigma is singular in exact arithmetic, so the criteria are -inf in
        # every column order, not ln det values of about -70 that move with it
        rng = np.random.default_rng(0)
        obs = np.column_stack([rng.normal(size=(30, 2)), np.full(30, 3.0)])[:, order]
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,) * 3, include_constant=False)
        result = fit(make_dataset(obs), cfg)
        norms = np.sort(np.linalg.norm(result.residuals, axis=0))
        assert norms[0] < 1e-14 and norms[1] > 4.0
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
        def huge(sys, overwrite_x=False):
            return np.full((sys.x.shape[1], sys.y.shape[1]), 1e300)

        with mock.patch.object(ols, "solve_least_squares", huge):
            with pytest.raises(NumericOverflowError):
                fit(counting_series, counting_config)

    @pytest.mark.parametrize("row", ["overflowing sum", "inf"])
    def test_residuals_past_float_range_score_plus_infinity(self, row):
        # an intercept row of -c gives each residual column e'e = 1e308, so
        # every Sigma_ii is finite while E's sum of squares, 2e308, is not;
        # the columns are then nearly equal, and without the test of that
        # sum Sigma would read as singular: -inf, the best possible score
        ds = make_dataset(np.random.default_rng(0).normal(size=(50, 2)))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True))
        theta = np.zeros((3, 2))
        theta[2] = -np.sqrt(1e308 / 49) if row == "overflowing sum" else np.inf
        genome = CoefficientGenome(cfg, theta)
        assert coefficient_fitness(ds, genome, CriterionKind.AIC) == np.inf
        with mock.patch.object(ols, "solve_least_squares", lambda sys, overwrite_x=False: theta):
            with pytest.raises(NumericOverflowError):
                fit(ds, cfg)


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
