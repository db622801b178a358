"""Criterion formulas: pinned values, ordering, scaling behavior."""

import math

import numpy as np
import pytest

from varsearch import (
    CriterionKind,
    HQCUndefinedError,
    evaluate_criterion,
    log_det_cov,
    penalty_weight,
)
from varsearch import criteria


class TestLogDetCov:
    def test_identity_is_zero(self):
        assert log_det_cov(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_is_log_product(self):
        assert log_det_cov(np.diag([2.0, 3.0])) == pytest.approx(
            math.log(6.0), abs=1e-12
        )

    def test_zero_matrix_is_minus_infinity(self):
        assert log_det_cov(np.zeros((2, 2))) == -math.inf

    def test_singular_matrix_is_minus_infinity(self):
        # Cholesky fails on this one
        sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert log_det_cov(sigma) == -math.inf
        # E'E / T' of an exactly rank-one E is singular whatever the units:
        # Cholesky fails on some of these draws, and the rank test calls the
        # rest singular; a well-conditioned Sigma under the same units only
        # shifts by 2 sum ln d_i
        rng = np.random.default_rng(19)
        regular = np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 0.5]])
        for d in ([1.0, 1.0, 1.0], [1e8, 1.0, 1e-8], [2.0**30] * 3):
            d = np.array(d)
            for _ in range(20):
                e = np.outer(rng.normal(size=50), rng.normal(size=3)) * d
                assert log_det_cov(e.T @ e / 50) == -math.inf
            shift = 2.0 * np.sum(np.log(d))
            got = log_det_cov(regular * np.outer(d, d))
            want = log_det_cov(regular) + shift
            assert got == pytest.approx(want, rel=1e-12)

    def test_asymmetric_input_raises(self):
        with pytest.raises(ValueError):
            log_det_cov(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, bad):
        with pytest.raises(ValueError):
            log_det_cov(np.array([[1.0, bad], [bad, 1.0]]))

    def test_unchecked_form_gives_the_same_bits(self):
        # the fit scores through _log_det_symmetric on the Sigma it has
        # already symmetrised and checked as finite
        rng = np.random.default_rng(12)
        paths = {"factored": 0, "failed": 0}
        for n in range(1, 7):
            for scale in (1e-8, 1.0, 1e8):
                a = rng.normal(size=(n + 4, n)) * scale
                spd = a.T @ a
                b = a[:, : max(n - 1, 1)]
                psd = b @ b.T if n > 1 else np.zeros((1, 1))  # rank deficient
                indefinite = spd - np.trace(spd) / n * np.eye(n)  # zero when n = 1
                for sigma in (spd, psd, indefinite):
                    sym = 0.5 * (sigma + sigma.T)
                    try:
                        np.linalg.cholesky(sym)
                        paths["factored"] += 1
                    except np.linalg.LinAlgError:
                        paths["failed"] += 1
                    expected = np.float64(log_det_cov(sym))
                    got = np.float64(criteria._log_det_symmetric(sym))
                    assert got.tobytes() == expected.tobytes()
        assert min(paths.values()) > 10


class TestEvaluateCriterion:
    def test_aic_pinned_value(self):
        value = evaluate_criterion(CriterionKind.AIC, np.eye(2), 2, 100)
        assert value == pytest.approx(2 * 2 / 100, abs=1e-12)
        assert value == pytest.approx(0.04, abs=1e-6)

    def test_bic_pinned_value(self):
        value = evaluate_criterion(CriterionKind.BIC, np.eye(2), 2, 100)
        assert value == pytest.approx(math.log(100) * 2 / 100, abs=1e-12)
        assert value == pytest.approx(0.092103, abs=1e-6)

    def test_hqc_pinned_value(self):
        value = evaluate_criterion(CriterionKind.HQC, np.eye(2), 2, 100)
        assert value == pytest.approx(
            2 * math.log(math.log(100)) * 2 / 100, abs=1e-12
        )
        # six-decimal display rounds to 0.061087
        assert value == pytest.approx(0.0610872, abs=1e-6)

    def test_hqc_undefined_for_tiny_sample(self):
        with pytest.raises(HQCUndefinedError):
            evaluate_criterion(CriterionKind.HQC, np.eye(1), 1, 2)
        # ln(ln(3)) > 0, so T' = 3 is fine
        evaluate_criterion(CriterionKind.HQC, np.eye(1), 1, 3)

    def test_log_det_term_is_shared(self):
        sigma = np.diag([0.5, 2.0])
        base = log_det_cov(sigma)
        for kind in CriterionKind:
            value = evaluate_criterion(kind, sigma, 4, 50)
            penalty = penalty_weight(kind, 50) * 4 / 50
            assert value == pytest.approx(base + penalty, abs=1e-12)


def test_penalty_ordering_across_sample_sizes():
    """With sigma fixed, AIC < HQC < BIC for every T' >= 16."""
    sigma = np.eye(2)
    for t in np.linspace(16, 10000, 50).astype(int):
        aic = evaluate_criterion(CriterionKind.AIC, sigma, 3, int(t))
        hqc = evaluate_criterion(CriterionKind.HQC, sigma, 3, int(t))
        bic = evaluate_criterion(CriterionKind.BIC, sigma, 3, int(t))
        assert aic < hqc < bic


def test_strictly_increasing_in_parameter_count():
    sigma = np.diag([1.5, 0.7])
    for kind in CriterionKind:
        values = [evaluate_criterion(kind, sigma, k, 80) for k in range(1, 10)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_residual_scaling_shifts_by_constant():
    """Scaling residuals by s shifts every criterion by 2 n ln s."""
    rng = np.random.default_rng(3)
    e = rng.normal(size=(100, 2))
    sigma = e.T @ e / 100
    sigma = 0.5 * (sigma + sigma.T)
    s = 3.0
    sigma_scaled = s**2 * sigma
    for kind in CriterionKind:
        base = evaluate_criterion(kind, sigma, 5, 100)
        scaled = evaluate_criterion(kind, sigma_scaled, 5, 100)
        assert scaled - base == pytest.approx(2 * 2 * math.log(s), abs=1e-9)


def test_same_inputs_same_value():
    sigma = np.diag([0.9, 1.1])
    a = evaluate_criterion(CriterionKind.BIC, sigma, 6, 120)
    b = evaluate_criterion(CriterionKind.BIC, sigma, 6, 120)
    assert a == b
