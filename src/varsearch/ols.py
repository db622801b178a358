"""Least-squares estimation of the regression system via QR.

All equations share one design matrix, so a single QR factorization of X
solves every column of Y simultaneously.  Rank deficiency is detected from
the pivoted R diagonal and reported loudly instead of being regularized
away: criterion comparisons across configurations assume exact least
squares.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from ._blas import one_blas_thread
from .criteria import CriterionKind, criterion_from_log_det, log_det_cov
from .design import RegressionSystem, build_regression_system
from .errors import (
    HQCUndefinedError,
    NumericOverflowError,
    RankDeficientError,
    ValidationError,
)
from .model import (
    CoefficientSet,
    FitResult,
    ModelConfig,
    TimeSeriesDataset,
    validate_config,
)

__all__ = [
    "solve_least_squares",
    "unflatten_coefficients",
    "residual_covariance",
    "fit",
    "RANK_RTOL",
    "DEGENERATE_RTOL",
]

# Pivoted-R diagonal ratio below which X is declared rank deficient.
RANK_RTOL = 1e-10

# Residual norm below DEGENERATE_RTOL * ||Y||_F marks a perfect fit; its
# criterion values collapse to -inf.
DEGENERATE_RTOL = 1e-12


def solve_least_squares(sys: RegressionSystem) -> np.ndarray:
    """Minimize ||X Theta - Y||_F via a pivoted QR factorization of X.

    Returns
    -------
    ndarray, shape (K, n)
        The least-squares coefficient matrix.

    Raises
    ------
    RankDeficientError
        When the smallest pivoted R diagonal falls below ``RANK_RTOL``
        relative to the largest; carries the detected rank.
    """
    x, y = sys.x, sys.y
    if x.shape[0] <= x.shape[1]:
        raise ValidationError(
            [f"need T' > K for a determined system, got T'={x.shape[0]}, K={x.shape[1]}"]
        )
    q, r, piv = scipy.linalg.qr(x, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0:
        raise RankDeficientError(0, x.shape[1])
    rank = int(np.sum(diag >= RANK_RTOL * diag[0]))
    if rank < x.shape[1]:
        raise RankDeficientError(rank, x.shape[1])
    z = q.T @ y
    theta_pivoted = scipy.linalg.solve_triangular(r, z, lower=False)
    theta = np.empty_like(theta_pivoted)
    theta[piv] = theta_pivoted
    return theta


def unflatten_coefficients(
    theta: np.ndarray, cfg: ModelConfig, ds: TimeSeriesDataset
) -> CoefficientSet:
    """Split the stacked K x n coefficient matrix back into A, B, C blocks.

    Inverse of ``CoefficientSet.flatten`` for the block order lag-1 A
    blocks first, then B blocks, then the constant row.
    """
    theta = np.asarray(theta, dtype=float)
    n = cfg.n_dependent
    d = cfg.n_independent_used()
    k = cfg.n_design_columns()
    if theta.ndim == 1:
        theta = theta.reshape(k, n) if theta.size == k * n else theta
    if theta.shape != (k, n):
        raise ValueError(
            f"theta has shape {theta.shape}, expected ({k}, {n}) for this config"
        )
    a, row = [], 0
    for _ in range(cfg.p):
        a.append(theta[row : row + n])
        row += n
    b = []
    for _ in range(cfg.q if d > 0 else 0):
        b.append(theta[row : row + d])
        row += d
    c = theta[row] if cfg.include_constant else None
    return CoefficientSet(a=tuple(a), b=tuple(b), c=c)


def residual_covariance(sys: RegressionSystem, theta: np.ndarray):
    """Residuals E = Y - X Theta and their ML covariance E'E / T'."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.x.shape[1], sys.y.shape[1]):
        raise ValueError(
            f"theta has shape {theta.shape}, expected "
            f"({sys.x.shape[1]}, {sys.y.shape[1]})"
        )
    residuals = sys.y - sys.x @ theta
    sigma = residuals.T @ residuals / sys.effective_t
    sigma = 0.5 * (sigma + sigma.T)
    return residuals, sigma


def _criterion_map(log_det: float, n_params: int, effective_t: int) -> dict:
    values = {}
    for kind in CriterionKind:
        try:
            values[kind] = criterion_from_log_det(kind, log_det, n_params, effective_t)
        except HQCUndefinedError:
            values[kind] = math.nan
    return values


@one_blas_thread()
def fit(ds: TimeSeriesDataset, cfg: ModelConfig, row_start=None) -> FitResult:
    """Estimate one configuration by OLS and score it under all criteria.

    Parameters
    ----------
    ds : TimeSeriesDataset
    cfg : ModelConfig
    row_start : int, optional
        First regression row (defaults to max(p, q)); searches pass the
        space-wide maximum so candidates share identical target rows.

    Raises
    ------
    ValidationError, RankDeficientError
    NumericOverflowError
        When ||Y||, ||E|| or the residual covariance is not finite; the
        perfect-fit test below would otherwise compare inf with inf.
    """
    sys = build_regression_system(ds, cfg, row_start=row_start)
    with np.errstate(over="ignore"):
        y_norm = float(np.linalg.norm(sys.y))
    if not math.isfinite(y_norm):
        raise NumericOverflowError()
    theta = solve_least_squares(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals, sigma = residual_covariance(sys, theta)
        resid_norm = float(np.linalg.norm(residuals))
    if not (math.isfinite(resid_norm) and np.all(np.isfinite(sigma))):
        raise NumericOverflowError()
    effective_t = sys.effective_t
    n_params = cfg.n_dependent * cfg.n_design_columns()

    degenerate = resid_norm <= DEGENERATE_RTOL * y_norm
    log_det = -math.inf if degenerate else log_det_cov(sigma)
    if log_det == -math.inf:
        degenerate = True
    values = _criterion_map(log_det, n_params, effective_t)
    return FitResult(
        config=cfg,
        coefficients=unflatten_coefficients(theta, cfg, ds),
        residuals=residuals,
        sigma=sigma,
        criterion_values=values,
        n_params=n_params,
        effective_t=effective_t,
        row_start=sys.row_start,
        log_det=log_det,
        degenerate=degenerate,
    )
