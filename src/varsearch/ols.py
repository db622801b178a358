"""Least-squares estimation of the regression system via QR.

All equations share one design matrix, so a single QR factorization of X
solves every column of Y simultaneously.  Rank deficiency is detected from
the pivoted R diagonal, relative to each column's norm, and reported loudly
instead of being regularized away: criterion comparisons across
configurations assume exact least squares.
"""

from __future__ import annotations

import math

import numpy as np

from ._blas import one_blas_thread
from ._lapack import qr_pivoted, solve_upper
from .criteria import CriterionKind, _log_det_symmetric, criterion_from_log_det
from .design import (
    RegressionSystem,
    _design_blocks,
    _system_blocks,
    _targets,
    build_regression_system,
)
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
)

__all__ = [
    "solve_least_squares",
    "unflatten_coefficients",
    "residual_covariance",
    "fit",
    "RANK_RTOL",
    "DEGENERATE_RTOL",
]

# Ratio of a pivoted-R diagonal to its column's norm below which X is
# declared rank deficient.
RANK_RTOL = 1e-10

# A residual column of norm at most DEGENERATE_RTOL * ||y_i|| marks a perfect
# fit of equation i, which makes Sigma singular; criterion values are -inf.
DEGENERATE_RTOL = 1e-12


def solve_least_squares(sys: RegressionSystem, overwrite_x=False) -> np.ndarray:
    """Minimize ||X Theta - Y||_F via a pivoted QR factorization of X.

    ``sys.x`` is left as it is unless ``overwrite_x``: then a Fortran-ordered
    X is factored in its own memory (see ``qr_pivoted``), which holds Q, not
    X, once the factorization has run, whether the call returns or raises.

    Returns
    -------
    ndarray, shape (K, n)
        The least-squares coefficient matrix.

    Raises
    ------
    RankDeficientError
        When a pivoted R diagonal falls below ``RANK_RTOL`` relative to
        the norm of its column of X, so that rescaling a column never
        changes the verdict; carries the detected rank.
    """
    x, y = sys.x, sys.y
    if x.shape[0] <= x.shape[1]:
        raise ValidationError(
            [f"need T' > K for a determined system, got T'={x.shape[0]}, K={x.shape[1]}"]
        )
    q, r, piv = qr_pivoted(x, overwrite_x)
    # ||x_piv[j]|| = ||R[:, j]||, taken on R scaled per column so that no
    # square overflows or underflows; a zero column gives 0 / 0, which fails
    with np.errstate(invalid="ignore"):
        unit = r / np.abs(r).max(axis=0)
        ratios = np.abs(np.diag(unit)) / np.linalg.norm(unit, axis=0)
    rank = int(np.sum(ratios >= RANK_RTOL))
    if rank < x.shape[1]:
        raise RankDeficientError(rank, x.shape[1])
    z = q.T @ y
    theta_pivoted = solve_upper(r, z)
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
    """Residuals E = Y - X Theta and their ML covariance E'E / T'.

    X Theta is taken over the row blocks ``fit`` takes it over, so E is
    bit for bit the residuals of ``fit``.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (sys.x.shape[1], sys.y.shape[1]):
        raise ValueError(
            f"theta has shape {theta.shape}, expected "
            f"({sys.x.shape[1]}, {sys.y.shape[1]})"
        )
    return _residual_covariance(sys.y, theta, _system_blocks(sys.x))


def _residual_covariance(y: np.ndarray, theta: np.ndarray, blocks):
    """E = Y - X Theta, with X Theta written block by block from the
    ``(first row, rows of X)`` pairs ``blocks``, and E'E / T'."""
    residuals = np.empty(y.shape)
    for lo, x in blocks:
        np.matmul(x, theta, out=residuals[lo : lo + len(x)])
    np.subtract(y, residuals, out=residuals)
    sigma = residuals.T @ residuals / len(y)
    sigma = 0.5 * (sigma + sigma.T)
    return residuals, sigma


def _snap_limits(y: np.ndarray) -> np.ndarray:
    """The largest Sigma_ii = ||e_i||^2 / T' of a perfect fit of equation i,
    (DEGENERATE_RTOL ||y_i||)^2 / T'; raises ``NumericOverflowError`` when
    ||Y||^2 is not finite, as the test would then compare inf with inf."""
    with np.errstate(over="ignore"):
        squares = np.einsum("ij,ij->j", y, y)
        if not math.isfinite(squares.sum()):
            raise NumericOverflowError()
    return DEGENERATE_RTOL**2 * squares / len(y)


def _residual_log_det(y: np.ndarray, theta: np.ndarray, limits: np.ndarray, blocks):
    """Residuals E = Y - X Theta, Sigma = E'E / T' and ln det Sigma, with X
    in ``blocks`` (see ``_residual_covariance``).

    ln det Sigma is -inf for a perfect fit of any equation, Sigma_ii <=
    ``limits[i]`` (see ``_snap_limits``), and +inf when Sigma or E's sum of
    squares, trace(Sigma) T', is not finite (an overflowing sum would read
    as singular).  ``fit`` and the coefficient search both score through
    here, so their values agree bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residuals, sigma = _residual_covariance(y, theta, blocks)
        total = float(sigma.trace()) * len(y)
    if not (math.isfinite(total) and np.all(np.isfinite(sigma))):
        return residuals, sigma, math.inf
    if (sigma.diagonal() <= limits).any():
        return residuals, sigma, -math.inf
    # _residual_covariance made sigma exactly symmetric, and it is finite here
    return residuals, sigma, _log_det_symmetric(sigma)


def _criterion_map(log_det: float, n_params: int, effective_t: int) -> dict:
    """Every criterion from one log-determinant; an undefined HQC is NaN."""
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

    X is factored in its own memory and freed before E is made, for which
    X is gathered again one block of rows at a time, so X, its Q and E are
    never held at once.

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
        When ||Y||, ||E|| or the residual covariance is not finite.
    """
    sys = build_regression_system(ds, cfg, row_start=row_start)
    y, start, limits = sys.y, sys.row_start, _snap_limits(sys.y)
    theta = solve_least_squares(sys, overwrite_x=True)
    del sys  # X, which holds Q now
    return _fit_from_theta(ds, cfg, start, theta, y, limits)


def _fit_from_theta(
    ds: TimeSeriesDataset, cfg: ModelConfig, row_start: int, theta, y=None, limits=None
) -> FitResult:
    """The fit of ``cfg`` on the rows from ``row_start`` whose least-squares
    coefficients are ``theta``, as ``fit`` returns it, without factoring X.

    Y and its ``_snap_limits`` are taken from ``ds`` unless given; X is
    gathered from ``ds`` one block of rows at a time for E = Y - X Theta.
    """
    if y is None:
        y = _targets(ds, cfg, row_start)
    if limits is None:
        limits = _snap_limits(y)
    blocks = _design_blocks(ds, cfg, row_start)
    residuals, sigma, log_det = _residual_log_det(y, theta, limits, blocks)
    if log_det == math.inf:
        raise NumericOverflowError()
    n_params = cfg.n_dependent * cfg.n_design_columns()
    return FitResult(
        config=cfg,
        coefficients=unflatten_coefficients(theta, cfg, ds),
        residuals=residuals,
        sigma=sigma,
        criterion_values=_criterion_map(log_det, n_params, len(y)),
        n_params=n_params,
        effective_t=len(y),
        row_start=row_start,
        log_det=log_det,
        degenerate=log_det == -math.inf,
    )
