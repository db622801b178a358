"""Information criteria used as minimization objectives.

All three criteria share the form

    ln det(Sigma) + w(T') * k / T'

where Sigma is the maximum-likelihood residual covariance, k the total
number of estimated scalar coefficients, T' the effective sample size and
w the per-criterion penalty weight: 2 for AIC, ln(T') for BIC and
2*ln(ln(T')) for HQC.  Lower values are better.  These are the standard
multivariate forms used for VAR lag selection.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from ._lapack import flapack
from .errors import HQCUndefinedError

__all__ = [
    "CriterionKind",
    "log_det_cov",
    "penalty_weight",
    "criterion_from_log_det",
    "evaluate_criterion",
]

_SYMMETRY_RTOL = 1e-8

_UNIT = np.finfo(float).eps / 2  # unit roundoff of float64

# Sigma is singular at rcond^2 <= _SINGULAR n u.  E'E / T' of 504 draws of E rank
# deficient in exact arithmetic (n 2-4, T' 12 to 1e5, scales 1, 1e8, 1e-8, 3.7)
# read at most 2.2 n u where Cholesky factored; 504 full-rank draws read >= 6e9 n u.
_SINGULAR = 64.0


class CriterionKind(enum.Enum):
    AIC = "aic"
    BIC = "bic"
    HQC = "hqc"

    @classmethod
    def from_string(cls, text: str) -> "CriterionKind":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown criterion {text!r}; expected one of "
                f"{[k.value for k in cls]}"
            ) from None


def log_det_cov(sigma: np.ndarray) -> float:
    """Log-determinant of a symmetric PSD matrix via Cholesky.

    A matrix that is singular to working precision, whatever its units
    (``_log_det_symmetric``), yields ``-inf``.

    Parameters
    ----------
    sigma : ndarray, shape (n, n)
        Symmetric positive semidefinite matrix.

    Returns
    -------
    float
        ``ln det(sigma)``, or ``-inf`` when singular.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be square, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("sigma contains non-finite entries")
    scale = np.abs(sigma).max()
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=_SYMMETRY_RTOL * max(scale, 1.0)):
        raise ValueError("sigma is not symmetric within tolerance")
    return _log_det_symmetric(0.5 * (sigma + sigma.T))


def _log_det_symmetric(sym: np.ndarray) -> float:
    """``log_det_cov`` of a finite, exactly symmetric matrix, unchecked.

    The one place that decides when a covariance is singular: when Cholesky
    Sigma = R'R fails, or when LAPACK's estimate of R D^-1's 1-norm rcond has
    rcond^2 <= _SINGULAR n u, D = diag(Sigma)^1/2 scaling out the units.
    """
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return -math.inf
    rcond, _ = flapack.dtrcon(chol.T / np.sqrt(np.diag(sym)))
    singular = rcond * rcond <= _SINGULAR * len(sym) * _UNIT
    return -math.inf if singular else float(2.0 * np.sum(np.log(np.diag(chol))))


def penalty_weight(kind: CriterionKind, effective_t: int) -> float:
    """Per-parameter penalty weight w(T') for the given criterion."""
    if effective_t < 1:
        raise ValueError(f"effective sample size must be >= 1, got {effective_t}")
    if kind is CriterionKind.AIC:
        return 2.0
    if kind is CriterionKind.BIC:
        return math.log(effective_t)
    if kind is CriterionKind.HQC:
        if effective_t <= math.e:
            raise HQCUndefinedError(
                f"HQC needs effective sample > e, got T'={effective_t}"
            )
        return 2.0 * math.log(math.log(effective_t))
    raise TypeError(f"unknown criterion kind {kind!r}")


def criterion_from_log_det(
    kind: CriterionKind, log_det: float, n_params: int, effective_t: int
) -> float:
    """Criterion value from a precomputed log-determinant."""
    return log_det + penalty_weight(kind, effective_t) * n_params / effective_t


def evaluate_criterion(
    kind: CriterionKind, sigma: np.ndarray, n_params: int, effective_t: int
) -> float:
    """Evaluate one information criterion.

    Parameters
    ----------
    kind : CriterionKind
        Which criterion to compute.
    sigma : ndarray, shape (n, n)
        ML residual covariance (divisor T').
    n_params : int
        Total number of estimated scalar coefficients.
    effective_t : int
        Effective sample size T'.

    Returns
    -------
    float
        ``ln det(sigma) + w(kind) * n_params / effective_t``; ``-inf``
        when sigma is singular (a perfect fit always wins).
    """
    if n_params < 0:
        raise ValueError(f"n_params must be nonnegative, got {n_params}")
    return criterion_from_log_det(kind, log_det_cov(sigma), n_params, effective_t)
