"""Synthetic data generation and h-step forecasting.

Generation follows the same row-vector convention as estimation: a new
observation is the previous rows times the coefficient matrices, plus the
constant and a Gaussian innovation.  Stability is judged by the spectral
radius of the companion matrix; with nonzero noise an unstable system is
refused because its trajectories diverge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .csvio import _BLOCK_ROWS
from .errors import ForecastInputError, UnstableError
from .model import CoefficientSet, FitResult, Role, TimeSeriesDataset

__all__ = [
    "GeneratorSpec",
    "companion_matrix",
    "companion_spectral_radius",
    "generate",
    "random_stable_coefficients",
    "forecast",
]

STABILITY_LIMIT = 0.999


def companion_matrix(coefficients: CoefficientSet) -> np.ndarray:
    """Companion form of the autoregressive part, shape (n*p, n*p).

    Block row t holds A_{t+1} in the first block column and an identity
    in block column t+1, so the state [y(j), ..., y(j-p+1)] advances by
    right-multiplication.
    """
    a = coefficients.a
    n = coefficients.n_dependent
    p = coefficients.p
    out = np.zeros((n * p, n * p))
    for t in range(p):
        out[t * n : (t + 1) * n, 0:n] = a[t]
        if t + 1 < p:
            out[t * n : (t + 1) * n, (t + 1) * n : (t + 2) * n] = np.eye(n)
    return out


def companion_spectral_radius(coefficients: CoefficientSet) -> float:
    """Largest eigenvalue magnitude of the companion matrix."""
    eigenvalues = np.linalg.eigvals(companion_matrix(coefficients))
    return float(np.abs(eigenvalues).max())


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic dataset.

    ``exogenous`` is either None (requires q = 0), the string
    "random_walk", or an array of shape (burn_in + t, d) supplying the
    independent series for the whole simulated span including burn-in
    (requires q > 0).  ``noise_scale`` must be finite and >= 0.
    ``initial_state`` optionally sets the first max(p, q) rows of the
    dependent block; the default is zeros.
    """

    coefficients: CoefficientSet
    t: int
    noise_scale: float = 1.0
    burn_in: int = 100
    seed: int = 0
    exogenous: object = None
    initial_state: object = None

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if not 0 <= self.noise_scale < math.inf:
            raise ValueError(f"noise_scale must be finite and >= 0, got {self.noise_scale}")
        coef = self.coefficients
        if isinstance(self.exogenous, str):
            if self.exogenous != "random_walk":
                raise ValueError(f"unknown exogenous mode {self.exogenous!r}")
        elif self.exogenous is not None:
            if coef.q == 0:
                raise ValueError("q = 0 uses no exogenous array; pass None")
            z = np.asarray(self.exogenous, dtype=float)
            shape = (self.burn_in + self.t, coef.n_independent)
            if z.shape != shape:
                raise ValueError(
                    f"supplied exogenous array must have shape {shape} "
                    f"covering burn-in, got {z.shape}"
                )
            if not np.all(np.isfinite(z)):
                raise ValueError("exogenous array must be finite")
            object.__setattr__(self, "exogenous", z)
        elif coef.q > 0:
            raise ValueError(
                "coefficients use exogenous lags; pass "
                "exogenous='random_walk' or an array"
            )
        row_start = max(coef.p, coef.q)
        if self.initial_state is not None:
            init = np.asarray(self.initial_state, dtype=float)
            shape = (row_start, coef.n_dependent)
            if init.shape != shape:
                raise ValueError(
                    f"initial_state must have shape {shape}, got {init.shape}"
                )
            if not np.all(np.isfinite(init)):
                raise ValueError("initial_state must be finite")
            object.__setattr__(self, "initial_state", init)
        if self.burn_in + self.t <= row_start:
            raise ValueError(
                f"burn_in + t = {self.burn_in + self.t} leaves no room to "
                f"generate past the {row_start} seed rows"
            )


def _recur(coef, y, z, start: int, rng=None, noise_scale=0.0) -> None:
    """Fill y[start:] with c + sum_i y[j-i] A_i + sum_i z[j-i] B_i (+ noise),
    summed left to right, ``_BLOCK_ROWS`` rows at a time (see ``generate``)."""
    n, p = y.shape[1], coef.p
    # a row's terms in summation order: c, the y lags, the z lags, the noise
    k = 1 + p + coef.q + (noise_scale > 0)
    # a matrix's memory layout picks its BLAS kernel, and the stack is C-order,
    # so it is used only when every A_i is; otherwise each A_i goes on its own
    stack = np.array(coef.a) if all(a.flags.c_contiguous for a in coef.a) else None
    # one block's memory serves every block, so no block is made beside another
    block = np.empty((p + min(_BLOCK_ROWS, len(y) - start), k, n))
    for lo in range(start, len(y), _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, len(y))
        t = block[: p + hi - lo]
        t[:p, -1] = y[lo - p : lo]
        t[p:, 0] = coef.c[0] if coef.c is not None else 0.0
        for i, b in enumerate(coef.b, start=1):
            t[p:, p + i] = np.matmul(z[lo - i : hi - i, None, :], b)[:, 0]
        if noise_scale > 0:
            t[p:, -1] = rng.normal(0.0, noise_scale, size=(hi - lo, n))
        # lagged[r] views the sums of rows r-1, ..., r-p (slot -1 of t)
        s = t.strides[0]
        lagged = as_strided(t[p - 1, -1], (hi - lo, p, 1, n), (s, -s, 8 * n, 8))
        for row, lags, out in zip(t[p:], lagged, t[p:, 1 : p + 1, None]):
            if stack is None:
                for lag, a, o in zip(lags, coef.a, out):
                    np.matmul(lag, a, out=o)
            else:
                np.matmul(lags, stack, out=out)
            np.add.accumulate(row, axis=0, out=row)
        y[lo:hi] = t[p:, -1]


def generate(spec: GeneratorSpec) -> TimeSeriesDataset:
    """Simulate the system and return the post-burn-in sample.

    Row j is c + y[j-1] A_1 + ... + y[j-p] A_p + z[j-1] B_1 + ... +
    z[j-q] B_q + noise, summed left to right by ``np.add.accumulate``.
    Blocks of ``_BLOCK_ROWS`` rows share one noise draw and one stacked
    product per B_i, and a row's A_i products are one stacked product, yet
    the bits are a row-by-row loop's: the stream is sequential, so a block
    holds the draws of one ``normal(size=n)`` per row, drawn after the
    random-walk steps, and a stacked product runs the BLAS vector-matrix
    product of ``row @ B_i`` (or ``row @ A_i``) for each of its rows.

    Raises
    ------
    UnstableError
        When noise_scale > 0 and the companion spectral radius is at or
        above the stability limit.
    """
    coef = spec.coefficients
    n = coef.n_dependent
    d = coef.n_independent
    if spec.noise_scale > 0:
        radius = companion_spectral_radius(coef)
        if radius >= STABILITY_LIMIT:
            raise UnstableError(radius, STABILITY_LIMIT)
    rng = np.random.default_rng(spec.seed)
    total = spec.burn_in + spec.t
    row_start = max(coef.p, coef.q)

    z = spec.exogenous
    if not isinstance(z, np.ndarray):  # a random walk, of no columns when q = 0
        z = np.cumsum(rng.normal(0.0, 1.0, size=(total, d)), axis=0)

    # y is written into the output's leading columns: the recursion only
    # copies rows in and out of it, so its layout reaches no product, while
    # the B_i products read z itself, which is copied in afterwards.  The
    # output holds the sample and the rows its first lags read, so the
    # burn-in beyond them runs in a buffer of its own, freed before the
    # sample is simulated; the stream is sequential, so the bits are one run's
    lead = min(spec.burn_in, row_start)
    skip = spec.burn_in - lead  # rows of the run before the output's first
    out = np.zeros((lead + spec.t, n + d))
    head = np.zeros((spec.burn_in, n)) if skip else out[:, :n]
    if spec.initial_state is not None:
        head[:row_start] = spec.initial_state
    if skip:
        _recur(coef, head, z[: spec.burn_in], row_start, rng, spec.noise_scale)
        out[:lead, :n] = head[skip:]
        del head
    _recur(coef, out[:, :n], z[skip:], row_start, rng, spec.noise_scale)
    out[:, n:] = z[skip:]
    del z

    # the dataset freezes the sample in place, keeping at most row_start
    # rows before it
    names = [f"y{i + 1}" for i in range(n)] + [f"z{i + 1}" for i in range(d)]
    roles = (Role.DEPENDENT,) * n + (Role.INDEPENDENT,) * d
    return TimeSeriesDataset._adopt(out[lead:], names, roles)


def random_stable_coefficients(
    n: int,
    p: int,
    d: int = 0,
    q: int = 0,
    include_constant: bool = True,
    radius: float = 0.9,
    seed: int = 0,
) -> CoefficientSet:
    """Random coefficients with the companion radius set exactly.

    Replacing A_t by A_t * s**t scales every companion eigenvalue by s,
    so one rescale pins the radius; exogenous blocks and the constant do
    not affect stability and are drawn at a moderate scale.
    """
    if n < 1 or p < 1:
        raise ValueError("need n >= 1 and p >= 1")
    if d < 0 or q < 0 or (q > 0) != (d > 0):
        raise ValueError(f"need d, q >= 0 and q >= 1 exactly when d >= 1, got d={d}, q={q}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rng = np.random.default_rng(seed)
    a = [rng.normal(0.0, 1.0 / math.sqrt(n * p), size=(n, n)) for _ in range(p)]
    base = CoefficientSet(a=tuple(a))
    rho = companion_spectral_radius(base)
    if rho > 0:
        s = radius / rho
        a = [a[t] * s ** (t + 1) for t in range(p)]
    b = tuple(rng.normal(0.0, 0.5, size=(d, n)) for _ in range(q))
    c = rng.normal(0.0, 0.5, size=(1, n)) if include_constant else None
    return CoefficientSet(a=tuple(a), b=b, c=c)


def forecast(
    ds: TimeSeriesDataset,
    fit_result: FitResult,
    horizon: int,
    future_z: np.ndarray | None = None,
) -> np.ndarray:
    """Iterative h-step forecast of the dependent block, shape (horizon, n).

    Dependent lags beyond the sample use earlier forecasts; independent
    lags use the observed series and, past the first step, ``future_z``.
    ``future_z`` must supply at least horizon - 1 future rows (one per
    step after the first); a full horizon rows is also accepted.
    """
    if horizon < 1:
        raise ForecastInputError(f"horizon must be >= 1, got {horizon}")
    cfg = fit_result.config
    if len(cfg.dependent_mask) != ds.n_vars:
        raise ForecastInputError(
            "fit and dataset disagree on the number of columns"
        )
    coef = fit_result.coefficients
    p, q = cfg.p, cfg.q
    dep_cols = list(cfg.dependent_indices)
    indep_cols = list(cfg.independent_indices) if q > 0 else []
    n = len(dep_cols)
    t_obs = ds.n_obs
    if t_obs < max(p, q):
        raise ForecastInputError(
            f"need at least max(p, q) = {max(p, q)} observed rows, "
            f"have {t_obs}"
        )

    hist_y = ds.observations[:, dep_cols]
    d = len(indep_cols)
    needs_future = q >= 1 and d > 0 and horizon >= 2
    if needs_future:
        if future_z is None:
            raise ForecastInputError(
                "future values of the independent variables are required "
                "for multi-step forecasts; pass future_z"
            )
        future_z = np.asarray(future_z, dtype=float)
        if future_z.ndim != 2 or future_z.shape[1] != d:
            raise ForecastInputError(
                f"future_z must have {d} columns, got shape "
                f"{getattr(future_z, 'shape', None)}"
            )
        if future_z.shape[0] not in (horizon - 1, horizon):
            raise ForecastInputError(
                f"future_z must supply {horizon - 1} or {horizon} rows, "
                f"got {future_z.shape[0]}"
            )
        if not np.all(np.isfinite(future_z)):
            raise ForecastInputError("future_z must be finite")
    z_ext = ds.observations[:, indep_cols]
    if needs_future:
        z_ext = np.vstack([z_ext, future_z[: horizon - 1]])
    y_ext = np.vstack([hist_y, np.zeros((horizon, n))])
    _recur(coef, y_ext, z_ext, t_obs)
    return y_ext[t_obs:]
