"""Construction of the stacked regression system Y ~ X Theta.

For regression row r (time point j = row_start + r) the design row is

    [ y(j-1) | ... | y(j-p) | z(j-1) | ... | z(j-q) | 1 ]

with y restricted to the dependent columns and z to the independent
columns of the configuration.  Column blocks are ordered lag-1 first and
the constant column, when present, comes last.  X and Y are gathered
through one column map from one lag window, which the search evaluator reads
and ``fit`` gathers X through again after factoring it in place; Y is the
observations themselves where every column is dependent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ValidationError
from .model import ModelConfig, TimeSeriesDataset, structural_violations

__all__ = ["RegressionSystem", "build_regression_system"]

# Rows of X per block where X Theta is taken a block at a time (see
# ``_row_blocks``), so that a fit holds no more of X than one block beside E
_PRODUCT_ROWS = 4096


@dataclass(frozen=True, eq=False)
class RegressionSystem:
    """Target matrix Y (T' x n) and design matrix X (T' x K).

    Y may be a read-only view of the dataset's observations (see
    ``build_regression_system``); X is always the system's own.
    """

    y: np.ndarray
    x: np.ndarray
    config: ModelConfig
    row_start: int

    @property
    def effective_t(self) -> int:
        return self.y.shape[0]

    @property
    def n_dependent(self) -> int:
        return self.y.shape[1]

    @property
    def n_columns(self) -> int:
        return self.x.shape[1]


def _lag_window(obs: np.ndarray, start: int, max_lag: int) -> np.ndarray:
    """Read-only view W with W[r, lag] = obs[start + r - lag], nothing copied.

    Row r holds time point start + r and its lags 0 to ``max_lag`` <=
    ``start``; a row flattened holds (lag, variable) in column lag * m +
    variable.
    """
    row, col = obs.strides
    shape = (obs.shape[0] - start, max_lag + 1, obs.shape[1])
    return as_strided(obs[start:], shape, (row, -row, col), writeable=False)


def _window_columns(cfg: ModelConfig, n_vars: int):
    """Columns of X before the constant, in order, and of Y in a flattened
    lag-window row, which holds (lag, variable) in column lag * n_vars + variable."""
    dep, indep = cfg.dependent_indices, cfg.independent_indices
    x = [lag * n_vars + v for lag in range(1, cfg.p + 1) for v in dep]
    x += [lag * n_vars + v for lag in range(1, cfg.q + 1) for v in indep]
    return x, list(dep)


def build_regression_system(
    ds: TimeSeriesDataset, cfg: ModelConfig, row_start=None
) -> RegressionSystem:
    """Stack the lagged observations into a regression system.

    Parameters
    ----------
    ds : TimeSeriesDataset
    cfg : ModelConfig
    row_start : int, optional
        First regression row; defaults to max(p, q).  Passing the maximum
        row start of a whole search space scores every candidate on the
        same target rows.

    Raises
    ------
    ValidationError
        If the configuration cannot be stacked on this dataset.  Only
        structural validity is required here; determinedness (T' > K) is
        enforced by the least-squares solver.
    """
    violations = structural_violations(cfg, ds, row_start=row_start)
    if violations:
        raise ValidationError(violations)
    start = cfg.row_start if row_start is None else row_start
    columns = _window_columns(cfg, ds.n_vars)[0]
    x = np.empty((ds.n_obs - start, cfg.n_design_columns()), order=_design_order(cfg))
    _gather(x, ds, start, columns)
    return RegressionSystem(y=_targets(ds, cfg, start), x=x, config=cfg, row_start=start)


def _design_order(cfg: ModelConfig) -> str:
    """The layout stacking the lag blocks gave X, which the products' last
    bits depend on: C order when every block is one column, else Fortran."""
    lagged = cfg.n_design_columns() - int(cfg.include_constant)
    return "C" if lagged == cfg.p + cfg.q else "F"


def _targets(ds: TimeSeriesDataset, cfg: ModelConfig, start: int) -> np.ndarray:
    """Y of ``cfg`` from row ``start``: with every column dependent, the
    observations from ``start`` on, a read-only view, where it has the strides
    of the gathered Y, on which the products' last bits depend; else gathered."""
    deps = _window_columns(cfg, ds.n_vars)[1]
    y = ds.observations[start:]
    if len(deps) < ds.n_vars or y.strides != (y.itemsize * len(deps), y.itemsize):
        y = np.empty((ds.n_obs - start, len(deps)))
        _gather(y, ds, start, deps)
    return y


def _gather(out, ds: TimeSeriesDataset, start: int, columns) -> None:
    """Write column ``columns[j]`` of the flattened lag-window rows from
    ``start`` into ``out[:, j]``, as many rows as ``out`` has, and 1.0 into
    the columns of ``out`` past them."""
    window = _lag_window(ds.observations, start, start)[: len(out)]
    for j, column in enumerate(columns):
        lag, variable = divmod(column, ds.n_vars)
        out[:, j] = window[:, lag, variable]  # a basic slice, nothing gathered
    out[:, len(columns) :] = 1.0


def _row_blocks(n_rows: int, fortran: bool):
    """``(lo, hi)`` row ranges over which X Theta is taken: ``_PRODUCT_ROWS``
    rows each, the last also taking the remainder, for a Fortran-ordered X;
    all rows at once for any other.  A C-ordered product's last bits can
    depend on its row count, a Fortran-ordered one's (lda apart) do not, and
    no range has a lone row, which runs another BLAS routine."""
    count = max(1, n_rows // _PRODUCT_ROWS) if fortran else 1
    bounds = [i * _PRODUCT_ROWS for i in range(count)] + [n_rows]
    return list(zip(bounds, bounds[1:]))


def _system_blocks(x: np.ndarray):
    """``(first row, rows of x)`` over ``_row_blocks``, nothing copied."""
    fortran = x.flags.f_contiguous and not x.flags.c_contiguous
    return [(lo, x[lo:hi]) for lo, hi in _row_blocks(len(x), fortran)]


def _design_blocks(ds: TimeSeriesDataset, cfg: ModelConfig, start: int):
    """``(first row, rows of X)`` of ``cfg``'s design from row ``start`` over
    ``_row_blocks``, each block gathered from ``ds`` as it is reached, so that
    no more of X than one block is held."""
    columns = _window_columns(cfg, ds.n_vars)[0]
    order = _design_order(cfg)
    for lo, hi in _row_blocks(ds.n_obs - start, order == "F"):
        block = np.empty((hi - lo, cfg.n_design_columns()), order=order)
        _gather(block, ds, start + lo, columns)
        yield lo, block
