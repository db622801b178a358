"""Core domain types: dataset, model configuration, coefficients, fit result.

The model relates a row vector of dependent variables y(j) to its own lags
and to lags of independent variables z(j):

    y(j) ~ y(j-1) A_1 + ... + y(j-p) A_p
         + z(j-1) B_1 + ... + z(j-q) B_q + C

Observations are row vectors, so every coefficient matrix acts on the
right.  Which columns count as dependent is part of the configuration: the
``dependent_mask`` overrides the dataset's default roles, and every column
not selected by the mask is treated as independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .criteria import CriterionKind
from .errors import ValidationError

__all__ = [
    "Role",
    "TimeSeriesDataset",
    "ModelConfig",
    "CoefficientSet",
    "FitResult",
    "validate_config",
    "count_parameters",
    "structural_violations",
]


class Role(enum.Enum):
    DEPENDENT = "dependent"
    INDEPENDENT = "independent"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeriesDataset:
    """Observed multivariate series with per-column roles.

    Parameters
    ----------
    observations : array_like, shape (T, m)
        Rows are time points in increasing time order, columns variables.
    names : sequence of str
        Unique, nonempty variable labels, one per column.
    roles : sequence of Role
        Default dependent/independent partition, one per column; the mask
        it implies is ``base_mask``.
    """

    observations: np.ndarray
    names: tuple
    roles: tuple

    def __post_init__(self):
        # a copy, so that no array of the caller's can alias the dataset
        obs = np.array(self.observations, dtype=float, ndmin=2)
        self._set(obs, self.names, self.roles)

    @classmethod
    def _adopt(cls, observations: np.ndarray, names, roles) -> TimeSeriesDataset:
        """A dataset holding ``observations`` itself, frozen in place where the
        constructor copies: for a float64 matrix in C order that the caller
        made for the dataset and nothing else writes."""
        ds = cls.__new__(cls)
        ds._set(observations, names, roles)
        return ds

    def _set(self, obs: np.ndarray, names, roles) -> None:
        """Check the fields and set them, freezing ``obs`` in place."""
        if obs.ndim != 2:
            raise ValueError(f"observations must be 2-D, got ndim={obs.ndim}")
        if obs.shape[0] < 1 or obs.shape[1] < 1:
            raise ValueError(f"need T >= 1 and m >= 1, got shape {obs.shape}")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observations contain NaN or infinite entries")
        names = tuple(str(n) for n in names)
        roles = tuple(roles)
        if len(names) != obs.shape[1]:
            raise ValueError(
                f"{len(names)} names for {obs.shape[1]} columns"
            )
        if len(roles) != obs.shape[1]:
            raise ValueError(
                f"{len(roles)} roles for {obs.shape[1]} columns"
            )
        if any(not n for n in names):
            raise ValueError("variable names must be nonempty")
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not any(r is Role.DEPENDENT for r in roles):
            raise ValueError("at least one column must have role DEPENDENT")
        obs.setflags(write=False)
        object.__setattr__(self, "observations", obs)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "base_mask", tuple(r is Role.DEPENDENT for r in roles))

    @property
    def n_obs(self) -> int:
        return self.observations.shape[0]

    @property
    def n_vars(self) -> int:
        return self.observations.shape[1]


@dataclass(frozen=True)
class ModelConfig:
    """A point in the model search space.

    ``p`` is the endogenous lag order, ``q`` the exogenous lag order,
    ``dependent_mask`` selects which dataset columns the model explains and
    ``include_constant`` toggles the trailing intercept column.  The column
    indices the mask selects and leaves, ``dependent_indices`` and
    ``independent_indices``, are derived once.
    """

    p: int
    q: int
    dependent_mask: tuple
    include_constant: bool = True

    def __post_init__(self):
        mask = tuple(bool(b) for b in self.dependent_mask)
        object.__setattr__(self, "dependent_mask", mask)
        dependent = tuple(i for i, b in enumerate(mask) if b)
        independent = tuple(i for i, b in enumerate(mask) if not b)
        object.__setattr__(self, "dependent_indices", dependent)
        object.__setattr__(self, "independent_indices", independent)

    @property
    def row_start(self) -> int:
        """First usable regression row: max(p, q)."""
        return max(self.p, self.q)

    @property
    def n_dependent(self) -> int:
        return len(self.dependent_indices)

    def n_independent_used(self) -> int:
        """Independent columns that actually enter the design (0 when q=0)."""
        return len(self.independent_indices) if self.q > 0 else 0

    def n_design_columns(self) -> int:
        """K: columns of the design matrix X."""
        n = self.n_dependent
        return n * self.p + self.n_independent_used() * self.q + int(self.include_constant)


@dataclass(frozen=True, eq=False)
class CoefficientSet:
    """Coefficient matrices A_1..A_p, B_1..B_q and intercept row C.

    Each A_t is n x n, each B_t is d x n, and C is a 1 x n row vector
    (``None`` when the configuration has no constant).  Orientation follows
    the row-vector convention: coefficients multiply observations on the
    right.
    """

    a: tuple
    b: tuple = ()
    c: np.ndarray = None

    def __post_init__(self):
        a = tuple(_frozen_array(m) for m in self.a)
        b = tuple(_frozen_array(m) for m in self.b)
        if not a:
            raise ValueError("need at least one endogenous lag matrix A_1")
        n = a[0].shape[1]
        for t, mat in enumerate(a, start=1):
            if mat.shape != (n, n):
                raise ValueError(f"A_{t} has shape {mat.shape}, expected ({n}, {n})")
        d = b[0].shape[0] if b else 0
        for t, mat in enumerate(b, start=1):
            if mat.shape != (d, n):
                raise ValueError(f"B_{t} has shape {mat.shape}, expected ({d}, {n})")
        c = self.c
        if c is not None:
            c = _frozen_array(np.asarray(c, dtype=float).reshape(1, -1))
            if c.shape[1] != n:
                raise ValueError(f"C has {c.shape[1]} entries, expected {n}")
        for name, mats in (("A", a), ("B", b), ("C", (c,) if c is not None else ())):
            for mat in mats:
                if not np.all(np.isfinite(mat)):
                    raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def q(self) -> int:
        return len(self.b)

    @property
    def n_dependent(self) -> int:
        return self.a[0].shape[1]

    @property
    def n_independent(self) -> int:
        return self.b[0].shape[0] if self.b else 0

    def flatten(self) -> np.ndarray:
        """Stack into the K x n matrix of the regression system.

        Block rows follow the design-matrix order: A_1..A_p, then B_1..B_q,
        then C.
        """
        blocks = list(self.a) + list(self.b)
        if self.c is not None:
            blocks.append(self.c)
        return np.vstack(blocks)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Everything produced by one least-squares fit.

    ``sigma`` is the ML residual covariance (divisor T').  ``degenerate``
    marks a perfect fit or a singular ``sigma``; its criterion values are -inf.
    """

    config: ModelConfig
    coefficients: CoefficientSet
    residuals: np.ndarray
    sigma: np.ndarray
    criterion_values: dict
    n_params: int
    effective_t: int
    row_start: int
    log_det: float
    degenerate: bool = False

    def criterion(self, kind: CriterionKind) -> float:
        return self.criterion_values[kind]


def structural_violations(cfg: ModelConfig, ds: TimeSeriesDataset, row_start=None) -> list:
    """Constraints that make the stacked system well defined at all.

    Returns the list of violated invariants (empty means the lagged system
    can be built).  ``validate_config`` layers the determinedness
    requirement T' >= K + 1 on top of these; stacking itself only needs one
    usable regression row.
    """
    violations = []
    if cfg.p < 1:
        violations.append("p must be >= 1")
    if cfg.q < 0:
        violations.append("q must be >= 0")
    if len(cfg.dependent_mask) != ds.n_vars:
        violations.append(
            f"dependent_mask has {len(cfg.dependent_mask)} entries for "
            f"{ds.n_vars} columns"
        )
        return violations
    n = cfg.n_dependent
    if n < 1:
        violations.append("dependent_mask must select at least one column")
    if cfg.q > 0 and len(cfg.independent_indices) == 0:
        violations.append("q > 0 requires at least one independent column")
    if violations:
        return violations
    start = cfg.row_start if row_start is None else row_start
    if start < cfg.row_start:
        violations.append(
            f"row_start {start} is below max(p, q) = {cfg.row_start}"
        )
        return violations
    if ds.n_obs - start < 1:
        violations.append(
            f"no regression rows: T'={ds.n_obs - start} at row_start {start}"
        )
    return violations


def validate_config(cfg: ModelConfig, ds: TimeSeriesDataset, row_start=None) -> list:
    """Check that a configuration yields a determined system on a dataset.

    Returns the list of violated invariants (empty means valid).  Never
    raises for an invalid configuration.  ``row_start`` overrides the first
    regression row, used when several configurations must be scored on a
    common sample; it must be at least max(p, q).  On top of the structural
    constraints this requires T' >= K + 1, strictly more regression rows
    than design columns, so least squares has a unique answer for a
    full-rank design.
    """
    violations = structural_violations(cfg, ds, row_start=row_start)
    if violations:
        return violations
    start = cfg.row_start if row_start is None else row_start
    effective_t = ds.n_obs - start
    k = cfg.n_design_columns()
    if effective_t < k + 1:
        violations.append(
            f"insufficient effective sample: T'={effective_t} <= {k} design columns"
        )
    return violations


def count_parameters(cfg: ModelConfig, ds: TimeSeriesDataset) -> int:
    """Total scalar coefficients n * (n*p + d_used*q + c).

    Raises ValidationError when the configuration is invalid for the
    dataset.
    """
    violations = validate_config(cfg, ds)
    if violations:
        raise ValidationError(violations)
    return cfg.n_dependent * cfg.n_design_columns()
