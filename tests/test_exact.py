"""Exact arithmetic as the oracle for the numerical guarantees.

Every float is an exact rational, so ln det Sigma of the exact least-squares
fit follows from two Gram determinants computed without rounding: by the
Schur complement, det(E'E) = det([X Y]'[X Y]) / det(X'X).  Each column is
scaled by a power of two to integers, the Grams are integer sums, the
determinants come from elimination in ``fractions.Fraction`` and the
logarithm from ``decimal`` at 60 digits.  X is built from the README's
model form, [y lags | z lags | 1], not by ``design.py``.

Checked against the exact values:
- ``fit``'s ln det Sigma within ``QR_BOUND``;
- each value ``CrossProductEvaluator._screen`` gives within its own bound.
"""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from varsearch import (
    CriterionKind,
    PartitionMode,
    Role,
    SearchSpace,
    TimeSeriesDataset,
    enumerate_space,
    fit,
)
from varsearch.search.evaluation import CrossProductEvaluator

# |ln det Sigma of QR - exact| allowed, stated before measuring
QR_BOUND = 1e-12

_DIGITS = 60


def _integer_column(values):
    """``(ints, den)`` with ``values == ints / den`` exactly, den a power of two."""
    ratios = [v.as_integer_ratio() for v in values.tolist()]
    den = max(d for _, d in ratios)
    return [n * (den // d) for n, d in ratios], den


def _gram_det(columns) -> Fraction:
    """det of the Gram matrix of integer columns, by elimination without
    pivoting, which a positive definite Gram never needs."""
    a = [[Fraction(sum(map(int.__mul__, u, v))) for v in columns] for u in columns]
    det = Fraction(1)
    for k in range(len(a)):
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


def _exact_log_det(obs, cfg, row_start) -> Decimal:
    """ln det(E'E / T') of the exact least-squares fit of rows row_start on."""
    t = len(obs)
    dependent, independent = cfg.dependent_indices, cfg.independent_indices
    x = [obs[row_start - lag : t - lag, i] for lag in range(1, cfg.p + 1) for i in dependent]
    x += [obs[row_start - lag : t - lag, i] for lag in range(1, cfg.q + 1) for i in independent]
    if cfg.include_constant:
        x.append(np.ones(t - row_start))
    y = [obs[row_start:, i] for i in dependent]
    x, y = [_integer_column(c) for c in x], [_integer_column(c) for c in y]
    ratio = _gram_det([c for c, _ in x + y]) / _gram_det([c for c, _ in x])
    for _, den in y:
        ratio /= den * den  # Y's columns were scaled by den, X's cancel
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        log_det = (Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln()
        return log_det - len(y) * Decimal(t - row_start).ln()


def _exact_criterion(kind, log_det: Decimal, n_params, effective_t) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        weight = {
            CriterionKind.AIC: Decimal(2),
            CriterionKind.BIC: Decimal(effective_t).ln(),
            CriterionKind.HQC: 2 * Decimal(effective_t).ln().ln(),
        }[kind]
        return log_det + weight * n_params / effective_t


def _observations(flavour, seed, scale):
    """T' + 2 rows of three series, T' between 12 and 60."""
    rng = np.random.default_rng(seed)
    t = int(rng.integers(12, 61)) + 2
    shocks = rng.normal(size=(t, 3))
    if flavour == "walk":
        obs = np.cumsum(shocks, axis=0)
    elif flavour == "ar":
        obs = np.zeros((t, 3))
        for j in range(1, t):
            obs[j] = 0.9 * obs[j - 1] + shocks[j]
    else:
        obs = shocks
    return obs * scale


def _problem(flavour, seed, scale):
    """Data, a space whose roles are searched, and its candidates with K <= 6
    and n <= 2."""
    obs = _observations(flavour, seed, scale)
    roles = [Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT]
    ds = TimeSeriesDataset(obs, ["a", "b", "c"], roles)
    space = SearchSpace(
        p_max=2,
        q_max=2,
        partition_mode=PartitionMode.SEARCH,
        switchable=(1, 2),
        include_constant=seed % 2 == 0,
    )
    configs = [
        cfg
        for cfg in enumerate_space(space, ds)
        if cfg.n_design_columns() <= 6 and cfg.n_dependent <= 2
    ]
    return ds, space, configs


CASES = list(
    itertools.product(("normal", "walk", "ar"), (1e-8, 1.0, 3.7, 1e8), list(CriterionKind))
)


@pytest.mark.parametrize("seed", range(len(CASES)))
def test_qr_and_screen_against_exact_values(seed):
    flavour, scale, kind = CASES[seed]
    ds, space, configs = _problem(flavour, seed, scale)
    row_start = space.common_row_start
    effective_t = len(ds.observations) - row_start
    evaluator = CrossProductEvaluator(ds, space, kind)
    screens = evaluator._screen([(cfg, cfg.n_design_columns()) for cfg in configs])
    assert any(screen is not None for screen in screens)
    for cfg, screen in zip(configs, screens):
        exact = _exact_log_det(ds.observations, cfg, row_start)
        qr = fit(ds, cfg, row_start=row_start).log_det
        assert abs(float(Decimal(qr) - exact)) <= QR_BOUND, cfg
        if screen is not None:
            value, bound = screen
            n_params = cfg.n_dependent * cfg.n_design_columns()
            truth = _exact_criterion(kind, exact, n_params, effective_t)
            assert abs(float(Decimal(value) - truth)) <= bound, cfg
