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
- each value ``CrossProductEvaluator._screen`` gives within its own bound;
- ``fit`` raises ``RankDeficientError`` on a design whose columns a stated
  combination sends exactly to zero.
"""

import itertools
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from varsearch import (
    CriterionKind,
    ModelConfig,
    PartitionMode,
    RankDeficientError,
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


def _model_form(obs, cfg, row_start):
    """Columns of X, [y lags | z lags | 1], and of Y for rows row_start on."""
    t = len(obs)
    dependent, independent = cfg.dependent_indices, cfg.independent_indices
    x = [obs[row_start - lag : t - lag, i] for lag in range(1, cfg.p + 1) for i in dependent]
    x += [obs[row_start - lag : t - lag, i] for lag in range(1, cfg.q + 1) for i in independent]
    if cfg.include_constant:
        x.append(np.ones(t - row_start))
    return x, [obs[row_start:, i] for i in dependent]


def _exact_log_det(obs, cfg, row_start) -> Decimal:
    """ln det(E'E / T') of the exact least-squares fit of rows row_start on."""
    x, y = _model_form(obs, cfg, row_start)
    x, y = [_integer_column(c) for c in x], [_integer_column(c) for c in y]
    ratio = _gram_det([c for c, _ in x + y]) / _gram_det([c for c, _ in x])
    for _, den in y:
        ratio /= den * den  # Y's columns were scaled by den, X's cancel
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        log_det = (Decimal(ratio.numerator) / Decimal(ratio.denominator)).ln()
        return log_det - len(y) * Decimal(len(obs) - row_start).ln()


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


def _dependent_problem(relation, seed, scale):
    """Data whose design columns are exactly dependent, its configuration and
    weights w, one per column of X, with X w = 0 by construction.

    a and b lie in [2, 3] times ``scale``, so a - b is exact (Sterbenz), and
    so are -a / 2, a copy of a one step late and a repeated float.
    """
    rng = np.random.default_rng(seed)
    t = int(rng.integers(12, 61)) + 2
    a, b = (scale * (2.0 + rng.random(t)) for _ in range(2))
    constant = seed % 2 == 0 or relation == "constant"
    dependent = (True, True, True)
    if relation == "difference":  # X = [a | b | a - b | (1)]
        obs, p, weights = [a, b, a - b], 1, [1, -1, -1]
    elif relation == "multiple":  # X = [a | -a / 2 | (1)], b independent
        obs, p, weights = [a, -0.5 * a, b], 1, [1, 2]
        dependent = (True, True, False)
    elif relation == "delayed":  # X = [a1 | c1 | b1 | a2 | c2 | b2 | (1)], c1 = a2
        obs, p, weights = [a, np.r_[b[0], a[:-1]], b], 2, [0, 1, 0, -1, 0, 0]
    else:  # "constant": X = [a | b | v | 1], the third series all v
        v = float(b[0])
        obs, p, weights = [a, b, np.full(t, v)], 1, [0, 0, 1, -v]
    cfg = ModelConfig(p=p, q=0, dependent_mask=dependent, include_constant=constant)
    if constant and relation != "constant":
        weights = weights + [0]
    roles = [Role.DEPENDENT if m else Role.INDEPENDENT for m in dependent]
    ds = TimeSeriesDataset(np.column_stack(obs), ["a", "b", "c"], roles)
    return ds, cfg, weights


DEPENDENT_CASES = list(
    itertools.product(("difference", "multiple", "delayed", "constant"), (1e-8, 1.0, 3.7, 1e8))
)


@pytest.mark.parametrize("seed", range(len(DEPENDENT_CASES)))
def test_exactly_dependent_columns_raise_rank_deficient(seed):
    relation, scale = DEPENDENT_CASES[seed]
    ds, cfg, weights = _dependent_problem(relation, seed, scale)
    x, _ = _model_form(ds.observations, cfg, cfg.row_start)
    assert len(weights) == len(x) == cfg.n_design_columns() and any(weights)
    # X w = 0 in exact arithmetic, each float read as the rational it is
    for row in zip(*(c.tolist() for c in x)):
        assert sum(Fraction(w) * Fraction(v) for w, v in zip(weights, row)) == 0
    with pytest.raises(RankDeficientError):
        fit(ds, cfg)
