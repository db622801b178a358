"""Regression system construction: worked examples and lag structure."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varsearch import (
    ModelConfig,
    Role,
    ValidationError,
    build_regression_system,
    generate,
    random_stable_coefficients,
    GeneratorSpec,
)

from varsearch.design import _PRODUCT_ROWS, _lag_window, _row_blocks, _window_columns

from .conftest import make_dataset


def test_univariate_one_lag(counting_series, counting_config):
    sys = build_regression_system(counting_series, counting_config)
    np.testing.assert_array_equal(sys.y, [[2.0], [3.0], [4.0]])
    np.testing.assert_array_equal(sys.x, [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])


def test_univariate_two_lags(counting_series):
    cfg = ModelConfig(p=2, q=0, dependent_mask=(True,))
    sys = build_regression_system(counting_series, cfg)
    np.testing.assert_array_equal(sys.y, [[3.0], [4.0]])
    # lag-1 block comes before lag-2
    np.testing.assert_array_equal(sys.x, [[2.0, 1.0, 1.0], [3.0, 2.0, 1.0]])


def test_exogenous_block_between_lags_and_constant(mixed_dataset):
    cfg = ModelConfig(p=1, q=1, dependent_mask=(True, False))
    sys = build_regression_system(mixed_dataset, cfg)
    np.testing.assert_array_equal(sys.y, [[2.0], [3.0]])
    np.testing.assert_array_equal(sys.x, [[1.0, 10.0, 1.0], [2.0, 20.0, 1.0]])


def test_constant_column_is_last_and_all_ones():
    ds = make_dataset(np.random.default_rng(0).normal(size=(30, 2)))
    cfg = ModelConfig(p=2, q=0, dependent_mask=(True, True))
    sys = build_regression_system(ds, cfg)
    np.testing.assert_array_equal(sys.x[:, -1], np.ones(sys.effective_t))


def test_no_constant_drops_the_ones_column():
    ds = make_dataset(np.random.default_rng(0).normal(size=(30, 2)))
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True), include_constant=False)
    sys = build_regression_system(ds, cfg)
    assert sys.n_columns == 2
    assert not np.allclose(sys.x[:, -1], 1.0)


def test_invalid_config_raises():
    ds = make_dataset([1.0, 2.0])
    cfg = ModelConfig(p=3, q=0, dependent_mask=(True,))
    with pytest.raises(ValidationError):
        build_regression_system(ds, cfg)


def test_shift_property():
    """Row r+1 of the lag-L block equals row r of the lag-(L-1) block."""
    rng = np.random.default_rng(7)
    ds = make_dataset(rng.normal(size=(40, 2)))
    cfg = ModelConfig(p=3, q=0, dependent_mask=(True, True))
    sys = build_regression_system(ds, cfg)
    n = 2
    for lag in range(2, cfg.p + 1):
        left = sys.x[1:, (lag - 1) * n : lag * n]
        right = sys.x[:-1, (lag - 2) * n : (lag - 1) * n]
        np.testing.assert_array_equal(left, right)


def test_rows_match_dataset_slices():
    rng = np.random.default_rng(8)
    obs = rng.normal(size=(25, 3))
    ds = make_dataset(
        obs, roles=(Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT)
    )
    cfg = ModelConfig(p=2, q=1, dependent_mask=(True, True, False))
    sys = build_regression_system(ds, cfg)
    start = cfg.row_start
    for r in range(sys.effective_t):
        np.testing.assert_array_equal(sys.y[r], obs[start + r, :2])
        np.testing.assert_array_equal(sys.x[r, 0:2], obs[start + r - 1, :2])
        np.testing.assert_array_equal(sys.x[r, 2:4], obs[start + r - 2, :2])
        np.testing.assert_array_equal(sys.x[r, 4:5], obs[start + r - 1, 2:3])
    np.testing.assert_array_equal(sys.x[:, 5], np.ones(sys.effective_t))


def test_row_start_override_aligns_samples():
    ds = make_dataset(np.arange(30.0))
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
    natural = build_regression_system(ds, cfg)
    shared = build_regression_system(ds, cfg, row_start=3)
    assert natural.effective_t == 29
    assert shared.effective_t == 27
    np.testing.assert_array_equal(shared.y, natural.y[2:])


def test_noiseless_reconstruction():
    """X times the true flattened coefficients reproduces Y exactly."""
    coef = random_stable_coefficients(n=2, p=2, d=1, q=1, seed=3)
    spec = GeneratorSpec(
        coefficients=coef, t=120, noise_scale=0.0, burn_in=0, seed=4,
        exogenous="random_walk",
        initial_state=np.random.default_rng(5).normal(size=(2, 2)),
    )
    ds = generate(spec)
    cfg = ModelConfig(p=2, q=1, dependent_mask=(True, True, False))
    sys = build_regression_system(ds, cfg)
    predicted = sys.x @ coef.flatten()
    rel = np.linalg.norm(predicted - sys.y) / np.linalg.norm(sys.y)
    assert rel <= 1e-12


def _fancy_gather(ds, cfg, start):
    """X and Y by fancy indexing of the 3-D lag window, as they were once
    built; the basic-slice gather must give the same bytes in the same
    memory order."""
    window = _lag_window(ds.observations, start, start)
    lags, variables = np.divmod(_window_columns(cfg, ds.n_vars)[0], ds.n_vars)
    order = "C" if lags.size == cfg.p + cfg.q else "F"
    x = np.empty((window.shape[0], cfg.n_design_columns()), order=order)
    x[:, : lags.size] = window[:, lags, variables]
    x[:, lags.size :] = 1.0
    y = window[:, 0, list(cfg.dependent_indices)].copy()
    return x, y


@st.composite
def stacking_cases(draw):
    """(mask, p, q, constant, extra rows skipped or None, seed)."""
    m = draw(st.integers(1, 5))
    mask = draw(st.lists(st.booleans(), min_size=m, max_size=m).filter(any))
    p = draw(st.integers(1, 3))
    q = draw(st.integers(0, 3)) if not all(mask) else 0
    constant = draw(st.booleans())
    extra = draw(st.none() | st.integers(0, 3))
    return tuple(mask), p, q, constant, extra, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(stacking_cases())
@example(((True, False), 1, 1, True, None, 0))  # one-column lag blocks: C order
@example(((True, True, False), 2, 0, False, None, 1))  # no constant
@example(((True, True, False, False), 2, 3, True, None, 2))  # q > 0
@example(((True, False, True), 3, 1, True, 2, 3))  # a row_start override
def test_gather_matches_fancy_indexing_bit_for_bit(case):
    mask, p, q, constant, extra, seed = case
    cfg = ModelConfig(p=p, q=q, dependent_mask=mask, include_constant=constant)
    start = cfg.row_start + (extra or 0)
    rng = np.random.default_rng(seed)
    ds = make_dataset(rng.normal(size=(start + int(rng.integers(1, 30)), len(mask))))
    sys = build_regression_system(ds, cfg, row_start=None if extra is None else start)
    for got, expected in zip((sys.x, sys.y), _fancy_gather(ds, cfg, start)):
        assert got.shape == expected.shape and got.strides == expected.strides
        assert got.tobytes("A") == expected.tobytes("A")


@pytest.mark.parametrize(
    "order, roles, row_start, view",
    [
        ("C", (Role.DEPENDENT,) * 3, None, True),
        ("C", (Role.DEPENDENT,) * 3, 4, True),
        ("F", (Role.DEPENDENT,) * 3, None, False),  # other strides: gathered
        ("C", (Role.DEPENDENT, Role.INDEPENDENT, Role.DEPENDENT), None, False),
    ],
)
def test_y_is_a_read_only_view_exactly_where_every_column_is_dependent(
    order, roles, row_start, view
):
    obs = np.random.default_rng(1).normal(size=(40, 3))
    ds = make_dataset(np.asarray(obs, order=order), roles=roles)
    mask = tuple(r is Role.DEPENDENT for r in roles)
    cfg = ModelConfig(p=2, q=int(not all(mask)), dependent_mask=mask)
    sys = build_regression_system(ds, cfg, row_start=row_start)
    start = sys.row_start
    assert np.shares_memory(sys.y, ds.observations) == view
    assert sys.y.flags.writeable == (not view)
    assert sys.y.strides == (8 * sum(mask), 8)
    np.testing.assert_array_equal(sys.y, obs[start:, list(cfg.dependent_indices)])


@pytest.mark.parametrize("rows", [1, 2, _PRODUCT_ROWS - 1, _PRODUCT_ROWS, 2 * _PRODUCT_ROWS - 1,
                                  2 * _PRODUCT_ROWS, 3 * _PRODUCT_ROWS + 1])
def test_row_blocks_cover_x_without_a_lone_row(rows):
    # C order: one product over all rows; Fortran order: blocks of
    # _PRODUCT_ROWS rows, the last taking the remainder
    assert _row_blocks(rows, fortran=False) == [(0, rows)]
    blocks = _row_blocks(rows, fortran=True)
    assert blocks[0][0] == 0 and blocks[-1][1] == rows
    assert all(hi == lo for (_, hi), (lo, _) in zip(blocks, blocks[1:]))
    sizes = [hi - lo for lo, hi in blocks]
    assert all(min(rows, _PRODUCT_ROWS) <= size < 2 * _PRODUCT_ROWS for size in sizes)
