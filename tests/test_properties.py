"""Property tests: every search engine answers as a search scored by QR alone.

The reference runs the same engine with each candidate's value looked up in
a table of ``evaluate_config`` results over ``enumerate_space``; a
configuration outside that table is invalid on the common sample too, so
its value is +inf.  The cross-product evaluator must reproduce the best
configuration, the best value and the trajectory bit for bit, and every
logged candidate value within 1e-9.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from varsearch import (
    CriterionKind,
    EmptySpaceError,
    ModelConfig,
    NumericOverflowError,
    PartitionMode,
    Role,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    TimeSeriesDataset,
    VarsearchError,
    enumerate_space,
    compare_with_ols,
    evaluate_config,
    exhaustive_search,
    fit,
    ga_search,
    grasp_search,
    hybrid_search,
    scatter_search,
    search_coefficients_full,
    tabu_search,
)
from varsearch.search import engines

LOG_TOLERANCE = 1e-9
ENGINES = [ga_search, tabu_search, grasp_search, scatter_search, hybrid_search]


class QROnlyEvaluator:
    """Scores every candidate by pivoted QR, from a table over the space."""

    def __init__(self, ds, space, kind):
        self.values = {}
        try:
            configs = enumerate_space(space, ds)
        except EmptySpaceError:
            configs = []
        self.table = {
            cfg: evaluate_config(ds, cfg, kind, space.common_row_start)
            for cfg in configs
        }

    def evaluate(self, cfg, order, best_value):
        value, fit_result = self.table.get(cfg, (math.inf, None))
        n_params = fit_result.n_params if fit_result is not None else math.inf
        self.values[order] = (value, n_params)
        return value, n_params, fit_result


def _outcome(search, *args):
    try:
        return search(*args)
    except VarsearchError as exc:
        return exc


def assert_same_as_qr(search, ds, space, kind, budget=None):
    args = (ds, space, kind) if budget is None else (ds, space, kind, budget)
    got = _outcome(search, *args)
    with mock.patch.object(engines, "CrossProductEvaluator", QROnlyEvaluator):
        want = _outcome(search, *args)
    if isinstance(want, VarsearchError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, VarsearchError), got
    assert got.best_config == want.best_config
    assert got.best_value == want.best_value
    assert got.trajectory == want.trajectory
    assert got.evaluations_used == want.evaluations_used
    assert got.skipped_invalid == want.skipped_invalid
    assert [c for c, _ in got.candidate_log] == [c for c, _ in want.candidate_log]
    for (_, a), (_, b) in zip(got.candidate_log, want.candidate_log):
        if math.isfinite(b):
            assert abs(a - b) <= LOG_TOLERANCE
        else:
            assert a == b
    assert np.array_equal(got.best_fit.residuals, want.best_fit.residuals)


def _series(rng, t, m, style):
    noise = rng.normal(size=(t, m))
    if style == "white":
        return noise
    if style == "random_walk":
        return np.cumsum(noise, axis=0)
    out = np.zeros((t, m))
    coef = rng.uniform(-0.4, 0.4, size=(m, m))
    for j in range(1, t):
        out[j] = out[j - 1] @ coef + noise[j]
    return out


@st.composite
def problems(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(1, 4))
    p_max = draw(st.integers(1, 3))
    q_max = draw(st.integers(0, 2))
    t = draw(st.integers(max(p_max, q_max) + 2, 60))
    obs = _series(rng, t, m, draw(st.sampled_from(["var", "white", "random_walk"])))
    hostile = draw(st.sampled_from(["none", "duplicate", "constant", "offset"]))
    if hostile == "duplicate" and m > 1:
        obs[:, -1] = obs[:, 0]
    elif hostile == "constant":
        obs[:, -1] = 3.0
    elif hostile == "offset":
        obs += 1e4
    obs *= draw(st.sampled_from([1.0, 1e8, 1e-8]))
    n_dep = draw(st.integers(1, m))
    roles = (Role.DEPENDENT,) * n_dep + (Role.INDEPENDENT,) * (m - n_dep)
    ds = TimeSeriesDataset(obs, tuple(f"v{i}" for i in range(m)), roles)
    switchable = tuple(i for i in range(n_dep, m) if draw(st.booleans()))
    space = SearchSpace(
        p_max=p_max,
        q_max=q_max,
        partition_mode=PartitionMode.SEARCH if switchable else PartitionMode.FIXED,
        switchable=switchable,
        include_constant=draw(st.booleans()),
    )
    kind = draw(st.sampled_from(list(CriterionKind)))
    budget = SearchBudget(
        draw(st.integers(1, 60)), draw(st.integers(1, 30)), draw(st.integers(0, 2**64 - 1))
    )
    return ds, space, kind, budget


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_engines_match_qr_only_search(problem):
    ds, space, kind, budget = problem
    assert_same_as_qr(exhaustive_search, ds, space, kind)
    for search in ENGINES:
        assert_same_as_qr(search, ds, space, kind, budget)


def _hostile_data(name):
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(size=(120, 2)), axis=0)
    var = _series(rng, 120, 2, "var")
    space = SearchSpace(
        p_max=3, q_max=2, partition_mode=PartitionMode.SEARCH, switchable=(2, 3)
    )
    kind = CriterionKind.AIC
    if name == "duplicated column":
        obs = np.hstack([var, walk[:, :1], walk[:, :1]])
    elif name == "constant column with intercept":
        obs = np.hstack([var, walk[:, :1], np.full((120, 1), 2.5)])
    elif name == "random-walk exogenous":
        obs = np.hstack([var, walk])
    elif name == "scaled by 1e8":
        obs = np.hstack([var, walk]) * 1e8
    elif name == "scaled by 1e-8":
        obs = np.hstack([var, walk]) * 1e-8
    elif name == "columns scaled 1e12 apart":
        # full rank, but QR's pivoted diagonal ratio falls below RANK_RTOL
        obs = np.hstack([var, walk * [1e6, 1e-6]])
    elif name == "T' = K + 1":
        # the largest candidate, p = 2 with both columns and a constant, has
        # K = 5 design columns on T' = 6 rows
        obs = var[:8]
        space = SearchSpace(p_max=2)
    elif name == "HQC at T' <= e":
        obs = var[:3, :1]
        space = SearchSpace(p_max=1, include_constant=False)
        kind = CriterionKind.HQC
    elif name.startswith("scaled by 1e160"):
        # sums of squares overflow float64: ||E|| and ||Y|| are both inf
        obs = np.random.default_rng(0).normal(size=(40, 2)) * 1e160
        space = SearchSpace(p_max=2, include_constant=name.endswith("with intercept"))
    elif name == "exogenous column scaled by 1e160":
        # Y is fine, but the cross products of the exogenous column overflow
        obs = np.hstack([var[:40], walk[:40, :1] * 1e160])
        space = SearchSpace(p_max=2, q_max=1, include_constant=False)
    roles = (Role.DEPENDENT,) * 2 + (Role.INDEPENDENT,) * (obs.shape[1] - 2)
    if obs.shape[1] < 2:
        roles = (Role.DEPENDENT,)
    ds = TimeSeriesDataset(obs, tuple(f"v{i}" for i in range(obs.shape[1])), roles)
    return ds, space, kind


@pytest.mark.parametrize(
    "name",
    [
        "duplicated column",
        "constant column with intercept",
        "random-walk exogenous",
        "scaled by 1e8",
        "scaled by 1e-8",
        "columns scaled 1e12 apart",
        "T' = K + 1",
        "HQC at T' <= e",
    ],
)
@pytest.mark.parametrize("search", [exhaustive_search] + ENGINES, ids=lambda f: f.__name__)
def test_hostile_inputs_give_qr_answer(name, search):
    ds, space, kind = _hostile_data(name)
    budget = None if search is exhaustive_search else SearchBudget(40, 20, 5)
    assert_same_as_qr(search, ds, space, kind, budget)


def _config(space):
    return ModelConfig(p=1, q=0, dependent_mask=(True, True),
                       include_constant=space.include_constant)


def _fit(ds, space, kind):
    return fit(ds, _config(space))


def _coefficient_search(ds, space, kind):
    return search_coefficients_full(
        ds, _config(space), kind, SearchMethod.GA, SearchBudget(40, 20, 5)
    )


def _comparison(ds, space, kind):
    return compare_with_ols(
        ds, _config(space), kind, SearchMethod.TABU, SearchBudget(40, 20, 5)
    )


@pytest.mark.parametrize(
    "name", ["scaled by 1e160 with intercept", "scaled by 1e160 without intercept"]
)
@pytest.mark.parametrize(
    "run",
    [exhaustive_search, *ENGINES, _fit, _coefficient_search, _comparison],
    ids=lambda f: f.__name__,
)
def test_overflowing_data_raise_typed_error(name, run):
    ds, space, kind = _hostile_data(name)
    args = (ds, space, kind)
    if run in ENGINES:
        args += (SearchBudget(40, 20, 5),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            run(*args)


@pytest.mark.parametrize("search", [exhaustive_search] + ENGINES, ids=lambda f: f.__name__)
def test_overflowing_exogenous_column_raises_typed_error(search):
    ds, space, kind = _hostile_data("exogenous column scaled by 1e160")
    budget = () if search is exhaustive_search else (SearchBudget(40, 20, 5),)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflowError):
            search(ds, space, kind, *budget)
