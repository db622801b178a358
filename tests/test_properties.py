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
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from varsearch import (
    CoeffSearchParams,
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

    def screen_batch(self, batch):
        """Nothing to screen: every candidate is read from the table."""

    def screen_families(self, batch):
        """Nothing to screen: every candidate is read from the table."""

    def evaluate(self, cfg, order, best_value):
        value, fit_result = self.table.get(cfg, (math.inf, None))
        n_params = fit_result.n_params if fit_result is not None else math.inf
        self.values[order] = (value, n_params)
        # the least-squares coefficients, which a search keeps for its winner
        theta = fit_result.coefficients.flatten() if fit_result is not None else None
        return value, n_params, theta


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


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.integers(-30, 30))
def test_fixed_partition_answers_do_not_depend_on_units(problem, k):
    # scaling every column by s = 2^k shifts every value by n ln s^2, so
    # the winner and the candidates scored -inf stay
    ds, space, kind, _ = problem
    space = SearchSpace(
        p_max=space.p_max, q_max=space.q_max, include_constant=space.include_constant
    )
    scaled = TimeSeriesDataset(ds.observations * 2.0**k, ds.names, ds.roles)
    want = _outcome(exhaustive_search, ds, space, kind)
    got = _outcome(exhaustive_search, scaled, space, kind)
    if isinstance(want, VarsearchError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.best_config == want.best_config
    for (cfg, a), (want_cfg, b) in zip(got.candidate_log, want.candidate_log):
        assert cfg == want_cfg
        if math.isfinite(b):
            shift = cfg.n_dependent * k * math.log(4.0)
            assert a == pytest.approx(b + shift, rel=0.0, abs=LOG_TOLERANCE)
        else:
            assert a == b


# A logged value lies within LOG_TOLERANCE of its QR value, so two runs may
# differ by 2 LOG_TOLERANCE from the screen alone.  A shift by 1e4 rounds the
# data by 1e4 u ~ 1e-12 of a magnitude of at least 1, and a permuted QR rounds
# differently; over 1,000 generated examples of each, no value moved by more
# than 2e-11.
METAMORPHIC_TOLERANCE = 1e-8


def assert_same_answers(want, got):
    """Same candidates, finite values within METAMORPHIC_TOLERANCE, the same
    infinite ones, and the same winner unless the runner-up ties it."""
    if isinstance(want, VarsearchError):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, VarsearchError), got
    values, got_values = dict(want.candidate_log), dict(got.candidate_log)
    assert values.keys() == got_values.keys()
    for cfg, value in values.items():
        if math.isfinite(value):
            assert got_values[cfg] == pytest.approx(value, rel=0.0, abs=METAMORPHIC_TOLERANCE)
        else:
            assert got_values[cfg] == value
    assert got.best_value == pytest.approx(want.best_value, rel=0.0, abs=METAMORPHIC_TOLERANCE)
    if got.best_config != want.best_config:
        # a rounding error can reorder two candidates only when their values
        # are closer than it, so a flip is allowed between a near tie alone
        tie = values[got.best_config] - want.best_value
        assert tie == pytest.approx(0.0, abs=METAMORPHIC_TOLERANCE)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems())
def test_a_shift_with_an_intercept_keeps_the_answers(problem):
    # the intercept absorbs a shift of every column, so every residual stays
    # in exact arithmetic; data scaled by 1e-8 would keep only about four
    # digits beside 1e4, so the property is asked of data of magnitude >= 1
    ds, space, kind, _ = problem
    assume(np.abs(ds.observations).max() >= 1.0)
    space = SearchSpace(p_max=space.p_max, q_max=space.q_max, include_constant=True)
    shifted = TimeSeriesDataset(ds.observations + 1e4, ds.names, ds.roles)
    assert_same_answers(
        _outcome(exhaustive_search, ds, space, kind),
        _outcome(exhaustive_search, shifted, space, kind),
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), st.data())
def test_permuting_columns_within_their_roles_keeps_the_answers(problem, data):
    # a permutation of X's columns keeps the residuals, and one of Y's keeps
    # det(E'E), so every value stays in exact arithmetic
    ds, space, kind, _ = problem
    space = SearchSpace(
        p_max=space.p_max, q_max=space.q_max, include_constant=space.include_constant
    )
    n_dep = sum(ds.base_mask)
    dependent = data.draw(st.permutations(range(n_dep)))
    independent = data.draw(st.permutations(range(n_dep, ds.n_vars)))
    columns = list(dependent) + list(independent)
    permuted = TimeSeriesDataset(ds.observations[:, columns], ds.names, ds.roles)
    assert_same_answers(
        _outcome(exhaustive_search, ds, space, kind),
        _outcome(exhaustive_search, permuted, space, kind),
    )


@st.composite
def coefficient_problems(draw):
    """A small configuration, its data, a criterion, a budget and GA settings."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 3))
    n_dep = draw(st.integers(1, m))
    p = draw(st.integers(1, 2))
    q = draw(st.integers(0, 1)) if n_dep < m else 0
    t = draw(st.integers(max(p, q) + 6, 40))
    obs = _series(rng, t, m, draw(st.sampled_from(["var", "white", "random_walk"])))
    roles = (Role.DEPENDENT,) * n_dep + (Role.INDEPENDENT,) * (m - n_dep)
    ds = TimeSeriesDataset(obs, tuple(f"v{i}" for i in range(m)), roles)
    cfg = ModelConfig(
        p=p, q=q, dependent_mask=ds.base_mask, include_constant=draw(st.booleans())
    )
    kind = draw(st.sampled_from(list(CriterionKind)))
    budget = SearchBudget(
        draw(st.integers(1, 80)), draw(st.integers(1, 30)), draw(st.integers(0, 2**64 - 1))
    )
    params = CoeffSearchParams(population_size=draw(st.integers(2, 8)))
    return ds, cfg, kind, budget, params


def assert_trajectory_sound(trajectory, best_value, evaluations_used, budget):
    """Improvements at rising evaluation indices, never worse, ending at the best."""
    indices = [i for i, _ in trajectory]
    values = [v for _, v in trajectory]
    assert indices and 1 <= indices[0] and indices[-1] <= evaluations_used
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[-1] == best_value
    assert evaluations_used <= budget.max_evaluations


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(problems(), coefficient_problems())
def test_trajectories_never_increase_in_either_space(problem, coefficient_problem):
    ds, space, kind, budget = problem
    for search in [exhaustive_search] + ENGINES:
        result = _outcome(search, ds, space, kind, budget)
        if not isinstance(result, VarsearchError):
            assert_trajectory_sound(
                result.trajectory, result.best_value, result.evaluations_used, budget
            )
    ds, cfg, kind, budget, params = coefficient_problem
    for method in SearchMethod:
        if method is SearchMethod.EXHAUSTIVE:
            continue
        outcome = search_coefficients_full(ds, cfg, kind, method, budget, params)
        assert_trajectory_sound(
            outcome.trajectory, outcome.value, outcome.evaluations_used, budget
        )


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
        # full rank; the pivoted R diagonal of the small column is about
        # 1e-12 of the largest, but not of its own column's norm
        obs = np.hstack([var, walk * [1e6, 1e-6]])
    elif name.startswith("intercept beside data scaled by"):
        # the intercept column is about 1e-11 (1e-150) of the data columns
        scale = float(name.rsplit(" ", 1)[1])
        obs = np.random.default_rng(0).normal(size=(40, 2)) * scale
        space = SearchSpace(p_max=2)
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
        "intercept beside data scaled by 1e11",
        "intercept beside data scaled by 1e150",
        "T' = K + 1",
        "HQC at T' <= e",
    ],
)
@pytest.mark.parametrize("search", [exhaustive_search] + ENGINES, ids=lambda f: f.__name__)
def test_hostile_inputs_give_qr_answer(name, search):
    ds, space, kind = _hostile_data(name)
    budget = None if search is exhaustive_search else SearchBudget(40, 20, 5)
    assert_same_as_qr(search, ds, space, kind, budget)


@pytest.mark.parametrize(
    "name",
    [
        "columns scaled 1e12 apart",
        "intercept beside data scaled by 1e11",
        "intercept beside data scaled by 1e150",
    ],
)
def test_badly_scaled_columns_are_full_rank_on_both_evaluator_paths(name):
    # the rank test is relative to each column's norm, so a column that is
    # small beside the others is no reason to call the design deficient
    ds, space, kind = _hostile_data(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = exhaustive_search(ds, space, kind)
        with mock.patch.object(engines, "CrossProductEvaluator", QROnlyEvaluator):
            want = exhaustive_search(ds, space, kind)
    assert math.isfinite(got.best_value)
    assert got.best_value == want.best_value
    assert got.best_config == want.best_config
    assert got.skipped_invalid == want.skipped_invalid == 0
    cfg = ModelConfig(p=1, q=0, dependent_mask=ds.base_mask)
    assert math.isfinite(fit(ds, cfg).criterion(kind))


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
