"""Search space enumeration, genome encoding, budget validation."""

import numpy as np
import pytest

from varsearch import (
    CriterionKind,
    EmptySpaceError,
    ModelConfig,
    PartitionMode,
    Role,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    ValidationError,
    enumerate_space,
    exhaustive_search,
    ga_search,
    grasp_search,
    hybrid_search,
    scatter_search,
    tabu_search,
)
from varsearch.search.evaluation import CrossProductEvaluator

from .conftest import make_dataset


def test_lag_only_enumeration_order():
    ds = make_dataset(np.random.default_rng(0).normal(size=(50, 1)))
    space = SearchSpace(p_max=2)
    configs = enumerate_space(space, ds)
    assert [(c.p, c.q) for c in configs] == [(1, 0), (2, 0)]


def test_p_then_q_order():
    ds = make_dataset(
        np.random.default_rng(1).normal(size=(50, 2)),
        roles=(Role.DEPENDENT, Role.INDEPENDENT),
    )
    space = SearchSpace(p_max=2, q_max=1)
    configs = enumerate_space(space, ds)
    assert [(c.p, c.q) for c in configs] == [(1, 0), (1, 1), (2, 0), (2, 1)]


def test_mask_enumerated_as_binary_integer():
    ds = make_dataset(
        np.random.default_rng(2).normal(size=(60, 3)),
        roles=(Role.DEPENDENT, Role.INDEPENDENT, Role.INDEPENDENT),
    )
    space = SearchSpace(
        p_max=1, q_max=1, partition_mode=PartitionMode.SEARCH, switchable=(1, 2)
    )
    configs = enumerate_space(space, ds)
    # for q = 0 every mask is valid; bit 0 belongs to column 1
    q0 = [c.dependent_mask for c in configs if c.q == 0]
    assert q0 == [
        (True, False, False),
        (True, True, False),
        (True, False, True),
        (True, True, True),
    ]
    # q = 1 excludes the all-dependent mask (no independent column left)
    q1 = [c.dependent_mask for c in configs if c.q == 1]
    assert (True, True, True) not in q1
    assert len(q1) == 3


def test_short_sample_filters_large_p():
    ds = make_dataset(np.arange(5.0))
    space = SearchSpace(p_max=4)
    configs = enumerate_space(space, ds)
    # T = 5: p = 1 leaves T' = 4 > 2 columns; p = 2 leaves T' = 3 = K + 1 fails
    assert [c.p for c in configs] == [1]


def test_empty_space_raises():
    ds = make_dataset([1.0, 2.0])
    with pytest.raises(EmptySpaceError):
        enumerate_space(SearchSpace(p_max=3), ds)


def test_genome_index_round_trip_and_lexicographic_order():
    ds = make_dataset(
        np.random.default_rng(3).normal(size=(40, 3)),
        roles=(Role.DEPENDENT, Role.INDEPENDENT, Role.INDEPENDENT),
    )
    space = SearchSpace(
        p_max=3, q_max=2, partition_mode=PartitionMode.SEARCH, switchable=(1, 2)
    )
    keys = []
    for index in range(space.raw_size()):
        p, q, bits = space.genes(index)
        assert space.index_of(p, q, bits) == index
        cfg = space.config_at(index, ds)
        assert (cfg.p, cfg.q) == (p, q)
        assert cfg.dependent_mask == (True,) + tuple(bool(b) for b in bits)
        keys.append((p, q, sum(b << i for i, b in enumerate(bits))))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_raw_size_and_common_row_start():
    space = SearchSpace(
        p_max=5, q_max=3, partition_mode=PartitionMode.SEARCH, switchable=(2, 3)
    )
    assert space.raw_size() == 5 * 4 * 4
    assert space.common_row_start == 5


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(p_max=0)
    with pytest.raises(ValueError):
        SearchSpace(p_max=1, q_max=-1)
    with pytest.raises(ValueError):
        SearchSpace(p_max=1, switchable=(0,))  # fixed mode forbids switchable


def test_negative_switchable_index_rejected():
    # -1 would alias the last column: (-1, 2) on three columns gave two
    # bits for column 2
    with pytest.raises(ValueError, match=">= 0"):
        SearchSpace(p_max=1, partition_mode=PartitionMode.SEARCH, switchable=(-1, 2))


def _three_columns():
    return make_dataset(np.random.default_rng(3).normal(size=(40, 3)))


@pytest.mark.parametrize(
    "search",
    [
        lambda ds, space: enumerate_space(space, ds),
        lambda ds, space: exhaustive_search(ds, space, CriterionKind.AIC),
    ]
    + [
        lambda ds, space, engine=engine: engine(
            ds, space, CriterionKind.AIC, SearchBudget(20)
        )
        for engine in (ga_search, tabu_search, grasp_search, scatter_search,
                       hybrid_search)
    ],
    ids=["enumerate", "exhaustive", "ga", "tabu", "grasp", "scatter", "hybrid"],
)
def test_switchable_index_past_the_last_column_is_a_validation_error(
    search, monkeypatch
):
    scored = []
    evaluate = CrossProductEvaluator.evaluate

    def counting(self, cfg, order, best_value):
        scored.append(order)
        return evaluate(self, cfg, order, best_value)

    monkeypatch.setattr(CrossProductEvaluator, "evaluate", counting)
    space = SearchSpace(p_max=1, partition_mode=PartitionMode.SEARCH, switchable=(0, 3))
    with pytest.raises(ValidationError, match="switchable column 3"):
        search(_three_columns(), space)
    assert scored == []


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(0)
    with pytest.raises(ValueError):
        SearchBudget(10, stagnation_limit=0)
    with pytest.raises(ValueError):
        SearchBudget(10, master_seed=-1)
    budget = SearchBudget(10)
    assert budget.stagnation_limit == 200
    assert budget.master_seed == 0


def test_method_parsing():
    assert SearchMethod.from_string(" GA ") is SearchMethod.GA
    assert SearchMethod.from_string("exhaustive") is SearchMethod.EXHAUSTIVE
    with pytest.raises(ValueError, match="unknown method"):
        SearchMethod.from_string("anneal")
