"""Fits and searches run on one OpenBLAS thread and restore the count."""

import contextlib
import threading
from unittest import mock

import numpy as np
import pytest

from varsearch import (
    CoeffSearchParams,
    CriterionKind,
    EmptySpaceError,
    ModelConfig,
    RunConfig,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    compare_with_ols,
    exhaustive_search,
    fit,
    ga_search,
    grasp_search,
    hybrid_search,
    scatter_search,
    search_coefficients_full,
    tabu_search,
    write_report,
)
from varsearch import _blas, coeffsearch, ols
from varsearch.search.evaluation import CrossProductEvaluator

from .conftest import make_dataset, noisy_dataset

SETTERS = _blas._setters()
needs_setter = pytest.mark.skipif(
    not SETTERS, reason="no OpenBLAS thread setter in this numpy/scipy"
)

CFG = ModelConfig(p=1, q=0, dependent_mask=(True, True))
SPACE = SearchSpace(p_max=3)
BUDGET = SearchBudget(12, 6, 3)


def _counts():
    """Current count of each OpenBLAS, read through its setter."""
    counts = []
    for setter in SETTERS:
        previous = setter(1)
        setter(previous)
        counts.append(previous)
    return counts


@pytest.fixture
def three_threads():
    """Both libraries at three threads, so a scope's 1 and its restore show."""
    saved = [setter(3) for setter in SETTERS]
    assert _counts() == [3] * len(SETTERS)
    yield [3] * len(SETTERS)
    for setter, count in zip(SETTERS[::-1], saved[::-1]):
        setter(count)


ENTRY_POINTS = {
    "fit": lambda ds: fit(ds, CFG),
    "exhaustive_search": lambda ds: exhaustive_search(ds, SPACE, CriterionKind.BIC),
    **{
        search.__name__: (
            lambda ds, search=search: search(ds, SPACE, CriterionKind.AIC, BUDGET)
        )
        for search in (ga_search, tabu_search, grasp_search, scatter_search, hybrid_search)
    },
    "search_coefficients_full": lambda ds: search_coefficients_full(
        ds, CFG, CriterionKind.AIC, SearchMethod.GA, SearchBudget(40, 40, 1),
        CoeffSearchParams(population_size=10),
    ),
    "compare_with_ols": lambda ds: compare_with_ols(
        ds, CFG, CriterionKind.AIC, SearchMethod.TABU, SearchBudget(40, 40, 1)
    ),
}


# steps that do BLAS work outside any entry point nested in another, so an
# entry point without its own scope shows up as a count of 3
HOOKS = [
    (ols, "build_regression_system"),
    (CrossProductEvaluator, "evaluate"),
    (coeffsearch._CoeffProblem, "fitness"),
    # the residual scorer, which compare_with_ols's per-criterion
    # breakdown calls outside the fitness
    (coeffsearch, "_residual_log_det"),
]


@needs_setter
@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_runs_on_one_thread_and_restores(name, three_threads):
    seen = []

    def recording(step):
        def wrapper(*args, **kwargs):
            seen.append(_counts())
            return step(*args, **kwargs)

        return wrapper

    with contextlib.ExitStack() as stack:
        for owner, attr in HOOKS:
            stack.enter_context(
                mock.patch.object(owner, attr, recording(getattr(owner, attr)))
            )
        ENTRY_POINTS[name](noisy_dataset(seed=4, n=2, p=1, t=80))
    assert seen
    assert all(counts == [1] * len(three_threads) for counts in seen)
    assert _counts() == three_threads


@needs_setter
def test_count_restored_after_error(three_threads):
    # every candidate is rank deficient, so the search fails after its fits
    ds = make_dataset(np.zeros((30, 2)))
    with pytest.raises(EmptySpaceError):
        exhaustive_search(ds, SPACE, CriterionKind.AIC)
    assert _counts() == three_threads


@needs_setter
def test_scopes_in_two_threads_restore_when_the_last_closes(three_threads):
    # the setter's count is process-wide in the OpenBLAS builds numpy and
    # scipy ship, so a thread closing its scope while another thread's is
    # still open must not put the old count back
    opened, close, closed = threading.Event(), threading.Event(), threading.Event()

    def other():
        with _blas.one_blas_thread():
            opened.set()
            close.wait(timeout=30)
        closed.set()

    thread = threading.Thread(target=other)
    thread.start()
    assert opened.wait(timeout=30)
    with _blas.one_blas_thread():
        close.set()
        assert closed.wait(timeout=30)
        assert _counts() == [1] * len(three_threads)
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert _counts() == three_threads


def _search_outputs():
    ds = noisy_dataset(seed=2, n=2, d=1, q=1, t=120)
    space = SearchSpace(p_max=3, q_max=2)
    result = exhaustive_search(ds, space, CriterionKind.BIC)
    run = RunConfig(command="select", settings={"criterion": "bic"})
    reports = [write_report(result, fmt, run, names=ds.names) for fmt in ("human", "json")]
    return result.best_value, result.trajectory, result.candidate_log, reports


@needs_setter
def test_without_setter_scope_does_nothing_and_answers_are_identical(three_threads):
    expected = _search_outputs()
    with mock.patch.object(_blas, "_setters", lambda: ()):
        got = _search_outputs()
        with _blas.one_blas_thread():
            assert _counts() == three_threads
    assert got == expected
