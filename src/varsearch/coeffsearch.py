"""Direct metaheuristic search over coefficient space.

Instead of estimating coefficients by least squares, these engines treat
the flattened coefficient matrix as a continuous genome and minimize the
same information criterion the estimator reports.  Because the space is
continuous there is no candidate cache: every fitness call costs budget.

The GA, tabu search, GRASP and the GRASP+tabu hybrid are the functions of
``search.engines`` that search the configuration space too; ``_CoeffRun``
is this space's ``_Run``.  It scores every candidate with
``_CoeffProblem.fitness`` and supplies the operators: a sample of the zero
vector, optionally the least-squares solution, then a uniform box; +/- one
step moves per coordinate; blend crossover; Gaussian mutation; and a
construction that places one coordinate at a time from a value grid.  Its
``anchor`` scores the zero vector before the first GRASP or hybrid round.
Scatter search is this module's own (``_coeff_scatter``): it keeps
duplicates, descends only from children, never refreshes and breaks ties
by first index, so it shares only the descent with the configuration
version.  A candidate's residuals are scored by the function ``fit``
scores with.

The point of the module is the comparison: ``compare_with_ols`` runs a
search and reports its criterion gap against the least-squares solution,
which is optimal for this fitness up to floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .criteria import CriterionKind, criterion_from_log_det
from .design import _system_blocks, build_regression_system
from .errors import VarsearchError
from .model import CoefficientSet, ModelConfig, TimeSeriesDataset
from .ols import (
    _criterion_map,
    _residual_log_det,
    _snap_limits,
    fit,
    solve_least_squares,
    unflatten_coefficients,
)
from .search.engines import (
    _STREAM_INIT,
    _STREAM_OPS,
    GAParams,
    GraspParams,
    ScatterParams,
    TabuParams,
    _Run,
    _descend,
    _ga,
    _grasp,
    _hybrid,
    _tabu,
)
from .search.space import SearchBudget, SearchMethod

__all__ = [
    "CoefficientGenome",
    "CoeffSearchParams",
    "CoeffSearchOutcome",
    "ComparisonReport",
    "coefficient_fitness",
    "search_coefficients",
    "search_coefficients_full",
    "compare_with_ols",
]


@dataclass(frozen=True, eq=False)
class CoefficientGenome:
    """One candidate coefficient vector for a fixed configuration.

    ``theta`` is the stacked K x n coefficient matrix flattened in
    row-major order, so its length equals the configuration's parameter
    count.  Entries are not required to be finite; the fitness maps
    non-finite candidates to +infinity instead of raising.
    """

    config: ModelConfig
    theta: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float).reshape(-1)
        expected = self.config.n_dependent * self.config.n_design_columns()
        if theta.size != expected:
            raise ValueError(
                f"theta has {theta.size} entries, expected {expected}"
            )
        theta.setflags(write=False)
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class CoeffSearchParams:
    """Operator settings shared by the continuous engines.

    Engines read only the fields they use.  ``mutation_rate`` defaults to
    one over the genome length.  With ``include_ols_start`` the
    least-squares solution is seeded into the initial population, which
    makes the comparison trivial; it is off by default.
    """

    population_size: int = 30
    tournament_size: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    elitism: int = 1
    tenure: int = 7
    alpha: float = 0.3
    ref_size: int = 10
    n_best: int = 5
    initial_pool_size: int = 30
    grasp_grid: int = 7
    include_ols_start: bool = False

    def __post_init__(self):
        # the configuration engines' parameter classes hold the shared rules
        GAParams(
            population_size=self.population_size,
            tournament_size=self.tournament_size,
            crossover_rate=self.crossover_rate,
            mutation_rate=self.mutation_rate,
            elitism=self.elitism,
        )
        TabuParams(tenure=self.tenure)
        GraspParams(alpha=self.alpha)
        ScatterParams(
            ref_size=self.ref_size,
            n_best=self.n_best,
            initial_pool_size=self.initial_pool_size,
        )
        if self.grasp_grid < 2:
            raise ValueError("grasp_grid must be >= 2")


@dataclass
class CoeffSearchOutcome:
    """The best candidate of one search, as ``coefficients`` and flattened as
    ``theta``, its criterion ``value``, the ``evaluations_used`` (fitness
    calls), the ``trajectory`` of (evaluation, best value) at each
    improvement, the ``method`` and ``criterion`` names and the ``config``."""

    coefficients: CoefficientSet
    theta: np.ndarray
    value: float
    evaluations_used: int
    trajectory: list = field(default_factory=list)
    method: str = ""
    criterion: str = ""
    config: ModelConfig = None


@dataclass
class ComparisonReport:
    """Criterion search versus least squares on one configuration.

    ``gap = search_value - ols_value``; non-negative up to numerical
    noise.  When the least-squares fit is degenerate (criterion minus
    infinity) the gap is reported as zero with ``degenerate`` set.
    """

    config: ModelConfig
    kind: CriterionKind
    method: SearchMethod
    ols_value: float
    search_value: float
    gap: float
    coefficient_distance: float
    evaluations_used: int
    per_criterion: dict
    degenerate: bool
    ols_coefficients: CoefficientSet
    search_coefficients: CoefficientSet
    effective_t: int


class _CoeffProblem:
    """Fixed regression system plus fitness and scale information.

    Raises ``NumericOverflowError`` when ||Y|| is not finite: the fitness's
    perfect-fit test would otherwise score every candidate -inf.
    """

    def __init__(
        self,
        ds: TimeSeriesDataset,
        cfg: ModelConfig,
        kind: CriterionKind,
        common_row_start: int | None = None,
    ):
        self.system = build_regression_system(ds, cfg, row_start=common_row_start)
        self.kind = kind
        self.n_theta = self.system.n_columns * self.system.n_dependent
        self._snap_limits = _snap_limits(self.system.y)
        self._blocks = _system_blocks(self.system.x)
        y_scale = float(np.linalg.norm(self.system.y, axis=0).max())
        x_scale = float(np.linalg.norm(self.system.x, axis=0).max())
        scale = y_scale / x_scale if x_scale > 0 and y_scale > 0 else 1.0
        self.init_radius = 3.0 * scale
        self.sigma_mut = 0.1 * scale

    def _log_det(self, theta: np.ndarray) -> float:
        sysm = self.system
        coef = theta.reshape(sysm.n_columns, sysm.n_dependent)
        return _residual_log_det(sysm.y, coef, self._snap_limits, self._blocks)[2]

    def fitness(self, theta: np.ndarray) -> float:
        """Criterion value; +inf for non-finite residuals, -inf for a perfect fit."""
        log_det = self._log_det(theta)
        if math.isinf(log_det):
            return log_det
        return criterion_from_log_det(
            self.kind, log_det, self.n_theta, self.system.effective_t
        )

    def criteria(self, theta: np.ndarray) -> dict:
        """Every criterion's value by name; an undefined HQC is NaN."""
        values = _criterion_map(
            self._log_det(theta), self.n_theta, self.system.effective_t
        )
        return {kind.value: value for kind, value in values.items()}


def coefficient_fitness(
    ds: TimeSeriesDataset,
    genome: CoefficientGenome,
    kind: CriterionKind,
    common_row_start: int | None = None,
) -> float:
    """Criterion value of an arbitrary coefficient genome.

    Each call builds the configuration's regression system; the searches
    build it once and score every candidate against it.  The parameter
    count charged is the genome length, which is constant for a fixed
    configuration; ranking by this fitness therefore matches ranking by
    the residual log-determinant.  Non-finite candidates score +infinity
    rather than raising.
    """
    problem = _CoeffProblem(ds, genome.config, kind, common_row_start)
    return problem.fitness(genome.theta)


class _CoeffRun(_Run):
    """The coefficient space: flattened coefficient vectors, each scored
    afresh by the problem's fitness."""

    def __init__(self, budget: SearchBudget, problem: _CoeffProblem, params):
        super().__init__(budget)
        self.problem = problem
        self.params = params
        self.genome_length = problem.n_theta

    def score(self, candidates) -> list:
        values = []
        for theta in candidates:
            value = self.problem.fitness(theta)
            self.record(value, value, theta)
            values.append(value)
        return values

    def anchor(self) -> None:
        self.score([np.zeros(self.genome_length)])

    def sample(self, rng, count: int) -> list:
        """Zero vector first, then (only when more than one is asked for)
        the optional least-squares solution, then a uniform box sample."""
        radius = self.problem.init_radius
        pop = [np.zeros(self.genome_length)]
        if self.params.include_ols_start and count > 1:
            theta_ols = solve_least_squares(self.problem.system)
            pop.append(theta_ols.reshape(-1).copy())
        while len(pop) < count:
            pop.append(rng.uniform(-radius, radius, size=self.genome_length))
        return pop

    def moves(self, theta: np.ndarray) -> list:
        """+/- one step on each coordinate, in coordinate order.

        A move's attribute, and the one it abandons, is its coordinate.
        """
        step = self.problem.sigma_mut
        out = []
        for i in range(theta.size):
            for direction in (-1.0, 1.0):
                candidate = theta.copy()
                candidate[i] += direction * step
                out.append((i, i, candidate))
        return out

    def crossover(self, a: np.ndarray, b: np.ndarray, rng) -> np.ndarray:
        lam = rng.random()
        return lam * a + (1.0 - lam) * b

    def mutate(self, theta: np.ndarray, rng, rate: float) -> np.ndarray:
        mask = rng.random(theta.size) < rate
        if not mask.any():
            return theta
        return theta + mask * rng.normal(0.0, self.problem.sigma_mut, size=mask.size)

    def construction(self):
        """From zero, place each coordinate in turn on a value grid."""
        radius = self.problem.init_radius
        grid = np.linspace(-radius, radius, self.params.grasp_grid)
        index = np.arange(self.genome_length)
        dimensions = [
            lambda theta, i=i: [np.where(index == i, g, theta) for g in grid]
            for i in range(self.genome_length)
        ]
        return np.zeros(self.genome_length), dimensions


def _coeff_scatter(run: _CoeffRun, params: CoeffSearchParams) -> None:
    rng = run.rng(_STREAM_OPS)
    sigma = run.problem.sigma_mut
    pool = run.sample(run.rng(_STREAM_INIT), params.initial_pool_size)
    values = run.score(pool)

    def build_refset(members, member_values):
        """The n_best best, then greedy max-min distance additions."""
        order = np.argsort(member_values, kind="stable").tolist()
        chosen, rest = order[: params.n_best], order[params.n_best :]
        while rest and len(chosen) < params.ref_size:
            dists = [
                min(float(np.linalg.norm(members[r] - members[c])) for c in chosen)
                for r in rest
            ]
            chosen.append(rest.pop(int(np.argmax(dists))))
        return [members[i] for i in chosen], [member_values[i] for i in chosen]

    refset, ref_values = build_refset(pool, values)
    for _ in run.rounds():
        children = []
        for i in range(len(refset)):
            for j in range(i + 1, len(refset)):
                mid = 0.5 * (refset[i] + refset[j])
                children.append(mid + rng.normal(0.0, 0.5 * sigma, size=mid.size))
        child_values = run.score(children)
        improved = [_descend(run, c, v) for c, v in zip(children, child_values)]
        refset, ref_values = build_refset(
            refset + [theta for theta, _ in improved],
            ref_values + [v for _, v in improved],
        )


# the hybrid's construction share; (1 - 0.3) / 0.3 == 7 / 3 exactly
_CONSTRUCTION_SHARE = 0.3

_COEFF_ENGINES = {
    SearchMethod.GA: _ga,
    SearchMethod.TABU: _tabu,
    SearchMethod.GRASP: _grasp,
    SearchMethod.SCATTER: _coeff_scatter,
    SearchMethod.HYBRID: lambda run, params: _hybrid(run, params, _CONSTRUCTION_SHARE),
}


def _search(ds, cfg, kind, method, budget, params):
    """Run one continuous engine; returns the outcome and the problem searched."""
    if method not in _COEFF_ENGINES:
        raise VarsearchError(f"method {method.value!r} does not search coefficient space")
    params = params or CoeffSearchParams()
    problem = _CoeffProblem(ds, cfg, kind)
    run = _CoeffRun(budget, problem, params).drive(_COEFF_ENGINES[method], params)
    theta = np.array(run.best, dtype=float)
    return CoeffSearchOutcome(
        coefficients=unflatten_coefficients(theta, cfg, ds),
        theta=theta,
        value=run.best_key,
        evaluations_used=run.evaluations_used,
        trajectory=list(run.trajectory),
        method=method.value,
        criterion=kind.value,
        config=cfg,
    ), problem


@one_blas_thread()
def search_coefficients_full(
    ds: TimeSeriesDataset,
    cfg: ModelConfig,
    kind: CriterionKind,
    method: SearchMethod,
    budget: SearchBudget,
    params: CoeffSearchParams | None = None,
) -> CoeffSearchOutcome:
    """Run one continuous engine and return the full outcome."""
    return _search(ds, cfg, kind, method, budget, params)[0]


def search_coefficients(
    ds: TimeSeriesDataset,
    cfg: ModelConfig,
    kind: CriterionKind,
    method: SearchMethod,
    budget: SearchBudget,
    params: CoeffSearchParams | None = None,
):
    """Best coefficients found and their criterion value."""
    outcome = search_coefficients_full(ds, cfg, kind, method, budget, params)
    return outcome.coefficients, outcome.value


@one_blas_thread()
def compare_with_ols(
    ds: TimeSeriesDataset,
    cfg: ModelConfig,
    kind: CriterionKind,
    method: SearchMethod,
    budget: SearchBudget,
    params: CoeffSearchParams | None = None,
) -> ComparisonReport:
    """Search coefficient space and report the gap to least squares.

    The search side is ``search_coefficients_full``'s outcome and the
    least-squares side ``fit(ds, cfg)``'s, bit for bit: both score the rows
    from ``cfg``'s row start with the same parameter count and residual
    scorer, so the gap isolates optimizer quality.  The search's system is
    freed before ``fit`` builds its own.  As least squares is fitted after
    the search, a configuration it cannot fit (rank deficient, or T' <= K)
    raises once the search has run.
    """
    outcome, problem = _search(ds, cfg, kind, method, budget, params)
    search_criteria = problem.criteria(outcome.theta)
    del problem  # the search's X, before fit builds its own
    ols_fit = fit(ds, cfg)
    theta_ols = ols_fit.coefficients.flatten().reshape(-1)
    ols_value = ols_fit.criterion(kind)
    gap = 0.0 if ols_fit.degenerate else outcome.value - ols_value
    distance = float(np.linalg.norm(outcome.theta - theta_ols))
    per_criterion = {
        "ols": {k.value: value for k, value in ols_fit.criterion_values.items()},
        "search": search_criteria,
    }
    return ComparisonReport(
        config=cfg,
        kind=kind,
        method=method,
        ols_value=ols_value,
        search_value=outcome.value,
        gap=gap,
        coefficient_distance=distance,
        evaluations_used=outcome.evaluations_used,
        per_criterion=per_criterion,
        degenerate=ols_fit.degenerate,
        ols_coefficients=ols_fit.coefficients,
        search_coefficients=outcome.coefficients,
        effective_t=ols_fit.effective_t,
    )
