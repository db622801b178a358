"""Direct metaheuristic search over coefficient space.

Instead of estimating coefficients by least squares, these engines treat
the flattened coefficient matrix as a continuous genome and minimize the
same information criterion the estimator reports.  Because the space is
continuous there is no candidate cache: every fitness call costs budget.

The point of the module is the comparison: ``compare_with_ols`` runs a
search and reports its criterion gap against the least-squares solution,
which is optimal for this fitness up to floating-point noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._blas import one_blas_thread
from .criteria import CriterionKind, criterion_from_log_det, log_det_cov
from .design import build_regression_system
from .errors import NumericOverflowError, VarsearchError
from .model import CoefficientSet, ModelConfig, TimeSeriesDataset
from .ols import DEGENERATE_RTOL, fit, solve_least_squares, unflatten_coefficients
from .search.evaluation import derive_candidate_seed
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

_STREAM_INIT = 0
_STREAM_OPS = 1
_STREAM_ROUND_BASE = 2


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
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.ref_size < 4:
            raise ValueError("ref_size must be >= 4")
        if not 2 <= self.n_best < self.ref_size:
            raise ValueError("need 2 <= n_best < ref_size")
        if self.initial_pool_size < self.ref_size:
            raise ValueError("initial_pool_size must be >= ref_size")
        if self.grasp_grid < 2:
            raise ValueError("grasp_grid must be >= 2")
        if self.tenure < 0:
            raise ValueError("tenure must be >= 0")


@dataclass
class CoeffSearchOutcome:
    coefficients: CoefficientSet
    theta: np.ndarray
    value: float
    evaluations_used: int
    trajectory: list = field(default_factory=list)
    method: str = ""
    criterion: str = ""
    config: ModelConfig = None
    # the searched regression system; compare_with_ols scores the OLS
    # solution on it instead of building it again
    _problem: object = field(default=None, init=False, repr=False, compare=False)


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
        self.cfg = cfg
        self.ds = ds
        self.kind = kind
        self.n_theta = self.system.n_columns * self.system.n_dependent
        with np.errstate(over="ignore"):
            self._y_norm = float(np.linalg.norm(self.system.y))
        if not math.isfinite(self._y_norm):
            raise NumericOverflowError()
        y_scale = float(np.linalg.norm(self.system.y, axis=0).max())
        x_scale = float(np.linalg.norm(self.system.x, axis=0).max())
        scale = y_scale / x_scale if x_scale > 0 and y_scale > 0 else 1.0
        self.init_radius = 3.0 * scale
        self.sigma_mut = 0.1 * scale

    def fitness(self, theta: np.ndarray) -> float:
        if not np.all(np.isfinite(theta)):
            return math.inf
        sysm = self.system
        coef = theta.reshape(sysm.n_columns, sysm.n_dependent)
        residuals = sysm.y - sysm.x @ coef
        if not np.all(np.isfinite(residuals)):
            return math.inf
        if float(np.linalg.norm(residuals)) <= DEGENERATE_RTOL * self._y_norm:
            return -math.inf
        sigma = residuals.T @ residuals / sysm.effective_t
        sigma = 0.5 * (sigma + sigma.T)
        if not np.all(np.isfinite(sigma)):
            return math.inf
        log_det = log_det_cov(sigma)
        return criterion_from_log_det(
            self.kind, log_det, self.n_theta, sysm.effective_t
        )


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


class _CoeffStop(Exception):
    pass


class _CoeffRun:
    def __init__(self, problem: _CoeffProblem, budget: SearchBudget):
        self.problem = problem
        self.budget = budget
        self.evaluations_used = 0
        self.best_theta = None
        self.best_value = math.inf
        self.trajectory = []
        self.stagnation = 0

    def rng(self, stream_id: int) -> np.random.Generator:
        seed = derive_candidate_seed(self.budget.master_seed, stream_id)
        return np.random.default_rng(seed)

    def evaluate(self, theta: np.ndarray) -> float:
        if self.evaluations_used >= self.budget.max_evaluations:
            raise _CoeffStop
        value = self.problem.fitness(theta)
        self.evaluations_used += 1
        if value < self.best_value or self.best_theta is None:
            self.best_value = value
            self.best_theta = np.array(theta, dtype=float)
            self.trajectory.append((self.evaluations_used, value))
            self.stagnation = 0
        else:
            self.stagnation += 1
            if self.stagnation >= self.budget.stagnation_limit:
                raise _CoeffStop
        if self.evaluations_used >= self.budget.max_evaluations:
            raise _CoeffStop
        return value

    def evaluate_many(self, thetas) -> list:
        return [self.evaluate(t) for t in thetas]


def _initial_population(run: _CoeffRun, rng, count: int, params: CoeffSearchParams):
    """Zero vector first, then a uniform box sample; optionally the
    least-squares solution."""
    length = run.problem.n_theta
    radius = run.problem.init_radius
    pop = [np.zeros(length)]
    if params.include_ols_start:
        theta_ols = solve_least_squares(run.problem.system)
        pop.append(theta_ols.reshape(-1).copy())
    while len(pop) < count:
        pop.append(rng.uniform(-radius, radius, size=length))
    return pop[:count]


def _coordinate_moves(theta: np.ndarray, step: float):
    """±step on each coordinate, in coordinate order."""
    moves = []
    for i in range(theta.size):
        for direction in (-1.0, 1.0):
            candidate = theta.copy()
            candidate[i] += direction * step
            moves.append((i, candidate))
    return moves


def _coordinate_descent(run: _CoeffRun, theta: np.ndarray, value: float):
    """Steepest coordinate descent with fixed step until no move improves."""
    step = run.problem.sigma_mut
    current, current_value = theta, value
    while True:
        best_candidate, best_value = None, current_value
        for _, candidate in _coordinate_moves(current, step):
            v = run.evaluate(candidate)
            if v < best_value:
                best_candidate, best_value = candidate, v
        if best_candidate is None:
            return current, current_value
        current, current_value = best_candidate, best_value


def _coeff_ga(run: _CoeffRun, params: CoeffSearchParams):
    rng_init = run.rng(_STREAM_INIT)
    rng = run.rng(_STREAM_OPS)
    length = run.problem.n_theta
    sigma = run.problem.sigma_mut
    mut_rate = params.mutation_rate if params.mutation_rate is not None else 1.0 / length
    pop = _initial_population(run, rng_init, params.population_size, params)
    values = run.evaluate_many(pop)

    def tournament():
        picks = rng.integers(0, len(pop), size=params.tournament_size)
        best = min(picks, key=lambda i: values[int(i)])
        return pop[int(best)]

    while True:
        order = np.argsort(values, kind="stable")
        next_pop = [pop[int(i)].copy() for i in order[: params.elitism]]
        while len(next_pop) < len(pop):
            parent_a = tournament()
            parent_b = tournament()
            if rng.random() < params.crossover_rate:
                lam = rng.random()
                child = lam * parent_a + (1.0 - lam) * parent_b
            else:
                child = parent_a.copy()
            mask = rng.random(length) < mut_rate
            if mask.any():
                child = child + mask * rng.normal(0.0, sigma, size=length)
            next_pop.append(child)
        pop = next_pop
        values = run.evaluate_many(pop)


def _coeff_tabu(run: _CoeffRun, params: CoeffSearchParams):
    length = run.problem.n_theta
    step = run.problem.sigma_mut
    current = np.zeros(length)
    run.evaluate(current)
    tabu_until = {}
    iteration = 0
    while True:
        iteration += 1
        scored = []
        for coord, candidate in _coordinate_moves(current, step):
            scored.append((run.evaluate(candidate), coord, candidate))
        allowed = [
            s
            for s in scored
            if tabu_until.get(s[1], 0) < iteration or s[0] < run.best_value
        ]
        pool = allowed if allowed else scored
        value, coord, candidate = min(pool, key=lambda s: s[0])
        tabu_until[coord] = iteration + params.tenure
        current = candidate


def _grasp_construct_coeff(run: _CoeffRun, rng, params: CoeffSearchParams):
    """Place one coordinate at a time from a value grid, RCL-randomized."""
    length = run.problem.n_theta
    radius = run.problem.init_radius
    grid = np.linspace(-radius, radius, params.grasp_grid)
    theta = np.zeros(length)
    for i in range(length):
        trials = []
        for g in grid:
            candidate = theta.copy()
            candidate[i] = g
            trials.append((run.evaluate(candidate), g))
        trials.sort(key=lambda t: (t[0], t[1]))
        rcl = trials[: max(1, math.ceil(params.alpha * len(trials)))]
        theta[i] = rcl[int(rng.integers(0, len(rcl)))][1]
    value = run.evaluate(theta)
    return theta, value


def _coeff_grasp(run: _CoeffRun, params: CoeffSearchParams):
    run.evaluate(np.zeros(run.problem.n_theta))
    round_index = 0
    while True:
        rng = run.rng(_STREAM_ROUND_BASE + round_index)
        theta, value = _grasp_construct_coeff(run, rng, params)
        _coordinate_descent(run, theta, value)
        round_index += 1


def _coeff_scatter(run: _CoeffRun, params: CoeffSearchParams):
    rng_init = run.rng(_STREAM_INIT)
    rng = run.rng(_STREAM_OPS)
    sigma = run.problem.sigma_mut
    pool = _initial_population(run, rng_init, params.initial_pool_size, params)
    values = run.evaluate_many(pool)

    def build_refset(members, member_values):
        order = np.argsort(member_values, kind="stable")
        best = [members[int(i)] for i in order[: params.n_best]]
        best_vals = [member_values[int(i)] for i in order[: params.n_best]]
        rest = [members[int(i)] for i in order[params.n_best :]]
        rest_vals = [member_values[int(i)] for i in order[params.n_best :]]
        chosen, chosen_vals = list(best), list(best_vals)
        while rest and len(chosen) < params.ref_size:
            dists = [
                min(float(np.linalg.norm(r - c)) for c in chosen) for r in rest
            ]
            pick = int(np.argmax(dists))
            chosen.append(rest.pop(pick))
            chosen_vals.append(rest_vals.pop(pick))
        return chosen, chosen_vals

    refset, ref_values = build_refset(pool, values)
    while True:
        children = []
        for i in range(len(refset)):
            for j in range(i + 1, len(refset)):
                mid = 0.5 * (refset[i] + refset[j])
                children.append(mid + rng.normal(0.0, 0.5 * sigma, size=mid.size))
        child_values = run.evaluate_many(children)
        improved, improved_values = [], []
        for child, value in zip(children, child_values):
            theta, v = _coordinate_descent(run, child, value)
            improved.append(theta)
            improved_values.append(v)
        refset, ref_values = build_refset(
            refset + improved, ref_values + improved_values
        )


def _coeff_hybrid(run: _CoeffRun, params: CoeffSearchParams):
    run.evaluate(np.zeros(run.problem.n_theta))
    step = run.problem.sigma_mut
    round_index = 0
    while True:
        rng = run.rng(_STREAM_ROUND_BASE + round_index)
        before = run.evaluations_used
        current, _ = _grasp_construct_coeff(run, rng, params)
        construction_cost = max(1, run.evaluations_used - before)
        allowance = max(1, round(construction_cost * 7.0 / 3.0))
        tabu_until = {}
        iteration = 0
        phase_start = run.evaluations_used
        while run.evaluations_used - phase_start < allowance:
            iteration += 1
            scored = []
            for coord, candidate in _coordinate_moves(current, step):
                scored.append((run.evaluate(candidate), coord, candidate))
            allowed = [
                s
                for s in scored
                if tabu_until.get(s[1], 0) < iteration or s[0] < run.best_value
            ]
            pool = allowed if allowed else scored
            value, coord, candidate = min(pool, key=lambda s: s[0])
            tabu_until[coord] = iteration + params.tenure
            current = candidate
        round_index += 1


_COEFF_ENGINES = {
    SearchMethod.GA: _coeff_ga,
    SearchMethod.TABU: _coeff_tabu,
    SearchMethod.GRASP: _coeff_grasp,
    SearchMethod.SCATTER: _coeff_scatter,
    SearchMethod.HYBRID: _coeff_hybrid,
}


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
    if method not in _COEFF_ENGINES:
        raise VarsearchError(
            f"method {method.value!r} does not search coefficient space"
        )
    params = params or CoeffSearchParams()
    problem = _CoeffProblem(ds, cfg, kind)
    run = _CoeffRun(problem, budget)
    try:
        _COEFF_ENGINES[method](run, params)
    except _CoeffStop:
        pass
    coefficients = unflatten_coefficients(run.best_theta, cfg, ds)
    outcome = CoeffSearchOutcome(
        coefficients=coefficients,
        theta=run.best_theta,
        value=run.best_value,
        evaluations_used=run.evaluations_used,
        trajectory=list(run.trajectory),
        method=method.value,
        criterion=kind.value,
        config=cfg,
    )
    outcome._problem = problem
    return outcome


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


def _criterion_breakdown(problem: _CoeffProblem, theta: np.ndarray) -> dict:
    sysm = problem.system
    coef = theta.reshape(sysm.n_columns, sysm.n_dependent)
    residuals = sysm.y - sysm.x @ coef
    out = {}
    y_norm = float(np.linalg.norm(sysm.y))
    degenerate = float(np.linalg.norm(residuals)) <= DEGENERATE_RTOL * y_norm
    if degenerate:
        log_det = -math.inf
    else:
        sigma = residuals.T @ residuals / sysm.effective_t
        sigma = 0.5 * (sigma + sigma.T)
        log_det = log_det_cov(sigma)
    for kind in CriterionKind:
        try:
            out[kind.value] = criterion_from_log_det(
                kind, log_det, problem.n_theta, sysm.effective_t
            )
        except VarsearchError:
            out[kind.value] = math.nan
    return out


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

    Both sides are scored on the same regression sample with the same
    parameter count, so the gap isolates optimizer quality.
    """
    ols_fit = fit(ds, cfg)
    outcome = search_coefficients_full(ds, cfg, kind, method, budget, params)
    problem = outcome._problem
    theta_ols = ols_fit.coefficients.flatten().reshape(-1)
    ols_value = problem.fitness(theta_ols)
    search_value = outcome.value
    degenerate = math.isinf(ols_value) and ols_value < 0
    if degenerate:
        gap = 0.0
    else:
        gap = search_value - ols_value
    distance = float(np.linalg.norm(outcome.theta - theta_ols))
    per_criterion = {
        "ols": _criterion_breakdown(problem, theta_ols),
        "search": _criterion_breakdown(problem, outcome.theta),
    }
    return ComparisonReport(
        config=cfg,
        kind=kind,
        method=method,
        ols_value=ols_value,
        search_value=search_value,
        gap=gap,
        coefficient_distance=distance,
        evaluations_used=outcome.evaluations_used,
        per_criterion=per_criterion,
        degenerate=degenerate,
        ols_coefficients=ols_fit.coefficients,
        search_coefficients=outcome.coefficients,
        effective_t=problem.system.effective_t,
    )
