"""Search engines over the configuration space.

One exact method (exhaustive) and five metaheuristics (genetic algorithm,
tabu search, GRASP, scatter search, and a GRASP+tabu hybrid).  All engines
share the same accounting rules:

* the budget counts distinct candidates scored, not least-squares fits;
  revisiting a cached candidate is free,
* stagnation counts evaluations without improvement and also iterations
  that scored nothing, and a search stops once it has scored every genome
  of the raw space, as nothing is left to find,
* candidates are compared by the key (criterion value, parameter count,
  genome order), so ties prefer smaller models and then earlier genomes,
* every random draw comes from streams derived from the master seed alone,
  so results do not depend on timing.

Candidates are scored by ``CrossProductEvaluator``, which returns the
criterion value pivoted QR would give wherever that could change a
comparison.  The run bookkeeper ``_Run`` and the tabu step ``_tabu_step``
serve the coefficient-space engines of ``varsearch.coeffsearch`` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .._blas import one_blas_thread
from ..criteria import CriterionKind
from ..errors import EmptySpaceError, TooLargeError
from ..model import TimeSeriesDataset
from .evaluation import CrossProductEvaluator, derive_candidate_seed
from .space import SearchBudget, SearchResult, SearchSpace, enumerate_space

__all__ = [
    "GAParams",
    "TabuParams",
    "GraspParams",
    "ScatterParams",
    "HybridParams",
    "exhaustive_search",
    "ga_search",
    "tabu_search",
    "grasp_search",
    "scatter_search",
    "hybrid_search",
]

_MAX_EXHAUSTIVE = 1_000_000
_DISTINCT_SAMPLE_MATERIALIZE = 100_000

# rng stream ids; rounds of multistart methods use _STREAM_ROUND_BASE + round
_STREAM_INIT = 0
_STREAM_OPS = 1
_STREAM_ROUND_BASE = 2


@dataclass(frozen=True)
class GAParams:
    population_size: int = 20
    tournament_size: int = 2
    crossover_rate: float = 0.9
    mutation_rate: float | None = None
    elitism: int = 1

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise ValueError("need 0 <= elitism < population_size")


@dataclass(frozen=True)
class TabuParams:
    tenure: int = 7

    def __post_init__(self):
        if self.tenure < 0:
            raise ValueError("tenure must be >= 0")


@dataclass(frozen=True)
class GraspParams:
    alpha: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")


@dataclass(frozen=True)
class ScatterParams:
    ref_size: int = 10
    n_best: int = 5
    initial_pool_size: int = 30

    def __post_init__(self):
        if self.ref_size < 4:
            raise ValueError("ref_size must be >= 4")
        if not 2 <= self.n_best < self.ref_size:
            raise ValueError("need 2 <= n_best < ref_size")
        if self.initial_pool_size < self.ref_size:
            raise ValueError("initial_pool_size must be >= ref_size")


@dataclass(frozen=True)
class HybridParams:
    alpha: float = 0.3
    tenure: int = 7
    construction_share: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if self.tenure < 0:
            raise ValueError("tenure must be >= 0")
        if not 0.0 < self.construction_share < 1.0:
            raise ValueError("construction_share must be in (0, 1)")


class _SearchStop(Exception):
    """Internal: budget, stagnation limit or exhausted space reached."""


class _Run:
    """Budget, stagnation, best and trajectory bookkeeping of one search.

    Shared by the configuration and the coefficient engines.  ``record``
    counts one scored candidate and keeps the best by ``key``; the search
    stops once ``limit`` candidates have been scored (the budget, or fewer
    when the whole space is smaller) or after ``stagnation_limit`` scored
    candidates and stalled iterations without an improvement.  ``evaluate``
    scores and records a candidate with ``score``; the coefficient engines
    use it, the configuration engines score through ``_SearchRun``.
    """

    def __init__(self, budget: SearchBudget, score=None, limit=math.inf):
        self.budget = budget
        self.score = score
        self.limit = min(budget.max_evaluations, limit)
        self.evaluations_used = 0
        self.best_key = None
        self.best = None
        self.trajectory = []
        self.stagnation = 0

    def rng(self, stream_id: int) -> np.random.Generator:
        seed = derive_candidate_seed(self.budget.master_seed, stream_id)
        return np.random.default_rng(seed)

    def record(self, value, key, payload) -> None:
        """Count one scored candidate; may stop the search."""
        self.evaluations_used += 1
        if self.best_key is None or key < self.best_key:
            self.best_key = key
            self.best = payload
            self.trajectory.append((self.evaluations_used, value))
            self.stagnation = 0
        else:
            self.stall()
        if self.evaluations_used >= self.limit:
            raise _SearchStop

    def stall(self) -> None:
        """A candidate or an engine iteration brought no improvement."""
        self.stagnation += 1
        if self.stagnation >= self.budget.stagnation_limit:
            raise _SearchStop

    def evaluate(self, candidate) -> float:
        value = self.score(candidate)
        self.record(value, value, candidate)
        return value


def _tabu_step(moves, tabu_until, iteration, tenure, best_key):
    """Take one tabu move and return its candidate.

    ``moves`` are ``(key, attr, abandoned_attr, candidate)``, scored.  A
    move is tabu while ``tabu_until[attr] >= iteration``, unless its key
    beats ``best_key`` (aspiration); when every move is tabu the best one
    is taken anyway.  Ties go to the earliest move.  The attribute the
    move abandons becomes tabu for ``tenure`` iterations.
    """
    allowed = [
        m for m in moves if tabu_until.get(m[1], 0) < iteration or m[0] < best_key
    ]
    _, _, abandoned, candidate = min(allowed or moves, key=lambda m: m[0])
    tabu_until[abandoned] = iteration + tenure
    return candidate


class _SearchRun(_Run):
    """A configuration search: the evaluator's cache and the candidate log.

    Its limit is the size of the raw space, as no genome is scored twice.
    """

    def __init__(self, ds, space, kind, budget):
        super().__init__(budget, limit=space.raw_size())
        self.ds = ds
        self.space = space
        self.evaluator = CrossProductEvaluator(ds, space, kind)
        self.cache = self.evaluator.values
        self.candidate_log = []

    def key_of(self, genome) -> tuple:
        order = self.space.genome_order_key(genome)
        value, n_params = self.cache[order]
        return (value, n_params, order)

    def evaluate_batch(self, genomes) -> None:
        """Score the uncached genomes one at a time, in batch order.

        A stop (budget, stagnation or exhausted space) ends the batch at
        once, so no candidate is scored that the search does not record.
        """
        for genome in genomes:
            order = self.space.genome_order_key(genome)
            if order in self.cache:
                continue
            cfg = self.space.config_from_genome(genome, self.ds)
            best = self.best_key[0] if self.best_key is not None else None
            value, n_params, fit_result = self.evaluator.evaluate(cfg, order, best)
            self.candidate_log.append((cfg, value))
            self.record(value, (value, n_params, order), (genome, fit_result))

    def finalize(self, method: str) -> SearchResult:
        if self.best is None:
            raise EmptySpaceError("no candidate could be evaluated")
        genome, best_fit = self.best
        if best_fit is None:
            raise EmptySpaceError(
                "no valid configuration found within the evaluation budget"
            )
        skipped = sum(1 for _, v in self.candidate_log if math.isinf(v) and v > 0)
        return SearchResult(
            best_config=self.space.config_from_genome(genome, self.ds),
            best_fit=best_fit,
            best_value=self.best_key[0],
            evaluations_used=self.evaluations_used,
            trajectory=list(self.trajectory),
            candidate_log=list(self.candidate_log),
            skipped_invalid=skipped,
            method=method,
        )


def _genome_from_index(space: SearchSpace, index: int):
    mask_count = space.mask_count
    per_p = (space.q_max + 1) * mask_count
    p = 1 + index // per_p
    rem = index % per_p
    q = rem // mask_count
    mask_int = rem % mask_count
    bits = tuple((mask_int >> i) & 1 for i in range(space.n_bits))
    return (p, q, bits)


def _random_genome(space: SearchSpace, rng: np.random.Generator):
    p = int(rng.integers(1, space.p_max + 1))
    q = int(rng.integers(0, space.q_max + 1))
    bits = tuple(int(b) for b in rng.integers(0, 2, size=space.n_bits))
    return (p, q, bits)


def _sample_distinct(space: SearchSpace, rng: np.random.Generator, count: int):
    """Distinct genomes, uniform over the raw space."""
    raw = space.raw_size()
    count = min(count, raw)
    if raw <= _DISTINCT_SAMPLE_MATERIALIZE:
        picks = rng.choice(raw, size=count, replace=False)
        return [_genome_from_index(space, int(i)) for i in picks]
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < 1000 * count:
        attempts += 1
        genome = _random_genome(space, rng)
        order = space.genome_order_key(genome)
        if order in seen:
            continue
        seen.add(order)
        out.append(genome)
    return out


def _moves(space: SearchSpace, genome):
    """Deterministically ordered one-step moves: p +/- 1, q +/- 1, bit flips.

    Each move is ``(attr, abandoned_attr, neighbor)`` for the tabu step.
    A space of one genome has none, but its search stops at its first
    evaluation.
    """
    p, q, bits = genome
    out = []
    for new_p in (p - 1, p + 1):
        if 1 <= new_p <= space.p_max:
            out.append((("p", new_p), ("p", p), (new_p, q, bits)))
    for new_q in (q - 1, q + 1):
        if 0 <= new_q <= space.q_max:
            out.append((("q", new_q), ("q", q), (p, new_q, bits)))
    for i in range(len(bits)):
        flipped = bits[:i] + (bits[i] ^ 1,) + bits[i + 1 :]
        out.append((("bit", i), ("bit", i), (p, q, flipped)))
    return out


def _steepest_descent(run: _SearchRun, genome):
    """Move to the best neighbor while it strictly improves the key."""
    current = genome
    run.evaluate_batch([current])
    while True:
        neighborhood = [g for _, _, g in _moves(run.space, current)]
        run.evaluate_batch(neighborhood)
        best = min(neighborhood, key=run.key_of)
        if run.key_of(best) < run.key_of(current):
            current = best
        else:
            return current


def _tabu_move(run: _SearchRun, current, tabu_until, iteration, tenure):
    """Score the neighbors of ``current`` and take one tabu step among them."""
    moves = _moves(run.space, current)
    run.evaluate_batch([g for _, _, g in moves])
    scored = [(run.key_of(g), attr, old, g) for attr, old, g in moves]
    return _tabu_step(scored, tabu_until, iteration, tenure, run.best_key)


@one_blas_thread()
def exhaustive_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget | None = None,
) -> SearchResult:
    """Evaluate every valid configuration; exact but bounded.

    Raises
    ------
    TooLargeError
        When the raw space exceeds one million configurations, or the
        valid space exceeds the evaluation budget.
    EmptySpaceError
        When no configuration is valid, or none is evaluable on the
        common sample.
    """
    raw = space.raw_size()
    if raw > _MAX_EXHAUSTIVE:
        raise TooLargeError(
            f"space has {raw} raw configurations, above the exhaustive "
            f"limit of {_MAX_EXHAUSTIVE}"
        )
    configs = enumerate_space(space, ds)
    if budget is not None and len(configs) > budget.max_evaluations:
        raise TooLargeError(
            f"space has {len(configs)} valid configurations but the budget "
            f"allows only {budget.max_evaluations} evaluations"
        )
    # stagnation must not cut an exhaustive sweep short
    budget = SearchBudget(
        max_evaluations=budget.max_evaluations if budget else len(configs),
        stagnation_limit=len(configs) + 1,
        master_seed=budget.master_seed if budget else 0,
    )
    run = _SearchRun(ds, space, kind, budget)
    genomes = [space.genome_for(cfg) for cfg in configs]
    try:
        run.evaluate_batch(genomes)
    except _SearchStop:
        pass
    return run.finalize("exhaustive")


@one_blas_thread()
def ga_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: GAParams | None = None,
) -> SearchResult:
    """Generational genetic algorithm with tournament selection.

    The initial population is a distinct uniform sample, so a budget equal
    to the population size returns the best of the initial population.
    """
    params = params or GAParams()
    run = _SearchRun(ds, space, kind, budget)
    init_rng = run.rng(_STREAM_INIT)
    ops_rng = run.rng(_STREAM_OPS)
    n_bits = space.n_bits
    genome_len = 2 + n_bits
    mut_rate = params.mutation_rate
    if mut_rate is None:
        mut_rate = 1.0 / genome_len

    def mutate(genome):
        p, q, bits = genome
        if ops_rng.random() < mut_rate:
            step = -1 if ops_rng.random() < 0.5 else 1
            p = min(space.p_max, max(1, p + step))
        if ops_rng.random() < mut_rate:
            step = -1 if ops_rng.random() < 0.5 else 1
            q = min(space.q_max, max(0, q + step))
        new_bits = list(bits)
        for i in range(n_bits):
            if ops_rng.random() < mut_rate:
                new_bits[i] ^= 1
        return (p, q, tuple(new_bits))

    def crossover(g1, g2):
        p = g1[0] if ops_rng.random() < 0.5 else g2[0]
        q = g1[1] if ops_rng.random() < 0.5 else g2[1]
        bits = tuple(
            g1[2][i] if ops_rng.random() < 0.5 else g2[2][i] for i in range(n_bits)
        )
        return (p, q, bits)

    def tournament(pop):
        picks = ops_rng.integers(0, len(pop), size=params.tournament_size)
        return min((pop[int(i)] for i in picks), key=run.key_of)

    try:
        population = _sample_distinct(space, init_rng, params.population_size)
        run.evaluate_batch(population)
        while True:
            before = run.evaluations_used
            ranked = sorted(population, key=run.key_of)
            offspring = ranked[: params.elitism]
            while len(offspring) < len(population):
                parent_a = tournament(population)
                parent_b = tournament(population)
                if ops_rng.random() < params.crossover_rate:
                    child = crossover(parent_a, parent_b)
                else:
                    child = parent_a
                offspring.append(mutate(child))
            run.evaluate_batch(offspring)
            population = offspring
            if run.evaluations_used == before:
                run.stall()
    except _SearchStop:
        pass
    return run.finalize("ga")


@one_blas_thread()
def tabu_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: TabuParams | None = None,
) -> SearchResult:
    """Best-neighbor tabu search with recency tabus and aspiration.

    After a move the attribute value just abandoned becomes tabu for
    ``tenure`` iterations; a tabu neighbor is still accepted when it beats
    the global best (aspiration).  If every neighbor is tabu the best one
    is taken anyway.
    """
    params = params or TabuParams()
    run = _SearchRun(ds, space, kind, budget)
    init_rng = run.rng(_STREAM_INIT)
    try:
        current = _sample_distinct(space, init_rng, 1)[0]
        run.evaluate_batch([current])
        tabu_until = {}
        iteration = 0
        while True:
            iteration += 1
            before = run.evaluations_used
            current = _tabu_move(run, current, tabu_until, iteration, params.tenure)
            if run.evaluations_used == before:
                run.stall()
    except _SearchStop:
        pass
    return run.finalize("tabu")


def _grasp_construct(run: _SearchRun, rng: np.random.Generator, alpha: float):
    """Greedy randomized construction, one dimension at a time.

    Starts from (p=1, q=0, dataset roles) and fixes p, then q, then each
    switchable bit, choosing uniformly from the restricted candidate list
    of the best trial values.
    """
    space = run.space
    base_bits = tuple(
        int(run.ds.base_mask[i]) for i in space.switchable
    )
    current = (1, 0, base_bits)

    def pick(trials):
        run.evaluate_batch([g for g, _ in trials])
        ranked = sorted(trials, key=lambda t: run.key_of(t[0]))
        rcl = ranked[: max(1, math.ceil(alpha * len(ranked)))]
        return rcl[int(rng.integers(0, len(rcl)))][0]

    p_trials = [((p, current[1], current[2]), p) for p in range(1, space.p_max + 1)]
    current = pick(p_trials)
    if space.q_max > 0:
        q_trials = [((current[0], q, current[2]), q) for q in range(space.q_max + 1)]
        current = pick(q_trials)
    for i in range(space.n_bits):
        choices = []
        for b in (0, 1):
            bits = tuple(b if j == i else v for j, v in enumerate(current[2]))
            choices.append(((current[0], current[1], bits), b))
        current = pick(choices)
    return current


@one_blas_thread()
def grasp_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: GraspParams | None = None,
) -> SearchResult:
    """Multistart GRASP: randomized construction plus steepest descent."""
    params = params or GraspParams()
    run = _SearchRun(ds, space, kind, budget)
    try:
        round_index = 0
        while True:
            before = run.evaluations_used
            rng = run.rng(_STREAM_ROUND_BASE + round_index)
            constructed = _grasp_construct(run, rng, params.alpha)
            _steepest_descent(run, constructed)
            if run.evaluations_used == before:
                run.stall()
            round_index += 1
    except _SearchStop:
        pass
    return run.finalize("grasp")


def _hamming(g1, g2) -> int:
    return (
        (g1[0] != g2[0])
        + (g1[1] != g2[1])
        + sum(a != b for a, b in zip(g1[2], g2[2]))
    )


def _select_diverse(candidates, refset, count):
    """Greedy max-min Hamming additions to the reference set."""
    chosen = list(refset)
    added = []
    pool = list(candidates)
    while pool and len(added) < count:
        best = max(
            pool,
            key=lambda g: (min(_hamming(g, r) for r in chosen), tuple(map(str, g))),
        )
        pool.remove(best)
        chosen.append(best)
        added.append(best)
    return added


@one_blas_thread()
def scatter_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: ScatterParams | None = None,
) -> SearchResult:
    """Scatter search over a small reference set.

    The reference set mixes the best solutions with the most diverse ones
    (greedy max-min Hamming distance).  Pairs combine by integer midpoint
    on the lag orders and majority vote on the partition bits, with random
    tie-breaks; children are improved by steepest descent.  A space no
    larger than the reference set is swept exhaustively instead.
    """
    params = params or ScatterParams()
    run = _SearchRun(ds, space, kind, budget)
    try:
        if space.raw_size() <= params.ref_size:
            run.evaluate_batch(list(space.iter_genomes()))
            raise _SearchStop
        init_rng = run.rng(_STREAM_INIT)
        ops_rng = run.rng(_STREAM_OPS)

        def combine(g1, g2):
            p = (g1[0] + g2[0]) // 2
            p = min(space.p_max, max(1, p))
            q = (g1[1] + g2[1]) // 2
            bits = []
            for a, b in zip(g1[2], g2[2]):
                if a == b:
                    bits.append(a)
                else:
                    bits.append(int(ops_rng.integers(0, 2)))
            return (p, q, tuple(bits))

        def build_refset(pool):
            ranked = sorted(set(pool), key=run.key_of)
            best = ranked[: params.n_best]
            rest = [g for g in ranked[params.n_best :]]
            diverse = _select_diverse(rest, best or rest[:1], params.ref_size - len(best))
            return best + diverse

        pool = _sample_distinct(space, init_rng, params.initial_pool_size)
        run.evaluate_batch(pool)
        refset = build_refset(pool)
        refset = [_steepest_descent(run, g) for g in refset]
        while True:
            before = run.evaluations_used
            children = []
            for i in range(len(refset)):
                for j in range(i + 1, len(refset)):
                    children.append(combine(refset[i], refset[j]))
            run.evaluate_batch(children)
            children = [_steepest_descent(run, c) for c in children]
            refset = build_refset(refset + children)
            if run.evaluations_used == before:
                refresh = _sample_distinct(
                    space, ops_rng, params.initial_pool_size
                )
                run.evaluate_batch(refresh)
                if run.evaluations_used == before:
                    run.stall()
                else:
                    refset = build_refset(refset + refresh)
    except _SearchStop:
        pass
    return run.finalize("scatter")


@one_blas_thread()
def hybrid_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: HybridParams | None = None,
) -> SearchResult:
    """GRASP construction feeding a tabu improvement phase.

    Each round spends roughly 30% of its evaluations on construction and
    70% on tabu refinement of the constructed solution; the tabu list is
    cleared between rounds.
    """
    params = params or HybridParams()
    run = _SearchRun(ds, space, kind, budget)
    share = params.construction_share
    multiplier = (1.0 - share) / share
    try:
        round_index = 0
        while True:
            before = run.evaluations_used
            rng = run.rng(_STREAM_ROUND_BASE + round_index)
            current = _grasp_construct(run, rng, params.alpha)
            construction_cost = max(1, run.evaluations_used - before)
            allowance = max(1, round(construction_cost * multiplier))
            tabu_until = {}
            iteration = 0
            phase_start = run.evaluations_used
            while run.evaluations_used - phase_start < allowance:
                iteration += 1
                step_before = run.evaluations_used
                current = _tabu_move(run, current, tabu_until, iteration, params.tenure)
                if run.evaluations_used == step_before:
                    break
            if run.evaluations_used == before:
                run.stall()
            round_index += 1
    except _SearchStop:
        pass
    return run.finalize("hybrid")
