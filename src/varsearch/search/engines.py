"""Search engines over the configuration space and the coefficient space.

One exact method (exhaustive) and five metaheuristics (genetic algorithm,
tabu search, GRASP, scatter search, and a GRASP+tabu hybrid).  The GA
(``_ga``), tabu search (``_tabu``), GRASP construction (``_construct``),
steepest descent (``_descend``) and the hybrid (``_hybrid``) are written
once.  They drive a space's ``_Run``, which keeps budget, stagnation, the
best candidate, the trajectory and the random streams, counts each round
of ``_Run.rounds`` that scored nothing as a stall, and supplies the
operators: ``score(candidates) -> keys`` (scoring and recording the fresh
ones), ``sample``, ``moves`` as ``(attr, abandoned, candidate)``,
``crossover``, ``mutate``, ``genome_length``, ``construction`` (a start
and one trial builder per dimension) and ``anchor`` (what a multistart
engine scores before its first round).  ``_SearchRun`` here is the
configuration space, ``coeffsearch._CoeffRun`` the coefficient space.
Scatter search stays two engines, as the two algorithms differ beyond
their operators (see ``scatter_search``); both use the shared descent.

In the configuration space:

* the budget counts distinct candidates scored, not least-squares fits;
  revisiting a cached candidate is free,
* stagnation counts evaluations without improvement and also rounds that
  scored nothing, and a search stops once it has scored every genome of
  the raw space, as nothing is left to find,
* candidates are compared by the key (criterion value, parameter count,
  genome index), so ties prefer smaller models and then earlier genomes,
* every random draw comes from streams derived from the master seed alone,
  so results do not depend on timing.

Candidates are scored by ``CrossProductEvaluator``, which returns the
criterion value pivoted QR would give wherever that could change a
comparison.
"""

from __future__ import annotations

import itertools
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
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
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

    A space subclasses it with the operators the shared engines call (see
    the module docstring).  ``record`` counts one scored candidate and
    keeps the best by ``key``; the search stops once ``limit`` candidates
    have been scored (the budget, or fewer when the whole space is smaller)
    or after ``stagnation_limit`` scored candidates and rounds that scored
    nothing without an improvement; every engine loops over ``rounds``.
    """

    def __init__(self, budget: SearchBudget, limit=math.inf):
        self.budget = budget
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
        """A candidate or an engine round brought no improvement."""
        self.stagnation += 1
        if self.stagnation >= self.budget.stagnation_limit:
            raise _SearchStop

    def rounds(self):
        """Round indices 0, 1, ...; a round that scored nothing is a stall."""
        for index in itertools.count():
            before = self.evaluations_used
            yield index
            if self.evaluations_used == before:
                self.stall()

    def drive(self, engine, *args):
        """Run ``engine(self, *args)`` until the search stops."""
        try:
            engine(self, *args)
        except _SearchStop:
            pass
        return self

    def anchor(self) -> None:
        """Score what a multistart engine scores before its first round."""

    def current_key(self, candidate, key):
        """The key of a scored candidate now; ``key`` unless it can change."""
        return key


def _tabu_step(moves, tabu_until, iteration, tenure):
    """Take one tabu move and return its candidate.

    ``moves`` are ``(key, attr, abandoned_attr, candidate)``, scored.  A
    move is tabu while ``tabu_until[attr] >= iteration``; the best move
    that is not tabu is taken, and when every move is tabu the best one is
    taken anyway.  Ties go to the earliest move.  The attribute the move
    abandons becomes tabu for ``tenure`` iterations.
    """
    allowed = [m for m in moves if tabu_until.get(m[1], 0) < iteration]
    _, _, abandoned, candidate = min(allowed or moves, key=lambda m: m[0])
    tabu_until[abandoned] = iteration + tenure
    return candidate


def _tabu_move(run: _Run, current, tabu_until, iteration, tenure):
    """Score the moves of ``current`` and take one tabu step among them."""
    moves = run.moves(current)
    keys = run.score([c for _, _, c in moves])
    scored = [(key, attr, old, c) for key, (attr, old, c) in zip(keys, moves)]
    return _tabu_step(scored, tabu_until, iteration, tenure)


def _descend(run: _Run, current, key):
    """Move to the best neighbour while it strictly improves the key.

    Ties go to the earliest move.  Returns the local optimum and its key.
    """
    while True:
        neighbours = [c for _, _, c in run.moves(current)]
        keys = run.score(neighbours)
        best = min(range(len(keys)), key=keys.__getitem__)
        key = run.current_key(current, key)
        if not keys[best] < key:
            return current, key
        current, key = neighbours[best], keys[best]


def _construct(run: _Run, rng: np.random.Generator, alpha: float):
    """Greedy randomized construction, one dimension at a time.

    Each dimension's trials are scored and one is drawn uniformly from the
    restricted candidate list, the best ``ceil(alpha * trials)`` (ties to
    the earlier trial).  Returns the constructed candidate and its key.
    """
    current, dimensions = run.construction()
    for trials_of in dimensions:
        trials = trials_of(current)
        keys = run.score(trials)
        ranked = sorted(range(len(trials)), key=keys.__getitem__)
        rcl = ranked[: max(1, math.ceil(alpha * len(ranked)))]
        current = trials[rcl[int(rng.integers(0, len(rcl)))]]
    return current, run.score([current])[0]


def _ga(run: _Run, params) -> None:
    """Generational GA: tournament selection, crossover, mutation, elitism.

    ``params`` carries ``population_size``, ``tournament_size``,
    ``crossover_rate``, ``mutation_rate`` (None: one over the genome
    length) and ``elitism``.
    """
    ops_rng = run.rng(_STREAM_OPS)
    rate = params.mutation_rate
    if rate is None:
        rate = 1.0 / run.genome_length
    population = run.sample(run.rng(_STREAM_INIT), params.population_size)
    keys = run.score(population)

    def tournament():
        picks = ops_rng.integers(0, len(population), size=params.tournament_size)
        return population[min(picks.tolist(), key=keys.__getitem__)]

    for _ in run.rounds():
        ranked = sorted(range(len(population)), key=keys.__getitem__)
        offspring = [population[i] for i in ranked[: params.elitism]]
        while len(offspring) < len(population):
            child = tournament()
            parent_b = tournament()
            if ops_rng.random() < params.crossover_rate:
                child = run.crossover(child, parent_b, ops_rng)
            offspring.append(run.mutate(child, ops_rng, rate))
        keys = run.score(offspring)
        population = offspring


def _tabu(run: _Run, params) -> None:
    """Best-move tabu search from one sampled start; ``params.tenure``."""
    current = run.sample(run.rng(_STREAM_INIT), 1)[0]
    run.score([current])
    tabu_until = {}
    for iteration in run.rounds():
        current = _tabu_move(run, current, tabu_until, iteration + 1, params.tenure)


def _grasp(run: _Run, params) -> None:
    """Multistart GRASP: construction (``params.alpha``) plus steepest descent."""
    run.anchor()
    for round_index in run.rounds():
        rng = run.rng(_STREAM_ROUND_BASE + round_index)
        _descend(run, *_construct(run, rng, params.alpha))


def _hybrid(run: _Run, params, share: float) -> None:
    """GRASP construction feeding a tabu phase, round after round.

    A round's tabu phase may score ``(1 - share) / share`` times what its
    construction scored (at least one candidate); the tabu list is cleared
    between rounds.  ``params`` carries ``alpha`` and ``tenure``.
    """
    multiplier = (1.0 - share) / share
    run.anchor()
    for round_index in run.rounds():
        before = run.evaluations_used
        rng = run.rng(_STREAM_ROUND_BASE + round_index)
        current, _ = _construct(run, rng, params.alpha)
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


class _SearchRun(_Run):
    """The configuration space: genomes are raw indices of the space (see
    ``SearchSpace.genes``), scored through the evaluator's cache, with the
    candidate log.

    Its limit is the size of the raw space, as no genome is scored twice.
    """

    def __init__(self, ds, space, kind, budget):
        space.check_columns(ds)
        super().__init__(budget, limit=space.raw_size())
        self.ds = ds
        self.space = space
        self.evaluator = CrossProductEvaluator(ds, space, kind)
        self.cache = self.evaluator.values
        self.candidate_log = []
        self.genome_length = 2 + space.n_bits

    def key_of(self, genome) -> tuple:
        return (*self.cache[genome], genome)

    def current_key(self, genome, key) -> tuple:
        # the evaluator may since have replaced a screened value by QR's
        return self.key_of(genome)

    def evaluate_batch(self, genomes) -> None:
        """Screen the uncached genomes at once, then score them one at a time.

        A stop (budget, stagnation or exhausted space) ends the batch at
        once, so no candidate is scored that the search does not record.
        """
        fresh = dict.fromkeys(g for g in genomes if g not in self.cache)
        self.evaluate_configs({g: self.space.config_at(g, self.ds) for g in fresh})

    def evaluate_configs(self, fresh, families=False) -> None:
        """``evaluate_batch`` of the uncached configurations ``{genome: cfg}``;
        ``families`` screens a complete enumeration by lag-order family."""
        if families:
            self.evaluator.screen_families(fresh.items())
        else:
            self.evaluator.screen_batch(fresh.items())
        for genome, cfg in fresh.items():
            best = self.best_key[0] if self.best_key is not None else None
            value, n_params, fit_result = self.evaluator.evaluate(cfg, genome, best)
            self.candidate_log.append((cfg, value))
            self.record(value, (value, n_params, genome), fit_result)

    def score(self, genomes) -> list:
        self.evaluate_batch(genomes)
        return [self.key_of(g) for g in genomes]

    def sample(self, rng: np.random.Generator, count: int) -> list:
        """Distinct genomes, uniform over the raw space."""
        space = self.space
        raw = space.raw_size()
        count = min(count, raw)
        if raw <= _DISTINCT_SAMPLE_MATERIALIZE:
            return rng.choice(raw, size=count, replace=False).tolist()
        out = {}  # insertion-ordered, so the draws keep their order
        attempts = 0
        while len(out) < count and attempts < 1000 * count:
            attempts += 1
            p = int(rng.integers(1, space.p_max + 1))
            q = int(rng.integers(0, space.q_max + 1))
            bits = rng.integers(0, 2, size=space.n_bits).tolist()
            out[space.index_of(p, q, bits)] = None
        return list(out)

    def moves(self, genome) -> list:
        """Deterministically ordered one-step moves: p +/- 1, q +/- 1, bit flips.

        Each move is ``(attr, abandoned_attr, neighbour)``.  A space of one
        genome has none, but its search stops at its first evaluation.
        """
        space = self.space
        p, q, bits = space.genes(genome)
        out = []
        for new_p in (p - 1, p + 1):
            if 1 <= new_p <= space.p_max:
                out.append((("p", new_p), ("p", p), space.index_of(new_p, q, bits)))
        for new_q in (q - 1, q + 1):
            if 0 <= new_q <= space.q_max:
                out.append((("q", new_q), ("q", q), space.index_of(p, new_q, bits)))
        for i in range(len(bits)):
            out.append((("bit", i), ("bit", i), genome ^ (1 << i)))
        return out

    def crossover(self, g1, g2, rng: np.random.Generator):
        """Uniform crossover, gene by gene."""
        (p1, q1, bits1), (p2, q2, bits2) = self.space.genes(g1), self.space.genes(g2)
        p = p1 if rng.random() < 0.5 else p2
        q = q1 if rng.random() < 0.5 else q2
        bits = [a if rng.random() < 0.5 else b for a, b in zip(bits1, bits2)]
        return self.space.index_of(p, q, bits)

    def mutate(self, genome, rng: np.random.Generator, rate: float):
        """Step p and q by +/- 1 (clamped) and flip bits, each with ``rate``."""
        space = self.space
        p, q, bits = space.genes(genome)
        if rng.random() < rate:
            step = -1 if rng.random() < 0.5 else 1
            p = min(space.p_max, max(1, p + step))
        if rng.random() < rate:
            step = -1 if rng.random() < 0.5 else 1
            q = min(space.q_max, max(0, q + step))
        bits = [b ^ 1 if rng.random() < rate else b for b in bits]
        return space.index_of(p, q, bits)

    def construction(self):
        """From (p=1, q=0, dataset roles) fix p, then q, then each bit."""
        space = self.space
        start = space.index_of(1, 0, [self.ds.base_mask[i] for i in space.switchable])

        def set_p(g):
            _, q, bits = space.genes(g)
            return [space.index_of(p, q, bits) for p in range(1, space.p_max + 1)]

        def set_q(g):
            p, _, bits = space.genes(g)
            return [space.index_of(p, q, bits) for q in range(space.q_max + 1)]

        def set_bit(i):
            return lambda g: [g & ~(1 << i) | b << i for b in (0, 1)]

        dimensions = [set_p] + ([set_q] if space.q_max > 0 else [])
        return start, dimensions + [set_bit(i) for i in range(space.n_bits)]

    def finalize(self, method: str) -> SearchResult:
        if self.best_key is None:
            raise EmptySpaceError("no candidate could be evaluated")
        best_fit = self.best
        if best_fit is None:
            raise EmptySpaceError(
                "no valid configuration found within the evaluation budget"
            )
        skipped = sum(1 for _, v in self.candidate_log if math.isinf(v) and v > 0)
        return SearchResult(
            best_config=best_fit.config,
            best_fit=best_fit,
            best_value=self.best_key[0],
            evaluations_used=self.evaluations_used,
            trajectory=list(self.trajectory),
            candidate_log=list(self.candidate_log),
            skipped_invalid=skipped,
            method=method,
        )


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
    roles = [[cfg.dependent_mask[i] for i in space.switchable] for cfg in configs]
    fresh = {space.index_of(c.p, c.q, bits): c for c, bits in zip(configs, roles)}
    run = _SearchRun(ds, space, kind, budget)
    return run.drive(_SearchRun.evaluate_configs, fresh, True).finalize("exhaustive")


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
    run = _SearchRun(ds, space, kind, budget)
    return run.drive(_ga, params or GAParams()).finalize("ga")


@one_blas_thread()
def tabu_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: TabuParams | None = None,
) -> SearchResult:
    """Best-neighbor tabu search with recency tabus.

    After a move the attribute value just abandoned becomes tabu for
    ``tenure`` iterations, and the search moves to the best neighbor that
    is not tabu.  If every neighbor is tabu the best one is taken anyway.
    The global best is kept whichever moves are taken.
    """
    run = _SearchRun(ds, space, kind, budget)
    return run.drive(_tabu, params or TabuParams()).finalize("tabu")


@one_blas_thread()
def grasp_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: GraspParams | None = None,
) -> SearchResult:
    """Multistart GRASP: randomized construction plus steepest descent.

    The construction starts from (p=1, q=0, dataset roles) and fixes p,
    then q, then each switchable bit.
    """
    run = _SearchRun(ds, space, kind, budget)
    return run.drive(_grasp, params or GraspParams()).finalize("grasp")


def _hamming(g1, g2) -> int:
    return (
        (g1[0] != g2[0])
        + (g1[1] != g2[1])
        + sum(a != b for a, b in zip(g1[2], g2[2]))
    )


def _select_diverse(candidates, refset, count, genes):
    """Greedy max-min Hamming additions to the reference set, taken on the
    genes that ``genes`` decodes; ties go to the larger string of genes."""
    chosen = [genes(g) for g in refset]
    added = []
    pool = {g: genes(g) for g in candidates}
    while pool and len(added) < count:
        best = max(
            pool,
            key=lambda g: (
                min(_hamming(pool[g], r) for r in chosen), tuple(map(str, pool[g]))
            ),
        )
        chosen.append(pool.pop(best))
        added.append(best)
    return added


def _scatter(run: _SearchRun, params: ScatterParams) -> None:
    space = run.space
    if space.raw_size() <= params.ref_size:
        run.evaluate_batch(range(space.raw_size()))
        return
    init_rng = run.rng(_STREAM_INIT)
    ops_rng = run.rng(_STREAM_OPS)

    def combine(g1, g2):
        (p1, q1, bits1), (p2, q2, bits2) = space.genes(g1), space.genes(g2)
        p = min(space.p_max, max(1, (p1 + p2) // 2))
        # majority vote of two: agreeing bits stay, the others are drawn
        bits = [
            a if a == b else int(ops_rng.integers(0, 2)) for a, b in zip(bits1, bits2)
        ]
        return space.index_of(p, (q1 + q2) // 2, bits)

    def build_refset(pool):
        ranked = sorted(set(pool), key=run.key_of)
        best = ranked[: params.n_best]
        rest = ranked[params.n_best :]
        diverse = _select_diverse(
            rest, best or rest[:1], params.ref_size - len(best), space.genes
        )
        return best + diverse

    def descend(genome):
        return _descend(run, genome, run.key_of(genome))[0]

    pool = run.sample(init_rng, params.initial_pool_size)
    run.evaluate_batch(pool)
    refset = [descend(g) for g in build_refset(pool)]
    for _ in run.rounds():
        before = run.evaluations_used
        children = []
        for i in range(len(refset)):
            for j in range(i + 1, len(refset)):
                children.append(combine(refset[i], refset[j]))
        run.evaluate_batch(children)
        children = [descend(c) for c in children]
        refset = build_refset(refset + children)
        if run.evaluations_used == before:
            refresh = run.sample(ops_rng, params.initial_pool_size)
            run.evaluate_batch(refresh)
            if run.evaluations_used > before:
                refset = build_refset(refset + refresh)


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
    (greedy max-min Hamming distance, ties to the larger genome string),
    without duplicates; the first reference set and every child are
    improved by steepest descent.  Pairs combine by integer midpoint on the
    lag orders and majority vote on the partition bits, with random
    tie-breaks.  A round that scores nothing refreshes the reference set
    with a new sample.  A space no larger than the reference set is swept
    exhaustively instead.
    """
    run = _SearchRun(ds, space, kind, budget)
    return run.drive(_scatter, params or ScatterParams()).finalize("scatter")


@one_blas_thread()
def hybrid_search(
    ds: TimeSeriesDataset,
    space: SearchSpace,
    kind: CriterionKind,
    budget: SearchBudget,
    params: HybridParams | None = None,
) -> SearchResult:
    """GRASP construction feeding a tabu improvement phase.

    Each round spends roughly ``construction_share`` (30% by default) of
    its evaluations on construction and the rest on tabu refinement of the
    constructed solution; the tabu list is cleared between rounds.
    """
    params = params or HybridParams()
    run = _SearchRun(ds, space, kind, budget)
    return run.drive(_hybrid, params, params.construction_share).finalize("hybrid")
