"""Configuration search engines: exhaustive oracle, metaheuristics, scoring."""

import math
import tracemalloc

import numpy as np
import pytest

from varsearch import (
    CriterionKind,
    GAParams,
    GeneratorSpec,
    GraspParams,
    HybridParams,
    ModelConfig,
    PartitionMode,
    Role,
    ScatterParams,
    SearchBudget,
    SearchSpace,
    TabuParams,
    TimeSeriesDataset,
    TooLargeError,
    derive_candidate_seed,
    enumerate_space,
    evaluate_config,
    exhaustive_search,
    fit,
    ga_search,
    generate,
    grasp_search,
    hybrid_search,
    random_stable_coefficients,
    scatter_search,
    tabu_search,
)

from varsearch.search import engines, evaluation
from varsearch.search.evaluation import CrossProductEvaluator

from .conftest import make_dataset, noisy_dataset
from .test_properties import assert_same_as_qr

METAHEURISTICS = [ga_search, tabu_search, grasp_search, scatter_search, hybrid_search]


def small_space_problem(seed=0):
    """Dataset with a 65-config space: p in 1..5, q in 0..3, 2 switchable columns."""
    ds = noisy_dataset(seed=seed, n=2, p=2, d=2, q=1, t=120, noise=0.5)
    space = SearchSpace(
        p_max=5, q_max=3, partition_mode=PartitionMode.SEARCH, switchable=(2, 3)
    )
    return ds, space


def random_walk_problem():
    """5000 rows of a stable VAR(2) in four variables beside two random walks.

    The 104-config space has p in 1..8, q in 0..3 and both walks switchable.
    """
    coef_seed, noise_seed, _ = (
        int(s) for s in np.random.SeedSequence([10, 1]).generate_state(3, np.uint64)
    )
    coefficients = random_stable_coefficients(n=4, p=2, d=2, q=1, radius=0.9, seed=coef_seed)
    ds = generate(
        GeneratorSpec(
            coefficients=coefficients, t=5000, seed=noise_seed, exogenous="random_walk"
        )
    )
    space = SearchSpace(
        p_max=8, q_max=3, partition_mode=PartitionMode.SEARCH, switchable=(4, 5)
    )
    return ds, space


def rank_one_drive(scale, noise=0.0):
    """y(t) = A y(t-1) + B z(t-1) + c (+ noise), B of rank one, z a random walk.

    Without noise the residuals of every design that lacks lag 1 of z have
    rank one, so their covariance is singular in exact arithmetic.
    """
    rng = np.random.default_rng(6)
    a = np.array([[0.5, 0.2], [-0.3, 0.4]])
    b = np.array([[1.0, -0.5]])
    obs = np.zeros((40, 3))
    obs[:, 2] = np.cumsum(rng.normal(size=40))
    obs[0, :2] = rng.normal(size=2)
    shocks = noise * rng.normal(size=(40, 2))
    for t in range(1, 40):
        obs[t, :2] = obs[t - 1, :2] @ a + obs[t - 1, 2:] @ b + [0.3, -0.1] + shocks[t]
    return make_dataset(
        obs * scale, roles=(Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT)
    )


class TestExhaustive:
    def test_singleton_space(self):
        ds = make_dataset(np.random.default_rng(0).normal(size=(30, 1)))
        space = SearchSpace(p_max=1)
        result = exhaustive_search(ds, space, CriterionKind.AIC, SearchBudget(1))
        assert result.best_config.p == 1
        assert result.evaluations_used == 1
        expected = fit(ds, result.best_config, row_start=space.common_row_start)
        assert result.best_value == expected.criterion(CriterionKind.AIC)

    def test_matches_brute_force_minimum(self):
        ds, space = small_space_problem()
        configs = enumerate_space(space, ds)
        budget = SearchBudget(len(configs))
        result = exhaustive_search(ds, space, CriterionKind.AIC, budget)
        values = [
            fit(ds, c, row_start=space.common_row_start).criterion(CriterionKind.AIC)
            for c in configs
        ]
        assert result.best_value == min(values)
        assert result.evaluations_used == len(configs)

    def test_builds_each_configuration_once(self, monkeypatch):
        # enumerate_space builds one per raw genome, and the search scores
        # those; no candidate is rebuilt from its genome
        ds, space = small_space_problem()
        built = []
        post_init = ModelConfig.__post_init__

        def counting(cfg):
            built.append(cfg)
            post_init(cfg)

        monkeypatch.setattr(ModelConfig, "__post_init__", counting)
        result = exhaustive_search(ds, space, CriterionKind.AIC)
        assert result.evaluations_used == 65
        assert len(built) <= space.raw_size() + 1

    def test_tie_broken_by_enumeration_order(self):
        # columns 1 and 2 are identical, so the two masks picking one of
        # them tie exactly; the earlier mask integer must win
        rng = np.random.default_rng(9)
        noise_col = rng.normal(size=(40, 1))
        twin = np.zeros((40, 1))
        for j in range(1, 40):
            twin[j] = 0.9 * twin[j - 1] + rng.normal(scale=0.05)
        ds = make_dataset(
            np.hstack([noise_col, twin, twin.copy()]),
            roles=(Role.DEPENDENT, Role.INDEPENDENT, Role.INDEPENDENT),
        )
        space = SearchSpace(
            p_max=1, partition_mode=PartitionMode.SEARCH, switchable=(1, 2)
        )
        result = exhaustive_search(ds, space, CriterionKind.AIC, SearchBudget(4))
        both = fit(
            ds,
            ModelConfig(p=1, q=0, dependent_mask=(True, False, True)),
            row_start=space.common_row_start,
        )
        assert result.best_value == both.criterion(CriterionKind.AIC)
        assert result.best_config.dependent_mask == (True, True, False)

    def test_degenerate_fit_wins_noiseless_space(self):
        # noiseless AR(1): p=1 reproduces the data exactly (criterion -inf)
        # while higher lags make the design collinear and get skipped
        from varsearch import GeneratorSpec, generate, random_stable_coefficients

        coef = random_stable_coefficients(n=1, p=1, seed=2)
        gen = GeneratorSpec(
            coefficients=coef,
            t=60,
            noise_scale=0.0,
            burn_in=0,
            seed=3,
            initial_state=np.array([[2.0]]),
        )
        ds = generate(gen)
        space = SearchSpace(p_max=3)
        result = exhaustive_search(ds, space, CriterionKind.AIC, SearchBudget(3))
        assert result.best_value == -math.inf
        assert result.best_config.p == 1
        assert result.skipped_invalid == 2

    def test_budget_too_small_raises(self):
        ds, space = small_space_problem()
        n_valid = len(enumerate_space(space, ds))
        with pytest.raises(TooLargeError):
            exhaustive_search(ds, space, CriterionKind.AIC, SearchBudget(n_valid - 1))

    def test_answer_does_not_depend_on_the_budget(self):
        # the budget only bounds the sweep; its seed and any room to spare
        # change nothing, down to the last bit
        ds, space = small_space_problem()
        n_valid = len(enumerate_space(space, ds))
        budgets = [
            None,
            SearchBudget(n_valid),
            SearchBudget(n_valid + 7, stagnation_limit=1),
            SearchBudget(n_valid, master_seed=2**64 - 1),
        ]

        def answer(budget):
            result = exhaustive_search(ds, space, CriterionKind.AIC, budget)
            log = [(cfg, np.float64(value).tobytes()) for cfg, value in result.candidate_log]
            return (
                log, result.trajectory, result.evaluations_used,
                result.skipped_invalid, result.best_fit.residuals.tobytes(),
            )

        first, *rest = [answer(budget) for budget in budgets]
        assert first[2] == n_valid
        for other in rest:
            assert other == first

    def test_huge_raw_space_raises(self):
        ds = make_dataset(
            np.random.default_rng(1).normal(size=(40, 22)),
            roles=(Role.DEPENDENT,) + (Role.INDEPENDENT,) * 21,
        )
        space = SearchSpace(
            p_max=2,
            q_max=1,
            partition_mode=PartitionMode.SEARCH,
            switchable=tuple(range(1, 22)),
        )
        assert space.raw_size() > 1_000_000
        with pytest.raises(TooLargeError):
            exhaustive_search(ds, space, CriterionKind.AIC, SearchBudget(10**7))


class TestMetaheuristics:
    @pytest.mark.parametrize("engine", METAHEURISTICS)
    def test_same_seed_same_result(self, engine):
        ds, space = small_space_problem()
        budget = SearchBudget(40, master_seed=7)
        a = engine(ds, space, CriterionKind.BIC, budget)
        b = engine(ds, space, CriterionKind.BIC, budget)
        assert a.best_value == b.best_value
        assert a.best_config == b.best_config
        assert a.evaluations_used == b.evaluations_used
        assert a.trajectory == b.trajectory

    @pytest.mark.parametrize("engine", METAHEURISTICS)
    def test_budget_respected(self, engine):
        ds, space = small_space_problem()
        budget = SearchBudget(25, master_seed=3)
        result = engine(ds, space, CriterionKind.AIC, budget)
        assert result.evaluations_used <= 25

    @pytest.mark.parametrize("engine", METAHEURISTICS)
    def test_trajectory_monotone(self, engine):
        ds, space = small_space_problem()
        result = engine(ds, space, CriterionKind.AIC, SearchBudget(50, master_seed=1))
        values = [v for _, v in result.trajectory]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        assert result.best_value == values[-1]

    @pytest.mark.parametrize(
        "engine,min_hits",
        [
            (ga_search, 18),
            (tabu_search, 15),
            (grasp_search, 18),
            (scatter_search, 18),
            (hybrid_search, 18),
        ],
    )
    def test_finds_optimum_with_full_budget(self, engine, min_hits):
        """With budget equal to the space size, most seeds land on the optimum.

        Tabu gets a looser bar: a walk can settle into a cycling basin and
        stall before spending the whole budget.
        """
        ds, space = small_space_problem()
        configs = enumerate_space(space, ds)
        oracle = exhaustive_search(
            ds, space, CriterionKind.AIC, SearchBudget(len(configs))
        ).best_value
        hits = 0
        for seed in range(20):
            budget = SearchBudget(len(configs), master_seed=seed)
            result = engine(ds, space, CriterionKind.AIC, budget)
            if abs(result.best_value - oracle) <= 1e-9:
                hits += 1
        assert hits >= min_hits

    def test_ga_small_budget_stays_within_limit(self):
        ds, space = small_space_problem()
        params = GAParams(population_size=8)
        result = ga_search(
            ds, space, CriterionKind.AIC, SearchBudget(8, master_seed=5), params=params
        )
        assert result.evaluations_used <= 8
        assert result.best_value < math.inf

    def test_tabu_descends_unimodal_line(self):
        # AR(2) data, lag-only space: tabu must reach p=2 quickly
        ds = noisy_dataset(seed=4, n=1, p=2, t=400, noise=0.5)
        space = SearchSpace(p_max=8)
        for seed in range(5):
            result = tabu_search(
                ds, space, CriterionKind.BIC, SearchBudget(8, master_seed=seed)
            )
            assert result.best_config.p == 2

    def test_grasp_rcl_singleton_is_greedy(self):
        ds, space = small_space_problem()
        params = GraspParams(alpha=1e-9)
        a = grasp_search(
            ds, space, CriterionKind.AIC, SearchBudget(30, master_seed=0), params=params
        )
        b = grasp_search(
            ds, space, CriterionKind.AIC, SearchBudget(30, master_seed=99), params=params
        )
        # alpha ~ 0 keeps only the greedy choice in the candidate list, so the
        # first constructed solution is seed-independent
        assert a.candidate_log[0][0] == b.candidate_log[0][0]

    def test_scatter_full_sweep_on_tiny_space(self):
        ds = make_dataset(np.random.default_rng(5).normal(size=(60, 1)))
        space = SearchSpace(p_max=4)
        params = ScatterParams(ref_size=5, n_best=2, initial_pool_size=6)
        result = scatter_search(
            ds, space, CriterionKind.AIC, SearchBudget(50, master_seed=2), params=params
        )
        oracle = exhaustive_search(ds, space, CriterionKind.AIC, SearchBudget(4))
        assert result.best_value == oracle.best_value
        assert result.evaluations_used == 4
        # swept in enumeration order, not sampled
        assert [cfg.p for cfg, _ in result.candidate_log] == [1, 2, 3, 4]

    def test_scatter_refresh_joins_the_reference_set(self, monkeypatch):
        # a round that scores nothing samples a refresh; when the refresh
        # scores something, the next reference set is built from a pool
        # that holds every refreshed genome
        ds, space = small_space_problem(seed=2)
        events = []
        runs = []
        sample = engines._SearchRun.sample
        select_diverse = engines._select_diverse

        def keys(genomes):
            return set(genomes)

        def spying_sample(run, rng, count):
            runs.append(run)
            out = sample(run, rng, count)
            events.append(("sample", keys(out), run.evaluations_used))
            return out

        def spying_select(candidates, refset, count, genes):
            events.append(("select", keys(list(candidates) + list(refset)), None))
            return select_diverse(candidates, refset, count, genes)

        monkeypatch.setattr(engines._SearchRun, "sample", spying_sample)
        monkeypatch.setattr(engines, "_select_diverse", spying_select)
        scatter_search(ds, space, CriterionKind.AIC, SearchBudget(80, 50, 2))
        samples = [i for i, e in enumerate(events) if e[0] == "sample"]
        assert len(samples) >= 2  # the first is the initial pool
        joined = []
        for i in samples[1:]:
            pool = next((e[1] for e in events[i + 1 :] if e[0] == "select"), set())
            joined.append(events[i][1] <= pool)
        assert any(joined)

    def test_hybrid_competitive_with_components(self):
        ds, space = small_space_problem()
        for seed in range(3):
            budget = SearchBudget(60, master_seed=seed)
            h = hybrid_search(ds, space, CriterionKind.AIC, budget).best_value
            g = grasp_search(ds, space, CriterionKind.AIC, budget).best_value
            t = tabu_search(ds, space, CriterionKind.AIC, budget).best_value
            assert h <= max(g, t) + 1e-12

    @pytest.mark.parametrize("engine", METAHEURISTICS)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_larger_budget_extends_the_same_run(self, engine, seed):
        # the same seed replays the smaller run's candidates first
        ds, space = small_space_problem()
        small = engine(
            ds, space, CriterionKind.AIC,
            SearchBudget(20, stagnation_limit=100, master_seed=seed),
        )
        large = engine(
            ds, space, CriterionKind.AIC,
            SearchBudget(60, stagnation_limit=100, master_seed=seed),
        )
        used = small.evaluations_used
        assert used == 20
        assert large.candidate_log[:used] == small.candidate_log
        assert [e for e in large.trajectory if e[0] <= used] == small.trajectory
        assert large.best_value <= small.best_value

    @pytest.mark.parametrize("engine", METAHEURISTICS)
    def test_search_stops_once_the_space_is_exhausted(self, engine, monkeypatch):
        # three genomes: past the third evaluation an engine could only
        # count stalled iterations up to the stagnation limit
        ds = noisy_dataset(seed=0, n=2, p=1, t=120)
        space = SearchSpace(p_max=3)
        batches = []
        evaluate_batch = engines._SearchRun.evaluate_batch

        def counting(run, genomes):
            batches.append(None)
            return evaluate_batch(run, genomes)

        monkeypatch.setattr(engines._SearchRun, "evaluate_batch", counting)
        results, calls = [], []
        for stagnation_limit in (200, 20000):
            batches.clear()
            budget = SearchBudget(50, stagnation_limit, master_seed=1)
            results.append(engine(ds, space, CriterionKind.AIC, budget))
            calls.append(len(batches))
        short, long = results
        assert short.evaluations_used == long.evaluations_used == 3
        assert short.best_config == long.best_config
        assert short.best_value == long.best_value
        assert short.trajectory == long.trajectory
        assert short.candidate_log == long.candidate_log
        assert calls[0] == calls[1] < 20

    def test_method_field_set(self):
        ds, space = small_space_problem()
        budget = SearchBudget(20, master_seed=0)
        assert ga_search(ds, space, CriterionKind.AIC, budget).method == "ga"
        assert exhaustive_search(ds, space, CriterionKind.AIC).method == "exhaustive"


class TestConfigurationOperators:
    """``moves``, ``crossover``, ``mutate`` and ``construction`` on every genome,
    checked through the genes they decode to."""

    @staticmethod
    def run():
        ds, space = small_space_problem()
        return engines._SearchRun(ds, space, CriterionKind.AIC, SearchBudget(10)), space

    def test_moves_change_one_gene_in_a_fixed_order(self):
        run, space = self.run()
        for genome in range(space.raw_size()):
            p, q, bits = space.genes(genome)
            ps = [v for v in (p - 1, p + 1) if 1 <= v <= space.p_max]
            qs = [v for v in (q - 1, q + 1) if 0 <= v <= space.q_max]
            want = [(("p", v), ("p", p)) for v in ps] + [(("q", v), ("q", q)) for v in qs]
            want += [(("bit", i), ("bit", i)) for i in range(len(bits))]
            moves = run.moves(genome)
            assert [(attr, old) for attr, old, _ in moves] == want
            for (name, value), _, neighbour in moves:
                genes = space.genes(neighbour)
                assert neighbour in range(space.raw_size())
                changed = [i for i in range(3) if genes[i] != (p, q, bits)[i]]
                if name == "bit":
                    assert changed == [2]
                    assert [a != b for a, b in zip(genes[2], bits)] == [
                        i == value for i in range(len(bits))
                    ]
                else:
                    assert changed == [0 if name == "p" else 1]
                    assert genes[changed[0]] == value
                    assert abs(value - (p, q)[changed[0]]) == 1

    def test_crossover_takes_each_gene_from_a_parent(self):
        run, space = self.run()
        rng = np.random.default_rng(0)
        raw = space.raw_size()
        for g1 in range(raw):
            g2 = (g1 * 37 + 11) % raw
            (p1, q1, bits1), (p2, q2, bits2) = space.genes(g1), space.genes(g2)
            p, q, bits = space.genes(run.crossover(g1, g2, rng))
            assert p in (p1, p2) and q in (q1, q2)
            assert all(b in pair for b, pair in zip(bits, zip(bits1, bits2)))

    def test_mutate_at_rate_zero_and_one(self):
        run, space = self.run()
        rng = np.random.default_rng(0)
        for genome in range(space.raw_size()):
            assert run.mutate(genome, rng, 0.0) == genome
            p, q, bits = space.genes(genome)
            new_p, new_q, new_bits = space.genes(run.mutate(genome, rng, 1.0))
            assert new_bits == tuple(1 - b for b in bits)
            assert new_p in {min(space.p_max, max(1, p + s)) for s in (-1, 1)}
            assert new_q in {min(space.q_max, max(0, q + s)) for s in (-1, 1)}

    def test_construction_starts_from_the_dataset_roles(self):
        run, space = self.run()
        start, dimensions = run.construction()
        roles = tuple(int(run.ds.base_mask[i]) for i in space.switchable)
        assert space.genes(start) == (1, 0, roles)
        assert len(dimensions) == 2 + space.n_bits
        for genome in range(space.raw_size()):
            p, q, bits = space.genes(genome)
            set_p, set_q, *set_bits = (
                [space.genes(t) for t in trials(genome)] for trials in dimensions
            )
            assert set_p == [(v, q, bits) for v in range(1, space.p_max + 1)]
            assert set_q == [(p, v, bits) for v in range(space.q_max + 1)]
            for i, trials in enumerate(set_bits):
                assert trials == [
                    (p, q, bits[:i] + (b,) + bits[i + 1 :]) for b in (0, 1)
                ]


class TestSampling:
    """``_SearchRun.sample`` above the size where the raw space is listed."""

    @staticmethod
    def big_space_run():
        # 2 * 2 * 2**17 raw genomes, above the 100,000 that are materialized
        ds = make_dataset(np.random.default_rng(0).normal(size=(40, 17)))
        space = SearchSpace(
            p_max=2, q_max=1, partition_mode=PartitionMode.SEARCH,
            switchable=tuple(range(17)),
        )
        assert space.raw_size() > engines._DISTINCT_SAMPLE_MATERIALIZE
        return engines._SearchRun(ds, space, CriterionKind.AIC, SearchBudget(10)), space

    def test_returns_count_distinct_genomes_in_the_space(self):
        run, space = self.big_space_run()
        genomes = run.sample(np.random.default_rng(3), 200)
        assert len(genomes) == 200
        assert len(set(genomes)) == 200
        for p, q, bits in map(space.genes, genomes):
            assert 1 <= p <= 2 and 0 <= q <= 1
            assert len(bits) == 17 and set(bits) <= {0, 1}

    def test_deterministic_for_a_seed(self):
        run, _ = self.big_space_run()
        first = run.sample(np.random.default_rng(4), 50)
        assert run.sample(np.random.default_rng(4), 50) == first
        assert run.sample(np.random.default_rng(5), 50) != first


class TestTabuStep:
    """The one tabu rule both engine families step with."""

    def test_best_allowed_move_and_its_abandoned_attribute_becomes_tabu(self):
        tabu_until = {"a": 3}
        moves = [(1.0, "a", "x", "A"), (2.0, "b", "y", "B"), (3.0, "c", "z", "C")]
        chosen = engines._tabu_step(moves, tabu_until, 2, 5)
        assert chosen == "B"
        assert tabu_until == {"a": 3, "y": 7}

    def test_tabu_expires_after_its_iteration(self):
        moves = [(1.0, "a", "x", "A"), (2.0, "b", "y", "B")]
        assert engines._tabu_step(moves, {"a": 3}, 4, 5) == "A"

    def test_ties_go_to_the_earliest_move(self):
        moves = [(2.0, "a", "x", "A"), (1.0, "b", "y", "B"), (1.0, "c", "z", "C")]
        assert engines._tabu_step(moves, {}, 1, 5) == "B"

    def test_all_tabu_takes_the_best_move(self):
        moves = [(2.0, "a", "x", "A"), (1.0, "b", "y", "B")]
        tabu_until = {"a": 9, "b": 9}
        assert engines._tabu_step(moves, tabu_until, 1, 5) == "B"
        assert tabu_until["y"] == 6


class TestDescent:
    """The one steepest descent both engine families improve with."""

    def test_compares_with_the_value_the_evaluator_holds_now(self):
        # scoring the neighbours can make the evaluator replace a screened
        # value of the current genome by its QR value; the descent compares
        # the neighbours with that value, not the one it started from
        ds, space = small_space_problem()
        budget = SearchBudget(65, 65)
        run = engines._SearchRun(ds, space, CriterionKind.AIC, budget)
        start = space.index_of(1, 0, (1, 1))
        optimum, _ = engines._descend(run, start, run.score([start])[0])
        run = engines._SearchRun(ds, space, CriterionKind.AIC, budget)
        key = run.score([optimum])[0]
        worst = max(run.score([g for _, _, g in run.moves(optimum)]))
        batch = run.evaluate_batch

        def recertifying(genomes):
            batch(genomes)
            run.cache[key[2]] = (worst[0] + 1.0, key[1])

        run.evaluate_batch = recertifying
        moved, moved_key = engines._descend(run, optimum, key)
        assert moved != optimum
        assert moved_key < run.key_of(optimum)


class TestParamValidation:
    def test_ga_params(self):
        with pytest.raises(ValueError):
            GAParams(population_size=1)
        with pytest.raises(ValueError):
            GAParams(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAParams(population_size=4, elitism=4)
        for rate in (-1.0, -1e-12, 1.0 + 1e-12, 5.0, math.nan):
            with pytest.raises(ValueError, match="mutation_rate"):
                GAParams(mutation_rate=rate)
        for rate in (None, 0.0, 0.25, 1.0):
            assert GAParams(mutation_rate=rate).mutation_rate == rate

    def test_tabu_params(self):
        with pytest.raises(ValueError):
            TabuParams(tenure=-1)

    def test_grasp_params(self):
        with pytest.raises(ValueError):
            GraspParams(alpha=0.0)
        with pytest.raises(ValueError):
            GraspParams(alpha=1.5)

    def test_scatter_params(self):
        with pytest.raises(ValueError):
            ScatterParams(ref_size=3)
        with pytest.raises(ValueError):
            ScatterParams(ref_size=5, n_best=5)
        with pytest.raises(ValueError):
            ScatterParams(ref_size=5, initial_pool_size=4)

    def test_hybrid_params(self):
        with pytest.raises(ValueError):
            HybridParams(construction_share=0.0)
        with pytest.raises(ValueError):
            HybridParams(construction_share=1.0)
        with pytest.raises(ValueError, match="alpha"):
            HybridParams(alpha=0.0)
        with pytest.raises(ValueError, match="alpha"):
            HybridParams(alpha=1.5)
        with pytest.raises(ValueError, match="tenure"):
            HybridParams(tenure=-1)


class TestCandidateScoring:
    def test_evaluate_config_matches_fit(self):
        ds, space = small_space_problem()
        for cfg in enumerate_space(space, ds)[:10]:
            value, _ = evaluate_config(ds, cfg, CriterionKind.AIC, common_row_start=5)
            assert value == fit(ds, cfg, row_start=5).criterion(CriterionKind.AIC)

    def test_failed_candidate_is_inf_without_fit(self):
        ds = make_dataset(np.arange(12.0))
        bad = ModelConfig(p=9, q=0, dependent_mask=(True,))  # leaves T' < K + 1
        assert evaluate_config(ds, bad, CriterionKind.AIC) == (math.inf, None)

    @pytest.mark.parametrize("problem", [small_space_problem, random_walk_problem])
    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_batch_screens_decide_as_single_screens(self, problem, kind):
        # one evaluator screens the whole space as one batch, the other
        # each candidate alone as it is evaluated; both make every decision
        ds, space = problem()
        configs = list(enumerate(enumerate_space(space, ds)))
        batched = CrossProductEvaluator(ds, space, kind)
        single = CrossProductEvaluator(ds, space, kind)
        batched.screen_batch(configs)
        screens = dict(batched._screens)
        best, decisions = None, []
        for order, cfg in configs:
            k = cfg.n_design_columns()
            assert screens[order] == (k, single._screen([(cfg, k)])[0])
            got = batched.evaluate(cfg, order, best)
            single.screen_batch([(order, cfg)])
            want = single.evaluate(cfg, order, best)
            assert got[:2] == want[:2]
            assert (got[2] is None) == (want[2] is None)
            decisions.append(got[2] is None)
            if best is None or got[0] < best:
                best = got[0]
        assert batched.values == single.values
        assert batched.qr_fits == single.qr_fits
        assert any(decisions) and not all(decisions)

    def test_a_batch_of_over_1024_candidates_is_screened_in_parts(self):
        ds, space = small_space_problem()
        evaluator = CrossProductEvaluator(ds, space, CriterionKind.AIC)
        candidates = [(cfg, cfg.n_design_columns()) for cfg in enumerate_space(space, ds)]
        singles = [evaluator._screen([(cfg, k)])[0] for cfg, k in candidates]
        assert len(candidates) * 16 > 1024
        assert evaluator._screen(candidates * 16) == singles * 16

    def test_search_on_too_few_rows_matches_qr_only(self):
        # T' < 1: no factor is built and no candidate fits, so the batch
        # screens nothing and every engine finds no valid configuration
        ds = make_dataset(np.random.default_rng(0).normal(size=(4, 2)))
        space = SearchSpace(p_max=5)
        for engine in METAHEURISTICS:
            assert_same_as_qr(engine, ds, space, CriterionKind.AIC, SearchBudget(10))

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_screened_values_within_tolerance_of_qr(self, kind):
        ds, space = small_space_problem()
        evaluator = CrossProductEvaluator(ds, space, kind)
        candidates = [(cfg, cfg.n_design_columns()) for cfg in enumerate_space(space, ds)]
        singles = [evaluator._screen([candidate])[0] for candidate in candidates]
        for screens in (singles, evaluator._screen_families(candidates)):
            screened = 0
            for (cfg, _), got in zip(candidates, screens):
                want, _ = evaluate_config(ds, cfg, kind, space.common_row_start)
                if got is not None:
                    screened += 1
                    assert abs(got[0] - want) <= min(got[1], 1e-9)
            assert screened > 0

    @pytest.mark.parametrize("problem", [small_space_problem, random_walk_problem])
    def test_family_screens_do_not_depend_on_the_enumeration_order(self, problem):
        ds, space = problem()
        evaluator = CrossProductEvaluator(ds, space, CriterionKind.BIC)
        candidates = [(cfg, cfg.n_design_columns()) for cfg in enumerate_space(space, ds)]
        screens = evaluator._screen_families(candidates)
        assert sum(screen is not None for screen in screens) > 0
        assert evaluator._screen_families(candidates[::-1]) == screens[::-1]

    def test_a_family_of_one_order_screens_as_a_lone_candidate(self, monkeypatch):
        # p_max = 1: every (q, roles, constant) family holds one lag order,
        # whose R_yy is the trailing block of the family's own QR, so there is
        # no second QR and no tail term in the bound
        ds, _ = small_space_problem()
        space = SearchSpace(
            p_max=1, q_max=3, partition_mode=PartitionMode.SEARCH, switchable=(2, 3)
        )
        tails, original = [], CrossProductEvaluator._bound

        def spying(self, groups, screens):
            tails.extend(entry[-1] for group in groups.values() for entry in group)
            return original(self, groups, screens)

        monkeypatch.setattr(CrossProductEvaluator, "_bound", spying)
        for kind in CriterionKind:
            evaluator = CrossProductEvaluator(ds, space, kind)
            configs = enumerate_space(space, ds)
            candidates = [(cfg, cfg.n_design_columns()) for cfg in configs]
            singles = [evaluator._screen([candidate])[0] for candidate in candidates]
            assert sum(screen is not None for screen in singles) > len(configs) // 2
            assert evaluator._screen_families(candidates) == singles
        assert tails and not any(tails)

    @pytest.mark.parametrize("problem", [small_space_problem, random_walk_problem])
    def test_the_widest_order_of_a_family_takes_r_yy_from_its_own_factor(
        self, problem, monkeypatch
    ):
        # the widest screened order of each family reads R_yy from the family's
        # factor, with no second QR and so no tail term, and screens as it
        # does alone; each smaller order's tail is the K_top + n - K_p rows
        # of R below its X
        ds, space = problem()
        entries, original = {}, CrossProductEvaluator._bound

        def spying(self, groups, screens):
            for n, group in groups.items():
                entries.update((entry[0], (n, entry[1], entry[-1])) for entry in group)
            return original(self, groups, screens)

        monkeypatch.setattr(CrossProductEvaluator, "_bound", spying)
        configs = enumerate_space(space, ds)
        candidates = [(cfg, cfg.n_design_columns()) for cfg in configs]
        for kind in CriterionKind:
            evaluator = CrossProductEvaluator(ds, space, kind)
            entries.clear()
            screens = evaluator._screen_families(candidates)
            families = {}
            for index, (n, k, tail) in entries.items():
                cfg = configs[index]
                family = (cfg.q, cfg.dependent_mask, cfg.include_constant)
                families.setdefault(family, []).append((k, tail, n, index))
            assert any(len(members) > 1 for members in families.values())
            for members in families.values():
                k_top, tail, n, index = max(members)
                assert tail == 0
                assert all(t == k_top + n - k for k, t, _, _ in members if k < k_top)
                single = evaluator._screen([candidates[index]])[0]
                assert (screens[index] is None) == (single is None)
                if single is not None:
                    assert screens[index][0] == single[0]
                    assert screens[index][1] == pytest.approx(single[1], rel=1e-15)

    def test_exhaustive_search_factors_each_family_once(self, monkeypatch):
        ds, space = small_space_problem()
        configs = enumerate_space(space, ds)
        families = {(c.q, c.dependent_mask, c.include_constant) for c in configs}
        real, calls = evaluation.lapack, []

        class Spy:
            def __getattr__(self, name):
                return getattr(real, name)

            def dgeqrf(self, *args, **kwargs):
                calls.append(args[0].shape)
                return real.dgeqrf(*args, **kwargs)

        monkeypatch.setattr(evaluation, "lapack", Spy())
        exhaustive_search(ds, space, CriterionKind.AIC)
        # one for the factor of Z, whose 115 rows make one block, and one per family
        assert len(calls) == 1 + len(families) < len(configs)

    def test_too_few_factor_rows_match_a_qr_only_search(self):
        # T' = 12 rows against W = 16 columns of Z: R has only 12 rows, so
        # the orders with K + n > 12 >= K + 1 must go to QR
        ds = make_dataset(
            np.random.default_rng(3).normal(size=(16, 3)),
            roles=(Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT),
        )
        space = SearchSpace(
            p_max=4, q_max=2, partition_mode=PartitionMode.SEARCH, switchable=(2,)
        )
        evaluator = CrossProductEvaluator(ds, space, CriterionKind.AIC)
        assert evaluator._columns.shape == (16, 12)
        candidates = [(cfg, cfg.n_design_columns()) for cfg in enumerate_space(space, ds)]
        screens = evaluator._screen_families(candidates)
        short = [s for (cfg, k), s in zip(candidates, screens) if k < 12 < k + cfg.n_dependent]
        assert short and all(s is None for s in short)
        assert any(s is not None for s in screens)
        for kind in CriterionKind:
            assert_same_as_qr(exhaustive_search, ds, space, kind)

    def test_search_partition_values_shift_with_the_units(self):
        # candidates of a SEARCH partition differ in n, and ln det of an
        # n x n residual covariance moves by n ln s^2 when the data are
        # scaled by s, so a change of units can change the winner
        ds, space = small_space_problem()
        scaled = TimeSeriesDataset(
            observations=ds.observations * 1e-8, names=ds.names, roles=ds.roles
        )
        sizes = set()
        for cfg in enumerate_space(space, ds):
            value, _ = evaluate_config(ds, cfg, CriterionKind.BIC, space.common_row_start)
            moved, _ = evaluate_config(
                scaled, cfg, CriterionKind.BIC, space.common_row_start
            )
            shift = cfg.n_dependent * math.log(1e-16)
            assert abs(moved - value - shift) <= 1e-9
            sizes.add(cfg.n_dependent)
        assert sizes == {2, 3, 4}

    def test_intervals_meet_through_the_left_neighbour(self):
        intervals = evaluation._Intervals()
        intervals.add(0.0, 2.0, "a", None)
        assert intervals.meets(1.0, 1.5)  # starts inside [0, 2]
        assert intervals.meets(2.0, 3.0)
        assert intervals.meets(-1.0, 0.0)
        assert not intervals.meets(2.5, 3.0)
        assert not intervals.meets(-1.0, -0.5)

    def test_intervals_at_equal_lows_touching_ends_and_qr_points(self):
        intervals = evaluation._Intervals()
        intervals.add(1.0, 2.0, 1, "c1")  # screened
        intervals.add(2.5, 2.5, 2, None)  # a QR point
        intervals.add(3.0, 4.0, 3, "c3")
        # an interval meets an entry it only touches, at either end
        assert intervals.meets(2.0, 2.2) and intervals.meets(0.0, 1.0)
        assert intervals.meets(2.6, 3.0) and intervals.meets(4.0, 5.0)
        assert intervals.meets(2.5, 2.5) and intervals.meets(2.2, 2.5)
        assert not intervals.meets(2.1, 2.4) and not intervals.meets(4.1, 5.0)
        assert not intervals.meets(0.0, 0.9)
        # a QR point at a screened low goes after it and is never popped
        intervals.add(3.0, 3.0, 4, None)
        assert intervals.pop_screened_containing(3.0) == [(3, "c3")]
        assert intervals.pop_screened_containing(3.0) == []
        assert intervals.meets(3.0, 3.0) and not intervals.meets(3.1, 5.0)
        # a touching high end holds the value
        assert intervals.pop_screened_containing(2.0) == [(1, "c1")]
        assert not intervals.meets(1.0, 2.0)
        # equal lows keep their insertion order, and the walk leftwards
        # stops at the first entry whose high is below the value
        intervals.add(5.0, 6.0, 5, "c5")
        intervals.add(5.0, 7.0, 6, "c6")
        intervals.add(5.0, 5.0, 7, None)
        intervals.add(8.0, 8.0, 8, None)
        assert intervals.pop_screened_containing(9.0) == []
        assert intervals.pop_screened_containing(5.0) == [(6, "c6"), (5, "c5")]
        intervals.add(0.0, 10.0, 9, "c9")
        assert intervals.pop_screened_containing(2.6) == []
        assert intervals.pop_screened_containing(0.5) == [(9, "c9")]

    def test_hqc_at_two_rows_matches_a_qr_only_search(self):
        # T' = 2 < e: HQC is undefined for every candidate, so the screen
        # must leave them all to QR rather than raise
        ds = make_dataset(np.random.default_rng(1).normal(size=(3, 2)))
        space = SearchSpace(
            p_max=1, partition_mode=PartitionMode.SEARCH, switchable=(0, 1),
            include_constant=False,
        )
        assert_same_as_qr(exhaustive_search, ds, space, CriterionKind.HQC)

    @pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_perfect_fits_are_scored_by_qr(self, scale, kind):
        # y(t) = A y(t-1) + B z(t-1) + c exactly, z a random walk: the
        # candidates that hold lag 1 of both fit exactly (QR: -inf); B has
        # rank one, so the residuals of the others are singular too, and
        # QR gives -inf or a rounding-made finite value
        rng = np.random.default_rng(6)
        a = np.array([[0.5, 0.2], [-0.3, 0.4]])
        b = np.array([[1.0, -0.5]])
        obs = np.zeros((40, 3))
        obs[:, 2] = np.cumsum(rng.normal(size=40))
        obs[0, :2] = rng.normal(size=2)
        for t in range(1, 40):
            obs[t, :2] = obs[t - 1, :2] @ a + obs[t - 1, 2:] @ b + [0.3, -0.1]
        ds = make_dataset(
            obs * scale, roles=(Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT)
        )
        space = SearchSpace(p_max=2, q_max=2)
        evaluator = CrossProductEvaluator(ds, space, kind)
        configs = enumerate_space(space, ds)
        candidates = [(cfg, cfg.n_design_columns()) for cfg in configs]
        family_screens = dict(zip(configs, evaluator._screen_families(candidates)))
        perfect = 0
        for cfg in configs:
            value, _ = evaluate_config(ds, cfg, kind, space.common_row_start)
            if value == -math.inf:
                perfect += 1
                assert evaluator._screen([(cfg, cfg.n_design_columns())])[0] is None
                assert family_screens[cfg] is None
        assert perfect >= 2
        assert_same_as_qr(exhaustive_search, ds, space, kind)

    @pytest.mark.parametrize("noise", [0.0, 0.05])
    def test_answers_do_not_depend_on_units(self, noise):
        # a singular residual covariance is -inf at every scale, and every
        # other value shifts by n ln s^2, so a fixed partition keeps its winner
        space = SearchSpace(p_max=2, q_max=2)
        base = exhaustive_search(rank_one_drive(1.0, noise), space, CriterionKind.AIC)
        singular = {cfg for cfg, value in base.candidate_log if value == -math.inf}
        assert bool(singular) == (noise == 0.0)
        for scale in (1e8, 1e-8, 2.0**30, 2.0**-30, 3.7):
            result = exhaustive_search(
                rank_one_drive(scale, noise), space, CriterionKind.AIC
            )
            assert result.best_config == base.best_config
            assert {
                cfg for cfg, value in result.candidate_log if value == -math.inf
            } == singular
            shift = 2 * math.log(scale**2)
            for (cfg, value), (want_cfg, want) in zip(
                result.candidate_log, base.candidate_log
            ):
                assert cfg == want_cfg
                if math.isfinite(want):
                    assert value == pytest.approx(want + shift, rel=0.0, abs=1e-9)
                else:
                    assert value == want

    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_near_duplicate_exogenous_columns_are_scored_by_qr(self, kind):
        # z2 = z1 + delta v with v orthogonal, over the common rows, to the
        # targets and the other design columns: pivoted QR calls the p = 1,
        # q = 1 design rank deficient (delta ~ 9e-11 of the column norm),
        # while the coefficients stay moderate enough for the screen's bound
        # to accept its value, so only the condition test sends it to QR
        rng = np.random.default_rng(0)
        y = np.zeros(100)
        noise = rng.normal(size=100)
        for t in range(1, 100):
            y[t] = 0.5 * y[t - 1] + noise[t]
        z1 = rng.normal(size=100)
        basis, _ = np.linalg.qr(np.column_stack([y[1:], y[:-1], z1[:-1], np.ones(99)]))
        v = rng.normal(size=99)
        for _ in range(2):
            v -= basis @ (basis.T @ v)
        z2 = z1.copy()
        z2[:-1] += 9e-11 * np.linalg.norm(z1[:-1]) / np.linalg.norm(v) * v
        ds = make_dataset(
            np.column_stack([y, z1, z2]),
            roles=(Role.DEPENDENT, Role.INDEPENDENT, Role.INDEPENDENT),
        )
        space = SearchSpace(p_max=1, q_max=1)
        cfg = ModelConfig(p=1, q=1, dependent_mask=(True, False, False))
        assert evaluate_config(ds, cfg, kind, space.common_row_start) == (math.inf, None)
        evaluator = CrossProductEvaluator(ds, space, kind)
        assert evaluator._screen([(cfg, cfg.n_design_columns())])[0] is None
        configs = enumerate_space(space, ds)
        candidates = [(c, c.n_design_columns()) for c in configs]
        family_screens = dict(zip(configs, evaluator._screen_families(candidates)))
        assert family_screens[cfg] is None
        assert_same_as_qr(exhaustive_search, ds, space, kind)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", list(CriterionKind))
    def test_every_order_of_a_deficient_family_takes_the_rank_test(self, seed, kind):
        # z2 = z1 + delta v as above, with v orthogonal over the common rows
        # to the targets and to every column a q = 1 design of p <= 3 holds:
        # every order of that family is rank deficient to pivoted QR (ratio
        # 9e-11), so the widest fails the condition test; screened unchecked,
        # the smaller orders' bounds would accept their values, so each
        # order's own condition test must send it to QR
        rng = np.random.default_rng(seed)
        y = rng.normal(size=60)
        z1 = np.cumsum(rng.normal(size=60))
        rows = np.arange(3, 60)
        held = [np.ones(57), z1[rows - 1]] + [y[rows - lag] for lag in range(4)]
        held = np.column_stack(held)
        v = rng.normal(size=57)
        v -= held @ np.linalg.lstsq(held, v, rcond=None)[0]
        z2 = z1.copy()
        z2[rows - 1] += 9e-11 * np.linalg.norm(z1[rows - 1]) / np.linalg.norm(v) * v
        ds = make_dataset(
            np.column_stack([y, z1, z2]),
            roles=(Role.DEPENDENT, Role.INDEPENDENT, Role.INDEPENDENT),
        )
        space = SearchSpace(p_max=3, q_max=1)
        configs = enumerate_space(space, ds)
        evaluator = CrossProductEvaluator(ds, space, kind)
        candidates = [(c, c.n_design_columns()) for c in configs]
        screens = evaluator._screen_families(candidates)
        assert [c.p for c in configs if c.q == 1] == [1, 2, 3]
        for cfg, screen in zip(configs, screens):
            if cfg.q == 1:
                qr_value = evaluate_config(ds, cfg, kind, space.common_row_start)
                assert qr_value == (math.inf, None)
                assert screen is None
        assert_same_as_qr(exhaustive_search, ds, space, kind)

    def test_qr_value_inside_a_screened_interval_refits_it(self, monkeypatch):
        # the same configuration as two genomes of one batch: the second one's
        # interval meets the first, so QR scores it, and its QR value lies
        # inside the first one's interval, so the first is refitted too
        ds, space = small_space_problem()
        cfg = enumerate_space(space, ds)[7]
        evaluator = CrossProductEvaluator(ds, space, CriterionKind.AIC)
        certified = []
        original = CrossProductEvaluator._certify

        def spying(self, cfg, order):
            certified.append(order)
            return original(self, cfg, order)

        monkeypatch.setattr(CrossProductEvaluator, "_certify", spying)
        evaluator.screen_batch([("first", cfg), ("second", cfg)])
        _, _, fit_result = evaluator.evaluate(cfg, "first", -1e9)
        assert fit_result is None
        value, _, fit_result = evaluator.evaluate(cfg, "second", -1e9)
        assert fit_result is not None
        assert certified == ["second", "first"]
        assert evaluator.values["first"][0] == value
        assert evaluator.qr_fits == 2

    def test_random_walk_candidates_are_screened_not_refitted(self, monkeypatch):
        # the screen's bound must stay below VALUE_TOLERANCE on random walks
        # that reach several hundred, so QR certifies few of the 104
        ds, space = random_walk_problem()
        certified = []
        original = CrossProductEvaluator._certify

        def spying(self, cfg, order):
            certified.append(order)
            return original(self, cfg, order)

        monkeypatch.setattr(CrossProductEvaluator, "_certify", spying)
        assert_same_as_qr(exhaustive_search, ds, space, CriterionKind.BIC)
        assert len(enumerate_space(space, ds)) == 104
        assert len(certified) <= 15

    @pytest.mark.parametrize("engine", METAHEURISTICS)
    def test_random_walk_searches_match_qr_only_searches(self, engine):
        ds, space = random_walk_problem()
        budget = SearchBudget(60, 30, 7)
        assert_same_as_qr(engine, ds, space, CriterionKind.BIC, budget)

    def test_best_value_and_fit_come_from_qr(self):
        ds, space = small_space_problem()
        result = exhaustive_search(ds, space, CriterionKind.BIC)
        value, best_fit = evaluate_config(
            ds, result.best_config, CriterionKind.BIC, space.common_row_start
        )
        assert result.best_value == value
        assert np.array_equal(result.best_fit.residuals, best_fit.residuals)
        for index, trajectory_value in result.trajectory:
            cfg, logged = result.candidate_log[index - 1]
            assert logged == trajectory_value
            assert trajectory_value == evaluate_config(
                ds, cfg, CriterionKind.BIC, space.common_row_start
            )[0]

    def test_qr_certifies_a_minority_of_candidates(self, monkeypatch):
        ds, space = small_space_problem()
        calls = []
        original = evaluation.evaluate_config

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_config", counting)
        result = exhaustive_search(ds, space, CriterionKind.AIC)
        assert len(result.trajectory) <= len(calls) < result.evaluations_used / 2

    @pytest.mark.parametrize(
        "budget, stop",
        [
            (SearchBudget(7, master_seed=3), "budget"),
            (SearchBudget(200, stagnation_limit=5, master_seed=3), "stagnation"),
        ],
    )
    def test_scored_candidates_equal_evaluations_used(self, monkeypatch, budget, stop):
        # a GA generation is one batch of 20 genomes; either limit stops
        # the search inside a batch, whose screens past the stop are dropped
        ds, space = small_space_problem()
        scored = []
        evaluators = set()
        original = CrossProductEvaluator.evaluate

        def counting(self, cfg, order, best_value):
            scored.append(order)
            evaluators.add(self)
            return original(self, cfg, order, best_value)

        monkeypatch.setattr(CrossProductEvaluator, "evaluate", counting)
        result = ga_search(ds, space, CriterionKind.AIC, budget)
        assert len(scored) == len(set(scored)) == result.evaluations_used
        (evaluator,) = evaluators
        assert set(evaluator.values) == set(scored)
        if stop == "budget":
            assert result.evaluations_used == budget.max_evaluations
        else:
            assert result.evaluations_used < budget.max_evaluations


    @pytest.mark.parametrize("tolerance", [evaluation.VALUE_TOLERANCE, -math.inf],
                             ids=["screened", "qr-scored"])
    def test_peak_memory_does_not_grow_with_the_budget(self, monkeypatch, tolerance):
        # 6 dependent and 6 switchable exogenous series, T = 500.  With no
        # screened value accepted, QR scores every candidate, and each fit's
        # residuals alone take T' n 8 bytes, n >= 6; a search keeps only the
        # best fit, so 300 more candidates add their log entries but nothing
        # like one residual column each
        coefficients = random_stable_coefficients(n=6, p=2, d=6, q=1, radius=0.9, seed=7)
        ds = generate(
            GeneratorSpec(coefficients=coefficients, t=500, seed=8, exogenous="random_walk")
        )
        space = SearchSpace(
            p_max=8, q_max=3, partition_mode=PartitionMode.SEARCH,
            switchable=tuple(range(6, 12)),
        )
        monkeypatch.setattr(evaluation, "VALUE_TOLERANCE", tolerance)
        peaks = {}
        for budget in (100, 400):
            tracemalloc.start()
            try:
                result = ga_search(ds, space, CriterionKind.AIC, SearchBudget(budget, budget, 3))
                peaks[budget] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.evaluations_used == budget
        effective_t = ds.n_obs - space.common_row_start
        assert peaks[400] - peaks[100] < 300 * effective_t * 8


def all_dependent_problem(order):
    """300 rows of a VAR(2) in three variables, every column dependent, held
    in C order (Y read in place) or Fortran order (Y gathered)."""
    ds = noisy_dataset(seed=4, n=3, p=2, t=300)
    observations = np.asarray(ds.observations, order=order)
    return make_dataset(observations), SearchSpace(p_max=4)


WINNER_PROBLEMS = {
    "small-space": small_space_problem,
    "random-walk": random_walk_problem,
    "c-order": lambda: all_dependent_problem("C"),
    "fortran-order": lambda: all_dependent_problem("F"),
}


def assert_same_fit(got, want):
    """Coefficients, residuals, sigma, ln det and criteria, bit for bit."""
    assert got.config == want.config
    for a, b in [(got.coefficients.flatten(), want.coefficients.flatten()),
                 (got.residuals, want.residuals), (got.sigma, want.sigma)]:
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert np.float64(got.log_det).tobytes() == np.float64(want.log_det).tobytes()
    kinds = list(CriterionKind)
    values = [np.array([f.criterion_values[k] for k in kinds]) for f in (got, want)]
    assert values[0].tobytes() == values[1].tobytes()
    assert (got.n_params, got.effective_t, got.row_start, got.degenerate) == (
        want.n_params, want.effective_t, want.row_start, want.degenerate
    )


class TestWinnerFit:
    @pytest.mark.parametrize("problem", list(WINNER_PROBLEMS))
    @pytest.mark.parametrize("engine", [exhaustive_search] + METAHEURISTICS)
    def test_best_fit_is_the_fit_of_the_best_config(self, problem, engine):
        # a search keeps its winner's Theta and builds the fit once, at the end
        ds, space = WINNER_PROBLEMS[problem]()
        if problem == "c-order":
            assert ds.observations.flags.c_contiguous
        if problem == "fortran-order":
            assert not ds.observations.flags.c_contiguous
        args = () if engine is exhaustive_search else (SearchBudget(40, 20, 5),)
        result = engine(ds, space, CriterionKind.BIC, *args)
        want = fit(ds, result.best_config, row_start=space.common_row_start)
        assert_same_fit(result.best_fit, want)
        assert result.best_value == want.criterion(CriterionKind.BIC)

    def test_an_exhaustive_search_holds_one_residual_matrix(self, monkeypatch):
        # T' = 20,000 rows of four dependent series: Y is read in place, and
        # a certification frees its E before the next, so the search holds X
        # of the widest certified design and one E, K_c + n columns, at most
        certified = []
        original = CrossProductEvaluator._certify

        def spying(self, cfg, genome):
            certified.append(cfg.n_design_columns())
            return original(self, cfg, genome)

        monkeypatch.setattr(CrossProductEvaluator, "_certify", spying)
        ds = noisy_dataset(seed=5, n=4, p=2, t=20_003)
        space = SearchSpace(p_max=3)
        tracemalloc.start()
        try:
            result = exhaustive_search(ds, space, CriterionKind.BIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        t, n = result.best_fit.effective_t, 4
        assert t == 20_000 and len(certified) >= 2
        assert peak <= (max(certified) + n) * t * 8 + 64 * 1024


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_candidate_seed(42, 7) == derive_candidate_seed(42, 7)

    def test_distinct_across_streams(self):
        seeds = {derive_candidate_seed(123, i) for i in range(10_000)}
        assert len(seeds) == 10_000

    def test_distinct_across_masters(self):
        seeds = {derive_candidate_seed(m, 1) for m in range(10_000)}
        assert len(seeds) == 10_000

    def test_64_bit_range(self):
        for stream in range(100):
            value = derive_candidate_seed(2**63, stream)
            assert 0 <= value < 2**64

    @pytest.mark.parametrize("master", [-1, 2**64])
    def test_refuses_a_master_seed_outside_64_bits(self, master):
        # reduced mod 2**64 it would alias a seed inside; SearchBudget refuses it
        with pytest.raises(ValueError) as refused_by_budget:
            SearchBudget(10, master_seed=master)
        with pytest.raises(ValueError) as refused:
            derive_candidate_seed(master, 0)
        assert str(refused.value) == str(refused_by_budget.value)
