"""End-to-end checks of the package's headline guarantees.

Each test prints one summary line through the capture barrier, so a
full run reads as a checklist.  Thresholds, seeds and runtime bounds
are pinned; a failure here means a real regression, not flakiness.
"""

import math
import statistics
import time

import numpy as np

from varsearch import (
    CoefficientGenome,
    CoefficientSet,
    CriterionKind,
    GeneratorSpec,
    ModelConfig,
    PartitionMode,
    SearchBudget,
    SearchMethod,
    SearchSpace,
    build_regression_system,
    coefficient_fitness,
    compare_with_ols,
    enumerate_space,
    evaluate_criterion,
    exhaustive_search,
    fit,
    ga_search,
    generate,
    grasp_search,
    hybrid_search,
    random_stable_coefficients,
    scatter_search,
    tabu_search,
    write_csv,
)
from varsearch.cli import cli_main

from .conftest import noisy_dataset


def _announce(capsys, number, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} ({name}): {verdict} - {detail}")


def _corpus_shapes():
    """20 generator shapes covering n <= 3, p <= 3, with and without exog."""
    shapes = []
    for n in (1, 2, 3):
        for p in (1, 2, 3):
            shapes.append((n, p, 0, 0, True))
            shapes.append((n, p, 1, 1, False))
    shapes.append((2, 2, 2, 2, True))
    shapes.append((3, 1, 1, 2, True))
    return shapes


def _seeded_case(idx, n, p, d, q, const, noise, burn_in):
    radius = 0.995 if q == 0 else 0.9
    coef = random_stable_coefficients(
        n=n, p=p, d=d, q=q, include_constant=const, radius=radius,
        seed=100 + idx,
    )
    start = np.random.default_rng(300 + idx).normal(
        0.0, 3.0, size=(max(p, q), n)
    )
    spec = GeneratorSpec(
        coefficients=coef,
        t=500,
        noise_scale=noise,
        burn_in=burn_in,
        seed=200 + idx,
        exogenous="random_walk" if q > 0 else None,
        initial_state=start,
    )
    cfg = ModelConfig(
        p=p, q=q,
        dependent_mask=(True,) * n + (False,) * d,
        include_constant=const,
    )
    return coef, generate(spec), cfg


def test_1_noiseless_recovery(capsys):
    """Fitting the true configuration on noiseless data returns the generator."""
    t0 = time.perf_counter()
    worst = 0.0
    for idx, shape in enumerate(_corpus_shapes()):
        coef, ds, cfg = _seeded_case(idx, *shape, noise=0.0, burn_in=0)
        result = fit(ds, cfg)
        truth = coef.flatten()
        err = np.linalg.norm(result.coefficients.flatten() - truth)
        worst = max(worst, err / np.linalg.norm(truth))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed <= 10.0
    _announce(
        capsys, 1, "noiseless recovery", ok,
        f"worst relative error {worst:.2e} over 20 generators, {elapsed:.2f}s",
    )
    assert worst <= 1e-8
    assert elapsed <= 10.0


def test_2_least_squares_optimality(capsys):
    """No random perturbation of the OLS coefficients scores better."""
    t0 = time.perf_counter()
    cfg = ModelConfig(
        p=2, q=0, dependent_mask=(True, True), include_constant=True
    )
    worst_margin = math.inf
    for s in range(10):
        ds = noisy_dataset(seed=s, n=2, p=2, t=200, noise=0.5)
        theta_ols = fit(ds, cfg).coefficients.flatten().reshape(-1)
        base = coefficient_fitness(
            ds, CoefficientGenome(cfg, theta_ols), CriterionKind.AIC
        )
        rng = np.random.default_rng(5000 + s)
        for j in range(100):
            scale = (0.001, 0.01, 0.1, 1.0)[j % 4]
            theta = theta_ols + rng.normal(0.0, scale, size=theta_ols.size)
            val = coefficient_fitness(
                ds, CoefficientGenome(cfg, theta), CriterionKind.AIC
            )
            worst_margin = min(worst_margin, val - base)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-9 and elapsed <= 10.0
    _announce(
        capsys, 2, "least-squares optimality", ok,
        f"worst perturbation margin {worst_margin:+.2e} over 1000 trials, "
        f"{elapsed:.2f}s",
    )
    assert worst_margin >= -1e-9
    assert elapsed <= 10.0


def test_3_residual_orthogonality(capsys):
    """Residuals are numerically orthogonal to the design columns."""
    worst = 0.0
    n_fits = 0
    for noise, burn_in in ((0.0, 0), (0.5, 50)):
        for idx, shape in enumerate(_corpus_shapes()):
            _, ds, cfg = _seeded_case(idx, *shape, noise=noise, burn_in=burn_in)
            result = fit(ds, cfg)
            system = build_regression_system(ds, cfg)
            cross = np.abs(system.x.T @ result.residuals).max()
            scale = np.linalg.norm(system.x) * np.linalg.norm(system.y)
            worst = max(worst, cross / scale)
            n_fits += 1
    ok = worst <= 1e-8
    _announce(
        capsys, 3, "residual orthogonality", ok,
        f"max |X'E| / (|X||Y|) = {worst:.2e} over {n_fits} fits",
    )
    assert worst <= 1e-8


def test_4_exhaustive_oracle_equivalence(capsys):
    """Every engine matches the exhaustive optimum on a small space."""
    t0 = time.perf_counter()
    coef = random_stable_coefficients(
        n=2, p=2, d=2, q=1, include_constant=True, radius=0.85, seed=11
    )
    ds = generate(
        GeneratorSpec(
            coefficients=coef, t=120, noise_scale=0.5, burn_in=50,
            seed=12, exogenous="random_walk",
        )
    )
    space = SearchSpace(
        p_max=5, q_max=3,
        partition_mode=PartitionMode.SEARCH, switchable=(2, 3),
    )
    n_valid = len(enumerate_space(space, ds))
    oracle = exhaustive_search(ds, space, CriterionKind.AIC).best_value
    engines = (
        ("ga", ga_search),
        ("tabu", tabu_search),
        ("grasp", grasp_search),
        ("scatter", scatter_search),
        ("hybrid", hybrid_search),
    )
    hits = {}
    for name, engine in engines:
        hits[name] = sum(
            engine(
                ds, space, CriterionKind.AIC,
                SearchBudget(n_valid, master_seed=seed),
            ).best_value
            <= oracle + 1e-9
            for seed in range(20)
        )
    elapsed = time.perf_counter() - t0
    ok = (
        n_valid <= 200
        and all(h >= 18 for h in hits.values())
        and elapsed <= 60.0
    )
    summary = ", ".join(f"{k} {v}/20" for k, v in hits.items())
    _announce(
        capsys, 4, "exhaustive-oracle equivalence", ok,
        f"{summary} on {n_valid} configurations, {elapsed:.2f}s",
    )
    assert n_valid <= 200
    for name, h in hits.items():
        assert h >= 18, f"{name} matched the oracle in only {h}/20 seeds"
    assert elapsed <= 60.0


def test_5_lag_order_consistency(capsys):
    """BIC over p in [1, 5] picks the true order 2 almost always."""
    t0 = time.perf_counter()
    true = CoefficientSet(
        a=(
            np.array([[0.5, 0.1], [0.0, 0.4]]),
            np.array([[0.2, 0.0], [0.1, 0.3]]),
        ),
        c=np.array([[0.1, -0.2]]),
    )
    space = SearchSpace(p_max=5)
    picks = 0
    for seed in range(20):
        ds = generate(
            GeneratorSpec(
                coefficients=true, t=1000, noise_scale=0.5,
                burn_in=100, seed=seed,
            )
        )
        best = exhaustive_search(ds, space, CriterionKind.BIC)
        picks += best.best_config.p == 2
    elapsed = time.perf_counter() - t0
    ok = picks >= 18 and elapsed <= 30.0
    _announce(
        capsys, 5, "lag-order consistency", ok,
        f"true order recovered in {picks}/20 seeds, {elapsed:.2f}s",
    )
    assert picks >= 18
    assert elapsed <= 30.0


def test_6_coefficient_search_convergence(capsys):
    """GA coefficient search closes most of the gap to least squares."""
    true = CoefficientSet(a=(np.array([[0.7]]),), c=np.array([[1.0]]))
    cfg = ModelConfig(p=1, q=0, dependent_mask=(True,), include_constant=True)
    gaps = []
    for seed in range(10):
        ds = generate(
            GeneratorSpec(
                coefficients=true, t=200, noise_scale=0.5,
                burn_in=100, seed=400 + seed,
            )
        )
        report = compare_with_ols(
            ds, cfg, CriterionKind.AIC, SearchMethod.GA,
            SearchBudget(5000, stagnation_limit=5000, master_seed=seed),
        )
        gaps.append(report.gap)
    med = statistics.median(gaps)
    low = min(gaps)
    ok = med <= 0.05 and low >= -1e-9
    _announce(
        capsys, 6, "coefficient-search convergence", ok,
        f"median criterion gap {med:.2e}, minimum {low:+.2e} over 10 seeds",
    )
    assert med <= 0.05
    assert low >= -1e-9


def test_7_deterministic_reports(tmp_path, capsys):
    """Fixed seeds give byte-identical machine reports."""
    data = tmp_path / "data.csv"
    ds = noisy_dataset(seed=0, n=2, p=2, t=100, noise=0.5)
    write_csv(data, ds.names, ds.observations)
    runs = {
        "fit": ["fit", "--input", str(data), "--p", "2"],
        "select": [
            "select", "--input", str(data), "--method", "ga",
            "--p-max", "4", "--budget", "40", "--seed", "3",
        ],
        "search-coeffs": [
            "search-coeffs", "--input", str(data), "--p", "1",
            "--method", "tabu", "--budget", "120", "--seed", "5",
        ],
        "compare": [
            "compare", "--input", str(data), "--p", "1",
            "--method", "ga", "--budget", "120", "--seed", "5",
        ],
        "simulate": ["simulate", "--n-vars", "2", "--t", "50", "--seed", "9"],
        "forecast": [
            "forecast", "--input", str(data), "--p", "2", "--horizon", "4",
        ],
    }
    failures = []
    for name, argv in runs.items():
        blobs = []
        for tag in ("a", "b"):
            target = tmp_path / f"{name}-{tag}.json"
            rc = cli_main(argv + ["--out-json", str(target)])
            if rc != 0:
                failures.append(f"{name} exited {rc}")
                break
            blobs.append(target.read_bytes())
        if len(blobs) == 2 and blobs[0] != blobs[1]:
            failures.append(f"{name} reports differ between runs")
    capsys.readouterr()
    ok = not failures
    detail = (
        "6 subcommands byte-stable"
        if ok
        else "; ".join(failures)
    )
    _announce(capsys, 7, "deterministic reports", ok, detail)
    assert not failures


def test_8_criterion_arithmetic(capsys):
    """Penalty values and the AIC < HQC < BIC penalty ordering."""
    sigma = np.eye(2)
    targets = {
        CriterionKind.AIC: 0.04,
        CriterionKind.BIC: 0.092103404,
        CriterionKind.HQC: 0.061087185,
    }
    worst = max(
        abs(evaluate_criterion(kind, sigma, 2, 100) - want)
        for kind, want in targets.items()
    )
    ordered = True
    for t in np.geomspace(16.0, 10000.0, 50):
        te = int(round(t))
        a = evaluate_criterion(CriterionKind.AIC, sigma, 2, te)
        h = evaluate_criterion(CriterionKind.HQC, sigma, 2, te)
        b = evaluate_criterion(CriterionKind.BIC, sigma, 2, te)
        ordered = ordered and a < h < b
    ok = worst <= 1e-6 and ordered
    _announce(
        capsys, 8, "criterion arithmetic", ok,
        f"max deviation {worst:.2e} at T'=100; ordering holds at 50 sizes "
        "in [16, 10000]",
    )
    assert worst <= 1e-6
    assert ordered
