"""Synthetic generation, stability gating, and iterative forecasting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsearch import (
    CoefficientSet,
    CriterionKind,
    ForecastInputError,
    GeneratorSpec,
    ModelConfig,
    UnstableError,
    companion_matrix,
    companion_spectral_radius,
    fit,
    forecast,
    generate,
    random_stable_coefficients,
)

from varsearch import simulate
from varsearch.csvio import _BLOCK_ROWS

from .conftest import make_dataset


def ar_coefficients(*lags, c=None, n=1):
    a = tuple(np.eye(n) * value for value in lags)
    const = None if c is None else np.full((1, n), float(c))
    return CoefficientSet(a=a, c=const)


class TestCompanion:
    def test_scaled_identity(self):
        coef = ar_coefficients(0.5, n=2)
        assert companion_spectral_radius(coef) == pytest.approx(0.5, abs=1e-12)

    def test_unit_root(self):
        coef = ar_coefficients(1.0, n=2)
        assert companion_spectral_radius(coef) == pytest.approx(1.0, abs=1e-12)

    def test_two_lag_scalar_matches_polynomial_root(self):
        coef = ar_coefficients(0.5, 0.3)
        expected = max(abs(r) for r in np.roots([1.0, -0.5, -0.3]))
        assert companion_spectral_radius(coef) == pytest.approx(expected, abs=1e-12)

    def test_matrix_layout(self):
        a1 = np.array([[0.5, 0.1], [0.0, 0.4]])
        a2 = np.array([[0.2, 0.0], [0.1, 0.3]])
        comp = companion_matrix(CoefficientSet(a=(a1, a2)))
        assert comp.shape == (4, 4)
        np.testing.assert_array_equal(comp[0:2, 0:2], a1)
        np.testing.assert_array_equal(comp[2:4, 0:2], a2)
        np.testing.assert_array_equal(comp[0:2, 2:4], np.eye(2))
        np.testing.assert_array_equal(comp[2:4, 2:4], np.zeros((2, 2)))


class TestGenerate:
    def test_geometric_decay_from_seeded_state(self):
        coef = ar_coefficients(0.5, n=2)
        spec_ = GeneratorSpec(
            coefficients=coef,
            t=3,
            noise_scale=0.0,
            burn_in=0,
            initial_state=np.array([[1.0, 1.0]]),
        )
        ds = generate(spec_)
        np.testing.assert_allclose(
            ds.observations,
            [[1.0, 1.0], [0.5, 0.5], [0.25, 0.25]],
            atol=1e-15,
        )
        assert ds.names == ("y1", "y2")

    def test_same_seed_reproduces(self):
        coef = random_stable_coefficients(n=2, p=2, d=1, q=1, seed=0)
        spec_ = GeneratorSpec(
            coefficients=coef, t=50, noise_scale=0.3, burn_in=20, seed=9,
            exogenous="random_walk",
        )
        a = generate(spec_)
        b = generate(spec_)
        np.testing.assert_array_equal(a.observations, b.observations)
        assert a.names == ("y1", "y2", "z1")

    def test_noiseless_round_trip_recovers_coefficients(self):
        coef = random_stable_coefficients(n=2, p=2, seed=1, radius=0.95)
        spec_ = GeneratorSpec(
            coefficients=coef, t=300, noise_scale=0.0, burn_in=0, seed=2,
            initial_state=np.random.default_rng(3).normal(size=(2, 2)),
        )
        ds = generate(spec_)
        cfg = ModelConfig(p=2, q=0, dependent_mask=(True, True))
        result = fit(ds, cfg)
        err = np.linalg.norm(result.coefficients.flatten() - coef.flatten())
        assert err / np.linalg.norm(coef.flatten()) <= 1e-8

    def test_estimation_error_shrinks_with_noise(self):
        coef = random_stable_coefficients(n=2, p=1, seed=4)
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True))
        truth = coef.flatten()
        errors = []
        for scale in (0.1, 0.01, 0.001):
            spec_ = GeneratorSpec(
                coefficients=coef, t=400, noise_scale=scale, burn_in=50, seed=5
            )
            estimate = fit(generate(spec_), cfg).coefficients.flatten()
            errors.append(np.linalg.norm(estimate - truth))
        assert errors[0] > errors[1] > errors[2]

    def test_unstable_system_with_noise_is_refused(self):
        coef = random_stable_coefficients(n=2, p=1, seed=6, radius=1.2)
        spec_ = GeneratorSpec(coefficients=coef, t=50, noise_scale=0.5, burn_in=0)
        with pytest.raises(UnstableError) as excinfo:
            generate(spec_)
        assert excinfo.value.radius == pytest.approx(1.2, abs=1e-9)

    def test_unstable_error_names_the_limit_applied(self, monkeypatch):
        monkeypatch.setattr(simulate, "STABILITY_LIMIT", 0.5)
        coef = random_stable_coefficients(n=2, p=1, seed=6, radius=0.7)
        spec_ = GeneratorSpec(coefficients=coef, t=50, noise_scale=0.5, burn_in=0)
        with pytest.raises(UnstableError, match="^companion spectral radius 0.700000 >= 0.5$"):
            generate(spec_)

    def test_unstable_but_noiseless_is_allowed(self):
        coef = ar_coefficients(1.0)  # unit root
        spec_ = GeneratorSpec(
            coefficients=coef, t=10, noise_scale=0.0, burn_in=0,
            initial_state=np.array([[3.0]]),
        )
        ds = generate(spec_)
        np.testing.assert_allclose(ds.observations, np.full((10, 1), 3.0))

    def test_supplied_exogenous_array_is_used_verbatim(self):
        coef = random_stable_coefficients(n=1, p=1, d=2, q=1, seed=7)
        z = np.random.default_rng(8).normal(size=(30, 2))
        spec_ = GeneratorSpec(
            coefficients=coef, t=20, noise_scale=0.2, burn_in=10, seed=9,
            exogenous=z,
        )
        ds = generate(spec_)
        np.testing.assert_array_equal(ds.observations[:, 1:], z[10:])

    def test_spec_validation(self):
        stable = random_stable_coefficients(n=1, p=1, seed=0)
        with_exog = random_stable_coefficients(n=1, p=1, d=1, q=1, seed=0)
        with pytest.raises(ValueError, match="t must be"):
            GeneratorSpec(coefficients=stable, t=0)
        with pytest.raises(ValueError, match="burn_in"):
            GeneratorSpec(coefficients=stable, t=10, burn_in=-1)
        with pytest.raises(ValueError, match="noise_scale"):
            GeneratorSpec(coefficients=stable, t=10, noise_scale=-0.1)
        with pytest.raises(ValueError, match="exogenous"):
            GeneratorSpec(coefficients=with_exog, t=10)
        with pytest.raises(ValueError, match="unknown exogenous mode"):
            GeneratorSpec(coefficients=with_exog, t=10, exogenous="brownian")
        with pytest.raises(ValueError, match="shape"):
            GeneratorSpec(
                coefficients=with_exog, t=10, burn_in=5, exogenous=np.zeros((10, 1))
            )
        with pytest.raises(ValueError, match="initial_state"):
            GeneratorSpec(
                coefficients=stable, t=10, initial_state=np.zeros((2, 1))
            )
        with pytest.raises(ValueError, match="no room"):
            GeneratorSpec(
                coefficients=ar_coefficients(0.1, 0.1, 0.1), t=2, burn_in=1,
                noise_scale=0.0,
            )

    def test_nan_noise_scale_is_refused(self):
        # once skipped both the stability check and the noise
        unstable = ar_coefficients(1.2)
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            GeneratorSpec(coefficients=unstable, t=10, noise_scale=math.nan)

    def test_infinite_noise_scale_is_refused(self):
        stable = random_stable_coefficients(n=1, p=1, seed=0)
        with pytest.raises(ValueError, match="noise_scale must be finite"):
            GeneratorSpec(coefficients=stable, t=10, noise_scale=math.inf)

    def test_unknown_exogenous_mode_is_refused_without_lags(self):
        stable = random_stable_coefficients(n=1, p=1, seed=0)
        with pytest.raises(ValueError, match="unknown exogenous mode 'bogus'"):
            GeneratorSpec(coefficients=stable, t=10, exogenous="bogus")

    def test_exogenous_array_is_refused_without_lags(self):
        stable = random_stable_coefficients(n=1, p=1, seed=0)
        with pytest.raises(ValueError, match="q = 0 uses no exogenous array"):
            GeneratorSpec(
                coefficients=stable, t=10, burn_in=0, exogenous=np.zeros((10, 1))
            )


class TestRandomStableCoefficients:
    def test_radius_is_pinned_exactly(self):
        for radius in (0.5, 0.9, 0.995):
            coef = random_stable_coefficients(n=3, p=2, seed=10, radius=radius)
            assert companion_spectral_radius(coef) == pytest.approx(
                radius, rel=1e-10
            )

    def test_exogenous_needs_columns(self):
        with pytest.raises(ValueError, match="d >= 1"):
            random_stable_coefficients(n=1, p=1, d=0, q=1)

    @pytest.mark.parametrize("d, q", [(3, 0), (-1, 0), (0, -1)])
    def test_refuses_exogenous_sizes_that_do_not_pair(self, d, q):
        # d > 0 with q = 0 would draw no exogenous block, so the d columns
        # would silently drop out of the model
        with pytest.raises(ValueError, match=f"d={d}, q={q}"):
            random_stable_coefficients(n=1, p=1, d=d, q=q)

    def test_constant_toggle(self):
        assert random_stable_coefficients(n=1, p=1, include_constant=False).c is None
        assert random_stable_coefficients(n=1, p=1).c.shape == (1, 1)

    def test_block_shapes(self):
        coef = random_stable_coefficients(n=2, p=3, d=4, q=2, seed=11)
        assert len(coef.a) == 3 and coef.a[0].shape == (2, 2)
        assert len(coef.b) == 2 and coef.b[0].shape == (4, 2)
        assert coef.c.shape == (1, 2)


class TestForecast:
    def test_counting_series_continues(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], names=("y",))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
        result = fit(ds, cfg)
        np.testing.assert_allclose(
            forecast(ds, result, horizon=3),
            [[5.0], [6.0], [7.0]],
            atol=1e-9,
        )

    def test_one_step_equals_design_row_product(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng.normal(size=(80, 2)))
        cfg = ModelConfig(p=2, q=0, dependent_mask=(True, True))
        result = fit(ds, cfg)
        coef = result.coefficients
        obs = ds.observations
        expected = obs[-1] @ coef.a[0] + obs[-2] @ coef.a[1] + coef.c[0]
        np.testing.assert_allclose(
            forecast(ds, result, horizon=1)[0], expected, atol=1e-12
        )

    def test_long_horizon_reaches_fixed_point(self):
        coef = random_stable_coefficients(n=2, p=2, seed=13, radius=0.7)
        spec_ = GeneratorSpec(coefficients=coef, t=400, noise_scale=0.3, seed=14)
        ds = generate(spec_)
        cfg = ModelConfig(p=2, q=0, dependent_mask=(True, True))
        result = fit(ds, cfg)
        est = result.coefficients
        fixed = est.c[0] @ np.linalg.inv(np.eye(2) - est.a[0] - est.a[1])
        path = forecast(ds, result, horizon=400)
        np.testing.assert_allclose(path[-1], fixed, atol=1e-8)

    def test_future_z_requirements(self):
        coef = random_stable_coefficients(n=1, p=1, d=1, q=1, seed=15)
        spec_ = GeneratorSpec(
            coefficients=coef, t=100, noise_scale=0.3, seed=16,
            exogenous="random_walk",
        )
        ds = generate(spec_)
        cfg = ModelConfig(p=1, q=1, dependent_mask=(True, False))
        result = fit(ds, cfg)

        # single step never needs future exogenous rows
        assert forecast(ds, result, horizon=1).shape == (1, 1)

        with pytest.raises(ForecastInputError, match="future"):
            forecast(ds, result, horizon=3)
        with pytest.raises(ForecastInputError, match="2 or 3 rows"):
            forecast(ds, result, horizon=3, future_z=np.zeros((1, 1)))
        with pytest.raises(ForecastInputError, match="columns"):
            forecast(ds, result, horizon=3, future_z=np.zeros((2, 2)))
        with pytest.raises(ForecastInputError, match="finite"):
            forecast(ds, result, horizon=3, future_z=np.full((2, 1), np.nan))

        z2 = np.array([[0.5], [0.7]])
        z3 = np.vstack([z2, [[99.0]]])  # trailing row is never consumed
        out2 = forecast(ds, result, horizon=3, future_z=z2)
        out3 = forecast(ds, result, horizon=3, future_z=z3)
        assert out2.shape == (3, 1)
        np.testing.assert_array_equal(out2, out3)

    def test_bad_inputs(self):
        ds = make_dataset(np.arange(10.0))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
        result = fit(ds, cfg)
        with pytest.raises(ForecastInputError, match="horizon"):
            forecast(ds, result, horizon=0)
        other = make_dataset(np.random.default_rng(17).normal(size=(10, 2)))
        with pytest.raises(ForecastInputError, match="columns"):
            forecast(other, result, horizon=1)
        wiggly = make_dataset(np.random.default_rng(18).normal(size=(10, 1)))
        deep = fit(wiggly, ModelConfig(p=2, q=0, dependent_mask=(True,)))
        stub = make_dataset([1.0])
        with pytest.raises(ForecastInputError, match="observed rows"):
            forecast(stub, deep, horizon=1)


# Bit-for-bit pins: generate and forecast against the row-by-row loop they
# replaced, one rng.normal(size=n) per row and every term added in turn.

def _oracle_row(coef, constant, y, z, j):
    row = constant.copy()
    for i, a in enumerate(coef.a, start=1):
        row += y[j - i] @ a
    for i, b in enumerate(coef.b, start=1):
        row += z[j - i] @ b
    return row


def _oracle_generate(spec):
    coef = spec.coefficients
    n = coef.n_dependent
    rng = np.random.default_rng(spec.seed)
    total = spec.burn_in + spec.t
    start = max(coef.p, coef.q)
    if isinstance(spec.exogenous, np.ndarray):
        z = spec.exogenous
    elif coef.q > 0:
        z = np.cumsum(rng.normal(0.0, 1.0, size=(total, coef.n_independent)), axis=0)
    else:
        z = np.zeros((total, 0))
    y = np.zeros((total, n))
    if spec.initial_state is not None:
        y[:start] = spec.initial_state
    constant = coef.c[0] if coef.c is not None else np.zeros(n)
    for j in range(start, total):
        row = _oracle_row(coef, constant, y, z, j)
        if spec.noise_scale > 0:
            row += rng.normal(0.0, spec.noise_scale, size=n)
        y[j] = row
    return np.hstack([y, z])[spec.burn_in :]


# rows stepped past the seed rows: a few, or either side of a block edge
STEPS = st.one_of(
    st.integers(1, 40),
    st.sampled_from([_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3]),
)


@st.composite
def generator_specs(draw):
    n, p, q = draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 3))
    d = draw(st.integers(1, 3)) if q else 0
    seed = draw(st.integers(0, 2**16))
    coef = random_stable_coefficients(
        n=n, p=p, d=d, q=q, include_constant=draw(st.booleans()), seed=seed
    )
    # C- or Fortran-order matrices: the memory layout picks the BLAS kernel
    fortran = draw(st.lists(st.booleans(), min_size=p + q, max_size=p + q))
    mats = [np.asfortranarray(m) if f else m for m, f in zip(coef.a + coef.b, fortran)]
    coef = CoefficientSet(a=tuple(mats[:p]), b=tuple(mats[p:]), c=coef.c)
    start = max(p, q)
    steps = draw(STEPS)
    burn_in = draw(st.integers(0, min(5, steps + start - 1)))
    t = steps + start - burn_in
    rng = np.random.default_rng(seed)
    exogenous = None
    if q:
        exogenous = draw(st.sampled_from(["random_walk", "array", "fortran"]))
        if exogenous != "random_walk":
            z = rng.normal(size=(steps + start, d)).cumsum(axis=0)
            exogenous = z if exogenous == "array" else np.asfortranarray(z)
    initial = None
    if draw(st.booleans()):
        initial = rng.normal(size=(start, n)) * draw(st.sampled_from([1e-8, 1.0, 1e8]))
    return GeneratorSpec(
        coefficients=coef,
        t=t,
        noise_scale=draw(st.sampled_from([0.0, 1e-8, 1.0, 3.7])),
        burn_in=burn_in,
        seed=seed,
        exogenous=exogenous,
        initial_state=initial,
    )


@settings(max_examples=20, deadline=None)
@given(generator_specs())
def test_generate_is_bit_identical_to_the_row_loop(spec):
    assert generate(spec).observations.tobytes() == _oracle_generate(spec).tobytes()


@pytest.mark.parametrize("d, q", [(0, 0), (2, 1)])
def test_generate_holds_the_output_once(d, q):
    # the dataset freezes the output's sample in place, so generate holds the
    # burn-in's buffer, the output, the random walk it copies in, and the
    # block recursion's work: one block of (p + _BLOCK_ROWS) rows of 2 + p + q
    # terms, which every block reuses, and a block's products and noise
    coef = random_stable_coefficients(n=4, p=2, d=d, q=q, seed=1)
    spec = GeneratorSpec(coef, t=100_000, seed=3, exogenous="random_walk" if q else None)
    tracemalloc.start()
    try:
        ds = generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, n = spec.burn_in + spec.t, 4
    block = (2 + _BLOCK_ROWS) * (2 + 2 + q) * n * 8
    assert ds.observations.shape == (spec.t, n + d)
    assert peak <= rows * (n + 2 * d) * 8 + 2 * block


def test_the_dataset_keeps_no_burn_in_rows():
    # the burn-in runs in a buffer of its own; the dataset's array holds the
    # sample and at most the row_start = 1 rows its first lags read
    coef = random_stable_coefficients(n=2, p=1, seed=2)
    for burn_in in (0, 1, 50, 500):
        ds = generate(GeneratorSpec(coef, t=60, burn_in=burn_in, seed=4))
        obs = ds.observations
        assert obs.shape == (60, 2)
        assert (obs if obs.base is None else obs.base).shape[0] <= 61
        assert not obs.flags.writeable


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 3), st.integers(0, 2), st.booleans(),
    st.integers(0, 2**16), STEPS,
)
def test_forecast_is_bit_identical_to_the_row_loop(n, p, q, constant, seed, horizon):
    d = 2 if q else 0
    coef = random_stable_coefficients(
        n=n, p=p, d=d, q=q, include_constant=constant, radius=0.8, seed=seed
    )
    ds = generate(
        GeneratorSpec(
            coefficients=coef, t=60, seed=seed,
            exogenous="random_walk" if q else None,
        )
    )
    mask = (True,) * n + (False,) * d
    result = fit(ds, ModelConfig(p=p, q=q, dependent_mask=mask, include_constant=constant))
    future_z = np.random.default_rng(seed).normal(size=(horizon, d)) if q else None

    z = ds.observations[:, n:]
    if q and horizon > 1:
        z = np.vstack([z, future_z[: horizon - 1]])
    y = np.vstack([ds.observations[:, :n], np.zeros((horizon, n))])
    constant_row = result.coefficients.c[0] if constant else np.zeros(n)
    for j in range(ds.n_obs, ds.n_obs + horizon):
        y[j] = _oracle_row(result.coefficients, constant_row, y, z, j)
    expected = y[ds.n_obs :]
    assert forecast(ds, result, horizon, future_z).tobytes() == expected.tobytes()
