"""Domain types: dataset invariants, config validation, parameter counts."""

import numpy as np
import pytest

from varsearch import (
    CoefficientSet,
    ModelConfig,
    Role,
    TimeSeriesDataset,
    ValidationError,
    count_parameters,
    validate_config,
)

from .conftest import make_dataset


class TestTimeSeriesDataset:
    def test_accepts_minimal_series(self):
        ds = make_dataset([1.0])
        assert ds.n_obs == 1 and ds.n_vars == 1

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            make_dataset([1.0, np.nan, 3.0])
        with pytest.raises(ValueError, match="NaN or infinite"):
            make_dataset([1.0, np.inf, 3.0])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            make_dataset(np.ones((3, 2)), names=("x", "x"))

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="nonempty"):
            make_dataset(np.ones((3, 2)), names=("x", ""))

    def test_requires_a_dependent_column(self):
        with pytest.raises(ValueError, match="DEPENDENT"):
            make_dataset(np.ones((3, 2)), roles=(Role.INDEPENDENT,) * 2)

    def test_base_mask_follows_roles(self):
        ds = make_dataset(
            np.ones((3, 3)),
            roles=(Role.DEPENDENT, Role.INDEPENDENT, Role.DEPENDENT),
        )
        assert ds.base_mask == (True, False, True)

    def test_observations_are_read_only(self):
        ds = make_dataset([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ds.observations[0, 0] = 9.0

    def test_the_constructor_copies_the_callers_array(self):
        # only load_dataset and generate hand their own matrix over
        for values in (np.ones((5, 2)), np.asfortranarray(np.ones((5, 2)))):
            ds = make_dataset(values)
            assert not np.shares_memory(ds.observations, values)
            assert values.flags.writeable
            values[0, 0] = 9.0
            assert ds.observations[0, 0] == 1.0


class TestValidateConfig:
    def test_smallest_determined_system_is_ok(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0])
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
        assert validate_config(cfg, ds) == []

    def test_p_zero_is_a_violation(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0])
        cfg = ModelConfig(p=0, q=0, dependent_mask=(True,))
        violations = validate_config(cfg, ds)
        assert any("p must be >= 1" in v for v in violations)

    def test_insufficient_sample_is_a_violation(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0])
        cfg = ModelConfig(p=3, q=0, dependent_mask=(True,))
        violations = validate_config(cfg, ds)
        assert any("insufficient effective sample" in v for v in violations)

    def test_q_without_independent_columns_is_a_violation(self):
        ds = make_dataset(np.random.default_rng(0).normal(size=(30, 2)))
        cfg = ModelConfig(p=1, q=1, dependent_mask=(True, True))
        violations = validate_config(cfg, ds)
        assert any("independent column" in v for v in violations)

    def test_q_zero_with_unused_independent_columns_is_ok(self):
        ds = make_dataset(
            np.random.default_rng(0).normal(size=(30, 2)),
            roles=(Role.DEPENDENT, Role.INDEPENDENT),
        )
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True, False))
        assert validate_config(cfg, ds) == []

    def test_mask_must_select_a_column(self):
        ds = make_dataset(np.ones((10, 2)))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(False, False))
        violations = validate_config(cfg, ds)
        assert any("at least one column" in v for v in violations)

    def test_row_start_override_shrinks_the_sample(self):
        ds = make_dataset(np.arange(6.0))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True,))
        assert validate_config(cfg, ds) == []
        # forcing row_start 4 leaves T' = 2 < K + 1 = 3
        assert validate_config(cfg, ds, row_start=4) != []

    def test_row_start_below_max_pq_is_rejected(self):
        ds = make_dataset(np.arange(20.0))
        cfg = ModelConfig(p=3, q=0, dependent_mask=(True,))
        violations = validate_config(cfg, ds, row_start=1)
        assert any("below max(p, q)" in v for v in violations)

    def test_verdict_is_deterministic(self):
        ds = make_dataset(np.arange(8.0))
        cfg = ModelConfig(p=2, q=0, dependent_mask=(True,))
        assert validate_config(cfg, ds) == validate_config(cfg, ds)


class TestCountParameters:
    def test_bivariate_one_lag_with_constant(self):
        ds = make_dataset(np.random.default_rng(1).normal(size=(40, 2)))
        cfg = ModelConfig(p=1, q=0, dependent_mask=(True, True))
        assert count_parameters(cfg, ds) == 2 * (2 + 1)

    def test_univariate_with_exogenous(self):
        ds = make_dataset(
            np.random.default_rng(2).normal(size=(40, 2)),
            roles=(Role.DEPENDENT, Role.INDEPENDENT),
        )
        cfg = ModelConfig(p=2, q=1, dependent_mask=(True, False))
        assert count_parameters(cfg, ds) == 1 * (2 + 1 + 1)

    def test_trivariate_no_constant(self):
        ds = make_dataset(
            np.random.default_rng(3).normal(size=(60, 5)),
            roles=(Role.DEPENDENT,) * 3 + (Role.INDEPENDENT,) * 2,
        )
        cfg = ModelConfig(
            p=2, q=2, dependent_mask=(True, True, True, False, False),
            include_constant=False,
        )
        assert count_parameters(cfg, ds) == 3 * (6 + 4)

    def test_invalid_config_raises(self):
        ds = make_dataset([1.0, 2.0])
        cfg = ModelConfig(p=3, q=0, dependent_mask=(True,))
        with pytest.raises(ValidationError):
            count_parameters(cfg, ds)

    def test_matches_flattened_coefficient_count(self):
        ds = make_dataset(
            np.random.default_rng(4).normal(size=(80, 3)),
            roles=(Role.DEPENDENT, Role.DEPENDENT, Role.INDEPENDENT),
        )
        cfg = ModelConfig(p=2, q=1, dependent_mask=(True, True, False))
        from varsearch import fit

        result = fit(ds, cfg)
        assert count_parameters(cfg, ds) == result.coefficients.flatten().size


class TestCoefficientSet:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ValueError, match="A_2"):
            CoefficientSet(a=(np.eye(2), np.eye(3)))
        with pytest.raises(ValueError, match="B_1"):
            CoefficientSet(a=(np.eye(2),), b=(np.ones((1, 3)),))
        with pytest.raises(ValueError, match="C has"):
            CoefficientSet(a=(np.eye(2),), c=np.array([1.0, 2.0, 3.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            CoefficientSet(a=(np.array([[np.nan]]),))

    def test_flatten_stacks_blocks_in_order(self):
        a1 = np.array([[1.0, 2.0], [3.0, 4.0]])
        a2 = np.array([[5.0, 6.0], [7.0, 8.0]])
        b1 = np.array([[9.0, 10.0]])
        c = np.array([[11.0, 12.0]])
        coef = CoefficientSet(a=(a1, a2), b=(b1,), c=c)
        stacked = coef.flatten()
        assert stacked.shape == (6, 2)
        np.testing.assert_array_equal(stacked[:2], a1)
        np.testing.assert_array_equal(stacked[2:4], a2)
        np.testing.assert_array_equal(stacked[4:5], b1)
        np.testing.assert_array_equal(stacked[5:6], c)
