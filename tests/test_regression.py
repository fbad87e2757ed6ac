import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powermap import (
    DegenerateFitError,
    SingularDesignError,
    TestSpec,
    ols_fit,
    run_test,
)
from powermap.regression import generate_mlr_sample


def normal_equations_fit(X, y):
    """Independent oracle: the much less stable direct normal-equations solve."""
    XtX = X.T @ X
    coef = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ coef
    sse = float(resid @ resid)
    df = X.shape[0] - X.shape[1]
    cov = (sse / df) * np.linalg.inv(XtX)
    return coef, cov, sse


def random_design(rng, n=50, p=2):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    beta = rng.uniform(-2, 2, p + 1)
    y = X @ beta + rng.standard_normal(n)
    return X, y


class TestOlsFit:
    def test_exact_interpolation(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(20), rng.standard_normal((20, 2))])
        beta = np.array([1.5, -0.7, 2.0])
        y = X @ beta
        fit = ols_fit(X, y)
        np.testing.assert_allclose(fit.coefficients, beta, atol=1e-10)
        assert fit.sse == pytest.approx(0.0, abs=1e-18)

    def test_constant_response(self):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        fit = ols_fit(X, np.full(30, 4.2))
        assert fit.coefficients[0] == pytest.approx(4.2, abs=1e-10)
        np.testing.assert_allclose(fit.coefficients[1:], 0.0, atol=1e-10)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(3)
        X, y = random_design(rng, n=50, p=2)
        fit = ols_fit(X, y)
        coef, cov, sse = normal_equations_fit(X, y)
        np.testing.assert_allclose(fit.coefficients, coef, atol=1e-8)
        np.testing.assert_allclose(fit.coefficient_covariance, cov, atol=1e-8)
        assert fit.sse == pytest.approx(sse, rel=1e-10)
        assert fit.residual_df == 47

    def test_singular_design_rejected(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(25)
        X = np.column_stack([np.ones(25), x, 2.0 * x])
        with pytest.raises(SingularDesignError):
            ols_fit(X, rng.standard_normal(25))

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 3)), np.ones(3))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(10, 80))
    @settings(max_examples=60, deadline=None)
    def test_residual_orthogonality(self, seed, p, extra):
        rng = np.random.default_rng(seed)
        n = p + 2 + extra
        X, y = random_design(rng, n=n, p=p)
        fit = ols_fit(X, y)
        residuals = y - X @ fit.coefficients
        gram = X.T @ residuals
        scale = np.linalg.norm(X, axis=0) * np.linalg.norm(y)
        assert np.all(np.abs(gram) <= 1e-8 * scale)


class TestTestSpec:
    def test_t_single_one_index(self):
        with pytest.raises(ValueError):
            TestSpec((1, 2), "t_single")

    def test_indices_one_based(self):
        with pytest.raises(ValueError):
            TestSpec((0,), "t_single")

    def test_empty(self):
        with pytest.raises(ValueError):
            TestSpec((), "f_joint")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TestSpec((1,), "z_test")

    @pytest.mark.parametrize(
        "indices, kind, message",
        [
            ((3, 1, 3, 1), "f_joint", "tested_indices contain duplicates: 3 appears more than once"),
            (tuple(range(-5, 100_000)), "f_joint", "tested_indices are 1-based slopes, got -5"),
            (tuple(range(1, 100_001)), "t_single", "t_single tests exactly one coefficient, got 100000"),
        ],
        ids=["duplicates", "one-based", "t-single"],
    )
    def test_messages_name_one_index_not_the_tuple(self, indices, kind, message):
        with pytest.raises(ValueError) as info:
            TestSpec(indices, kind)
        assert str(info.value) == message


class TestRunTest:
    def test_zero_coefficient_never_rejects(self):
        rng = np.random.default_rng(5)
        X, y = random_design(rng)
        fit = ols_fit(X, y)
        zeroed = type(fit)(
            coefficients=np.array([fit.coefficients[0], 0.0, fit.coefficients[2]]),
            residual_variance=fit.residual_variance,
            coefficient_covariance=fit.coefficient_covariance,
            residual_df=fit.residual_df,
            sse=fit.sse,
        )
        result = run_test(zeroed, TestSpec((1,), "t_single"), alpha=0.05)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-12)
        assert not result.reject

    def test_f_equals_t_squared_for_single_coefficient(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            X, y = random_design(rng, n=40, p=3)
            fit = ols_fit(X, y)
            t_res = run_test(fit, TestSpec((2,), "t_single"), alpha=0.05)
            restricted = ols_fit(X[:, [0, 1, 3]], y)
            f_res = run_test(
                fit, TestSpec((2,), "f_joint"), alpha=0.05, restricted_sse=restricted.sse
            )
            assert f_res.statistic == pytest.approx(t_res.statistic**2, rel=1e-9)
            assert f_res.p_value == pytest.approx(t_res.p_value, rel=1e-9)
            assert f_res.reject == t_res.reject

    def test_fixed_dataset_matches_reference_package(self):
        """p-values frozen from a one-time statsmodels OLS fit of this exact
        seeded dataset (1e-6 agreement)."""
        rng = np.random.default_rng(20260810)
        n, p = 100, 3
        regressors = rng.standard_normal((n, p))
        beta = np.array([0.25, 0.0, 0.4])
        y = regressors @ beta + rng.standard_normal(n)
        X = np.column_stack([np.ones(n), regressors])
        fit = ols_fit(X, y)

        expected_coef = [
            -0.05853446706800396,
            0.39579597023411917,
            0.07269632725904594,
            0.38162024210043377,
        ]
        np.testing.assert_allclose(fit.coefficients, expected_coef, atol=1e-10)
        assert fit.sse == pytest.approx(90.9548605752524, abs=1e-9)
        assert fit.residual_variance == pytest.approx(0.9474464643255458, abs=1e-10)

        expected_p = [
            0.00013063161011178786,
            0.41260422708265054,
            0.00015139934553813053,
        ]
        for i, want in enumerate(expected_p, start=1):
            got = run_test(fit, TestSpec((i,), "t_single"), alpha=0.05)
            assert got.p_value == pytest.approx(want, abs=1e-6)

        restricted = ols_fit(X[:, [0, 3]], y)
        joint = run_test(
            fit, TestSpec((1, 2), "f_joint"), alpha=0.05, restricted_sse=restricted.sse
        )
        assert joint.statistic == pytest.approx(8.034236453392031, abs=1e-6)
        assert joint.p_value == pytest.approx(0.000594036854197464, abs=1e-6)

        intercept_only = ols_fit(X[:, [0]], y)
        overall = run_test(
            fit,
            TestSpec((1, 2, 3), "f_joint"),
            alpha=0.05,
            restricted_sse=intercept_only.sse,
        )
        assert overall.statistic == pytest.approx(10.903894171077132, abs=1e-6)
        assert overall.p_value == pytest.approx(3.153671513366413e-06, abs=1e-9)

    def test_reject_matches_strict_inequality(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            X, y = random_design(rng, n=30, p=2)
            fit = ols_fit(X, y)
            result = run_test(fit, TestSpec((1,), "t_single"), alpha=0.05)
            assert result.reject == (result.p_value < 0.05)

    def test_f_joint_requires_restricted_sse(self):
        rng = np.random.default_rng(8)
        X, y = random_design(rng)
        with pytest.raises(ValueError, match="restricted"):
            run_test(ols_fit(X, y), TestSpec((1,), "f_joint"), alpha=0.05)

    def test_index_beyond_fit(self):
        rng = np.random.default_rng(9)
        X, y = random_design(rng, p=2)
        with pytest.raises(ValueError, match="exceeds"):
            run_test(ols_fit(X, y), TestSpec((5,), "t_single"), alpha=0.05)

    def test_degenerate_se(self):
        fit = ols_fit(
            np.column_stack([np.ones(10), np.arange(10.0)]), np.arange(10.0) * 2.0
        )
        # noiseless fit: zero residual variance, zero standard errors
        with pytest.raises(DegenerateFitError):
            run_test(fit, TestSpec((1,), "t_single"), alpha=0.05)

    def test_degenerate_f(self):
        fit = ols_fit(np.column_stack([np.ones(10), np.arange(10.0)]), np.arange(10.0) * 2.0)
        with pytest.raises(DegenerateFitError, match="zero SSE"):
            run_test(fit, TestSpec((1,), "f_joint"), alpha=0.05, restricted_sse=1.0)


class TestGenerateSample:
    def test_vanishing_noise_recovers_regressor(self):
        rng = np.random.default_rng(10)
        X, y = generate_mlr_sample(np.array([1.0, 0.0]), 50, 1e-20, "normal", rng)
        np.testing.assert_allclose(y, X[:, 1], atol=1e-8)

    def test_regressor_mean_matches_law_of_large_numbers(self):
        rng = np.random.default_rng(11)
        X, _ = generate_mlr_sample(np.array([0.5, 0.5]), 100_000, 1.0, "normal", rng)
        assert abs(X[:, 1].mean()) < 0.02
        assert abs(X[:, 2].mean()) < 0.02

    def test_interaction_scheme_construction(self):
        rng = np.random.default_rng(12)
        X, _ = generate_mlr_sample(np.array([0.2, 0.6, 0.3]), 40, 1.0, "experiment", rng)
        x1, x2, x3 = X[:, 1], X[:, 2], X[:, 3]
        assert set(np.unique(x1)) == {-1.0, 1.0}
        assert np.sum(x1 == -1.0) == 20  # balanced assignment
        np.testing.assert_allclose(x3, x1 * x2)

    def test_experiment_scheme_needs_three_coefficients(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError, match="experiment"):
            generate_mlr_sample(np.array([0.5]), 30, 1.0, "experiment", rng)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown regressor scheme 'lattice'"):
            generate_mlr_sample(np.array([0.5]), 30, 1.0, "lattice", np.random.default_rng(13))

    def test_sample_size_floor(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="n >="):
            generate_mlr_sample(np.array([0.5, 0.5, 0.5]), 4, 1.0, "normal", rng)

    def test_intercept_column_prepended(self):
        rng = np.random.default_rng(15)
        X, _ = generate_mlr_sample(np.array([0.5, 0.5]), 30, 1.0, "normal", rng)
        assert X.shape == (30, 3)
        np.testing.assert_array_equal(X[:, 0], np.ones(30))


class TestNullCalibration:
    def test_rejection_rate_under_true_null(self):
        """With the tested coefficient truly zero, the rejection rate over
        2000 replications stays within the 3-sigma binomial band of alpha."""
        rng = np.random.default_rng(16)
        alpha, reps = 0.05, 2000
        spec = TestSpec((1,), "t_single")
        rejections = 0
        for _ in range(reps):
            X, y = generate_mlr_sample(np.array([0.0, 0.4]), 30, 1.0, "normal", rng)
            rejections += run_test(ols_fit(X, y), spec, alpha).reject
        rate = rejections / reps
        band = 3 * np.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rate - alpha) <= band
