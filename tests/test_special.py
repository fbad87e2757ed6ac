import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from powermap import NumericalError, f_cdf, regularized_incomplete_beta, student_t_cdf


def beta_quadrature(a, b, x):
    """Independent oracle: adaptive quadrature of the beta density."""
    def density(t):
        return t ** (a - 1) * (1 - t) ** (b - 1) * math.exp(
            math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        )

    value, _ = integrate.quad(density, 0, x)
    return value


class TestIncompleteBeta:
    def test_uniform_case(self):
        for x in (0.0, 0.2, 0.5, 0.77, 1.0):
            assert regularized_incomplete_beta(1, 1, x) == pytest.approx(x, abs=1e-12)

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 3.0, 10.0, 42.5):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.5, 3.5, 0.0) == 0.0
        assert regularized_incomplete_beta(2.5, 3.5, 1.0) == 1.0

    def test_against_quadrature_oracle(self):
        # frozen value from the quadrature oracle; 67/256 exactly
        assert regularized_incomplete_beta(2, 3, 0.25) == pytest.approx(
            0.26171875, abs=1e-10
        )
        for a, b, x in [
            (0.5, 0.5, 0.3),
            (5, 2, 0.8),
            (10, 10, 0.5),
            (2, 3, 0.25),
            (0.3, 7.2, 0.05),
            (25, 1.5, 0.95),
        ]:
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                beta_quadrature(a, b, x), abs=1e-10
            )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0, 1, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1, -2, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1, 1, 1.5)

    def test_no_convergence_raises(self):
        """Shapes this large need far more than the fraction's iteration cap."""
        with pytest.raises(NumericalError, match="did not converge"):
            regularized_incomplete_beta(1e6, 1e6, 0.5)

    @given(
        st.floats(0.05, 50, allow_nan=False),
        st.floats(0.05, 50, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded(self, a, b, x):
        value = regularized_incomplete_beta(a, b, x)
        assert 0.0 <= value <= 1.0


class TestStudentTCdf:
    def test_center(self):
        for df in (1, 5, 100):
            assert student_t_cdf(0.0, df) == 0.5

    def test_cauchy_quartile(self):
        # df=1 is Cauchy: F(1) = 1/2 + arctan(1)/pi = 0.75
        assert student_t_cdf(1.0, 1) == pytest.approx(0.75, abs=1e-12)

    def test_table_spot_checks(self):
        # frozen references from the quadrature-backed table
        assert student_t_cdf(1.984, 100) == pytest.approx(0.9750016131, abs=1e-4)
        assert student_t_cdf(2.0, 10) == pytest.approx(0.9633059826, abs=1e-4)
        assert student_t_cdf(-2.5, 7) == pytest.approx(0.0204961093, abs=1e-4)

    def test_df_validation(self):
        with pytest.raises(ValueError):
            student_t_cdf(1.0, 0)

    @given(st.floats(-40, 40, allow_nan=False), st.integers(1, 200))
    @settings(max_examples=300, deadline=None)
    def test_symmetry(self, x, df):
        left = student_t_cdf(-x, df)
        right = 1.0 - student_t_cdf(x, df)
        assert left == pytest.approx(right, abs=1e-12)

    @given(st.integers(1, 200), st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded(self, df, data):
        xs = sorted(
            data.draw(
                st.lists(st.floats(-30, 30, allow_nan=False), min_size=2, max_size=8)
            )
        )
        values = [student_t_cdf(x, df) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestFCdf:
    def test_at_zero(self):
        assert f_cdf(0.0, 3, 10) == 0.0

    def test_reciprocal_symmetry(self):
        # equal degrees of freedom: the distribution of F and 1/F coincide
        for d in (1, 4, 30):
            assert f_cdf(1.0, d, d) == pytest.approx(0.5, abs=1e-12)

    def test_table_spot_checks(self):
        assert f_cdf(2.70, 3, 96) == pytest.approx(0.9500378354, abs=1e-4)
        assert f_cdf(3.0, 2, 20) == pytest.approx(0.9274618497, abs=1e-4)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f_cdf(-0.5, 3, 10)
        with pytest.raises(ValueError):
            f_cdf(1.0, 0, 10)

    @given(st.integers(1, 100), st.integers(1, 200), st.data())
    @settings(max_examples=100, deadline=None)
    def test_monotone_and_bounded(self, d1, d2, data):
        xs = sorted(
            data.draw(
                st.lists(st.floats(0, 50, allow_nan=False), min_size=2, max_size=8)
            )
        )
        values = [f_cdf(x, d1, d2) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_matches_quadrature_through_beta_identity(self):
        # F(x; d1, d2) = I_{d1 x / (d1 x + d2)}(d1/2, d2/2)
        for x, d1, d2 in [(0.5, 3, 8), (2.7, 3, 96), (1.3, 10, 10)]:
            expected = beta_quadrature(d1 / 2, d2 / 2, d1 * x / (d1 * x + d2))
            assert f_cdf(x, d1, d2) == pytest.approx(expected, abs=1e-10)
