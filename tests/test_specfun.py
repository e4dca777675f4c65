import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abharmonic.errors import ConvergenceError, DomainError, ParameterError, PoleError
from abharmonic.specfun import (
    MAX_TERMS,
    HypParams,
    beta,
    gamma,
    gauss_2f1,
    gauss_2f1_at_one,
    gauss_2f1_derivative,
    pochhammer,
    reciprocal_gamma,
)

# frozen from the 50-digit reflection/series oracle in conftest
SQRT_PI = 1.7724538509055160273
GAMMA_MINUS_HALF = -3.5449077018110320546
F_1_1_2_HALF = 1.3862943611198906188
F_2_2_3_HALF = 2.4548225555204375247
F_AT_ONE_EXAMPLE = 0.8488263631567751241


class TestGamma:
    def test_at_one(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-13)

    def test_minus_half_reflection(self):
        assert gamma(-0.5) == pytest.approx(GAMMA_MINUS_HALF, rel=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0, -3.0 + 1e-13])
    def test_pole_rejection(self, x):
        with pytest.raises(PoleError):
            gamma(x)

    def test_against_high_precision_oracle(self, gamma_oracle):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = float(rng.uniform(-50.0, 50.0))
            if abs(x - round(x)) < 1e-6:
                continue
            assert gamma(x) == pytest.approx(gamma_oracle(x), rel=1e-12)

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        # Gamma(x + 1) = x Gamma(x) away from the poles
        if abs(x) < 1e-3 or abs(x - round(x)) < 1e-3:
            return
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_reciprocal_gamma_zero_at_poles(self):
        assert reciprocal_gamma(-3.0) == 0.0
        assert reciprocal_gamma(2.0) == pytest.approx(1.0, rel=1e-14)


class TestBeta:
    def test_ones(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_2_3_against_quadrature_oracle(self):
        # defining integral of t(1-t)^2 on [0,1]
        t = np.linspace(0.0, 1.0, 200_001)
        oracle = float(np.trapezoid(t * (1.0 - t) ** 2, t))
        assert beta(2.0, 3.0) == pytest.approx(oracle, abs=1e-9)
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)

    @given(st.floats(0.05, 20.0), st.floats(0.05, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, x, y):
        assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-12)

    @given(st.floats(0.1, 15.0), st.floats(0.1, 15.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_relation(self, x, y):
        assert beta(x, y) * gamma(x + y) == pytest.approx(gamma(x) * gamma(y), rel=1e-12)

    @pytest.mark.parametrize("args", [(-1.0, 2.0), (0.0, 1.0), (1.0, -0.5)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            beta(*args)


class TestPochhammer:
    def test_basic(self):
        assert pochhammer(3.0, 2) == 12.0

    @given(st.floats(-20.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_empty_product(self, a):
        assert pochhammer(a, 0) == 1.0

    def test_negative_base(self):
        # direct product -0.5 * 0.5 * 1.5
        assert pochhammer(-0.5, 3) == pytest.approx(-0.375, rel=1e-15)

    @given(st.floats(-5.0, 5.0), st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, a, n):
        assert pochhammer(a, n + 1) == pytest.approx(pochhammer(a, n) * (a + n), rel=1e-12, abs=1e-12)


class TestHypParams:
    @pytest.mark.parametrize("c", [0.0, -1.0, -5.0, -2.0 + 1e-13])
    def test_rejects_nonpositive_integer_c(self, c):
        with pytest.raises(ParameterError):
            HypParams(0.5, 0.5, c)

    def test_accepts_near_but_not_too_near(self):
        HypParams(0.5, 0.5, -2.0 + 1e-9)  # outside the 1e-12 guard


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1((0.3, -1.7, 2.2), 0.0) == 1.0

    def test_terminating_two_terms(self):
        # 1 - 2 * 0.5 / 3
        assert gauss_2f1((-1.0, 2.0, 3.0), 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_log_series_value(self):
        assert gauss_2f1((1.0, 1.0, 2.0), 0.5) == pytest.approx(F_1_1_2_HALF, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1((1.0, 1.0, 2.0), 1.0)

    def test_parameter_symmetry(self, f21_oracle):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a, b = rng.uniform(-2, 2, size=2)
            c = float(rng.uniform(0.3, 3.0))
            x = float(rng.uniform(-0.9, 0.9))
            assert gauss_2f1((a, b, c), x) == pytest.approx(gauss_2f1((b, a, c), x), rel=1e-12)

    def test_against_oracle_near_transform_seams(self, f21_oracle):
        cases = [
            (-0.5, 0.5, 2.0, 0.999),
            (-0.5, 1.5, 2.0, 0.9801),
            (0.25, 0.7, 1.1, 0.95),
            (1.2, 0.3, 2.7, 0.85),
            (-0.5, 0.5, 2.0, -0.95),
            (0.5, 0.5, 1.0, 0.9801),
            (0.3, -1.7, 1.3, 0.8),
            (0.3, -1.7, 1.3, 0.8000001),
        ]
        for a, b, c, x in cases:
            assert gauss_2f1((a, b, c), x) == pytest.approx(f21_oracle(a, b, c, x), rel=1e-10)

    def test_seam_continuity(self):
        for a, b, c in [(0.3, -1.7, 1.3), (0.25, 0.7, 1.1), (-0.4, 0.9, 2.3)]:
            for seam in (0.8, -0.8):
                lo = gauss_2f1((a, b, c), seam - 1e-7)
                hi = gauss_2f1((a, b, c), seam + 1e-7)
                assert lo == pytest.approx(hi, rel=1e-6)

    def test_monotone_when_parameters_allow(self):
        # a <= c, b <= c, c > 0: decreasing for ab <= 0, increasing for ab >= 0
        grid = np.linspace(0.05, 0.95, 19)
        decreasing = [gauss_2f1((-0.5, 0.7, 1.2), x) for x in grid]
        assert all(d2 <= d1 + 1e-14 for d1, d2 in zip(decreasing, decreasing[1:]))
        increasing = [gauss_2f1((0.5, 0.7, 1.2), x) for x in grid]
        assert all(d2 >= d1 - 1e-14 for d1, d2 in zip(increasing, increasing[1:]))

    def test_convergence_error_reported(self):
        # c - a - b < 0 and x close to 1: no transformation applies and the
        # direct series exhausts its budget
        with pytest.raises(ConvergenceError):
            gauss_2f1((1.0, 1.0, 1.5), 0.999999)

    def test_convergence_error_attributes(self):
        # c - a - b = 2 is an integer, so only the direct series applies
        with pytest.raises(ConvergenceError) as info:
            gauss_2f1((-0.5, -0.5, 1.0), 0.9998)
        exc = info.value
        assert str(exc) == (
            "hypergeometric series did not converge for (-0.5, -0.5; 1.0; 0.9998) "
            f"within {MAX_TERMS} terms"
        )
        assert exc.params == (-0.5, -0.5, 1.0, 0.9998)
        assert exc.terms == MAX_TERMS
        assert 0.0 < abs(exc.last_term) < 1e-6


class TestAtOne:
    def test_a_zero(self):
        assert gauss_2f1_at_one((0.0, 0.7, 1.9)) == pytest.approx(1.0, rel=1e-14)

    def test_example(self):
        assert gauss_2f1_at_one((-0.5, 0.5, 2.0)) == pytest.approx(F_AT_ONE_EXAMPLE, rel=1e-13)

    def test_continuity_toward_one(self):
        val = gauss_2f1((-0.5, 0.5, 2.0), 0.999)
        assert abs(val - gauss_2f1_at_one((-0.5, 0.5, 2.0))) < 1e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            gauss_2f1_at_one((1.0, 1.0, 1.5))


class TestDerivative:
    def test_zero_parameter(self):
        for x in (0.0, 0.3, -0.6):
            assert gauss_2f1_derivative((0.0, 1.3, 2.0), x) == 0.0

    def test_example_against_finite_difference(self):
        p = (1.0, 1.0, 2.0)
        h = 1e-6
        fd = (gauss_2f1(p, 0.5 + h) - gauss_2f1(p, 0.5 - h)) / (2 * h)
        val = gauss_2f1_derivative(p, 0.5)
        assert val == pytest.approx(fd, rel=1e-8)
        assert val == pytest.approx(0.5 * F_2_2_3_HALF, rel=1e-12)

    def test_terminating_constant_derivative(self):
        for x in (0.1, 0.4, 0.7):
            assert gauss_2f1_derivative((-1.0, 2.0, 3.0), x) == pytest.approx(-2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.7])
    def test_identity_on_grid(self, x):
        h = 1e-5
        for p in [(0.4, -0.8, 1.7), (-0.3, 2.1, 2.6)]:
            fd = (gauss_2f1(p, x + h) - gauss_2f1(p, x - h)) / (2 * h)
            assert abs(gauss_2f1_derivative(p, x) - fd) <= 1e-6
