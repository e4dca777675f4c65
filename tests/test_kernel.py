import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abharmonic import audit
from abharmonic._quad import circle_nodes
from abharmonic.errors import DomainError, ParameterError
from abharmonic.kernel import make_params, poisson_kernel, unnormalized_kernel
from abharmonic.specfun import gauss_2f1


class TestMakeParams:
    def test_unweighted(self):
        assert make_params(0.0, 0.0).c_norm == pytest.approx(1.0, rel=1e-14)

    def test_ones(self):
        # Gamma(2)^2 / Gamma(3)
        assert make_params(1.0, 1.0).c_norm == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("pair", [(-1.0, 0.0), (0.0, -2.0), (-3.0 + 1e-13, 4.0)])
    def test_negative_integer_rejected(self, pair):
        with pytest.raises(ParameterError):
            make_params(*pair)

    @pytest.mark.parametrize("pair", [(-0.5, -0.5), (-2.5, 1.0), (0.0, -1.5)])
    def test_sum_constraint(self, pair):
        with pytest.raises(ParameterError):
            make_params(*pair)

    def test_c_norm_recomputable(self):
        from abharmonic.kernel import normalizing_constant

        p = make_params(0.7, -0.3)
        assert p.c_norm == normalizing_constant(0.7, -0.3)

    def test_negative_c_norm_allowed(self):
        # Gamma(3) Gamma(-0.5) / Gamma(1.5) < 0
        p = make_params(2.0, -1.5)
        assert p.c_norm < 0


class TestKernel:
    def test_origin(self):
        for pair in [(0.0, 0.0), (0.5, 0.5), (2.0, -1.5)]:
            assert unnormalized_kernel(make_params(*pair), 0.0) == pytest.approx(1.0)

    def test_classical_value(self):
        # (1 - 0.25) / (0.5 * 0.5)
        assert unnormalized_kernel(make_params(0.0, 0.0), 0.5) == pytest.approx(3.0, rel=1e-14)

    def test_equal_weights_match_direct_evaluation(self):
        w = 0.3j
        val = unnormalized_kernel(make_params(0.5, 0.5), w)
        direct = (1 - 0.09) ** 2 * abs(1 - w) ** (-3.0)
        # (1-w)^{1.5} (1-wbar)^{1.5} = |1-w|^3 for conjugate factors
        assert val == pytest.approx(direct, rel=1e-13)

    def test_direct_principal_power_oracle(self):
        p = make_params(0.7, -0.3)
        rng = np.random.default_rng(5)
        for _ in range(25):
            w = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            expected = (1 - abs(w) ** 2) ** (p.alpha + p.beta + 1) * cmath.exp(
                -(p.alpha + 1) * cmath.log(1 - w) - (p.beta + 1) * cmath.log(1 - w.conjugate())
            )
            assert unnormalized_kernel(p, w) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "pair", audit.STANDARD_PAIRS + ((2.7, -1.4), (-0.3, -0.6), (0.7, -0.3))
    )
    def test_mpmath_principal_branch_oracle(self, pair):
        # the double w is taken as exact; points fill the disk out to
        # |w| = 0.999 and approach w = 1 as 1 - 1e-6 e^{i psi}, |psi| < pi/2
        p = make_params(*pair)
        rng = np.random.default_rng(8)
        radii = np.concatenate([0.999 * np.sqrt(rng.uniform(size=24)), np.full(12, 0.999)])
        disk = radii * np.exp(2j * math.pi * rng.uniform(size=radii.size))
        near_one = 1.0 - 1e-6 * np.exp(1j * np.linspace(-1.55, 1.55, 12))
        w = np.concatenate([disk, near_one])
        a, b = mp.mpf(p.alpha), mp.mpf(p.beta)
        for wk, got in zip(w, unnormalized_kernel(p, w)):
            v = mp.mpc(wk.real, wk.imag)
            ref = (1 - abs(v) ** 2) ** (a + b + 1) / (
                (1 - v) ** (a + 1) * (1 - mp.conj(v)) ** (b + 1)
            )
            assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref)), wk

    def test_equal_weights_exactly_real(self):
        rng = np.random.default_rng(9)
        w = 0.99 * np.sqrt(rng.uniform(size=64)) * np.exp(2j * math.pi * rng.uniform(size=64))
        for pair in [(0.0, 0.0), (0.5, 0.5), (-0.3, -0.3), (2.0, 2.0)]:
            p = make_params(*pair)
            assert np.all(unnormalized_kernel(p, w).imag == 0.0)
            assert unnormalized_kernel(p, 0.3 - 0.8j).imag == 0.0

    def test_empty_array(self):
        empty = np.array([], dtype=complex)
        assert unnormalized_kernel(make_params(0.3, -0.2), empty).shape == (0,)

    def test_domain(self):
        with pytest.raises(DomainError):
            unnormalized_kernel(make_params(0.0, 0.0), 1.0 + 0j)
        with pytest.raises(DomainError):
            unnormalized_kernel(make_params(0.5, 0.5), complex("nan"))
        with pytest.raises(DomainError):
            unnormalized_kernel(make_params(0.5, 0.5), np.array([0.1, np.nan]))

    def test_radial_continuity(self):
        # principal powers produce no branch jumps along rays
        p = make_params(0.5, -0.2)
        for theta in (0.3, 2.0, -2.8):
            rs = np.linspace(0.01, 0.97, 200)
            vals = unnormalized_kernel(p, rs * np.exp(1j * theta))
            steps = np.abs(np.diff(vals))
            assert steps.max() < 1.0  # smooth, no 2*pi-phase glitches


class TestPoissonKernel:
    def test_center_value(self):
        p = make_params(0.7, -0.3)
        assert poisson_kernel(p, 0.0, 1.0) == pytest.approx(p.c_norm)

    def test_unit_modulus_guard(self):
        with pytest.raises(DomainError):
            poisson_kernel(make_params(0.0, 0.0), 0.2, 1.01)

    @pytest.mark.parametrize("zeta", [complex("nan"), complex(1.0, float("nan"))])
    def test_nan_zeta_rejected(self, zeta):
        with pytest.raises(DomainError, match="zeta"):
            poisson_kernel(make_params(0.3, -0.2), 0.2, zeta)

    def test_classical_positivity(self):
        p = make_params(0.0, 0.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            zeta = cmath.exp(2j * math.pi * rng.uniform())
            v = poisson_kernel(p, z, zeta)
            assert abs(v.imag) < 1e-14
            assert v.real > 0

    def test_equal_weights_real(self):
        p = make_params(0.5, 0.5)
        rng = np.random.default_rng(2)
        for _ in range(50):
            z = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(2j * math.pi * rng.uniform())
            zeta = cmath.exp(2j * math.pi * rng.uniform())
            assert abs(poisson_kernel(p, z, zeta).imag) < 1e-12

    @given(st.floats(0.0, 0.95), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_conjugate_swaps_weights(self, r, theta):
        # conj(K_{alpha,beta}(w)) = K_{beta,alpha}(w)
        pa = make_params(0.6, -0.1)
        pb = make_params(-0.1, 0.6)
        w = r * cmath.exp(1j * theta)
        lhs = np.conj(unnormalized_kernel(pa, w))
        rhs = unnormalized_kernel(pb, w)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestMeanIdentities:
    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2)])
    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_modulus_mean_matches_hypergeometric(self, pair, r):
        p = make_params(*pair)
        t = circle_nodes(4096)
        vals = np.abs(poisson_kernel(p, r * np.exp(-1j * t), 1.0))
        g = 0.5 * (p.alpha + p.beta)
        closed = abs(p.c_norm) * gauss_2f1((-g, -g, 1.0), r * r)
        assert float(vals.mean()) == pytest.approx(closed, abs=1e-8)

    @pytest.mark.parametrize("pair", [(1.0, 0.0), (0.3, -0.2), (2.0, -1.5)])
    def test_plain_mean_matches_swapped_parameters(self, pair):
        # complex mean over the circle is c F(-alpha, -beta; 1; r^2)
        p = make_params(*pair)
        r = 0.6
        t = circle_nodes(4096)
        mean = np.mean(poisson_kernel(p, r * np.exp(-1j * t), 1.0))
        closed = p.c_norm * gauss_2f1((-p.alpha, -p.beta, 1.0), r * r)
        assert complex(mean) == pytest.approx(closed, abs=1e-10)
