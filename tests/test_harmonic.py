import cmath
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from abharmonic import harmonic
from abharmonic._quad import circle_nodes
from abharmonic.audit import STANDARD_PAIRS, Z_GRID, random_boundary
from abharmonic.boundary import from_fourier
from abharmonic.errors import DomainError, StencilError
from abharmonic.harmonic import (
    DEFAULT_STEP,
    DiskPoint,
    SeriesCoefficients,
    check_nodes,
    coefficients_from_boundary,
    evaluate_expansion,
    integral_means,
    jacobian_norm,
    operator_residual,
    poisson_extension,
    poisson_integral,
    radial_angular_derivatives,
    snapshot,
    wirtinger_derivatives,
)
from abharmonic.kernel import make_params, unnormalized_kernel
from abharmonic.specfun import gamma, gauss_2f1

P00 = make_params(0.0, 0.0)
PHH = make_params(0.5, 0.5)
PAIRS = [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2)]

# frozen from the gamma oracle: Gamma(1.5) Gamma(2.5) / (Gamma(2) Gamma(2))
C1_EQUAL_HALF = 1.1780972450961724644
A1_AT_ONE_EQUAL_HALF = 0.8488263631567751241


def seeded_boundary(rng, order=8):
    return from_fourier(
        {
            k: complex(rng.normal(), rng.normal()) / (1 + abs(k))
            for k in range(-order, order + 1)
        }
    )


class TestDiskPoint:
    def test_accepts_interior(self):
        p = DiskPoint(0.3 + 0.4j)
        assert p.r == pytest.approx(0.5)

    def test_rejects_boundary(self):
        with pytest.raises(DomainError):
            DiskPoint(1.0 + 0j)


class TestSeriesCoefficients:
    def test_accessor(self):
        c = SeriesCoefficients({0: 1.0, 1: 2.0, -1: 3.0})
        assert c.c(0) == 1.0 and c.c(1) == 2.0 and c.c(-1) == 3.0
        assert c.c(5) == 0.0 and c.c(-5) == 0.0


class TestPoissonIntegral:
    def test_classical_mean_value(self):
        f = from_fourier({0: 1.0})
        for z in (0.0, 0.3, 0.5 - 0.6j):
            assert poisson_integral(P00, f, z) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_constant_data_closed_form(self, pair):
        # the circle mean of the kernel is c F(-alpha, -beta; 1; r^2)
        p = make_params(*pair)
        f = from_fourier({0: 2.5})
        for r in (0.2, 0.7):
            val = poisson_integral(p, f, r)
            closed = 2.5 * p.c_norm * gauss_2f1((-p.alpha, -p.beta, 1.0), r * r)
            assert val == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)])
    def test_constant_data_equal_weights_sharp_form(self, pair):
        # on equal weights this equals |c| F(-(a+b)/2, -(a+b)/2; 1; r^2)
        p = make_params(*pair)
        f = from_fourier({0: 1.0})
        g = 0.5 * (p.alpha + p.beta)
        for r in (0.3, 0.8):
            val = poisson_integral(p, f, r)
            closed = abs(p.c_norm) * gauss_2f1((-g, -g, 1.0), r * r)
            assert val == pytest.approx(closed, abs=1e-10)

    def test_classical_extension_of_first_mode(self):
        f = from_fourier({1: 1.0})
        for z in (0.2, 0.4 + 0.3j, -0.7j):
            assert poisson_integral(P00, f, z) == pytest.approx(z, abs=1e-12)

    def test_array_matches_scalar(self):
        f = from_fourier({1: 1.0, -2: 0.5j})
        zs = np.array([0.1, 0.2 + 0.3j, -0.5j])
        arr = poisson_integral(PHH, f, zs)
        for z, v in zip(zs, arr):
            assert poisson_integral(PHH, f, complex(z)) == pytest.approx(complex(v), abs=1e-13)

    def test_node_validation(self):
        with pytest.raises(DomainError):
            poisson_integral(P00, from_fourier({0: 1.0}), 0.1, nodes=100)

    def test_cached_roots_read_only(self):
        roots = harmonic._conj_roots(64)
        assert harmonic._conj_roots(64) is roots
        np.testing.assert_array_equal(roots, np.exp(-1j * circle_nodes(64)))
        with pytest.raises(ValueError):
            roots[0] = 0.0

    @pytest.mark.parametrize("nodes", [64, 4096, 16384])
    def test_blocks_match_pointwise(self, nodes):
        # more points than one block holds, in a 2-d shape: each value is
        # bit for bit the one-point evaluation
        rng = np.random.default_rng(11)
        f = seeded_boundary(rng)
        n = 3 * max(1, harmonic._BLOCK_POINTS // nodes) + 2
        z = (0.9 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))).reshape(1, n)
        vals = poisson_integral(PHH, f, z, nodes)
        assert vals.shape == (1, n)
        np.testing.assert_array_equal(vals[0], [poisson_integral(PHH, f, w, nodes) for w in z[0]])
        assert poisson_integral(PHH, f, np.zeros((2, 0)), nodes).shape == (2, 0)


class TestOrbitValues:
    # the audit's orbits: the Cartesian stencil points Z_GRID + h turned by
    # i^k, and the first point of each Z_GRID row turned by 2 pi k/8
    ORBITS = (
        (Z_GRID + DEFAULT_STEP, np.array([1, 1j, -1, -1j])),
        (Z_GRID[:, 0], np.exp(2j * np.pi * np.arange(8) / 8)),
    )

    @pytest.mark.parametrize("nodes", [256, 1024])
    @pytest.mark.parametrize("pair", [*STANDARD_PAIRS, (2.7, -1.4)])
    def test_columns_are_the_turned_points(self, pair, nodes):
        p = make_params(*pair)
        f = random_boundary(np.random.default_rng(6))
        u = poisson_extension(p, f, nodes)
        for z, turns in self.ORBITS:
            vals = u.orbit_values(z, turns.size)
            assert vals.shape == z.shape + turns.shape
            assert np.array_equal(vals[..., 0], poisson_integral(p, f, z, nodes))
            # a turned kernel row is a few ulps off the row at the turned
            # point, which moves u by about eps times the kernel's log
            # derivative, 2 sigma / (1 - r): 6.5e-15 on this data at
            # (2.7, -1.4), r = 0.9, 256 nodes
            ref = poisson_integral(p, f, z[..., None] * turns, nodes)
            assert np.max(np.abs(vals - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_point_gives_one_orbit(self):
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        assert u.orbit_values(0.3 + 0.1j, 4).shape == (4,)

    @pytest.mark.parametrize("m", [0, 3, 512])
    def test_orbit_size_must_divide_nodes(self, m):
        u = poisson_extension(PHH, from_fourier({1: 1.0}), 256)
        with pytest.raises(DomainError):
            u.orbit_values(0.5, m)


class TestExpansion:
    def test_first_mode_classical(self):
        c = SeriesCoefficients({0: 0.0, 1: 1.0, -1: 0.0})
        for z in (0.3, 0.2 - 0.5j):
            assert evaluate_expansion(P00, c, z) == pytest.approx(z, rel=1e-14)

    def test_constant_term_at_origin(self):
        c = SeriesCoefficients({0: 1.0, -1: 0.0})
        assert evaluate_expansion(PHH, c, 0.0) == pytest.approx(1.0)

    def test_antiholomorphic_terminating_value(self):
        # c_{-1} = 1 under weights (0, 1): F(-1, 1; 2; 0.25) * conj(0.5)
        p = make_params(0.0, 1.0)
        c = SeriesCoefficients({0: 0.0, -1: 1.0})
        assert evaluate_expansion(p, c, 0.5) == pytest.approx(0.4375, rel=1e-13)


class TestCoefficientsFromBoundary:
    def test_unweighted_identity(self):
        f = from_fourier({0: 0.5, 2: 1.0, -3: 2j})
        c = coefficients_from_boundary(P00, f)
        assert c.c(0) == pytest.approx(0.5)
        assert c.c(2) == pytest.approx(1.0)
        assert c.c(-3) == pytest.approx(2j)

    def test_first_mode_gamma_ratio(self):
        c = coefficients_from_boundary(PHH, from_fourier({1: 1.0}))
        expected = gamma(1 + PHH.beta) * gamma(2 + PHH.alpha) / (gamma(1 + PHH.alpha + PHH.beta) * gamma(2.0))
        assert c.c(1) == pytest.approx(expected, rel=1e-13)
        assert c.c(1) == pytest.approx(C1_EQUAL_HALF, rel=1e-13)

    @pytest.mark.parametrize("pair", PAIRS)
    def test_solver_and_series_agree(self, pair):
        p = make_params(*pair)
        rng = np.random.default_rng(42)
        for _ in range(3):
            f = seeded_boundary(rng)
            c = coefficients_from_boundary(p, f)
            for z in (0.1, 0.5 + 0.3j, -0.76j, -0.8):
                direct = poisson_integral(p, f, z)
                series = evaluate_expansion(p, c, z)
                assert abs(direct - series) <= 1e-6

    def test_boundary_limit_improves_toward_one(self):
        p = make_params(0.5, 0.5)
        rng = np.random.default_rng(3)
        f = seeded_boundary(rng, order=4)
        c = coefficients_from_boundary(p, f)
        thetas = np.linspace(0, 2 * math.pi, 17)[:-1]
        errs = []
        for r in (0.9, 0.95, 0.99):
            snap = snapshot(p, c, r)
            err = np.abs(snap.circle_values(thetas) - f.evaluate(thetas)).max()
            errs.append(err)
        assert errs[0] > errs[1] > errs[2]


class TestSnapshot:
    def test_unweighted_single_mode(self):
        c = SeriesCoefficients({0: 0.0, 1: 1.0, -1: 0.0})
        snap = snapshot(P00, c, 0.6)
        assert snap.coeffs[1] == pytest.approx(0.6)
        assert snap.coeffs[0] == 0.0 and snap.coeffs[-1] == 0.0

    def test_small_radius_recovers_coefficients(self):
        p = make_params(0.3, -0.2)
        c = SeriesCoefficients({0: 1.0, 1: 2.0, 2: 0.5j, -1: 1j, -2: 0.25})
        r = 1e-4
        snap = snapshot(p, c, r)
        for k in range(3):
            assert snap.coeffs[k] / r**k == pytest.approx(c.c(k), rel=1e-6)
        for k in (1, 2):
            assert snap.coeffs[-k] / r**k == pytest.approx(c.c(-k), rel=1e-6)

    def test_limit_radius_uses_hypergeometric_limits(self):
        c = SeriesCoefficients({0: 0.0, 1: 1.0, -1: 0.0})
        snap = snapshot(PHH, c, 1.0)
        assert snap.coeffs[1] == pytest.approx(A1_AT_ONE_EQUAL_HALF, rel=1e-13)

    def test_circle_consistency_with_expansion(self):
        p = make_params(-0.5, 1.0)
        rng = np.random.default_rng(8)
        c = coefficients_from_boundary(p, seeded_boundary(rng, order=5))
        r = 0.7
        snap = snapshot(p, c, r)
        for theta in (0.0, 1.1, 4.4):
            z = r * cmath.exp(1j * theta)
            assert snap.circle_values(theta) == pytest.approx(
                evaluate_expansion(p, c, z), abs=1e-10
            )

    def test_normalized_ratios(self):
        c = SeriesCoefficients({0: 0.0, 1: 2.0, 2: 1.0, -1: 0.5})
        snap = snapshot(P00, c, 0.5)
        ratios_a, ratios_b = snap.normalized_ratios()
        assert ratios_a[0] == pytest.approx(snap.coeffs[2] / snap.coeffs[1])
        assert ratios_b[0] == pytest.approx(snap.coeffs[-1] / snap.coeffs[1])

    def test_radius_domain(self):
        with pytest.raises(DomainError):
            snapshot(P00, SeriesCoefficients({0: 1.0, -1: 0.0}), 0.0)


class TestOperatorResidual:
    def test_identity_map_unweighted(self):
        res = operator_residual(P00, lambda z: z, 0.3 + 0.2j, 1e-3)
        assert abs(res) < 1e-8

    def test_constant_function(self):
        p = make_params(0.5, 0.5)
        z = 0.4
        res = operator_residual(p, lambda _: 1.0 + 0j, z, 1e-3)
        expected = -(1 - abs(z) ** 2) * p.alpha * p.beta
        assert res == pytest.approx(expected, abs=1e-9)
        assert abs(operator_residual(make_params(0.0, 1.0), lambda _: 1.0 + 0j, z, 1e-3)) < 1e-9

    def test_second_order_decay_for_solutions(self):
        p = make_params(0.5, 0.5)
        f = from_fourier({2: 1.0})
        u = poisson_extension(p, f, 2048)
        z = 0.3 + 0.2j
        res = [abs(operator_residual(p, u, z, h)) for h in (1e-2, 5e-3, 2.5e-3)]
        for a, b in zip(res, res[1:]):
            assert math.log2(a / b) == pytest.approx(2.0, abs=0.3)

    def test_stencil_guard(self):
        with pytest.raises(StencilError):
            operator_residual(P00, lambda z: z, 0.999, 1e-3)

    def test_richardson_sharpens_residual(self):
        p = make_params(0.5, 0.5)
        f = from_fourier({1: 1.0, 3: 0.6})
        u = poisson_extension(p, f, 2048)
        z = 0.25 + 0.3j
        plain = abs(operator_residual(p, u, z, 1e-2))
        extrapolated = abs(operator_residual(p, u, z, 1e-2, richardson=True))
        assert extrapolated < 0.01 * plain


class TestDerivatives:
    def test_wirtinger_identity_map(self):
        uz, uzb = wirtinger_derivatives(lambda z: z, 0.2 + 0.1j)
        assert uz == pytest.approx(1.0, abs=1e-10)
        assert abs(uzb) < 1e-10

    def test_wirtinger_antiholomorphic_square(self):
        uz, uzb = wirtinger_derivatives(lambda z: np.conj(z) ** 2, 0.5)
        assert abs(uz) < 1e-9
        assert uzb == pytest.approx(1.0, abs=1e-9)

    def test_wirtinger_of_expansion_at_origin(self):
        p = make_params(0.0, 1.0)
        c = SeriesCoefficients({0: 0.0, 1: 1.0, -1: 0.0})
        uz, _ = wirtinger_derivatives(lambda z: evaluate_expansion(p, c, z), 0.0)
        assert uz == pytest.approx(1.0, abs=1e-9)

    def test_wirtinger_richardson(self):
        f = from_fourier({2: 1.0, -1: 0.5})
        u = poisson_extension(make_params(0.3, -0.2), f, 1024)
        z = 0.4 + 0.1j
        uz_h, _ = wirtinger_derivatives(u, z, 2e-2)
        uz_rich, _ = wirtinger_derivatives(u, z, 2e-2, richardson=True)
        uz_ref, _ = wirtinger_derivatives(u, z, 1e-4)
        assert abs(uz_rich - uz_ref) < 0.05 * abs(uz_h - uz_ref)

    def test_jacobian_values(self):
        u = lambda z: z + 0.5 * np.conj(z) ** 2
        assert jacobian_norm(u, 0.0) == pytest.approx(1.0, abs=1e-9)
        assert jacobian_norm(u, 0.5) == pytest.approx(1.5, abs=1e-9)

    def test_polar_identity_map(self):
        # angular central difference carries the sin(h)/h factor, so O(h^2)
        z = 0.5 * cmath.exp(1j * 0.8)
        ur, ut = radial_angular_derivatives(lambda w: w, z)
        assert ur == pytest.approx(cmath.exp(1j * 0.8), abs=1e-9)
        assert ut == pytest.approx(0.5j * cmath.exp(1j * 0.8), abs=1e-6)

    def test_polar_constant(self):
        ur, ut = radial_angular_derivatives(lambda _: 1.0 + 0j, 0.3)
        assert abs(ur) < 1e-10 and abs(ut) < 1e-10

    def test_polar_chain_rule_consistency(self):
        p = make_params(0.3, -0.2)
        f = from_fourier({1: 1.0, -1: 0.5, 2: 0.25j})
        u = poisson_extension(p, f, 1024)
        z = 0.6 * cmath.exp(1j * 1.3)
        r, theta = 0.6, 1.3
        ur, ut = radial_angular_derivatives(u, z)
        uz, uzb = wirtinger_derivatives(u, z)
        e = cmath.exp(-1j * theta)
        assert 0.5 * e * (ur - 1j * ut / r) == pytest.approx(uz, abs=1e-5)
        assert 0.5 * np.conj(e) * (ur + 1j * ut / r) == pytest.approx(uzb, abs=1e-5)

    def test_polar_origin_guard(self):
        with pytest.raises(StencilError):
            radial_angular_derivatives(lambda z: z, 1e-5)


class TestArrayStencils:
    # three rings of five points: 60 or more stencil points, several
    # blocks of a dense Poisson evaluation at 1,024 nodes and many at 4,096
    ZS = np.array([[r * cmath.exp(1j * (0.4 + 1.3 * j)) for j in range(5)] for r in (0.2, 0.5, 0.8)])

    @staticmethod
    def measures(p, u, z):
        return [
            *wirtinger_derivatives(u, z),
            *wirtinger_derivatives(u, z, richardson=True),
            *radial_angular_derivatives(u, z),
            jacobian_norm(u, z),
            operator_residual(p, u, z),
            operator_residual(p, u, z, richardson=True),
        ]

    def assert_per_point(self, p, u):
        whole = self.measures(p, u, self.ZS)
        for idx in np.ndindex(self.ZS.shape):
            for arr, val in zip(whole, self.measures(p, u, complex(self.ZS[idx]))):
                assert arr.shape == self.ZS.shape
                assert arr[idx].tobytes() == val.tobytes()

    @pytest.mark.parametrize("nodes", [1024, 4096])
    def test_poisson_extension_equals_per_point_calls(self, nodes):
        p = make_params(0.3, -0.2)
        self.assert_per_point(p, poisson_extension(p, seeded_boundary(np.random.default_rng(8)), nodes))

    def test_scalar_callable_equals_per_point_calls(self):
        p = make_params(0.5, 0.5)
        c = coefficients_from_boundary(p, seeded_boundary(np.random.default_rng(9), order=4))
        self.assert_per_point(p, lambda z: evaluate_expansion(p, c, z))

    def test_point_gives_scalars(self):
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        for z in (0.3 + 0.1j, DiskPoint(0.3 + 0.1j)):
            values = self.measures(PHH, u, z)
            assert type(values.pop(6)) is np.float64  # the Jacobian norm
            assert all(type(v) is np.complex128 for v in values)

    @pytest.mark.parametrize(
        "measure",
        [
            lambda u, z: wirtinger_derivatives(u, z),
            lambda u, z: radial_angular_derivatives(u, z),
            lambda u, z: jacobian_norm(u, z),
            lambda u, z: operator_residual(PHH, u, z),
        ],
    )
    @pytest.mark.parametrize(
        "bad, error",
        [(0.9995, StencilError), (1.2, DomainError), (complex("nan"), DomainError)],
    )
    def test_one_bad_point_raises_before_evaluating(self, measure, bad, error):
        calls = []
        zs = np.array([0.3, 0.5j, bad, -0.2])
        with pytest.raises(error):
            measure(lambda z: calls.append(z) or z, zs)
        assert calls == []

    def test_radial_stencil_needs_r_at_least_h(self):
        with pytest.raises(StencilError):
            radial_angular_derivatives(lambda z: z, np.array([0.3, 1e-5j, 0.5]))


class TestStencilsRoundAsScalars:
    """Array stencils build their points and combine their values with the
    rounding of complex and float scalars, so a point gives the same bits
    as a per-point computation on Python numbers."""

    ZS = 0.9 * np.sqrt(np.random.default_rng(3).uniform(size=4000)) * np.exp(
        2j * np.pi * np.random.default_rng(4).uniform(size=4000)
    )
    H = 1e-3

    def recorded(self, measure, n):
        calls = []
        measure(lambda w: calls.append(w) or 1.0 + 0j, self.ZS[:n])
        return np.array(calls).reshape(n, -1)

    def test_cartesian_points(self):
        h = self.H
        pts = self.recorded(wirtinger_derivatives, 500)
        five = self.recorded(lambda u, z: operator_residual(PHH, u, z, h), 500)
        for z, row, row5 in zip(map(complex, self.ZS), pts, five):
            assert list(row) == [z + h, z - h, z + 1j * h, z - 1j * h]
            assert list(row5) == [z, *row]

    def test_polar_points(self):
        h = self.H
        for z, row in zip(map(complex, self.ZS), self.recorded(radial_angular_derivatives, 500)):
            r, t = abs(z), math.atan2(z.imag, z.real)
            e = complex(math.cos(t), math.sin(t))
            angular = [r * cmath.exp(1j * (t + h)), r * cmath.exp(1j * (t - h))]
            assert list(row) == [(r + h) * e, (r - h) * e, *angular]

    def test_jacobian_adds_scalar_moduli(self):
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5j}), 256)
        zs = self.ZS[:200]
        uz, uzb = wirtinger_derivatives(u, zs)
        expected = [abs(complex(a)) + abs(complex(b)) for a, b in zip(uz, uzb)]
        assert list(jacobian_norm(u, zs)) == expected

    def test_operator_weight(self):
        # on constant data only the -alpha beta u term survives
        res = operator_residual(PHH, lambda _: 1.0 + 0j, self.ZS)
        ab = PHH.alpha * PHH.beta
        assert list(res.real) == [(1.0 - abs(z) ** 2) * -ab for z in map(complex, self.ZS)]


class TestIntegralMeans:
    def test_identity_map(self):
        assert integral_means(lambda z: z, 0.5, 2.0) == pytest.approx(0.5, rel=1e-12)

    def test_constant(self):
        for p in (1.0, 2.0, math.inf):
            assert integral_means(lambda _: 3.0 + 0j, 0.4, p) == pytest.approx(3.0, rel=1e-12)

    def test_cosine_extension(self):
        f = from_fourier({1: 1.0, -1: 1.0})
        u = poisson_extension(P00, f, 1024)
        assert integral_means(u, 0.5, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-10)

    def test_boundary_fft_once_per_extension(self, monkeypatch):
        # one samples' FFT per extension, one kernel FFT per (params,
        # nodes, r, phase) whatever the extension
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        first = u.circle_values(0.5, 64)
        calls = []

        def counted(x, fn=np.fft.fft):
            calls.append(x)
            return fn(x)

        monkeypatch.setattr(np.fft, "fft", counted)
        assert np.array_equal(u.circle_values(0.5, 64), first)
        assert len(calls) == 0
        u.circle_values(0.7, 64, phase=0.1)
        assert len(calls) == 1
        v = poisson_extension(PHH, from_fourier({0: 2.0, 3: 1j}), 256)
        v.circle_values(0.5, 64)
        v.circle_values(0.7, 64, phase=0.1)
        assert len(calls) == 2
        poisson_extension(P00, from_fourier({0: 2.0, 3: 1j}), 256).circle_values(0.5, 64)
        assert len(calls) == 4

    def test_fast_path_matches_generic(self):
        f = from_fourier({1: 1.0, -2: 0.5})
        u = poisson_extension(PHH, f, 1024)
        fast = integral_means(u, 0.6, 4.0, nodes=256)
        slow = integral_means(lambda z: u(z), 0.6, 4.0, nodes=256)
        assert fast == pytest.approx(slow, rel=1e-12)


class TestGridExport:
    def test_csv_columns_and_values(self, tmp_path):
        from abharmonic.harmonic import export_grid_csv

        path = tmp_path / "grid.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            export_grid_csv(lambda z: z, fh, n_radial=2, n_angular=4)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,re,im"
        assert len(lines) == 1 + 2 * 4
        x, y, re, im = map(float, lines[1].split(","))
        assert re == pytest.approx(x) and im == pytest.approx(y)


class TestConjugationLaw:
    def test_swapped_weights(self):
        pa = make_params(0.6, -0.1)
        pb = make_params(-0.1, 0.6)
        rng = np.random.default_rng(12)
        f = seeded_boundary(rng, order=4)
        fbar = from_fourier({-k: np.conj(v) for k, v in f.fourier.items()})
        ca, cb = coefficients_from_boundary(pa, f), coefficients_from_boundary(pb, fbar)
        for z in (0.3, 0.5 - 0.2j, -0.4 + 0.6j):
            lhs = poisson_integral(pb, fbar, z)
            rhs = np.conj(poisson_integral(pa, f, z))
            assert lhs == pytest.approx(rhs, abs=1e-10)
            # the series route: mode -k under (beta, alpha) is mode k under (alpha, beta)
            lhs = evaluate_expansion(pb, cb, z)
            assert lhs == pytest.approx(np.conj(evaluate_expansion(pa, ca, z)), abs=1e-14)


class TestNodeRule:
    @pytest.mark.parametrize("nodes", [0, 3, 32, 100, 4095])
    def test_rejected(self, nodes):
        with pytest.raises(DomainError):
            check_nodes(nodes)
        with pytest.raises(DomainError):
            poisson_extension(P00, from_fourier({0: 1.0}), nodes)

    @pytest.mark.parametrize("nodes", [64, 4096])
    def test_accepted(self, nodes):
        assert check_nodes(nodes) == nodes


class TestCircleValues:
    # on 1,024 nodes: 256 angles divide the nodes (FFT path); 60, 96 and
    # 2,048 do not (the orbits of 15, 3 and 2 base points turned 4, 32 and
    # 1,024 times), and 63 is coprime to 1,024 (63 one-point orbits, the
    # dense sum)
    @pytest.mark.parametrize("n_theta", [256, 60, 63, 96, 2048])
    @pytest.mark.parametrize("phase", [0.0, 1e-3, -1e-3, 0.7])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, -0.2)])
    def test_matches_dense_evaluation(self, pair, phase, n_theta):
        u = poisson_extension(make_params(*pair), seeded_boundary(np.random.default_rng(5)), 1024)
        for r in (0.0, 0.3, 0.9):
            dense = u(r * np.exp(1j * (circle_nodes(n_theta) + phase)))
            ring = u.circle_values(r, n_theta, phase=phase)
            assert np.max(np.abs(ring - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n_theta", [256, 60])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, -0.2), (2.7, -1.4)])
    def test_rings_in_one_call_match_one_ring_each(self, pair, n_theta):
        # one 2-d inverse FFT over four rings is bit for bit the 1-d
        # transform of each ring; with 60 angles on 1,024 nodes, angle
        # a + 15 k of each ring is u at base point a turned k times by pi/2
        p, n, h = make_params(*pair), 1024, DEFAULT_STEP
        f = seeded_boundary(np.random.default_rng(5))
        u = poisson_extension(p, f, n)
        rings = [(0.6 + h, 0.0), (0.6 - h, 0.0), (0.6, h), (0.6, -h)]
        fhat = np.fft.fft(f.values_on_grid(n))
        for (r, phase), row in zip(rings, u._circles(rings, n_theta)):
            if n_theta == 60:
                base = r * np.exp(1j * (circle_nodes(n_theta)[:15] + phase))
                ref = u.orbit_values(base, 4).T.reshape(-1)
            else:
                kern = unnormalized_kernel(p, r * np.exp(1j * (circle_nodes(n) + phase)))
                ref = (p.c_norm * np.fft.ifft(np.fft.fft(kern) * fhat) / n)[:: n // n_theta]
            assert np.array_equal(row, ref)

    @pytest.mark.parametrize("n_theta", [60, 63, 96, 512])
    def test_ring_off_the_nodes_keeps_no_kernel(self, n_theta):
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        u.circle_values(0.5, n_theta)
        u._circles([(0.3, 0.0), (0.6, 0.1)], n_theta)
        assert harmonic._kernel_table(PHH, 256).entries == {}

    def test_many_turns_stay_in_small_blocks(self):
        # 8,192 angles on 4,096 nodes are two base points turned 4,096
        # times; the turned samples of all turns at once would take 268 MB
        u = poisson_extension(make_params(0.3, -0.2), from_fourier({1: 1.0, -2: 0.5}), 4096)
        u.circle_values(0.5, 64)  # the node and sample caches
        tracemalloc.start()
        try:
            ring = u.circle_values(0.5, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        dense = u(0.5 * np.exp(1j * circle_nodes(8192)[::97]))
        assert np.max(np.abs(ring[::97] - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n_theta", [0, -4, -60])
    def test_non_positive_angle_count_rejected(self, n_theta):
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        with pytest.raises(DomainError, match="n_theta"):
            u.circle_values(0.5, n_theta)
        for v in (u, lambda z: z):
            with pytest.raises(DomainError, match="n_theta"):
                integral_means(v, 0.5, 2.0, nodes=n_theta)


class TestKernelTable:
    F = from_fourier({1: 1.0, -2: 0.5})

    def test_one_table_alive_after_a_pair_change(self):
        poisson_extension(PHH, self.F, 256).circle_values(0.5, 64)
        first = weakref.ref(harmonic._kernel_table(PHH, 256))
        for params, nodes in ((P00, 256), (P00, 512)):
            poisson_extension(params, self.F, nodes).orbit_values(Z_GRID, 8)
            assert harmonic._kernel_table.cache_info().currsize == 1
        assert first() is None
        assert len(harmonic._kernel_table(P00, 512).entries) == 1

    def test_point_sets_of_one_shape_kept_apart(self):
        u = poisson_extension(PHH, self.F, 256)
        for z in (Z_GRID, Z_GRID + DEFAULT_STEP, Z_GRID):
            np.testing.assert_array_equal(u.orbit_values(z, 4)[..., 0], poisson_integral(PHH, self.F, z, 256))
        assert len(harmonic._kernel_table(PHH, 256).entries) == 2

    def test_cached_arrays_read_only(self):
        u = poisson_extension(PHH, self.F, 256)
        u.orbit_values(Z_GRID, 8)
        u.circle_values(0.5, 64)
        entries = harmonic._kernel_table(PHH, 256).entries
        assert [key[0] for key in entries] == ["rows", "ring"]
        for arr in entries.values():
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_byte_budget_evicts_the_oldest(self, monkeypatch):
        # room for three 256-node ring kernels; an orbit point set whose
        # rows exceed the budget is evaluated block by block and not kept
        monkeypatch.setattr(harmonic, "_TABLE_BYTES", 3 * 256 * 16)
        u = poisson_extension(PHH, self.F, 256)
        radii = (0.1, 0.2, 0.3, 0.4, 0.5)
        rings = [u.circle_values(r, 64) for r in radii]
        table = harmonic._kernel_table(PHH, 256)
        assert list(table.entries) == [("ring", r, 0.0) for r in radii[2:]]
        assert table.nbytes == 3 * 256 * 16
        z = Z_GRID[:, :4]
        np.testing.assert_array_equal(u.orbit_values(z, 8)[..., 0], poisson_integral(PHH, self.F, z, 256))
        assert list(table.entries) == [("ring", r, 0.0) for r in radii[2:]]
        harmonic._kernel_table.cache_clear()
        for r, ring in zip(radii, rings):
            assert np.array_equal(u.circle_values(r, 64), ring)
