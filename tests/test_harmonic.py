import cmath
import math

import numpy as np
import pytest

from abharmonic._quad import circle_nodes
from abharmonic.boundary import from_fourier
from abharmonic.errors import DomainError, StencilError
from abharmonic.harmonic import (
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
from abharmonic.kernel import make_params
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
        c = SeriesCoefficients([1.0, 2.0], [3.0])
        assert c.c(0) == 1.0 and c.c(1) == 2.0 and c.c(-1) == 3.0
        assert c.c(5) == 0.0 and c.c(-5) == 0.0

    def test_from_dict_round_trip(self):
        c = SeriesCoefficients.from_dict({0: 1.0, 2: 1j, -1: 0.5})
        assert c.to_dict()[2] == 1j and c.to_dict()[-1] == 0.5


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


class TestExpansion:
    def test_first_mode_classical(self):
        c = SeriesCoefficients([0.0, 1.0], [0.0])
        for z in (0.3, 0.2 - 0.5j):
            assert evaluate_expansion(P00, c, z) == pytest.approx(z, rel=1e-14)

    def test_constant_term_at_origin(self):
        c = SeriesCoefficients([1.0], [0.0])
        assert evaluate_expansion(PHH, c, 0.0) == pytest.approx(1.0)

    def test_antiholomorphic_terminating_value(self):
        # c_{-1} = 1 under weights (0, 1): F(-1, 1; 2; 0.25) * conj(0.5)
        p = make_params(0.0, 1.0)
        c = SeriesCoefficients([0.0], [1.0])
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
        c = SeriesCoefficients([0.0, 1.0], [0.0])
        snap = snapshot(P00, c, 0.6)
        assert snap.A[1] == pytest.approx(0.6)
        assert snap.A[0] == 0.0 and all(b == 0.0 for b in snap.B)

    def test_small_radius_recovers_coefficients(self):
        p = make_params(0.3, -0.2)
        c = SeriesCoefficients([1.0, 2.0, 0.5j], [1j, 0.25])
        r = 1e-4
        snap = snapshot(p, c, r)
        for k in range(3):
            assert snap.A[k] / r**k == pytest.approx(c.c(k), rel=1e-6)
        for k in (1, 2):
            assert snap.B[k - 1] / r**k == pytest.approx(c.c(-k), rel=1e-6)

    def test_limit_radius_uses_hypergeometric_limits(self):
        c = SeriesCoefficients([0.0, 1.0], [0.0])
        snap = snapshot(PHH, c, 1.0)
        assert snap.A[1] == pytest.approx(A1_AT_ONE_EQUAL_HALF, rel=1e-13)

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
        c = SeriesCoefficients([0.0, 2.0, 1.0], [0.5])
        snap = snapshot(P00, c, 0.5)
        ratios_a, ratios_b = snap.normalized_ratios()
        assert ratios_a[0] == pytest.approx(snap.A[2] / snap.A[1])
        assert ratios_b[0] == pytest.approx(snap.B[0] / snap.A[1])

    def test_radius_domain(self):
        with pytest.raises(DomainError):
            snapshot(P00, SeriesCoefficients([1.0], [0.0]), 0.0)


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
        c = SeriesCoefficients([0.0, 1.0], [0.0])
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
        for z in (0.3, 0.5 - 0.2j, -0.4 + 0.6j):
            lhs = poisson_integral(pb, fbar, z)
            rhs = np.conj(poisson_integral(pa, f, z))
            assert lhs == pytest.approx(rhs, abs=1e-10)


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
    # 256 angles divide the 1024 nodes (FFT path), 60 do not (dense path)
    @pytest.mark.parametrize("n_theta", [256, 60])
    @pytest.mark.parametrize("phase", [0.0, 1e-3, -1e-3, 0.7])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, -0.2)])
    def test_matches_dense_evaluation(self, pair, phase, n_theta):
        u = poisson_extension(make_params(*pair), seeded_boundary(np.random.default_rng(5)), 1024)
        for r in (0.0, 0.3, 0.9):
            dense = u(r * np.exp(1j * (circle_nodes(n_theta) + phase)))
            ring = u.circle_values(r, n_theta, phase=phase)
            assert np.max(np.abs(ring - dense)) <= 1e-13 * np.max(np.abs(dense))
