import cmath
import functools
import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from abharmonic import audit, harmonic
from abharmonic._quad import circle_nodes
from abharmonic.audit import STANDARD_PAIRS, Z_GRID, random_boundary
from abharmonic.boundary import from_fourier, from_samples
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
from abharmonic.kernel import make_params
from abharmonic.specfun import gamma, gauss_2f1

P00 = make_params(0.0, 0.0)
PHH = make_params(0.5, 0.5)
PAIRS = [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2)]

# frozen from the gamma oracle: Gamma(1.5) Gamma(2.5) / (Gamma(2) Gamma(2))
C1_EQUAL_HALF = 1.1780972450961724644
A1_AT_ONE_EQUAL_HALF = 0.8488263631567751241


def plan_rows(plan):
    """The padded coefficient row of each ring of a kernel-table plan, in
    ring order."""
    rows = {}
    for at, block, _ in plan.groups:
        rows.update(zip(at, block.reshape(len(at), -1)))
    return [rows[i] for i in sorted(rows)]


def plans(table):
    """The ring-set plans of a kernel table by (rings, n_theta), in table
    order, without the rows of its radii."""
    return {key: entry for key, entry in table.entries.items() if isinstance(key[0], tuple)}


def padded(p, width):
    """The ring coefficients p (FFT order) at the columns q mod width."""
    half = p.size // 2
    return np.concatenate((p[:half], np.zeros(width - p.size), p[half:]))


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


class TestRingOrbits:
    # the m turns w e^{2 pi i k/m} of a point w are the ring of m angles
    # at |w| and phase arg w.  The audit's orbits: the Cartesian stencil
    # points Z_GRID + h turned by i^k, and the first point of each Z_GRID
    # row turned by 2 pi k/8
    ORBITS = (
        (Z_GRID + DEFAULT_STEP, np.array([1, 1j, -1, -1j])),
        (Z_GRID[:, 0], np.exp(2j * np.pi * np.arange(8) / 8)),
    )

    @staticmethod
    def turns(u, z, m):
        rings = [(abs(w), cmath.phase(w)) for w in np.ravel(z).tolist()]
        return u._circles(rings, m).reshape(np.shape(z) + (m,))

    @pytest.mark.parametrize("nodes", [256, 1024])
    @pytest.mark.parametrize("pair", [*STANDARD_PAIRS, (2.7, -1.4)])
    def test_columns_are_the_turned_points(self, pair, nodes):
        p = make_params(*pair)
        f = random_boundary(np.random.default_rng(6))
        u = poisson_extension(p, f, nodes)
        for z, turns in self.ORBITS:
            vals = self.turns(u, z, turns.size)
            # each column is a ring value, a few ulps of the kernel's
            # largest values off the dense sum
            ref = poisson_integral(p, f, z[..., None] * turns, nodes)
            assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("nodes", [64, 1024, 4096])
    @pytest.mark.parametrize("m", [1, 2, 4, 8, "nodes"])
    def test_matches_dense_evaluation(self, m, nodes):
        # every orbit size from one turn to one per node; of the larger
        # orbits every (m/64)-th turn is checked
        m = nodes if m == "nodes" else m
        p = make_params(2.7, -1.4)
        f = seeded_boundary(np.random.default_rng(8))
        z = np.array([0.0, 0.3 - 0.2j, 0.9j, -0.6 + 0.62j])
        vals = self.turns(poisson_extension(p, f, nodes), z, m)
        k = np.arange(0, m, max(1, m // 64))
        ref = poisson_integral(p, f, z[:, None] * np.exp(2j * np.pi * k / m), nodes)
        assert np.max(np.abs(vals[:, k] - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestRingSpectrum:
    # c rho_k(r) = r^|k| F(mode k; r^2) / F(mode k; 1): mode e^{ik theta}
    # of the boundary data extends to its series mode factor, so the
    # phase-0 kernel's Fourier coefficients on the ring are those factors,
    # with no boundary data, graded against the 1-norm of rho.  A cap of
    # 4,096 samples holds every coefficient above rounding at r = 0.99
    MODES = (0, 1, -1, 2, 3, -3, 5, 20, -20)

    @pytest.mark.parametrize("r", [0.3, 0.6, 0.9, 0.99])
    @pytest.mark.parametrize("pair", [*STANDARD_PAIRS, (2.7, -1.4), (-0.3, -0.6)])
    def test_coefficients_are_the_mode_factors(self, pair, r):
        params = make_params(*pair)
        row = harmonic._ring_rows(params, [r], 4096)[r]
        assert row.dtype == np.float64
        for k in self.MODES:
            hyp = harmonic._mode_hyp(params, k)
            factor = r ** abs(k) * gauss_2f1(hyp, r * r) / harmonic.gauss_2f1_at_one(hyp)
            assert abs(params.c_norm * row[k] - factor) <= 1e-13 * abs(params.c_norm) * np.sum(np.abs(row))

    @pytest.mark.parametrize("phase", [0.7, -2.5, 1e-3, 3.0])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, -0.2), (2.7, -1.4)])
    def test_phase_turns_the_coefficients(self, pair, phase):
        # the ring at phase phi is the kernel turned by phi: rho_q e^{i q phi},
        # against the inverse FFT of its own samples on the full circle,
        # P(r e^{i phi} e^{-i t_k}) = K(-t_k); a phase-0 ring is the row itself
        params = make_params(*pair)
        table = harmonic._KernelTable()
        p = harmonic._ring_coefficients(params, [(0.6, phase), (0.6, 0.0)], 256, table)
        row = table.entries[0.6, 256]
        assert p[0.6, 0.0] is row
        t = circle_nodes(row.size)
        ref = np.fft.ifft(harmonic.unnormalized_kernel(params, 0.6 * np.exp(1j * phase) * np.exp(-1j * t)))
        assert np.max(np.abs(p[0.6, phase] - ref)) <= 1e-15 * np.sum(np.abs(row))

    @pytest.mark.parametrize("size", [64, 256, 61440])
    def test_turns_are_the_exponentials(self, size):
        # each product of a coarse and a fine turn is e^{i q phase} to the
        # rounding of the angle q phase, a few of its ulps
        phases = np.array([0.0, 1e-3, -0.37, 3.0, -math.pi])
        q = np.fft.fftfreq(size, 1.0 / size).round()
        angles = phases[:, None] * q
        err = np.abs(harmonic._turns(phases, size) - np.exp(1j * angles))
        assert np.all(err <= 4 * np.spacing(np.abs(angles).max(axis=1, keepdims=True)) + 1e-15)

    @pytest.mark.parametrize("n_theta", [4, 8])
    def test_capped_row_sampled_at_its_own_phase(self, n_theta):
        # at r = 0.9 on 256 nodes the row stops at the cap lcm(256, n_theta)
        # = 256 with its Nyquist coefficient (about 0.9^128) far above
        # rounding, so a turn would move its aliases: the ring is sampled at
        # its own phase, where it is the 256-node sum re-indexed.  The ring
        # at phase 0 still takes the row
        u = poisson_extension(PHH, random_boundary(np.random.default_rng(6)), 256)
        rings = ((0.9, 0.37), (0.9, 0.0), (0.3, 0.37))
        u._circles(rings, n_theta)
        table = harmonic._kernel_table(PHH, 256)
        row = table.entries[0.9, 256]
        assert row.size == 256 and abs(row[128]) > 1e6 * harmonic._RING_TOL * np.sum(np.abs(row))
        sampled, phase0, turned = plan_rows(table.entries[rings, n_theta])
        t = circle_nodes(256)
        own = np.fft.ifft(harmonic.unnormalized_kernel(PHH, 0.9 * np.exp(0.37j) * np.exp(-1j * t)))
        assert np.max(np.abs(padded(own, 256) - sampled)) <= 1e-15 * np.sum(np.abs(row))
        assert np.array_equal(sampled, padded(harmonic._ring_spectra(PHH, [rings[0]], 256)[0], 256))
        assert np.array_equal(phase0, padded(row, 256))
        # a turn of the row is off the ring's own coefficients by its aliases
        assert np.max(np.abs(padded(row * harmonic._turns([0.37], 256)[0], 256) - sampled)) > 1e-9
        # the row at r = 0.3 decayed before the cap and is turned
        short = table.entries[0.3, 256]
        assert short.size < 256
        width = -(-short.size // n_theta) * n_theta
        assert np.array_equal(turned, padded(short * harmonic._turns([0.37], short.size)[0], width))

    @pytest.mark.parametrize("nodes", [256, 1024])
    def test_plan_row_whoever_sampled_its_radius(self, nodes):
        # two ring sets sharing radii: a ring's plan row is the same bits
        # whether its radius was sampled by the other set first or by its
        # own, from a cold table, and in either order on one table; so is
        # a row made beside other radii of other sample counts
        u = poisson_extension(PHH, random_boundary(np.random.default_rng(6)), nodes)
        h = DEFAULT_STEP
        sets = (
            ((0.6, 0.0), (0.6 + h, 0.3), (0.3, 0.1), (0.9, 1.2)),
            ((0.9, 0.0), (0.6, 0.2), (0.3, 0.0), (0.6 + h, -0.3), (0.05, 2.0)),
        )
        cold = []
        for rings in sets:
            harmonic._kernel_table.cache_clear()
            values = u._circles(rings, 8)
            cold.append((values, plan_rows(harmonic._kernel_table(PHH, nodes).entries[rings, 8])))
        for order in (sets, sets[::-1]):
            harmonic._kernel_table.cache_clear()
            for rings in order:
                u._circles(rings, 8)
            entries = harmonic._kernel_table(PHH, nodes).entries
            for rings, (values, rows) in zip(sets, cold):
                assert all(map(np.array_equal, plan_rows(entries[rings, 8]), rows))
                assert np.array_equal(u._circles(rings, 8), values)
        radii = (0.6, 0.3, 0.9, 0.05)
        together = harmonic._ring_rows(PHH, radii, nodes)
        for r in radii:
            assert np.array_equal(harmonic._ring_rows(PHH, [r], nodes)[r], together[r])
            assert np.array_equal(harmonic._kernel_table(PHH, nodes).entries[r, nodes], together[r])


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


class TestModeFactorIdentity:
    # the extension of a Fourier document is u = sum_k f_k M_k(r) e^{ik theta}
    # with the mode factor M_k(r) = r^|k| F(mode k; r^2) / F(mode k; 1): solve's
    # rings (ring path), the expansion and its snapshots (series route) against
    # that one sum, at a mode of every order up to 170 on 1,024 nodes.
    # F(mode k; 1) holds Gamma(|k| + 1 + weight), which overflows a float past
    # 171.6 (ROADMAP item 8), so a pair with a weight of 1 stops at order 169
    NODES = 1024
    # 3 rings of --rmax 1.2 lie at (i + 1) / 4 * 1.2: 0.3, 0.6 and 0.9
    RADII = [(i + 1) / 4 * 1.2 for i in range(3)]
    # against max |u| of the ring; the worst measured was 1.7e-14 (solve at
    # (0.3, -0.2), r = 0.9)
    TOL = 1e-12

    @staticmethod
    def document(pair):
        order = 169 if 1.0 in pair else 170
        ks = np.arange(-order, order + 1)
        rng = np.random.default_rng(14)
        return ks, np.exp(2j * math.pi * rng.uniform(size=ks.size))

    @staticmethod
    def mode_sum(params, ks, fhat, r, n_theta):
        # at theta_j = 2 pi j / n_theta, each turn e^{ik theta_j} from the exact
        # residue k j mod n_theta
        factors = np.array(
            [
                r ** abs(k) * gauss_2f1(harmonic._mode_hyp(params, k), r * r)
                / harmonic.gauss_2f1_at_one(harmonic._mode_hyp(params, k))
                for k in ks.tolist()
            ]
        )
        turns = np.exp(2j * math.pi * (np.outer(np.arange(n_theta), ks) % n_theta) / n_theta)
        return turns @ (fhat * factors)

    @pytest.mark.parametrize("pair", STANDARD_PAIRS)
    def test_solve_expansion_and_snapshots_sum_the_mode_factors(self, tmp_path, pair):
        from abharmonic.cli import main

        params = make_params(*pair)
        ks, fhat = self.document(pair)
        doc = tmp_path / "fourier.json"
        doc.write_text(json.dumps({"fourier": {str(k): [c.real, c.imag] for k, c in zip(ks.tolist(), fhat)}}))
        coeffs = coefficients_from_boundary(params, from_fourier(dict(zip(ks.tolist(), fhat))))
        # 512 angles divide the nodes, 360 do not: each ring folds onto its bins
        for n_theta in (512, 360):
            out = tmp_path / "grid.csv"
            argv = ["solve", str(doc), "--alpha", repr(pair[0]), "--beta", repr(pair[1])]
            argv += ["--nodes", str(self.NODES), "--grid", f"3x{n_theta}", "--rmax", "1.2", "--out", str(out)]
            assert main(argv) == 0
            rows = np.loadtxt(out, delimiter=",", skiprows=1)
            rings = (rows[:, 2] + 1j * rows[:, 3]).reshape(len(self.RADII), n_theta)
            theta = circle_nodes(n_theta)
            for r, ring in zip(self.RADII, rings):
                want = self.mode_sum(params, ks, fhat, r, n_theta)
                scale = self.TOL * np.max(np.abs(want))
                assert np.max(np.abs(ring - want)) <= scale, ("solve", r, n_theta)
                snap = snapshot(params, coeffs, r).circle_values(theta)
                assert np.max(np.abs(snap - want)) <= scale, ("snapshot", r, n_theta)
                # the expansion point by point, at every 45th angle
                js = range(0, n_theta, 45)
                series = [evaluate_expansion(params, coeffs, r * np.exp(1j * theta[j])) for j in js]
                assert np.max(np.abs(np.array(series) - want[js])) <= scale, ("expansion", r, n_theta)


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

    @pytest.mark.parametrize(
        "measure",
        [wirtinger_derivatives, radial_angular_derivatives, jacobian_norm, functools.partial(operator_residual, PHH)],
    )
    @pytest.mark.parametrize("h", [0.0, -0.5, -1e-3, math.nan, math.inf])
    def test_step_must_be_finite_and_positive(self, measure, h):
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StencilError, match=f"h = {h}"):
                measure(lambda z: calls.append(z) or z, np.array([0.3, 0.5j]), h)
            with pytest.raises(StencilError, match=f"h = {h}"):
                measure(poisson_extension(PHH, from_fourier({1: 1.0}), 256), 0.3, h)
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

    def test_ring_kernel_once_per_pair(self, monkeypatch):
        # one kernel evaluation per (params, nodes, r, cap) whatever the
        # extension and the phase: at 256 nodes and 64 angles r = 0.7
        # reaches the cap lcm(256, 64) = 256, 129 samples of its half
        # circle, and each phase turns that row; each extension pays only
        # for its own FFTs
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        first = u.circle_values(0.5, 64)
        points = []

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            points.append(np.size(w))
            return fn(params, w)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        assert np.array_equal(u.circle_values(0.5, 64), first)
        assert points == []
        u.circle_values(0.7, 64, phase=0.1)
        assert points == [129]
        u.circle_values(0.7, 64, phase=0.3)
        v = poisson_extension(PHH, from_fourier({0: 2.0, 3: 1j}), 256)
        v.circle_values(0.5, 64)
        v.circle_values(0.7, 64, phase=0.1)
        assert points == [129]
        poisson_extension(P00, from_fourier({0: 2.0, 3: 1j}), 256).circle_values(0.5, 64)
        assert len(points) == 2

    def test_fast_path_matches_generic(self):
        f = from_fourier({1: 1.0, -2: 0.5})
        u = poisson_extension(PHH, f, 1024)
        fast = integral_means(u, 0.6, 4.0, nodes=256)
        slow = integral_means(lambda z: u(z), 0.6, 4.0, nodes=256)
        assert fast == pytest.approx(slow, rel=1e-12)


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

    @pytest.mark.parametrize(
        "order, nodes, needed", [(4095, 4096, 8192), (2048, 4096, 8192), (32, 64, 128), (-40, 64, 128)]
    )
    def test_order_at_half_the_nodes_raises(self, order, nodes, needed):
        # on n nodes mode k is mode k - n: at 4,096 nodes e^{4095 it} would
        # be extended as e^{-it}, u = r at r = 0.15835, for u = r^4095
        f = from_fourier({order: 1.0})
        match = f"order {abs(order)} .* nodes >= {needed}"
        with pytest.raises(DomainError, match=match):
            poisson_integral(P00, f, 0.15835, nodes)
        with pytest.raises(DomainError, match=match):
            poisson_extension(P00, f, nodes).circle_values(0.15835, 1)
        with pytest.raises(DomainError, match=match):
            integral_means(poisson_extension(P00, f, nodes), 0.15835, 2.0)
        # the node count named serves it
        u = poisson_extension(P00, f, needed)
        assert abs(u.circle_values(0.15835, 1)[0] - 0.15835 ** abs(order)) <= 1e-13
        assert abs(poisson_integral(P00, f, 0.15835, needed) - 0.15835 ** abs(order)) <= 1e-13

    def test_order_below_half_the_nodes_is_served(self):
        f = from_fourier({2047: 1.0, -2047: 1j})
        assert abs(poisson_integral(P00, f, 0.9, 4096) - 0.9**2047) <= 1e-13
        assert integral_means(poisson_extension(P00, f, 4096), 0.9, 2.0) <= 1e-13


class TestCircleValues:
    # on 1,024 nodes a ring's kernel samples stop at lcm(1,024, n_theta):
    # 1,024 for 256 angles, 2,048 for 2,048, far above what r <= 0.9
    # needs for 60, 63 and 96; r = 0 takes 64
    @pytest.mark.parametrize("n_theta", [256, 60, 63, 96, 2048])
    @pytest.mark.parametrize("phase", [0.0, 1e-3, -1e-3, 0.7])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, -0.2)])
    def test_matches_dense_evaluation(self, pair, phase, n_theta):
        u = poisson_extension(make_params(*pair), seeded_boundary(np.random.default_rng(5)), 1024)
        for r in (0.0, 0.3, 0.9):
            dense = u(r * np.exp(1j * (circle_nodes(n_theta) + phase)))
            ring = u.circle_values(r, n_theta, phase=phase)
            assert np.max(np.abs(ring - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n_theta", [256, 60, 1])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.3, -0.2), (2.7, -1.4)])
    def test_rings_in_one_call_match_one_ring_each(self, pair, n_theta):
        # the four rings of a means-partials stencil in one call are bit
        # for bit each ring alone, with 256, 60 or 1 angles on 1,024
        # nodes, also beside rings of other sample counts N: their kernel
        # coefficients sampled together or alone, from a cold table
        u = poisson_extension(make_params(*pair), seeded_boundary(np.random.default_rng(5)), 1024)
        h = DEFAULT_STEP
        rings = [(0.6 + h, 0.0), (0.2, 0.3), (0.6 - h, 0.0), (0.6, h), (0.95, 0.0), (0.6, -h)]
        for (r, phase), row in zip(rings, u._circles(rings, n_theta)):
            harmonic._kernel_table.cache_clear()
            assert np.array_equal(row, u.circle_values(r, n_theta, phase=phase))

    @pytest.mark.parametrize("n_theta", [60, 63, 96, 512])
    def test_ring_keeps_its_coefficients(self, n_theta):
        # one real row per (r, cap) and one plan per (rings, n_theta); each
        # radius keeps the N coefficients of the ring rule, below or at
        # every cap lcm(256, n_theta) here, and each ring its row turned by
        # its phase, padded to the next multiple of n_theta
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        u.circle_values(0.5, n_theta)
        u._circles([(0.3, 0.0), (0.6, 0.1)], n_theta)
        entries = harmonic._kernel_table(PHH, 256).entries
        cap = math.lcm(256, n_theta)
        assert list(entries) == [
            (0.5, cap),
            (((0.5, 0.0),), n_theta),
            (0.3, cap),
            (0.6, cap),
            (((0.3, 0.0), (0.6, 0.1)), n_theta),
        ]
        lengths = {0.5: 256, 0.3: 128, 0.6: 512}
        for (rings, _), plan in plans(harmonic._kernel_table(PHH, 256)).items():
            for (r, phase), row in zip(rings, plan_rows(plan), strict=True):
                size = lengths[r]
                rho = harmonic._ring_rows(PHH, [r], cap)[r]
                assert rho.size == size and np.array_equal(entries[r, cap], rho)
                p = rho if phase == 0.0 else rho * harmonic._turns([phase], size)[0]
                assert np.array_equal(row, padded(p, -(-size // n_theta) * n_theta))

    def test_doubled_length_kept_and_not_remade(self, monkeypatch):
        # a first N too small for r = 0.5 doubles until the outer quarter
        # has decayed, each N sampled on its half circle; only the row the
        # ring uses is kept, so the ring, and the ring at another phase,
        # again need no kernel, bit for bit
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 1024)
        monkeypatch.setattr(harmonic, "_ring_length", lambda params, r, cap: 64)
        sizes = []

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            sizes.append(np.size(w))
            return fn(params, w)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        ring = u.circle_values(0.5, 60)
        assert sizes == [33, 65, 129]
        entries = harmonic._kernel_table(PHH, 1024).entries
        assert list(entries) == [(0.5, 15360), (((0.5, 0.0),), 60)]
        assert entries[0.5, 15360].size == 256
        assert [row.size for row in plan_rows(entries[((0.5, 0.0),), 60])] == [300]
        monkeypatch.setattr(harmonic, "unnormalized_kernel", None)
        assert np.array_equal(u.circle_values(0.5, 60), ring)
        u.circle_values(0.5, 60, phase=0.2)

    def test_ring_at_one_cap_does_not_stop_another(self, monkeypatch):
        # from a first N of 64 at r = 0.9 on 256 nodes, 64 angles stop at
        # their cap of 256 samples, which fail the decay test; 60 angles
        # (cap 3,840) go on doubling past it, as with an empty table
        u = poisson_extension(PHH, from_fourier({1: 1.0, -2: 0.5}), 256)
        monkeypatch.setattr(harmonic, "_ring_length", lambda params, r, cap: 64)
        u.circle_values(0.9, 64)
        warm = u.circle_values(0.9, 60)
        table = harmonic._kernel_table(PHH, 256)
        assert list(table.entries) == [(0.9, 256), (((0.9, 0.0),), 64), (0.9, 3840), (((0.9, 0.0),), 60)]
        # 2,048 samples at 60 angles: 35 rows of 60 columns
        assert [table.entries[0.9, cap].size for cap in (256, 3840)] == [256, 2048]
        assert [[row.size for row in plan_rows(plan)] for plan in plans(table).values()] == [[256], [2100]]
        harmonic._kernel_table.cache_clear()
        assert np.array_equal(u.circle_values(0.9, 60), warm)

    @pytest.mark.parametrize("pair", [(5.0, 0.0), (0.0, 5.0), (3.0, 3.0), (-0.9, 0.5), (2.7, -1.4)])
    def test_matches_dense_poisson_integral(self, pair):
        # 4,096 noisy samples hold every mode.  The dense sum is taken at up
        # to 16 angles of each ring, against the largest |u| at 16 angles of
        # the circle (one angle has no scale of its own: there the dense
        # sum's own rounding is about 1e-13 of |u|).  The coefficient
        # vectors never pass lcm(nodes, n_theta), which 1, 64 and 8,192
        # angles reach at r = 0.99
        params = make_params(*pair)
        rng = np.random.default_rng(11)
        u = poisson_extension(params, from_samples(rng.normal(size=4096) + 1j * rng.normal(size=4096)), 4096)
        table = harmonic._kernel_table(params, 4096)
        for r in (0.0, 1e-300, 0.5, 0.9, 0.95, 0.99):
            tol = 2e-12 if r == 0.99 else 1e-13
            for phase in (0.0, 0.3):
                scale = np.max(np.abs(u(r * np.exp(1j * (circle_nodes(16) + phase)))))
                for n_theta in (1, 60, 63, 64, 8192):
                    ring = u.circle_values(r, n_theta, phase=phase)
                    at = np.arange(0, n_theta, -(-n_theta // 16))
                    dense = u(r * np.exp(1j * (circle_nodes(n_theta)[at] + phase)))
                    assert np.max(np.abs(ring[at] - dense)) <= tol * max(scale, np.max(np.abs(dense)))
                    cap = math.lcm(4096, n_theta)
                    ((_, block, _),) = table.entries[((r, phase),), n_theta].groups
                    assert block.shape[1] * n_theta <= cap

    def test_rings_share_the_kept_spectrum(self, monkeypatch):
        # one FFT of the grid per nodes, whatever the rings; the dense sum
        # reads the grid itself
        f = from_fourier({1: 1.0, -2: 0.5})
        u = poisson_extension(PHH, f, 256)
        first = u.circle_values(0.5, 64), u._circles([(0.3, 0.1), (0.9, 0.0)], 8), u(0.3j)
        assert set(f._spectra) == {256}
        monkeypatch.setattr(np.fft, "fft", None)
        again = u.circle_values(0.5, 64), u._circles([(0.3, 0.1), (0.9, 0.0)], 8), u(0.3j)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))

    def test_many_turns_stay_in_small_blocks(self):
        # 8,192 angles on 4,096 nodes at r = 0.5: 256 kernel samples
        # whose products fold onto 8,192 bins of one inverse FFT
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
            poisson_extension(params, self.F, nodes)._circles([(0.3, 0.1)], 8)
            assert harmonic._kernel_table.cache_info().currsize == 1
        assert first() is None
        assert list(harmonic._kernel_table(P00, 512).entries) == [(0.3, 512), (((0.3, 0.1),), 8)]

    def test_rings_kept_apart_by_phase_and_cap(self):
        # ring sets at another phase, order or angle count (cap) have their
        # own plans, and a radius one row per cap; a set looked up again is
        # the same bits, and a ring is the same bits in any set
        u = poisson_extension(PHH, self.F, 256)
        first = u._circles([(0.5, 0.0), (0.5, 0.1)], 8)
        u.circle_values(0.5, 60)
        assert np.array_equal(u._circles([(0.5, 0.0), (0.5, 0.1)], 8), first)
        assert np.array_equal(u._circles([(0.5, 0.1), (0.5, 0.0)], 8), first[::-1])
        assert np.array_equal(u.circle_values(0.5, 8, phase=0.1), first[1])
        keys = [
            (((0.5, 0.0), (0.5, 0.1)), 8),
            (((0.5, 0.0),), 60),
            (((0.5, 0.1), (0.5, 0.0)), 8),
            (((0.5, 0.1),), 8),
        ]
        table = harmonic._kernel_table(PHH, 256)
        assert list(plans(table)) == keys
        assert [key for key in table.entries if key not in keys] == [(0.5, 256), (0.5, 3840)]

    def test_cached_arrays_read_only(self):
        # a ring set's padded blocks, one per row width L, and the
        # spectrum index q mod n of their columns under (rings, n_theta),
        # and the real row of each radius under (r, cap)
        u = poisson_extension(PHH, self.F, 256)
        u._circles([(0.3, 0.1), (0.9, 0.0)], 8)
        u.circle_values(0.5, 64)
        table = harmonic._kernel_table(PHH, 256)
        entries = plans(table)
        rows = [table.entries[key] for key in ((0.3, 256), (0.9, 256), (0.5, 256))]
        assert [(row.dtype, row.size) for row in rows] == [(np.float64, 128), (np.float64, 256), (np.float64, 256)]
        for row in rows:
            with pytest.raises(ValueError):
                row[0] = 0.0
        assert [
            (key, [(at, block.shape, cols) for at, block, cols in plan.groups], plan.index.shape)
            for key, plan in entries.items()
        ] == [
            (
                (((0.3, 0.1), (0.9, 0.0)), 8),
                [([0], (1, 16, 8), slice(0, 128)), ([1], (1, 32, 8), slice(128, 384))],
                (384,),
            ),
            ((((0.5, 0.0),), 64), [([0], (1, 4, 64), slice(0, 256))], (256,)),
        ]
        q = np.r_[0:64, -64:0, 0:128, -128:0]
        assert np.array_equal(entries[((0.3, 0.1), (0.9, 0.0)), 8].index, q % 256)
        for plan in entries.values():
            for arr in (plan.index, *(block for _, block, _ in plan.groups)):
                with pytest.raises(ValueError):
                    arr.flat[0] = 0

    def test_turn_factors_kept_read_only(self):
        # the turn factors of a phase tuple and size, and the half-circle
        # roots of a size, are kept once per process, whatever sequence
        # names the phases, and nobody may write them: every weight pair's
        # plans share them
        harmonic._turn_rows.cache_clear()
        first = harmonic._turns([0.37, -1.2], 256)
        assert harmonic._turns(np.array([0.37, -1.2]), 256) is first
        assert harmonic._turns((0.37, -1.2), 128) is not first
        assert harmonic._turn_rows.cache_info()[:2] == (1, 2)
        roots = harmonic._half_roots(256)
        assert harmonic._half_roots(256) is roots and roots.shape == (129,)
        for kept in (first, roots):
            with pytest.raises(ValueError):
                kept[..., 0] = 0.0

    @pytest.mark.parametrize("nodes", [256, 1024])
    def test_plan_on_warm_turns_has_the_cold_bits(self, nodes):
        # the audit's Cartesian rings of (0.3, -0.2), from the turn factors
        # and roots an earlier plan left in the caches, are the bits of a
        # plan built on empty ones
        rings, params = audit._CARTESIAN_RINGS, make_params(0.3, -0.2)
        harmonic._turn_rows.cache_clear()
        harmonic._half_roots.cache_clear()
        cold = harmonic._RingPlan(params, rings, 4, nodes, harmonic._KernelTable())
        assert harmonic._turn_rows.cache_info().hits == 0
        warm = harmonic._RingPlan(params, rings, 4, nodes, harmonic._KernelTable())
        assert harmonic._turn_rows.cache_info().hits > 0
        assert cold.index.tobytes() == warm.index.tobytes()
        assert len(cold.groups) == len(warm.groups)
        for (at, block, cols), (warm_at, warm_block, warm_cols) in zip(cold.groups, warm.groups):
            assert (at, cols) == (warm_at, warm_cols)
            assert block.tobytes() == warm_block.tobytes()

    def test_byte_budget_evicts_the_oldest(self, monkeypatch):
        # room for three 256-sample rings (at 256 nodes and 64 angles each
        # of these radii reaches the cap lcm(256, 64) = 256), each a real
        # row of 256 coefficients and a plan of 256 complex coefficients
        # and 256 spectrum indices, the row kept first; a row or plan larger
        # than the whole budget is used and not kept, bit for bit as from
        # the table
        u = poisson_extension(PHH, self.F, 256)
        kept = u.circle_values(0.95, 60)  # all 3,840 samples of its cap
        harmonic._kernel_table.cache_clear()
        monkeypatch.setattr(harmonic, "_TABLE_BYTES", 3 * 256 * (8 + 16 + 8))
        radii = (0.5, 0.6, 0.7, 0.8, 0.9)
        rings = [u.circle_values(r, 64) for r in radii]
        table = harmonic._kernel_table(PHH, 256)
        ring_keys = [key for r in radii[2:] for key in ((r, 256), (((r, 0.0),), 64))]
        assert list(table.entries) == ring_keys
        assert table.nbytes == 3 * 256 * (8 + 16 + 8)
        assert np.array_equal(u.circle_values(0.95, 60), kept)
        assert list(table.entries) == ring_keys
        harmonic._kernel_table.cache_clear()
        for r, ring in zip(radii, rings):
            assert np.array_equal(u.circle_values(r, 64), ring)
