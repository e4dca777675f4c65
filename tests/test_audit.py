import collections
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abharmonic.audit as audit
import abharmonic.bounds as bnd
import abharmonic.harmonic as harmonic
from abharmonic import _quad
from abharmonic._quad import circle_nodes
from abharmonic.audit import (
    R_GRID,
    STANDARD_PAIRS,
    Z_GRID,
    AuditResult,
    check_coefficient_inequalities,
    check_distortion,
    check_growth,
    check_hypergeometric_ratio_lemma,
    check_integral_identities,
    check_integral_means,
    check_kernel_mean_and_residual,
    check_means_partials,
    check_oscillatory_maximum_lemmas,
    check_partials,
    merge_results,
    random_boundary,
    run_suite,
    standard_suite,
)
from abharmonic.boundary import from_fourier, from_samples, lp_norm
from abharmonic.bounds import (
    HEINZ_LOWER_BOUND,
    SUP,
    HolderPair,
    coefficient_bound,
    oscillatory_moment,
)
from abharmonic.errors import ParameterError
from abharmonic.harmonic import SeriesCoefficients
from abharmonic.kernel import make_params

P00 = make_params(0.0, 0.0)
PHH = make_params(0.5, 0.5)
BOUNDARY_CHECKS = (check_growth, check_integral_means, check_distortion, check_partials, check_means_partials)


class TestGrowthCheck:
    def test_constant_data_sup_norm_equality(self):
        res = check_growth(P00, from_fourier({0: 1.0}), HolderPair.from_p(math.inf))
        assert res.cases_violated == 0
        assert res.worst_margin == pytest.approx(0.0, abs=1e-10)

    def test_first_mode_margins(self):
        # extension is z itself; at p = inf the margin 1 - r shrinks toward
        # the boundary, while finite p keeps positive (blowing-up) margins
        f = from_fourier({1: 1.0})
        res_inf = check_growth(P00, f, HolderPair.from_p(math.inf))
        by_r = {}
        for _, r, margin in res_inf.details:
            by_r.setdefault(round(r, 3), []).append(margin)
        radii = sorted(by_r)
        mins = [min(by_r[r]) for r in radii]
        assert all(m > 0 for m in mins)
        assert mins[0] > mins[-1]
        assert mins[-1] == pytest.approx(1.0 - radii[-1], abs=1e-10)
        res_2 = check_growth(P00, f, HolderPair.from_p(2.0))
        assert res_2.cases_violated == 0

    def test_random_suite_clean(self):
        rng = np.random.default_rng(100)
        hp = HolderPair.from_p(2.0)
        for _ in range(5):
            res = check_growth(PHH, random_boundary(rng), hp)
            assert res.cases_violated == 0


class TestIntegralMeansCheck:
    def test_constant_sharpness_on_equal_weights(self):
        res = check_integral_means(PHH, from_fourier({0: 3.0}), HolderPair.from_p(2.0))
        assert res.cases_violated == 0
        assert res.extras["sharpness_gap"] <= 1e-8

    def test_classical_bound_factor_one(self):
        rng = np.random.default_rng(5)
        res = check_integral_means(P00, random_boundary(rng), HolderPair.from_p(4.0))
        assert res.cases_violated == 0

    def test_random_clean(self):
        rng = np.random.default_rng(17)
        for p in (1.0, 2.0, math.inf):
            res = check_integral_means(
                make_params(-0.5, 1.0), random_boundary(rng), HolderPair.from_p(p)
            )
            assert res.cases_violated == 0


class TestDerivativeChecks:
    def test_constant_data_trivial(self):
        f = from_fourier({0: 2.0})
        assert check_distortion(P00, f, HolderPair.from_p(2.0)).cases_violated == 0
        assert check_partials(P00, f, HolderPair.from_p(2.0)).cases_violated == 0

    def test_first_mode_wirtinger(self):
        res = check_partials(P00, from_fourier({1: 1.0}), HolderPair.from_p(math.inf))
        assert res.cases_violated == 0

    def test_random_clean_all_checks(self):
        rng = np.random.default_rng(23)
        p = make_params(0.3, -0.2)
        hp = HolderPair.from_p(2.0)
        f = random_boundary(rng)
        for check in (check_distortion, check_partials, check_means_partials):
            assert check(p, f, hp).cases_violated == 0

    @pytest.mark.parametrize(
        "check, calls, points",
        [
            # 256 nodes: a radius near 0.3 takes 128 kernel samples, the
            # others the cap lcm(256, angles) = 256, each sampled on its
            # half circle, 65 or 129 points; a row near 0.9 keeps its
            # Nyquist coefficient above rounding, so its rings off phase 0
            # are sampled at their own phase on the whole circle, 256 each
            (check_growth, [(3, 8)], 65 + 2 * 129 + 256),
            (check_distortion, [(24, 4)], 8 * 65 + 16 * 129 + 8 * 256),
            (check_partials, [(12, 8), (24, 4)], 11 * 65 + 22 * 129 + 12 * 256),
        ],
    )
    def test_one_ring_evaluation_per_stencil(self, monkeypatch, check, calls, points):
        # each row stencil is one _circles call on its rings; a ring's
        # kernel coefficients are evaluated once per (params, nodes),
        # whatever the boundary
        seen, kernel_points = [], []

        def circles(u, rings, n_theta, fn=harmonic.PoissonExtension._circles):
            seen.append((len(rings), n_theta))
            return fn(u, rings, n_theta)

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            kernel_points.append(np.size(w))
            return fn(params, w)

        monkeypatch.setattr(harmonic.PoissonExtension, "_circles", circles)
        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        rng = np.random.default_rng(6)
        for params in (PHH, PHH, P00):
            check(params, random_boundary(rng), HolderPair.from_p(2.0), nodes=256)
        assert seen == 3 * calls
        assert sum(kernel_points) == 2 * points

    def test_distortion_and_partials_share_one_point_set(self, monkeypatch):
        # the 24 Cartesian rings check_distortion evaluated serve
        # check_partials, which then adds only the 9 radii of the 12 polar
        # rings and the 4 of them near 0.9 at their own phase
        points = []

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            points.append(np.size(w))
            return fn(params, w)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        f, hp = random_boundary(np.random.default_rng(6)), HolderPair.from_p(2.0)
        check_distortion(PHH, f, hp, nodes=256)
        assert sum(points) == 8 * 65 + 16 * 129 + 8 * 256
        check_partials(PHH, f, hp, nodes=256)
        assert sum(points) == 8 * 65 + 16 * 129 + 8 * 256 + 3 * 65 + 6 * 129 + 4 * 256

    @pytest.mark.parametrize("nodes", [256, 1024])
    @pytest.mark.parametrize("pair", [*STANDARD_PAIRS, (2.7, -1.4)])
    def test_row_stencils_match_the_point_stencils(self, pair, nodes):
        # the turned stencil points are ulps off the stored ones, and a
        # difference quotient divides that by h
        f = random_boundary(np.random.default_rng(6))
        u = harmonic.poisson_extension(make_params(*pair), f, nodes)
        rows = (*audit._row_wirtinger(u), *audit._polar(u, audit._POLAR_RINGS, 8))
        points = (
            *harmonic.wirtinger_derivatives(u, Z_GRID),
            *harmonic.radial_angular_derivatives(u, Z_GRID),
        )
        for row, ref in zip(rows, points):
            assert row.shape == Z_GRID.shape
            assert np.max(np.abs(row - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_asymmetric_weights_covered(self):
        # regression: the antiholomorphic derivative needs the swapped
        # prefactor, which the symmetrized constants provide
        rng = np.random.default_rng(100)
        p = make_params(-0.5, 1.0)
        hp = HolderPair.from_p(4.0)
        for _ in range(11):
            f = random_boundary(rng)
            assert check_partials(p, f, hp).cases_violated == 0
            assert check_means_partials(p, f, hp).cases_violated == 0


def gaussian_bump(width=0.05, n=1024):
    """exp(-(d/width)^2) on n samples, d the distance to the angle 0."""
    t = circle_nodes(n)
    return from_samples(np.exp(-((np.minimum(t, 2 * math.pi - t) / width) ** 2)))


class TestDistortionAtPOne:
    """At p = 1 the distortion constant is the q = inf branch of
    bounds.distortion_constant; a narrow bump is close to extremal."""

    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.5, 0.5)])
    def test_equal_weights_hold(self, pair):
        assert check_distortion(make_params(*pair), gaussian_bump(), HolderPair.from_p(1.0)).passed

    def test_undefined_constant_raises_before_any_kernel_sample(self, monkeypatch):
        # bounds leaves the p = 2 distortion constant undefined at (1, -0.8);
        # the check asks for it before it evaluates a ring of the cold table
        def kernel(params, w):
            raise AssertionError("kernel sampled")

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        with pytest.raises(ParameterError):
            check_distortion(make_params(1.0, -0.8), gaussian_bump(), HolderPair.from_p(2.0))

    @pytest.mark.xfail(
        strict=True,
        reason="the q = inf distortion constant is not symmetric in (alpha, beta) and falls "
        "short of sup |DP| at (0.3, -0.2); max(B(alpha, beta), B(beta, alpha)) covers it",
    )
    def test_standard_pair_holds(self):
        res = check_distortion(make_params(0.3, -0.2), gaussian_bump(), HolderPair.from_p(1.0))
        assert res.cases_violated == 0


class TestRatioLemma:
    def test_zero_weight_ratio_is_one(self):
        res = check_hypergeometric_ratio_lemma(make_params(0.0, 0.7), 4)
        assert res.cases_violated == 0
        const_cases = [d for d in res.details if "const" in d[0]]
        assert const_cases and all(abs(m) < 1e-12 for _, _, m in const_cases)

    def test_strictly_increasing_regime(self):
        res = check_hypergeometric_ratio_lemma(make_params(-0.5, 0.5), 3)
        incr = [d for d in res.details if "Fk/F1 incr" in d[0]]
        assert incr and all(m > 0 for _, _, m in incr)
        assert res.cases_violated == 0

    def test_second_family_increasing_regime(self):
        res = check_hypergeometric_ratio_lemma(make_params(-0.3, -0.6), 2)
        incr = [d for d in res.details if "Ek/F1 incr" in d[0]]
        assert incr and all(m > 0 for _, _, m in incr)

    def test_zero_weight_second_family_directions(self):
        res_up = check_hypergeometric_ratio_lemma(make_params(0.0, -0.4), 3)
        assert res_up.cases_violated == 0
        res_down = check_hypergeometric_ratio_lemma(make_params(0.0, 0.8), 3)
        assert res_down.cases_violated == 0

    @pytest.mark.parametrize("k", [1, 0, -2])
    @pytest.mark.parametrize("pair", [(0.0, 0.0), (0.3, -0.2), (-0.5, 0.5)])
    def test_mode_below_two_raises(self, pair, k):
        # F_1/F_1 = 1 by construction: a k = 1 check could never fail
        with pytest.raises(ParameterError, match=f"k = {k}"):
            check_hypergeometric_ratio_lemma(make_params(*pair), k)

    @pytest.mark.parametrize(
        "pair, factors",
        [((0.3, -0.2), 0), ((0.5, 0.5), 0), ((-0.5, 1.0), 0), ((-0.5, 0.5), 2), ((0.0, 0.0), 3)],
    )
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_sums_only_the_factors_a_claim_reads(self, monkeypatch, pair, factors, k):
        # no claim applies at the first three pairs; at (-0.5, 0.5) only the
        # F claim (F_1 and F_k), at (0, 0) the F and the E claim (and E_k)
        calls = []

        def counted(*args, fn=audit.gauss_2f1):
            calls.append(args)
            return fn(*args)

        monkeypatch.setattr(audit, "gauss_2f1", counted)
        res = check_hypergeometric_ratio_lemma(make_params(*pair), k)
        assert len(calls) == factors * len(audit.RATIO_T_GRID)
        assert (res.cases_total == 0) == (factors == 0)


class TestOscillatoryLemmas:
    def test_constant_at_exponent_one(self):
        res = check_oscillatory_maximum_lemmas(1.0, 2.0, 0.3, 1.0)
        assert res.cases_violated == 0
        const_cases = [m for c, _, m in res.details if c.startswith("L const")]
        assert const_cases and min(const_cases) > -1e-8  # 1e-10 constancy scaled by 1e2

    def test_max_at_zero_above_threshold(self):
        res = check_oscillatory_maximum_lemmas(2.0, 1.0, 0.0, 1.0)
        assert res.cases_violated == 0

    def test_max_at_quarter_turn_below_threshold(self):
        res = check_oscillatory_maximum_lemmas(0.5, 1.0, 0.0, 1.0)
        assert res.cases_violated == 0

    def test_scan_locates_maximizer(self):
        # direct argmax of the shifted moment confirms the orientation
        ys = np.linspace(0.0, math.pi, 25)
        vals2 = [oscillatory_moment(2.0, 1.0, 0.0, 1.0, 0.6, 0.0, y, 2048) for y in ys]
        assert int(np.argmax(vals2)) in (0, 24)  # 0 mod pi
        vals05 = [oscillatory_moment(0.5, 1.0, 0.0, 1.0, 0.6, 0.0, y, 2048) for y in ys]
        assert int(np.argmax(vals05)) == 12  # pi/2

    def test_divergent_reference_is_trivial(self):
        res = check_oscillatory_maximum_lemmas(-0.7, 1.0, 0.0, 1.0)
        assert res.cases_total == 0 and res.notes

    def test_input_guard(self):
        with pytest.raises(ParameterError):
            check_oscillatory_maximum_lemmas(1.0, 1.0, -0.1, 1.0)

    # the lemma suite's six (m, k, offset, amplitude) sets
    SUITE_SETS = [(m, k, a_off, 1.0) for m in (0.5, 1.0, 2.0) for k, a_off in ((1.0, 0.0), (2.0, 0.3))]

    @staticmethod
    def clear_moments():
        for fn in (bnd.plain_moment_closed, _quad.kernel_moment, _quad._moment_rule):
            fn.cache_clear()

    def lemma_suite(self):
        results = run_suite("lemmas", make_params(0.3, -0.2), HolderPair.from_p(math.inf), n_boundaries=1)
        return next(res for res in results if res.name == "oscillatory_maximum")

    def test_suite_builds_each_moment_table_once(self, monkeypatch):
        # key-major: every moment at one (rule, radius) before the next, so
        # the 1,518 table lookups miss once per distinct key: 2 reference
        # keys at r = 1, 128 of D and 124 more of L (L at y = 0 is D at x = 0)
        self.clear_moments()
        rule, keys = _quad._moment_rule, []

        def recorded(*key):
            keys.append(key)
            return rule(*key)

        monkeypatch.setattr(_quad, "_moment_rule", recorded)
        self.lemma_suite()
        info = rule.cache_info()
        assert info.misses == len(set(keys)) == 254
        assert info.hits + info.misses == len(keys) == 1518

    def test_suite_equals_lone_checks_bit_for_bit(self):
        self.clear_moments()
        suite = self.lemma_suite()
        lone = []
        for args in self.SUITE_SETS:
            self.clear_moments()
            lone.append(check_oscillatory_maximum_lemmas(*args))
        merged = merge_results("oscillatory_maximum", lone)
        merged.seed = suite.seed
        assert repr(suite.to_dict()) == repr(merged.to_dict())


class TestIntegralIdentities:
    def test_trivial_exponent(self):
        res = check_integral_identities(2.0, 0.0, r_grid=(0.3,))
        assert res.cases_violated == 0

    def test_geometric_closed_form(self):
        # plain moment at nu = 1, r = 0.5 equals pi / (1 - 0.25)
        from abharmonic._quad import base_minus, circle_integral

        lhs = 0.5 * circle_integral(lambda t: base_minus(0.5, t) ** (-1.0), (), 2048)
        assert lhs == pytest.approx(4.0 * math.pi / 3.0, abs=1e-10)
        res = check_integral_identities(2.0, 1.0, r_grid=(0.5,))
        assert res.cases_violated == 0

    def test_sine_power_case(self):
        res = check_integral_identities(2.0, 0.5, r_grid=(0.3,))
        assert res.cases_violated == 0

    def test_fractional_power(self):
        res = check_integral_identities(0.7, 1.2, r_grid=(0.2, 0.6))
        assert res.cases_violated == 0

    def test_mu_guard(self):
        with pytest.raises(ParameterError):
            check_integral_identities(0.0, 1.0)


class TestKernelMeanAndResidual:
    def test_unweighted(self):
        # data rich enough that fourth derivatives do not vanish
        res = check_kernel_mean_and_residual(P00, from_fourier({2: 1.0, 5: 0.5}))
        assert res.cases_violated == 0
        mod = [d for d in res.details if d[0].startswith("modulus-mean")]
        assert all(abs(m) < 1e-10 for _, _, m in mod)

    def test_low_order_solution_hits_noise_floor(self):
        # the extension of e^{2it} under zero weights is exactly z^2, which
        # the stencil differentiates exactly; the check must not fabricate a
        # convergence rate out of rounding noise
        res = check_kernel_mean_and_residual(P00, from_fourier({2: 1.0}))
        assert res.cases_violated == 0
        assert any("noise-floor" in c for c, _, _ in res.details)

    def test_terminating_mean_value(self):
        p = make_params(1.0, 1.0)
        res = check_kernel_mean_and_residual(p, from_fourier({1: 1.0, 3: 0.7}), r_grid=(0.6,))
        assert res.cases_violated == 0

    def test_residual_orders_near_two(self):
        res = check_kernel_mean_and_residual(PHH, from_fourier({2: 1.0, -1: 0.5}))
        orders = [m for c, _, m in res.details if c.startswith("residual")]
        assert orders and all(m > 0 for m in orders)

    def test_near_pole_means_graded_relative(self):
        # c is about 3e10 next to the beta = -1 pole; the means match their
        # closed forms to about 5e-14 relative, 1e-3 absolute
        params = make_params(3.0, -0.9999999999)
        res = check_kernel_mean_and_residual(params, from_fourier({2: 1.0, -1: 0.5}))
        means = [m for c, _, m in res.details if "-mean" in c]
        assert len(means) == 10 and all(m > -1e-12 for m in means)
        assert res.cases_violated == 0


class TestCoefficientInequalities:
    def test_starlike_equality_for_extremal_coefficients(self):
        kmax = 6
        coeffs = SeriesCoefficients(
            {1: 1.0}
            | {k: (2 * k + 1) * (k + 1) / 6.0 for k in range(2, kmax + 1)}
            | {-k: (2 * k - 1) * (k - 1) / 6.0 for k in range(2, kmax + 1)}
        )
        res = check_coefficient_inequalities(P00, coeffs, {"starlike": True})
        assert res.cases_violated == 0
        assert res.worst_margin == pytest.approx(0.0, abs=1e-10)

    def test_refused_starlike_bounds_are_noted(self):
        # at (2.7, -1.4) the c_{-k} bounds are negative: each is noted, the c_k bounds are graded
        coeffs = SeriesCoefficients({1: 1.0, 2: 0.1, -2: 0.1, 3: 0.1, -3: 0.1})
        res = check_coefficient_inequalities(make_params(2.7, -1.4), coeffs, {"starlike": True})
        assert [case for case, _, _ in res.details] == ["starlike c2", "starlike c3"]
        refused = [f"starlike_cmk bound undefined at k = {k}" for k in (2, 3)]
        assert [note.split(":")[0] for note in res.notes] == refused
        assert res.passed

    def test_identity_map_heinz_margin(self):
        coeffs = SeriesCoefficients({0: 0.0, 1: 1.0, -1: 0.0})
        res = check_coefficient_inequalities(P00, coeffs, {"onto_disk": True})
        assert res.worst_margin == pytest.approx(1.0 - HEINZ_LOWER_BOUND, rel=1e-12)

    def test_random_inside_bounds(self):
        rng = np.random.default_rng(3)
        p = make_params(-0.25, -0.5)
        for _ in range(5):
            coeffs = SeriesCoefficients(
                {1: 1.0}
                | {k: 0.9 * coefficient_bound(p, "starlike_ck", k) * rng.uniform() for k in range(2, 5)}
                | {-k: 0.9 * coefficient_bound(p, "starlike_cmk", k) * rng.uniform() for k in range(2, 5)}
            )
            res = check_coefficient_inequalities(
                p, coeffs, {"starlike": True, "typically_real": False, "in_s0": True}
            )
            assert res.cases_violated == 0


class TestSuites:
    def test_identities_suite_passes(self):
        results = run_suite("identities", P00, HolderPair.from_p(2.0), n_boundaries=2)
        assert results and all(r.cases_violated == 0 for r in results)

    def test_lemmas_suite_passes(self):
        results = run_suite("lemmas", make_params(-0.5, 0.5), HolderPair.from_p(2.0), n_boundaries=1)
        assert results and all(r.cases_violated == 0 for r in results)

    def test_unknown_suite(self):
        with pytest.raises(ParameterError):
            run_suite("bogus", P00, HolderPair.from_p(2.0))

    @pytest.mark.parametrize("n_boundaries", [0, -1])
    @pytest.mark.parametrize("name", ["growth", "lemmas", "identities", "all"])
    def test_suite_without_boundaries_raises(self, name, n_boundaries):
        # a suite without boundaries would pass on zero cases
        with pytest.raises(ParameterError, match="n_boundaries"):
            run_suite(name, P00, HolderPair.from_p(2.0), n_boundaries=n_boundaries, nodes=256)

    @pytest.mark.parametrize("n_boundaries", [0, -1])
    def test_standard_suite_without_boundaries_raises(self, n_boundaries):
        with pytest.raises(ParameterError, match="n_boundaries"):
            standard_suite(n_boundaries=n_boundaries, nodes=256)

    @pytest.mark.parametrize("seed", [-1, -(2**70), 1.0, 2.5, "3", None, True, np.float64(4.0)])
    @pytest.mark.parametrize("suite", ["run_suite", "standard_suite"])
    def test_bad_seed_raises_naming_it(self, suite, seed):
        # None would draw OS entropy: a run nobody could repeat
        call = {
            "run_suite": lambda: run_suite("growth", P00, HolderPair.from_p(2.0), seed=seed, n_boundaries=1, nodes=256),
            "standard_suite": lambda: standard_suite(seed=seed, n_boundaries=1, nodes=256),
        }[suite]
        with pytest.raises(ParameterError, match=f"seed must be an integer >= 0, got {re.escape(repr(seed))}"):
            call()

    @pytest.mark.parametrize("seed", [np.uint32(5), np.int64(5)])
    def test_numpy_integer_seed_is_its_value(self, seed):
        hp = HolderPair.from_p(2.0)
        (got,) = run_suite("growth", P00, hp, seed=seed, n_boundaries=1, nodes=256)
        (want,) = run_suite("growth", P00, hp, seed=5, n_boundaries=1, nodes=256)
        assert type(got.seed) is int and got.seed == 5
        assert got.details == want.details
        assert standard_suite(seed=seed, n_boundaries=1, nodes=256)[0].seed == 5

    def test_standard_suite_grades_at_ring_radii(self, monkeypatch):
        # abs(z) of a Z_GRID point can be one ulp off its ring radius, which
        # would ask for every bound constant at a second radius
        radii = set()
        # where each moment function takes its radius
        where_r = {"plain_moment": 1, "plain_moment_closed": 1, "oscillatory_moment": 4}
        for name, where in where_r.items():

            def recorded(*args, moment=getattr(bnd, name), where=where, **kwargs):
                radii.add(args[where])
                return moment(*args, **kwargs)

            monkeypatch.setattr(bnd, name, recorded)
        results = standard_suite(n_boundaries=8)
        # the distortion constant also reads its endpoint moment at r = 1
        assert radii == set(R_GRID) | {SUP}
        assert {r for res in results for _, r, _ in res.details} == set(R_GRID)

    def test_standard_suite_checks_one_boundary_at_a_time(self, monkeypatch):
        # a boundary keeps its sample grids once checked, so at most the
        # boundary under check may hold grids: each is released after its
        # checks, also when the suite visits the boundaries out of index
        # order (24 boundaries: the last four share the first pair)
        drawn, sampled, order = [], [], []

        def draw(rng, draw=audit.random_boundary):
            f = draw(rng)
            drawn.append(weakref.ref(f))
            return f

        monkeypatch.setattr(audit, "random_boundary", draw)
        for check in BOUNDARY_CHECKS:

            def checked(params, f, hp, nodes, check=check):
                result = check(params, f, hp, nodes=nodes)
                sampled.append(sum(1 for ref in drawn if ref() is not None and ref()._grids))
                order.append(next(i for i, ref in enumerate(drawn) if ref() is f))
                return result

            monkeypatch.setattr(audit, check.__name__, checked)
        standard_suite(n_boundaries=24, nodes=256)
        assert len(drawn) == 24 and max(sampled) == 1
        assert order[::5] == [0, 1, 2, 3, 20, 21, 22, 23, *range(4, 20)]

    def test_standard_suite_kernel_work_per_weight_pair(self, monkeypatch):
        # 20 boundaries visit each standard pair once, four boundaries in a
        # row; the 54 rings of a pair (3 growth, 3 integral-means, 24
        # Cartesian, 12 polar and 12 means-partials rings) have 33 radii,
        # the 24 Cartesian ones and R_GRID and R_GRID +- h, each sampled
        # once on its half circle, at most lcm(256, angles) = 256 samples:
        # the 11 radii near 0.3 take 128 (65 points), the others reach the
        # cap (129 points).  The 15 rings near 0.9 off phase 0 (1 growth,
        # 8 Cartesian, 4 polar, 2 means-partials) are sampled at their own
        # phase, 256 points each, as their row's aliases are above rounding
        points = collections.Counter()
        radii = collections.Counter()
        sampled = collections.Counter()

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            points[params] += np.size(w)
            return fn(params, w)

        def rows(params, group, cap, fn=harmonic._ring_rows):
            radii[params] += len(group)
            return fn(params, group, cap)

        def spectra(params, group, size, fn=harmonic._ring_spectra):
            sampled[params] += len(group)
            return fn(params, group, size)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        monkeypatch.setattr(harmonic, "_ring_rows", rows)
        monkeypatch.setattr(harmonic, "_ring_spectra", spectra)
        standard_suite(n_boundaries=20, nodes=256)
        pairs = [make_params(*pair) for pair in STANDARD_PAIRS]
        assert radii == dict.fromkeys(pairs, 33)
        assert sampled == dict.fromkeys(pairs, 15)
        assert points == dict.fromkeys(pairs, 11 * 65 + 22 * 129 + 15 * 256)

    def test_standard_suite_table_traffic(self, monkeypatch):
        # one kernel table per weight pair and one plan per ring set of a
        # pair (growth, integral-means, Cartesian, polar, means-partials):
        # a 20-boundary batch makes 120 ring calls, 25 of them plan builds,
        # which sample the 33 radii of a pair once each on the half circle
        # (11 x 65 + 11 x 257 + 11 x 513 points), no ring at its own phase;
        # standard_suite() visits its 100 boundaries pair by pair, so it
        # builds the same 25 plans and makes the rest of its 600 calls hits
        points, plans, calls = [], [], []

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            points.append(np.size(w))
            return fn(params, w)

        def plan(*args, cls=harmonic._RingPlan):
            plans.append(args[1:3])
            return cls(*args)

        def circles(u, rings, n_theta, fn=harmonic.PoissonExtension._circles):
            calls.append(n_theta)
            return fn(u, rings, n_theta)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        monkeypatch.setattr(harmonic, "_RingPlan", plan)
        monkeypatch.setattr(harmonic.PoissonExtension, "_circles", circles)
        standard_suite(n_boundaries=20, nodes=1024)
        assert harmonic._kernel_table.cache_info().misses == 5
        assert (len(plans), len(calls) - len(plans)) == (25, 95)
        assert sum(len(rings) for rings, _ in plans) == 5 * 54
        assert sum(points) == 45_925
        harmonic._kernel_table.cache_clear()
        plans.clear()
        calls.clear()
        standard_suite()
        assert harmonic._kernel_table.cache_info().misses == 5
        assert (len(plans), len(calls) - len(plans)) == (25, 575)

    def test_warm_table_margins_equal_cold(self, monkeypatch):
        warm = standard_suite(n_boundaries=8, nodes=256)
        for _, _, check in audit._boundary_checks():

            def cold(*args, check=check, **kwargs):
                harmonic._kernel_table.cache_clear()
                return check(*args, **kwargs)

            monkeypatch.setattr(audit, check.__name__, cold)
        for w, c in zip(warm, standard_suite(n_boundaries=8, nodes=256), strict=True):
            assert w.name == c.name
            assert np.array_equal([m for *_, m in w.details], [m for *_, m in c.details])

    def test_suites_call_the_checks_the_module_holds(self, monkeypatch):
        # a tracer or test wraps a check by replacing it on the module
        names = (
            "check_growth",
            "check_integral_means",
            "check_distortion",
            "check_partials",
            "check_means_partials",
        )
        called = collections.Counter()
        for name in names:

            def counted(*args, check=getattr(audit, name), name=name, **kwargs):
                called[name] += 1
                return check(*args, **kwargs)

            monkeypatch.setattr(audit, name, counted)
        standard_suite(n_boundaries=2, nodes=256)
        assert called == dict.fromkeys(names, 2)
        called.clear()
        run_suite("means", PHH, HolderPair.from_p(2.0), n_boundaries=1, nodes=256)
        # integral_means also checks the constant boundary
        assert called == {"check_integral_means": 2, "check_means_partials": 1}

    def test_residual_orders_from_one_call_per_step(self, monkeypatch):
        steps = []

        def counted(params, u, z, h, fn=audit.operator_residual):
            steps.append((np.shape(z), h))
            return fn(params, u, z, h)

        monkeypatch.setattr(audit, "operator_residual", counted)
        check_kernel_mean_and_residual(PHH, random_boundary(np.random.default_rng(7)))
        assert steps == [((4,), h) for h in audit.RESIDUAL_STEPS]

    @pytest.mark.parametrize(
        "check, constant, calls",
        [
            (check_growth, "growth_constant", 3),
            (check_distortion, "distortion_constant", 3),
            (check_partials, "partial_constant", 9),  # three kinds on each ring
            (check_means_partials, "means_constant", 9),
        ],
    )
    def test_constants_asked_once_per_ring(self, monkeypatch, check, constant, calls):
        asked = []

        def counted(*args, fn=getattr(bnd, constant), **kwargs):
            asked.append(args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(bnd, constant, counted)
        f = random_boundary(np.random.default_rng(2))
        check(PHH, f, HolderPair.from_p(2.0), nodes=256)
        assert len(asked) == calls

    def test_merge(self):
        rng = np.random.default_rng(1)
        hp = HolderPair.from_p(2.0)
        parts = [check_growth(P00, random_boundary(rng), hp) for _ in range(2)]
        merged = merge_results("growth", parts)
        assert merged.cases_total == sum(p.cases_total for p in parts)
        assert merged.details == parts[0].details + parts[1].details

    def test_result_serialization(self):
        res = check_growth(P00, from_fourier({0: 1.0}), HolderPair.from_p(2.0))
        doc = res.to_dict()
        assert doc["passed"] is True
        assert doc["cases_total"] == res.cases_total
        assert "applicable" not in doc

    def test_zero_case_result_is_not_applicable(self):
        # no case is no pass: null, not true, though it counts no violation
        res = audit._collect("lemma", [], 1e-12, notes=["no regime"])
        assert res.passed is None
        doc = res.to_dict()
        assert doc["passed"] is None and doc["applicable"] is False
        assert list(doc)[:7] == [
            "name", "cases_total", "cases_violated", "worst_margin", "tolerance", "passed", "applicable",
        ]
        assert res.cases_violated == 0

    def test_merge_keeps_each_note_once(self):
        parts = [
            audit._collect("x", [], 1e-8, notes=["a", "b"]),
            audit._collect("x", [("c", 0.5, 0.1)], 1e-8, notes=["b", "c", "a"]),
            audit._collect("x", [], 1e-8, notes=["b"]),
        ]
        merged = merge_results("x", parts)
        assert merged.notes == ["a", "b", "c"] and merged.cases_total == 1


TOL = 1e-8
# margins at the edges of the grading rule, and ordinary ones
MARGINS = st.lists(
    st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, TOL, -TOL]), st.floats(-1.0, 1.0)),
    max_size=12,
)


def _result(name, margins, start=0):
    # one case per margin; every other case has no radius
    cases = range(start, start + len(margins))
    return AuditResult(name, [f"c{i}" for i in cases], [None if i % 2 else 0.1 * i for i in cases], margins, TOL)


def _same(a, b):
    return a == b or math.isnan(a) and math.isnan(b)


class TestResultModel:
    @given(MARGINS)
    @settings(max_examples=300, deadline=None)
    def test_counts_and_verdict_are_read_from_the_margins(self, margins):
        # the rule in plain Python: violated below -TOL or not finite; a NaN is the worst margin
        violated = sum(1 for m in margins if not (math.isfinite(m) and m >= -TOL))
        worst = math.nan if any(map(math.isnan, margins)) else min(margins, default=0.0)
        res = _result("x", margins)
        assert res.cases_total == len(margins)
        assert res.cases_violated == violated
        assert _same(res.worst_margin, worst)
        assert res.passed is (None if not margins else violated == 0)

    @given(MARGINS, st.lists(st.integers(0, 12), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_merge_of_any_split_is_the_result_of_the_whole(self, margins, cuts):
        edges = [0, *sorted(min(c, len(margins)) for c in cuts), len(margins)]
        parts = [_result(f"p{i}", margins[a:b], a) for i, (a, b) in enumerate(zip(edges, edges[1:]))]
        merged, whole = merge_results("x", parts), _result("x", margins)
        assert merged.ids == whole.ids and merged.radii == whole.radii
        assert merged.margins.tobytes() == whole.margins.tobytes()
        assert (merged.cases_total, merged.cases_violated, merged.passed) == (
            whole.cases_total,
            whole.cases_violated,
            whole.passed,
        )
        assert _same(merged.worst_margin, whole.worst_margin)

    def test_margins_are_read_in_c_order(self):
        res = AuditResult("x", "abcd", [None] * 4, np.array([[1.0, 2.0], [3.0, 4.0]]), TOL)
        assert res.details == [("a", None, 1.0), ("b", None, 2.0), ("c", None, 3.0), ("d", None, 4.0)]

    @pytest.mark.parametrize(
        "ids, radii, margins", [("ab", [None], [0.0]), ("a", [None], [0.0, 1.0]), ("a", [], [0.0])]
    )
    def test_columns_of_different_lengths_raise(self, ids, radii, margins):
        with pytest.raises(ValueError):
            AuditResult("x", ids, radii, margins, TOL)

    def test_parts_at_different_tolerances_raise(self):
        parts = [AuditResult("x", ["c"], [None], [0.0], tol) for tol in (audit.VALUE_TOL, audit.DERIVATIVE_TOL)]
        with pytest.raises(ValueError):
            merge_results("x", parts)

    @pytest.mark.parametrize("name", ["cases_total", "cases_violated", "worst_margin", "details", "passed"])
    def test_counts_cannot_be_assigned(self, name):
        res = AuditResult("x", ["c"], [None], [-1.0], TOL)
        with pytest.raises(AttributeError):
            setattr(res, name, 0)
        assert res.cases_total == res.cases_violated == 1


class TestNonFiniteMargins:
    # a difference quotient of an infinite complex value is NaN, with a warning
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("check", BOUNDARY_CHECKS)
    def test_non_finite_ring_value_never_passes(self, monkeypatch, check, bad):
        # one non-finite value on the first ring of every ring call
        def circles(u, rings, n_theta, fn=harmonic.PoissonExtension._circles):
            vals = fn(u, rings, n_theta)
            vals[0, 0] = bad
            return vals

        monkeypatch.setattr(harmonic.PoissonExtension, "_circles", circles)
        res = check(PHH, random_boundary(np.random.default_rng(3)), HolderPair.from_p(2.0), nodes=256)
        assert res.cases_violated >= 1 and not res.passed
        assert math.isnan(res.worst_margin) or res.worst_margin == -math.inf
        assert sum(1 for *_, m in res.details if not math.isfinite(m)) == res.cases_violated

    def test_nan_boundary_never_passes(self):
        res = check_growth(P00, from_fourier({0: complex(math.nan)}), HolderPair.from_p(2.0))
        assert res.cases_violated == res.cases_total > 0
        assert not res.passed and math.isnan(res.worst_margin)

    @pytest.mark.parametrize(
        "margins, violated, worst",
        [([math.nan, -1.0], 2, math.nan), ([-1.0, math.nan], 2, math.nan), ([math.inf, 0.5], 1, 0.5)],
    )
    def test_collect_counts_non_finite(self, margins, violated, worst):
        from abharmonic.audit import _collect

        res = _collect("x", [(f"c{i}", None, m) for i, m in enumerate(margins)], 1e-8)
        assert res.cases_violated == violated
        assert res.worst_margin == pytest.approx(worst, nan_ok=True)

    def test_merged_nan_extra_is_kept(self):
        parts = [
            AuditResult("a", ["c"], [None], [0.0], 1e-8, extras={"sharpness_gap": gap}) for gap in (1e-3, math.nan)
        ]
        for order in (parts, parts[::-1]):
            assert math.isnan(merge_results("m", order).extras["sharpness_gap"])

    def test_merged_worst_margin_is_order_free(self):
        parts = [AuditResult("a", ["c"], [None], [math.nan], 1e-8), AuditResult("b", ["c"], [None], [-1.0], 1e-8)]
        for order in (parts, parts[::-1]):
            merged = merge_results("m", order)
            assert math.isnan(merged.worst_margin) and merged.cases_violated == 2


def _ref_p_mean(vals, p):
    # p_mean's formula with np.mean, for samples of moderate size
    a = np.abs(vals)
    return float(a.max()) if math.isinf(p) else float(np.mean(a**p) ** (1.0 / p))


def _ref_normalized(margin, bound):
    return margin / max(1.0, abs(bound))


def _reference_margins(params, f, hp, nodes):
    """The margins of the five boundary checks, case by case with scalar
    arithmetic, from the rings the checks evaluate, as {result name:
    [(case, r, margin), ...]}."""
    norm = lp_norm(f, hp.p)
    u = harmonic.poisson_extension(params, f, nodes)
    out = {}

    uvals = u._circles([(r, audit.GROWTH_PHASE) for r in R_GRID], 8)
    rec = []
    for k, (r, row) in enumerate(zip(R_GRID, uvals)):
        bound = bnd.growth_constant(params, hp, r) * (1.0 - r * r) ** (-1.0 / hp.p) * norm
        rec += [(f"z{i}", r, bound - abs(uv)) for i, uv in enumerate(row, len(row) * k)]
    out["growth"] = rec

    rec = []
    for r, ring in zip(R_GRID, u._circles([(r, 0.0) for r in R_GRID], nodes)):
        rec.append((f"r={r}", r, bnd.mp_growth_factor(params, r) * norm - _ref_p_mean(ring, hp.p)))
    out["integral_means"] = rec

    # the Cartesian stencil point z_j + h i^k is value k of the ring through z_{j-2k} + h
    vals = u._circles(audit._CARTESIAN_RINGS, 4).reshape(len(R_GRID), 8, 4)
    up, vp, um, vm = (np.roll(vals[..., k], 2 * k, axis=1) for k in range(4))
    wirtinger = harmonic._wirtinger_pair(up, um, vp, vm, audit.DEFAULT_STEP)
    uz, uzb = wirtinger
    rec = []
    for k, r in enumerate(R_GRID):
        coef = bnd.distortion_constant(params, hp, r, audit.CONSTANT_NODES)
        bound = coef * (1.0 - r * r) ** (-1.0 - 1.0 / hp.p) * norm
        for i in range(8):
            jn = abs(uz[k, i]) + abs(uzb[k, i])
            rec.append((f"z{8 * k + i}", r, _ref_normalized(bound - jn, bound)))
    out["distortion"] = rec

    rows = (*audit._polar(u, audit._POLAR_RINGS, 8), *wirtinger)
    rec = []
    for k, r in enumerate(R_GRID):
        blow = (1.0 - r * r) ** (-1.0 - 1.0 / hp.p) * norm
        bound = {w: bnd.partial_constant(params, hp, w, r, audit.CONSTANT_NODES) * blow for w in bnd.KINDS}
        for i in range(8):
            for which, row in zip(audit.PARTIAL_KINDS, rows):
                margin = _ref_normalized(bound[which] - abs(row[k, i]), bound[which])
                rec.append((f"z{8 * k + i}:{which}", r, margin))
    out["partials"] = rec

    n, h = audit.MEANS_THETAS, audit.DEFAULT_STEP
    eminus = np.exp(-1j * circle_nodes(n))
    stencils = [ring for r in R_GRID for ring in ((r + h, 0.0), (r - h, 0.0), (r, h), (r, -h))]
    rec = []
    for r, (rp, rm, tp, tm) in zip(R_GRID, u._circles(stencils, n).reshape(len(R_GRID), 4, n)):
        ur = (rp - rm) / (2.0 * h)
        ut = (tp - tm) / (2.0 * h)
        uz = 0.5 * eminus * (ur - 1j * ut / r)
        uzb = 0.5 * np.conj(eminus) * (ur + 1j * ut / r)
        blow = norm / (1.0 - r * r)
        bound = {w: bnd.means_constant(params, w, r, audit.CONSTANT_NODES) * blow for w in bnd.KINDS}
        for which, vals in zip(audit.PARTIAL_KINDS, (ur, ut, uz, uzb)):
            margin = _ref_normalized(bound[which] - _ref_p_mean(vals, hp.p), bound[which])
            rec.append((f"r={r}:{which}", r, margin))
    out["means_partials"] = rec
    return out


def _bits(records):
    return [(case, r, float(m).hex()) for case, r, m in records]


class TestArrayGrading:
    @pytest.mark.parametrize("p", audit.STANDARD_EXPONENTS)
    @pytest.mark.parametrize("pair", STANDARD_PAIRS)
    def test_margins_equal_the_case_by_case_formulas(self, pair, p):
        # four seeded boundaries, and the constant one, whose integral-means
        # gap is reported at equal weights
        params, hp = make_params(*pair), HolderPair.from_p(p)
        rng = np.random.default_rng([STANDARD_PAIRS.index(pair), audit.STANDARD_EXPONENTS.index(p)])
        for f in [random_boundary(rng) for _ in range(4)] + [from_fourier({0: 1.0})]:
            ref = _reference_margins(params, f, hp, audit.AUDIT_NODES)
            for check in BOUNDARY_CHECKS:
                res = check(params, f, hp)
                assert _bits(res.details) == _bits(ref[res.name])
                assert res.cases_total == len(ref[res.name])
                assert res.worst_margin == min(m for *_, m in ref[res.name])
                assert res.cases_violated == 0
            gap = check_integral_means(params, f, hp).extras.get("sharpness_gap")
            if f.is_constant and params.alpha == params.beta:
                assert gap == max(abs(m) for *_, m in ref["integral_means"])
            else:
                assert gap is None

    def test_random_boundary_draws_one_uniform_pair_per_mode(self):
        # one draw of all 34 uniforms is the stream of 34 scalar draws
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        f = random_boundary(rng)
        for k in range(-8, 9):
            w = math.sqrt(ref_rng.uniform(0.0, 1.0)) * np.exp(2j * math.pi * ref_rng.uniform(0.0, 1.0))
            assert f.fourier[k] == w / (1.0 + abs(k))
        assert rng.uniform() == ref_rng.uniform()


# seeds of one to five 32-bit words, at and across the word boundaries
STREAM_SEEDS = [0, 1, 4, audit.DEFAULT_SEED, 2**32 - 1, 2**32, 2**64, 2**100 + 7, 10**40]


class TestSeededStream:
    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_draws_equal_numpys(self, seed):
        ours, ref = audit._Uniforms(seed), np.random.default_rng(seed)
        for size in (None, 1, 34, None, 257, None):
            got, want = ours.uniform(size=size), ref.uniform(size=size)
            if size is None:
                assert type(got) is float and got == want
            else:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_random_boundary_equal_on_both_generators(self, seed):
        ours, ref = audit._Uniforms(seed), np.random.default_rng(seed)
        for _ in range(3):
            got, want = random_boundary(ours), random_boundary(ref)
            assert got.fourier == want.fourier

    def test_no_suite_imports_numpy_random(self):
        # a fresh interpreter: pytest or Hypothesis may have imported it here
        code = (
            "import os, sys\n"
            "from abharmonic import audit, cli\n"
            "audit.standard_suite(n_boundaries=2, nodes=256)\n"
            "cli.main(['audit', '--suite', 'all', '--nodes', '256', '--out', os.devnull])\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
