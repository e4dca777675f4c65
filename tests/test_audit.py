import collections
import math
import weakref

import numpy as np
import pytest

import abharmonic.audit as audit
import abharmonic.bounds as bnd
import abharmonic.harmonic as harmonic
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
from abharmonic.boundary import from_fourier, from_samples
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
        "check, orbits, kernel_rows",
        [
            (check_growth, [((3,), 8)], 3),
            (check_distortion, [((3, 8), 4)], 24),
            (check_partials, [((3, 4), 8), ((3, 8), 4)], 12 + 24),
        ],
    )
    def test_one_orbit_evaluation_per_stencil(self, monkeypatch, check, orbits, kernel_rows):
        # each row stencil is one orbit_values call on its point set; the
        # kernel rows of a point set are evaluated once per (params, nodes),
        # whatever the boundary
        nodes = 256
        calls, rows = [], []

        def orbit(u, z, m, fn=harmonic.PoissonExtension.orbit_values):
            calls.append((np.shape(z), m))
            return fn(u, z, m)

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            assert np.shape(w)[-1] == nodes
            rows.append(np.size(w) // nodes)
            return fn(params, w)

        monkeypatch.setattr(harmonic.PoissonExtension, "orbit_values", orbit)
        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        rng = np.random.default_rng(6)
        for params in (PHH, PHH, P00):
            check(params, random_boundary(rng), HolderPair.from_p(2.0), nodes=nodes)
        assert calls == 3 * orbits
        assert sum(rows) == 2 * kernel_rows

    def test_distortion_and_partials_share_one_point_set(self, monkeypatch):
        # the Cartesian rows check_distortion evaluated serve check_partials,
        # which then adds only the 12 polar rows
        rows = []

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            rows.append(np.size(w) // 256)
            return fn(params, w)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        f, hp = random_boundary(np.random.default_rng(6)), HolderPair.from_p(2.0)
        check_distortion(PHH, f, hp, nodes=256)
        check_partials(PHH, f, hp, nodes=256)
        assert sum(rows) == 24 + 12

    @pytest.mark.parametrize("nodes", [256, 1024])
    @pytest.mark.parametrize("pair", [*STANDARD_PAIRS, (2.7, -1.4)])
    def test_row_stencils_match_the_point_stencils(self, pair, nodes):
        # the turned stencil points are ulps off the stored ones, and a
        # difference quotient divides that by h
        f = random_boundary(np.random.default_rng(6))
        u = harmonic.poisson_extension(make_params(*pair), f, nodes)
        rows = (*audit._row_wirtinger(u), *audit._row_polar(u))
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
        vals2 = [oscillatory_moment(2.0, 1.0, 0.0, 1.0, 0.6, y=y, nodes=2048) for y in ys]
        assert int(np.argmax(vals2)) in (0, 24)  # 0 mod pi
        vals05 = [oscillatory_moment(0.5, 1.0, 0.0, 1.0, 0.6, y=y, nodes=2048) for y in ys]
        assert int(np.argmax(vals05)) == 12  # pi/2

    def test_divergent_reference_is_trivial(self):
        res = check_oscillatory_maximum_lemmas(-0.7, 1.0, 0.0, 1.0)
        assert res.cases_total == 0 and res.notes

    def test_input_guard(self):
        with pytest.raises(ParameterError):
            check_oscillatory_maximum_lemmas(1.0, 1.0, -0.1, 1.0)


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
        # a boundary keeps its sample grids, so drawing every boundary
        # first would keep every boundary's grids alive
        drawn, alive = [], []

        def draw(rng, draw=audit.random_boundary):
            alive.append(sum(ref() is not None for ref in drawn))
            f = draw(rng)
            drawn.append(weakref.ref(f))
            return f

        monkeypatch.setattr(audit, "random_boundary", draw)
        standard_suite(n_boundaries=4)
        # the previous boundary is still bound while the next is drawn
        assert alive == [0, 1, 1, 1]

    def test_standard_suite_kernel_work_per_weight_pair(self, monkeypatch):
        # 20 boundaries visit each standard pair once, four boundaries in a
        # row; a pair costs 39 orbit rows of 256 kernel points (growth 3,
        # Cartesian 24, polar 12) and 15 ring coefficient vectors (3
        # integral-means and 12 means-partials rings) of at most
        # lcm(256, 256) = 256 samples: the five rings at r = 0.3 (+- h)
        # take 128, the others reach the cap
        points = collections.Counter()
        rings = collections.Counter()

        def kernel(params, w, fn=harmonic.unnormalized_kernel):
            points[params] += np.size(w)
            return fn(params, w)

        def ring(params, r, phase, size, fn=harmonic._ring_spectrum):
            rings[params] += 1
            return fn(params, r, phase, size)

        monkeypatch.setattr(harmonic, "unnormalized_kernel", kernel)
        monkeypatch.setattr(harmonic, "_ring_spectrum", ring)
        standard_suite(n_boundaries=20, nodes=256)
        pairs = [make_params(*pair) for pair in STANDARD_PAIRS]
        assert rings == dict.fromkeys(pairs, 15)
        assert points == dict.fromkeys(pairs, 39 * 256 + 5 * 128 + 10 * 256)

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


class TestNonFiniteMargins:
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
            AuditResult("a", 1, 0, 0.0, 1e-8, extras={"sharpness_gap": gap}) for gap in (1e-3, math.nan)
        ]
        for order in (parts, parts[::-1]):
            assert math.isnan(merge_results("m", order).extras["sharpness_gap"])

    def test_merged_worst_margin_is_order_free(self):
        parts = [AuditResult("a", 1, 1, math.nan, 1e-8), AuditResult("b", 1, 1, -1.0, 1e-8)]
        for order in (parts, parts[::-1]):
            merged = merge_results("m", order)
            assert math.isnan(merged.worst_margin) and merged.cases_violated == 2
