import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abharmonic.bounds as bnd
from abharmonic import _quad
from abharmonic._quad import DEFAULT_NODES, base_plus, circle_integral, circle_nodes, kernel_moment
from abharmonic.bounds import (
    HEINZ_LOWER_BOUND,
    SUP,
    BoundReport,
    HolderPair,
    coefficient_bound,
    distortion_constant,
    distortion_up,
    distortion_up_quadrature,
    full_report,
    geometric_constants,
    growth_constant,
    growth_constant_quadrature,
    growth_sup_grid,
    growth_sup_reference,
    heinz_functional,
    means_constant,
    mp_growth_factor,
    mp_growth_factor_quadrature,
    oscillatory_moment,
    partial_angular_diagonal_closed,
    partial_constant,
    rado_radius_bound,
)
from abharmonic.errors import ConvergenceError, DomainError, ParameterError
from abharmonic.kernel import make_params
from abharmonic.specfun import gamma

P00 = make_params(0.0, 0.0)
PAIRS = [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2)]

TWO_PI_SQRT3_9 = 1.2091995761561452337
TWO_PI_SQRT6_9 = 1.7100664402158187941
FOUR_OVER_PI = 1.2732395447351626862


def _clear_moment_caches():
    for fn in (bnd.plain_moment_closed, kernel_moment):
        fn.cache_clear()


def _count_integrations(monkeypatch) -> dict:
    """Counts of the plain and oscillatory moments integrated from here on,
    starting from empty moment caches."""
    _clear_moment_caches()
    counts = {"plain": 0, "oscillatory": 0}
    engine = _quad._kernel_moment

    def counted(m, k, off, amp, r, x, y, breaks, nodes):
        counts["plain" if k == 0 else "oscillatory"] += 1
        return engine(m, k, off, amp, r, x, y, breaks, nodes)

    monkeypatch.setattr(_quad, "_kernel_moment", counted)
    return counts


class TestHolderPair:
    def test_conjugacy(self):
        hp = HolderPair.from_p(4.0)
        assert 1.0 / hp.p + 1.0 / hp.q == pytest.approx(1.0, rel=1e-15)

    def test_limits(self):
        assert HolderPair.from_p(1.0).q == math.inf
        assert HolderPair.from_p(math.inf).q == 1.0
        assert HolderPair.from_p(2.0).q == 2.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            HolderPair.from_p(0.7)


class TestHeinz:
    def test_constant_value(self):
        assert HEINZ_LOWER_BOUND == pytest.approx(0.68391798958577995725, rel=1e-15)

    def test_unweighted_identity_map(self):
        assert heinz_functional(P00, 0.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_equal_weight_reduction(self):
        # matches the real-kernel form written with halved weights
        a = 0.35
        p = make_params(a, a)
        c0, c1, cm1 = 0.2, 1.0, 0.3j
        val = heinz_functional(p, c0, c1, cm1)
        half = a  # their half-weight equals our common weight
        scale = (gamma(2 * half + 1) / gamma(half + 1) ** 2) ** 2
        direct = scale * (
            abs(c1) ** 2 / (half + 1) ** 2
            + 3 * math.sqrt(3) / math.pi * abs(c0) ** 2
            + abs(cm1) ** 2 / (half + 1) ** 2
        )
        assert val == pytest.approx(direct, rel=1e-13)


class TestCoefficientBounds:
    def test_starlike_k2_unweighted(self):
        assert coefficient_bound(P00, "starlike_ck", 2) == pytest.approx(2.5, rel=1e-13)

    def test_starlike_cmk_unweighted(self):
        # (2k-1)(k-1)/6 at k = 3
        assert coefficient_bound(P00, "starlike_cmk", 3) == pytest.approx(10.0 / 6.0, rel=1e-13)

    @pytest.mark.parametrize(
        "pair, refused",
        [
            ((2.7, -1.4), ["starlike_cmk"]),
            ((-1.4, 2.7), ["starlike_cmk"]),
            ((-2.5, 2.0), ["starlike_ck", "starlike_cmk"]),
        ],
    )
    def test_starlike_bound_that_is_not_positive_is_refused(self, pair, refused):
        # (1 + beta)_k / (1 + alpha) is negative here, and (2 + alpha)_{k-1} at alpha < -2
        p = make_params(*pair)
        for kind in ("starlike_ck", "starlike_cmk"):
            for k in (2, 3, 5):
                if kind in refused:
                    with pytest.raises(ParameterError, match=rf"{kind} bound undefined at k = {k}: its factor \("):
                        coefficient_bound(p, kind, k)
                else:
                    assert coefficient_bound(p, kind, k) > 0.0
        # the report leaves the refused entries out
        names = {e.name for e in full_report(p, HolderPair.from_p(1.5)).entries}
        entries = {"starlike_ck": "starlike_c2", "starlike_cmk": "starlike_cm2"}
        assert {name for kind, name in entries.items() if name not in names} == {entries[k] for k in refused}

    def test_c_minus2_limit(self):
        assert coefficient_bound(P00, "c_minus2") == pytest.approx(0.5, rel=1e-14)

    def test_c_minus2_interior(self):
        p = make_params(-0.25, -0.5)
        assert coefficient_bound(p, "c_minus2") == pytest.approx(0.25, rel=1e-13)

    def test_c2(self):
        p = make_params(-0.25, -0.5)
        assert coefficient_bound(p, "c2") == pytest.approx(20.9197 * 0.875, rel=1e-13)

    def test_regime_guard(self):
        with pytest.raises(ParameterError):
            coefficient_bound(make_params(0.5, 0.2), "c_minus2")

    def test_typically_real(self):
        val = coefficient_bound(P00, "typically_real", 3, extra=0.25)
        assert val == pytest.approx(abs(1.0 - 0.25) / gamma(3.0), rel=1e-13)

    def test_conjecture_closed_form_in_monotone_regime(self):
        p = make_params(-0.25, -0.5)
        k = 3
        closed = (2 * k + 1) * (k + 1) / 6.0 * gamma(k + 1 + p.alpha) / (
            math.factorial(k) * gamma(2 + p.alpha)
        )
        assert coefficient_bound(p, "conjecture_ck", k) == pytest.approx(closed, rel=1e-12)
        closed_m = (2 * k - 1) * (k - 1) / 6.0 * gamma(k + 1 + p.beta) / (
            (1 + p.alpha) * math.factorial(k) * gamma(1 + p.beta)
        )
        assert coefficient_bound(p, "conjecture_cmk", k) == pytest.approx(closed_m, rel=1e-12)

    def test_conjecture_grid_infimum_outside_regime(self):
        # positive weights: grid infimum, sanity-checked against a dense scan
        from abharmonic.specfun import gauss_2f1

        p = make_params(0.4, 0.2)
        k = 2
        val = coefficient_bound(p, "conjecture_ck", k)
        lead = (2 * k + 1) * (k + 1) / 6.0
        scan = min(
            gauss_2f1((-p.alpha, 1 - p.beta, 2.0), x) / gauss_2f1((-p.alpha, k - p.beta, k + 1.0), x)
            for x in np.linspace(1e-3, 0.999, 400)
        )
        assert val <= lead * scan + 1e-9

    @staticmethod
    def first_nonpositive(hyp):
        # the first x of _ratio_infimum's grid where F(hyp; x) <= 0
        from abharmonic.specfun import gauss_2f1

        xs = np.concatenate(
            [np.linspace(1e-4, 0.98, bnd.SUP_GRID_SIZE - 128), 1.0 - np.logspace(-1.7, -6, 128)]
        )
        return next(x for x in xs if not gauss_2f1(hyp, x) > 0.0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("kind", ["conjecture_ck", "conjecture_cmk"])
    def test_conjecture_refused_where_a_factor_changes_sign(self, kind, k):
        # at (2.7, -1.4) F(mode 1; x) is <= 0 from x of about 0.594 on, so
        # the ratio's grid minimum (-201.7 for conjecture_ck at k = 2) is no
        # bound: the numerator and its first such x are named instead
        from abharmonic.kernel import _mode_hyp

        params = make_params(2.7, -1.4)
        x = self.first_nonpositive(_mode_hyp(params, 1))
        assert 0.59 < x < 0.6
        with pytest.raises(ParameterError, match=rf"numerator F\(-2.7, 2.4; 2; x\) .* x = {x:.6g}$"):
            coefficient_bound(params, kind, k)

    def test_ratio_infimum_names_a_denominator_that_changes_sign(self):
        from abharmonic.kernel import _mode_hyp

        num, den = _mode_hyp(P00, 1), _mode_hyp(make_params(2.7, -1.4), 2)
        x = self.first_nonpositive(den)
        assert 0.6 < x < 0.7
        with pytest.raises(ParameterError, match=rf"denominator F\(-2.7, 3.4; 3; x\) .* x = {x:.6g}$"):
            bnd._ratio_infimum(num, den)

    # 1 + alpha + beta is an integer here, so gauss_2f1 falls back to the
    # direct series, which does not converge on the grid's x ~ 0.999
    @pytest.mark.xfail(
        raises=ConvergenceError, strict=True, reason="no connection formula for integer c - a - b"
    )
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("kind", ["conjecture_ck", "conjecture_cmk"])
    @pytest.mark.parametrize("pair", [(0.5, 0.5), (0.25, 0.75), (1.5, -0.5)])
    def test_conjecture_at_integer_weight_sum(self, pair, kind, k):
        assert math.isfinite(coefficient_bound(make_params(*pair), kind, k))

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            coefficient_bound(P00, "bogus")


class TestGeometricConstants:
    def test_unweighted_values(self):
        rep = geometric_constants(P00)
        assert rep.get("omit_radius_full_class").value == pytest.approx(TWO_PI_SQRT6_9, rel=1e-12)
        assert rep.get("omit_radius_normalized_class").value == pytest.approx(
            TWO_PI_SQRT3_9, rel=1e-12
        )
        assert rep.get("covering_radius").value == pytest.approx(1.0 / 16.0, rel=1e-13)
        assert rep.get("area_lower_bound").value == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_single_weight_area_scaling(self):
        # area factor becomes pi / (2 (1 + alpha)) under (0, alpha)
        a = 0.7
        rep = geometric_constants(make_params(0.0, a))
        factor = gamma(1 + a) / abs(gamma(2.0) * gamma(1 + a))
        assert rep.get("area_lower_bound").value == pytest.approx(math.pi / 2.0 * factor)
        rep2 = geometric_constants(make_params(a, 0.0))
        assert rep2.get("area_lower_bound").value == pytest.approx(
            math.pi / (2.0 * (1.0 + a)), rel=1e-13
        )


class TestRado:
    def test_unweighted_unit(self):
        assert rado_radius_bound(P00, 1.0, 0.0) == pytest.approx(TWO_PI_SQRT3_9, rel=1e-12)

    def test_zero(self):
        assert rado_radius_bound(P00, 0.0, 0.0) == 0.0

    @given(st.floats(0.1, 4.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, s):
        base = rado_radius_bound(P00, 1.0, 0.5j)
        assert rado_radius_bound(P00, s, 0.5j * s) == pytest.approx(s * base, rel=1e-12)


# weight pairs with alpha in (-2, -1), a negative beta, and both positive
GAMMA_PAIRS = [(-1.37, 0.62), (-1.5, 0.7), (0.3, -0.2), (2.5, -0.6), (-0.4, -0.35), (1.7, 2.2)]


def _mp_gamma_quotient(num, den):
    """prod Gamma(num) / prod Gamma(den) in 50-digit arithmetic, as a float."""
    out = mp.mpf(1)
    for x in num:
        out *= mp.gamma(mp.mpf(x))
    for x in den:
        out /= mp.gamma(mp.mpf(x))
    return out


class TestGammaQuotientsAgainstMpmath:
    """The bound constants' Gamma quotients, formed through pochhammer_ratio
    and the normalizing constant, against the quotients written with Gamma."""

    @pytest.mark.parametrize("pair", GAMMA_PAIRS)
    def test_coefficient_bounds(self, pair):
        p = make_params(*pair)
        a, b = (mp.mpf(w) for w in pair)
        cm1 = 0.3 - 0.2j
        # from k = 170 the rising factorials and k! overflow apart; their quotients do not
        for k in range(2, 201):
            ck = (2 * k + 1) * (k + 1) * _mp_gamma_quotient([k + 1 + a], [2 + a]) / (6 * mp.factorial(k))
            cmk = (2 * k - 1) * (k - 1) * _mp_gamma_quotient([k + 1 + b], [1 + b]) / (
                6 * (1 + a) * mp.factorial(k)
            )
            typ = abs(1 / (1 + a) - mp.mpc(cm1) / (1 + b)) / mp.gamma(k)
            for kind, want in (("starlike_ck", ck), ("starlike_cmk", cmk)):
                if want > 0:
                    assert coefficient_bound(p, kind, k) == pytest.approx(float(want), rel=1e-13)
                else:  # at 1 + alpha < 0: a bound that is not positive is refused
                    with pytest.raises(ParameterError, match=kind):
                        coefficient_bound(p, kind, k)
            # 1/(k-1)! leaves the normal floats after k = 171 and underflows
            tol = 0.0 if k <= 171 else 1e-307
            assert coefficient_bound(p, "typically_real", k, cm1) == pytest.approx(float(typ), rel=1e-13, abs=tol)

    @pytest.mark.parametrize("pair", GAMMA_PAIRS)
    def test_geometric_rado_and_heinz(self, pair):
        p = make_params(*pair)
        a, b = (mp.mpf(w) for w in pair)
        fac = abs(_mp_gamma_quotient([1 + a + b], [2 + a, 1 + b]))
        rep = geometric_constants(p)
        expected = {
            "omit_radius_full_class": 2 * mp.pi * mp.sqrt(6) / 9 * fac,
            "omit_radius_normalized_class": 2 * mp.pi * mp.sqrt(3) / 9 * fac,
            "covering_radius": fac / 16,
            "area_lower_bound": mp.pi / 2 * fac,
        }
        for name, value in expected.items():
            assert rep.get(name).value == pytest.approx(float(value), rel=1e-13)

        c0, c1, cm1 = 0.2 - 0.1j, 1.0 + 0.5j, -0.3 + 0.4j
        t1 = abs(c1) * fac
        t2 = abs(cm1) * abs(_mp_gamma_quotient([1 + a + b], [1 + a, 2 + b]))
        rado = mp.sqrt((t1**2 + t2**2) / (mp.mpf(27) / (4 * mp.pi**2)))
        assert rado_radius_bound(p, c1, cm1) == pytest.approx(float(rado), rel=1e-13)

        scale = _mp_gamma_quotient([1 + a + b], [1 + a, 1 + b]) ** 2
        heinz = scale * (
            abs(c1) ** 2 / (1 + a) ** 2 + 3 * mp.sqrt(3) / mp.pi * abs(c0) ** 2 + abs(cm1) ** 2 / (1 + b) ** 2
        )
        assert heinz_functional(p, c0, c1, cm1) == pytest.approx(float(heinz), rel=1e-13)


class TestGrowth:
    def test_unweighted_sup_norm_case(self):
        hp = HolderPair.from_p(math.inf)
        for r in (0.1, 0.5, 0.9):
            assert growth_constant(P00, hp, r) == pytest.approx(1.0, rel=1e-14)
            assert growth_constant_quadrature(P00, hp, r) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("p", [2.0, 4.0, math.inf])
    def test_closed_form_matches_defining_integral(self, pair, p):
        params = make_params(*pair)
        hp = HolderPair.from_p(p)
        for r in (0.2, 0.6, 0.9):
            closed = growth_constant(params, hp, r)
            quad = growth_constant_quadrature(params, hp, r)
            assert closed == pytest.approx(quad, abs=1e-8)

    def test_reference_sup_defect_detected(self):
        hp = HolderPair.from_p(math.inf)
        assert growth_sup_reference(P00, hp) == pytest.approx(0.5, rel=1e-13)
        assert growth_sup_grid(P00, hp) == pytest.approx(1.0, abs=1e-10)

    def test_sup_is_radial_limit(self):
        # the radius scan the supremum is no longer taken from: the defining
        # integral stays below the r -> 1 limit and the closed form rises
        radii = np.concatenate([np.linspace(1e-3, 0.9, 368), 1.0 - np.logspace(-1, -6, 144)])
        for pair in PAIRS + [(2.7, -1.4), (-0.3, -0.6)]:
            params = make_params(*pair)
            for p in (1.0, 1.5, 2.0, 4.0, math.inf):
                hp = HolderPair.from_p(p)
                sup = growth_sup_grid(params, hp)
                scan = max(growth_constant_quadrature(params, hp, float(r), 1024) for r in radii)
                assert scan <= sup * (1.0 + 1e-12), (pair, p)
                closed = []
                for r in np.sort(radii):
                    try:
                        closed.append(growth_constant(params, hp, float(r)))
                    except ConvergenceError:
                        # open gap: when c - a - b = 1 + 2m of F(-m, -m; 1; r^2)
                        # is an integer, gauss_2f1 has only the direct series,
                        # which gives up within about 3e-4 of r = 1
                        assert (params.sigma * hp.q - 1.0).is_integer() and r > 0.999
                assert np.all(np.diff(closed) >= 0.0), (pair, p)

    def test_p_one_kernel_max(self):
        params = make_params(0.3, -0.2)
        hp = HolderPair.from_p(1.0)
        r = 0.7
        closed = growth_constant(params, hp, r)
        assert closed == pytest.approx(abs(params.c_norm) * (1 + r) ** params.sigma, rel=1e-14)
        assert growth_constant_quadrature(params, hp, r) == pytest.approx(closed, rel=1e-8)


class TestMpFactor:
    def test_unweighted(self):
        for r in (0.1, 0.5, 0.9):
            assert mp_growth_factor(P00, r) == pytest.approx(1.0, rel=1e-14)

    def test_terminating_case(self):
        assert mp_growth_factor(make_params(1.0, 1.0), 0.6) == pytest.approx(0.68, rel=1e-13)

    def test_limit_value(self):
        # r -> 1 limit is Gamma(a+1) Gamma(b+1) / Gamma(1 + (a+b)/2)^2
        assert mp_growth_factor(make_params(0.5, 0.5), 1.0) == pytest.approx(1.0, rel=1e-13)
        q = make_params(0.3, -0.2)
        assert mp_growth_factor(q, 1.0) == pytest.approx(
            gamma(1.3) * gamma(0.8) / gamma(1.05) ** 2, rel=1e-13
        )

    @pytest.mark.parametrize("pair", PAIRS)
    def test_quadrature_agreement(self, pair):
        p = make_params(*pair)
        for r in (0.3, 0.8):
            assert mp_growth_factor(p, r) == pytest.approx(
                mp_growth_factor_quadrature(p, r), abs=1e-8
            )

    @pytest.mark.parametrize("pair", PAIRS)
    def test_nondecreasing_in_radius(self, pair):
        # the series in r^2 has coefficients ((a+b)/2)_n^2 / (n!)^2 >= 0
        p = make_params(*pair)
        vals = [mp_growth_factor(p, r) for r in np.linspace(0.0, 0.95, 40)]
        assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))


class TestDistortion:
    def test_up_values(self):
        hp1 = HolderPair.from_p(math.inf)  # q = 1
        assert distortion_up(P00, hp1) == pytest.approx(2.0 * math.pi, rel=1e-13)
        assert distortion_up_quadrature(P00, hp1) == pytest.approx(2.0 * math.pi, abs=1e-9)
        hp2 = HolderPair.from_p(2.0)
        p = make_params(0.3, -0.2)
        assert distortion_up(p, hp2) == pytest.approx(distortion_up_quadrature(p, hp2), abs=1e-7)

    def test_up_divergence_guard(self):
        # q (1 + beta) <= 1/2 diverges
        with pytest.raises(ParameterError):
            distortion_up(make_params(0.5, -0.6), HolderPair.from_p(math.inf))

    def test_beta_guard(self):
        with pytest.raises(ParameterError):
            distortion_constant(make_params(2.0, -1.5), HolderPair.from_p(2.0), 0.5)

    def test_unweighted_reduction_against_direct_moments(self):
        # B(r) = 2 (2 pi)^(-1/q) max_eta int (1+r^2+2r cos b)^(q-1) |cos(b+eta)|^q db
        hp = HolderPair.from_p(2.0)
        r = 0.6
        t = circle_nodes(32768)
        best = 0.0
        for eta in np.linspace(0, math.pi, 41):
            moment = float(
                np.trapezoid(
                    base_plus(r, t) ** (hp.q - 1.0) * np.abs(np.cos(t + eta)) ** hp.q,
                    t,
                )
            )
            # include the endpoint closing of the periodic trapezoid
            moment += 0.0
            best = max(best, moment)
        direct = 2.0 / (2 * math.pi) ** (1.0 / hp.q) * best
        assert distortion_constant(P00, hp, r) == pytest.approx(direct, rel=1e-4)

    def test_sup_norm_case_classical(self):
        hp = HolderPair.from_p(math.inf)
        for r in (0.2, 0.7):
            assert distortion_constant(P00, hp, r) == pytest.approx(4.0 / math.pi, rel=1e-10)

    def test_p1_closed_form(self):
        p = make_params(0.3, -0.2)
        hp = HolderPair.from_p(1.0)
        r = 0.5
        expected = 2 * abs(p.c_norm) * (1 + r) ** (2 * p.beta + 2) * (abs(p.beta + 1) + abs(p.alpha) * r)
        assert distortion_constant(p, hp, r) == pytest.approx(expected, rel=1e-13)


class TestPartials:
    def test_wirtinger_sup_unweighted(self):
        for p_exp, expected in ((math.inf, 1.0), (2.0, math.sqrt(2.0))):
            hp = HolderPair.from_p(p_exp)
            val = partial_constant(P00, hp, "wirtinger", SUP)
            closed = (gamma(2 * hp.q - 1.0) / gamma(hp.q) ** 2) ** (1.0 / hp.q)
            assert val == pytest.approx(closed, rel=1e-12)
            if p_exp == math.inf:
                assert val == pytest.approx(expected, rel=1e-12)

    def test_radial_unweighted_matches_special_form(self):
        # C(r) = 2 ((1/2pi) int |cos s|^q |1+re^{-is}|^(2q-2) ds)^(1/q)
        hp = HolderPair.from_p(2.0)
        r = 0.55
        t = circle_nodes(65536)
        integrand = np.abs(np.cos(t)) ** hp.q * base_plus(r, t) ** (hp.q - 1.0)
        special = 2.0 * (integrand.mean()) ** (1.0 / hp.q)
        assert partial_constant(P00, hp, "radial", r) == pytest.approx(special, rel=1e-8)

    def test_angular_diagonal_closed_form(self):
        p = make_params(0.5, 0.5)
        for p_exp in (2.0, 4.0):
            hp = HolderPair.from_p(p_exp)
            r = 0.6
            assert partial_angular_diagonal_closed(p, hp, r) == pytest.approx(
                partial_constant(p, hp, "angular", r), abs=1e-8
            )

    def test_wirtinger_two_sided_prefactor(self):
        # asymmetric weights: bound must cover the antiholomorphic side too
        p = make_params(-0.5, 1.0)
        hp = HolderPair.from_p(4.0)
        one_sided = full_report(p, hp, r=0.3).get("partial_wirtinger_one_sided").value
        assert partial_constant(p, hp, "wirtinger", 0.3) > one_sided

    def test_p1_forms_positive(self):
        hp = HolderPair.from_p(1.0)
        p = make_params(0.3, -0.2)
        for which in ("radial", "angular", "wirtinger"):
            assert partial_constant(p, hp, which, 0.5) > 0.0


class TestMeansConstants:
    def test_radial_unweighted(self):
        for r in (0.2, 0.8):
            assert means_constant(P00, "radial", r) == pytest.approx(FOUR_OVER_PI, abs=1e-10)
        assert means_constant(P00, "radial", SUP) == pytest.approx(FOUR_OVER_PI, abs=1e-10)

    def test_angular_unweighted(self):
        r = 0.37
        assert means_constant(P00, "angular", r) == pytest.approx(4 * r / math.pi, abs=1e-10)
        assert means_constant(P00, "angular", SUP) == pytest.approx(FOUR_OVER_PI, abs=1e-10)

    def test_wirtinger_unweighted(self):
        assert means_constant(P00, "wirtinger", 0.5) == pytest.approx(1.0, rel=1e-12)
        assert means_constant(P00, "wirtinger", SUP) == pytest.approx(1.0, rel=1e-12)

    def test_sup_branch_continuity_at_threshold(self):
        # the alpha+beta = 2 threshold: the |cos| and |sin| moments of the
        # r = 1 base with exponent (alpha+beta)/2 = 1 give the same value
        assert oscillatory_moment(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, DEFAULT_NODES) == pytest.approx(
            oscillatory_moment(1.0, 1.0, 0.0, 1.0, 1.0, 0.5 * math.pi, 0.0, DEFAULT_NODES), abs=1e-9
        )


class TestFullReport:
    @pytest.mark.parametrize("pair", PAIRS)
    @pytest.mark.parametrize("p_exp", [1.0, 2.0, math.inf])
    def test_pairs_agree_except_growth_sup(self, pair, p_exp):
        rep = full_report(make_params(*pair), HolderPair.from_p(p_exp))
        unexpected = [n for n in rep.flagged if n != "growth_sup_reference"]
        assert unexpected == []

    def test_growth_sup_flagged_unweighted(self):
        rep = full_report(P00, HolderPair.from_p(math.inf))
        assert "growth_sup_reference" in rep.flagged
        assert rep.get("growth_sup_grid").value == pytest.approx(1.0, abs=1e-8)
        assert rep.get("growth_sup_reference").value == pytest.approx(0.5, rel=1e-12)

    @pytest.mark.parametrize("p_exp", [1.0, 2.0, math.inf])
    def test_serialization(self, p_exp):
        rep = full_report(P00, HolderPair.from_p(p_exp))
        doc = rep.to_dict()
        assert {"entries", "flagged"} <= doc.keys()
        entry = doc["entries"][0]
        assert {"name", "value", "source", "method"} <= entry.keys()
        # an entry is a quadrature exactly when it carries a node count
        for e in doc["entries"]:
            assert (e["method"] == "quadrature") == ("nodes" in e), e
        assert {e["method"] for e in doc["entries"]} == {"closed_form", "quadrature"}

    def test_each_plain_moment_integrated_once(self, monkeypatch):
        # and each oscillatory one: at finite q, exponents (alpha + beta)/2
        # and sigma q/2 - 1 at r and r = 1 and the kernel-modulus mean at r,
        # then four distortion, three partial and three means moments (14
        # integrations, 15 at equal weights); at p = 1, (alpha + beta)/2 at r
        # and r = 1, the modulus mean and the three means moments (6)
        for pair, p_exp, plain, oscillatory in (
            ((0.3, -0.2), 2.0, 5, 10),
            ((0.5, 0.5), 2.0, 5, 10),
            ((0.3, -0.2), 1.0, 3, 3),
        ):
            counts = _count_integrations(monkeypatch)
            full_report(make_params(*pair), HolderPair.from_p(p_exp))
            assert counts == {"plain": plain, "oscillatory": oscillatory}, (pair, p_exp)

    def test_warm_caches_give_cold_bits(self):
        params, hp = make_params(0.3, -0.2), HolderPair.from_p(4.0)
        _clear_moment_caches()
        cold = full_report(params, hp).to_dict()
        assert full_report(params, hp).to_dict() == cold

    def test_every_report_warm_equals_cold(self):
        # every cache of _quad and bounds, found by its cache_clear, is
        # emptied before each cold report; the warm pass then reuses what
        # all nine reports left behind, moment tables included
        caches = [
            fn for mod in (_quad, bnd) for fn in vars(mod).values() if hasattr(fn, "cache_clear")
        ]
        assert {fn.__name__ for fn in caches} >= {"_moment_rule", "kernel_moment"}
        cases = [
            (make_params(*pair), HolderPair.from_p(p_exp))
            for pair in ((0.3, -0.2), (0.5, 0.5), (-0.3, -0.6))
            for p_exp in (1.0, 3.0, math.inf)
        ]
        cold = []
        for params, hp in cases:
            for fn in caches:
                fn.cache_clear()
            cold.append(repr(full_report(params, hp).to_dict()))
        for _ in range(2):
            assert [repr(full_report(params, hp).to_dict()) for params, hp in cases] == cold

    def test_shared_moment_independent_of_order(self):
        # at the supremum, radial and angular bounds share one moment
        params, hp = make_params(0.3, -0.2), HolderPair.from_p(2.0)
        _clear_moment_caches()
        first = partial_constant(params, hp, "angular", SUP)
        _clear_moment_caches()
        partial_constant(params, hp, "radial", SUP)
        assert partial_constant(params, hp, "angular", SUP) == first


class TestKernelMoments:
    @pytest.mark.parametrize("r", [0.5, 0.95])
    @pytest.mark.parametrize("m, k, off", [(0.5, 1.0, 0.0), (2.0, 2.0, 0.3), (-0.3, 1.5, 0.2)])
    def test_shifted_base_equals_shifted_weight(self, r, m, k, off):
        # substituting s -> s + t turns the base shift y = t into the weight
        # shift x = -t, which lets one helper serve both lemma moments
        for t in np.linspace(0.0, 2.0 * math.pi, 13)[:-1]:
            assert oscillatory_moment(m, k, off, 1.0, r, 0.0, t, DEFAULT_NODES) == pytest.approx(
                oscillatory_moment(m, k, off, 1.0, r, -t, 0.0, DEFAULT_NODES), rel=1e-12, abs=1e-12
            )

    # the moments as integrands written out in s, through circle_integral:
    # one exp of m log(base), times the weight at k = 1, else with k times
    # its log in the exponent
    @staticmethod
    def log_base(r, s):
        return np.log((1.0 - r) ** 2 + 4.0 * r * np.cos(0.5 * s) ** 2)

    def closure_plain(self, m, r, nodes):
        breaks = (math.pi,) if r > 0.9 else ()
        return circle_integral(lambda s: np.exp(m * self.log_base(r, s)), breaks, nodes)

    def closure_oscillatory(self, m, k, off, amp, r, x, y, nodes):
        def fn(s):
            weight = off + amp * np.abs(np.cos(s - x))
            if k == 1:
                return weight * np.exp(m * self.log_base(r, s - y))
            return np.exp(m * self.log_base(r, s - y) + k * np.log(weight))

        breaks = [x + 0.5 * math.pi, x + 1.5 * math.pi] + ([y + math.pi] if r > 0.9 else [])
        return circle_integral(fn, breaks, nodes)

    @staticmethod
    def cold_and_warm(moment, *args):
        # the moment with its table placed anew, then reused
        _quad._moment_rule.cache_clear()
        _clear_moment_caches()
        cold = moment(*args)
        _clear_moment_caches()
        return cold, moment(*args)

    @pytest.mark.parametrize("nodes", [DEFAULT_NODES, 2048])
    @pytest.mark.parametrize("r", [0.0, 0.6, 0.95, 1.0])
    @pytest.mark.parametrize("m", [-0.4, 0.37, 2.5])
    def test_plain_moment_gives_closure_bits(self, m, r, nodes):
        # r <= 0.9 takes the trapezoid rule, whatever the sign of m; r > 0.9
        # the circle split at pi
        expected = self.closure_plain(m, r, nodes)
        assert math.isfinite(expected)
        assert self.cold_and_warm(bnd.plain_moment, m, r, nodes) == (expected, expected)

    @pytest.mark.parametrize(
        "x, y",
        # the bound constants' phases, then lemma-style ones off the quarter turns
        [
            (0.0, 0.0),
            (-0.5 * math.pi, 0.0),
            (0.5 * math.pi, 0.0),
            (0.7, 0.0),
            (0.0, 1.3),
            (2.1, -0.4),
        ],
    )
    @pytest.mark.parametrize("r", [0.0, 0.6, 0.95, 1.0])
    @pytest.mark.parametrize(
        "m, k, off, amp",
        [(-0.4, 1.0, 0.0, 1.0), (0.37, 1.7, 0.3, 2.5), (2.5, 1.0, 0.2, 1.0), (0.8, 2.0, 0.0, 1.3)],
    )
    def test_oscillatory_moment_gives_closure_bits(self, m, k, off, amp, r, x, y):
        expected = self.closure_oscillatory(m, k, off, amp, r, x, y, 2048)
        assert math.isfinite(expected)
        args = (m, k, off, amp, r, x, y, 2048)
        assert self.cold_and_warm(oscillatory_moment, *args) == (expected, expected)

    def test_oscillatory_moment_is_the_kernel_moment(self):
        # one function, so one cache, for every moment of bounds and audit
        assert oscillatory_moment is kernel_moment is bnd.oscillatory_moment
        assert bnd.plain_moment.__module__ == bnd.__name__

    @pytest.mark.parametrize(
        "call",
        [
            lambda: kernel_moment(0.5, 1.0, 0.0, 1.0, 0.6, 0.0, 0.0, nodes=64),
            lambda: kernel_moment(0.5, 1.0, 0.0, 1.0, 0.6, 0.0, y=0.0, nodes=64),
            lambda: kernel_moment(0.5, 1.0, 0.0, 1.0, 0.6),
            lambda: kernel_moment(0.5, 1.0, 0.0, 1.0, 0.6, 0.0, 0.0),
        ],
    )
    def test_keyword_or_missing_argument_raises(self, call):
        # positional-only and without defaults: one moment, one cache key
        _clear_moment_caches()
        with pytest.raises(TypeError):
            call()
        assert kernel_moment.cache_info().currsize == 0

    @pytest.mark.parametrize("m", [-0.4, 0.37])
    def test_sup_and_one_integrate_once(self, monkeypatch, m):
        counts = _count_integrations(monkeypatch)
        first = bnd.plain_moment(m, SUP, 2048)
        assert bnd.plain_moment(m, 1.0, 2048) == first
        assert bnd.plain_moment(m, 1, 2048) == first
        assert counts == {"plain": 1, "oscillatory": 0}

    def test_moments_share_a_moment_table(self):
        # two moments at one phase, rule and radius place its table once;
        # a third at another radius places its own
        _quad._moment_rule.cache_clear()
        _clear_moment_caches()
        oscillatory_moment(0.37, 1.7, 0.3, 2.5, 0.6, 0.7, 0.0, 2048)
        oscillatory_moment(2.5, 1.0, 0.2, 1.0, 0.6, 0.7, 0.0, 2048)
        info = _quad._moment_rule.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        oscillatory_moment(2.5, 1.0, 0.2, 1.0, 0.5, 0.7, 0.0, 2048)
        info = _quad._moment_rule.cache_info()
        assert (info.misses, info.hits) == (2, 1)

    @pytest.mark.parametrize("nodes", [2048, DEFAULT_NODES])
    @pytest.mark.parametrize("r", [0.1, 0.3, 0.6, 0.8, 0.9])
    @pytest.mark.parametrize("m", [-0.05, -0.25, -0.5, -1.0, -1.5, -2.35, -3.2])
    def test_plain_moment_at_negative_exponent_matches_mpmath(self, m, r, nodes):
        # the base stays >= (1 - r)^2 > 0, so the trapezoid grid serves and
        # is exact to rounding; split at pi, tanh-sinh was 6.1e-14 off
        with mp.workdps(40):
            expected = float(2 * mp.pi * mp.hyp2f1(-m, -m, 1, mp.mpf(r) ** 2))
        assert bnd.plain_moment(m, r, nodes) == pytest.approx(expected, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("nodes", [0, -4, -4096])
    @pytest.mark.parametrize("r", [0.5, 0.95])
    def test_node_count_below_one_raises(self, r, nodes):
        # on the trapezoid grid (r <= 0.9) and the halved circle, and no
        # value is cached
        _clear_moment_caches()
        with pytest.raises(DomainError, match="nodes"):
            bnd.plain_moment(0.3, r, nodes)
        assert kernel_moment.cache_info().currsize == 0

    @pytest.mark.parametrize("nodes", [1, 0, -4096])
    def test_distortion_quadrature_below_one_node_raises(self, nodes):
        # it integrates on nodes // 2 nodes, so nodes = 1 asks for none
        with pytest.raises(DomainError, match="nodes"):
            distortion_up_quadrature(make_params(0.3, -0.2), HolderPair.from_p(2.0), nodes)


class TestRadiusTuples:
    HP = HolderPair.from_p(3.0)
    PARAMS = make_params(0.3, -0.2)

    def constants(self):
        yield lambda r: distortion_constant(self.PARAMS, self.HP, r, 2048)
        for which in bnd.KINDS:
            yield lambda r, w=which: partial_constant(self.PARAMS, self.HP, w, r, 2048)
            yield lambda r, w=which: means_constant(self.PARAMS, w, r, 2048)

    def test_a_tuple_gives_a_tuple_of_the_single_radius_values(self):
        # radii on both sides of 0.9 and 1.0, which is not "sup"
        radii = (0.95, 0.3, 1.0, 0.3)
        for constant in self.constants():
            got = constant(radii)
            assert type(got) is tuple and got == tuple(constant(r) for r in radii)
            assert type(constant(0.3)) is float

    @pytest.mark.parametrize("radii", [(), (0.3, SUP)])
    def test_a_tuple_without_radii_or_with_sup_raises(self, radii):
        # "sup" takes other phases than 1.0: it is asked for alone
        for constant in self.constants():
            with pytest.raises(ParameterError, match="tuple of radii"):
                constant(radii)


class TestNonFiniteFlags:
    def test_nan_pair_is_flagged(self):
        rep = BoundReport()
        pairs = ((1.0, math.nan), (math.nan, 1.0), (math.inf, math.inf), (math.inf, 1.0), (1.0, -math.inf))
        for i, (closed, quad) in enumerate(pairs):
            rep.add_pair(f"x{i}", closed, quad, "source", 64)
        assert rep.flagged == [f"x{i}" for i in range(len(pairs))]

    @pytest.mark.parametrize("grid", [math.nan, math.inf])
    def test_nan_growth_supremum_is_flagged(self, monkeypatch, grid):
        monkeypatch.setattr(bnd, "growth_sup_grid", lambda params, hp: grid)
        rep = full_report(make_params(0.5, 0.5), HolderPair.from_p(2.0))
        assert "growth_sup_reference" in rep.flagged
