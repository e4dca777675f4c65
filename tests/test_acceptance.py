"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run pytest -s to see them all);
tolerances are pinned here, not configurable.
"""

import json
import math

import numpy as np
import pytest

import abharmonic as ab
from abharmonic import audit as audit_mod
from abharmonic._quad import base_minus, circle_integral
from abharmonic.bounds import (
    SUP,
    HolderPair,
    full_report,
    growth_sup_grid,
    growth_sup_reference,
    means_constant,
)
from abharmonic.cli import main as cli_main
from abharmonic.kernel import make_params

from conftest import mp_gauss_2f1

GRID_PAIRS = [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2)]
DIAGONAL_PAIRS = [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]


def _report(number: int, label: str, passed: bool):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {label}")
    assert passed, f"criterion {number}: {label}"


def test_criterion_01_special_function_accuracy():
    rng = np.random.default_rng(20240611)
    worst = 0.0
    checked = 0
    while checked < 500:
        a = float(rng.uniform(-2.5, 2.5))
        b = float(rng.uniform(-2.5, 2.5))
        c = float(rng.uniform(0.4, 3.5))
        if abs(c - round(c)) < 1e-3 and round(c) <= 0:
            continue
        x = float(rng.uniform(-0.9, 0.9))
        val = ab.gauss_2f1((a, b, c), x)
        oracle = float(mp_gauss_2f1(a, b, c, x, min_terms=200))
        worst = max(worst, abs(val - oracle) / max(abs(oracle), 1e-300))
        checked += 1
    gamma_worst = 0.0
    for x in np.linspace(-10.0, 10.0, 1603):
        if abs(x - round(x)) < 1e-6 or abs(x + 1 - round(x + 1)) < 1e-6 or abs(x) < 1e-6:
            continue
        lhs = ab.gamma(x + 1.0)
        gamma_worst = max(gamma_worst, abs(lhs - x * ab.gamma(x)) / abs(lhs))
    _report(
        1,
        f"2F1 vs high-precision summation (worst rel {worst:.2e} <= 1e-10), "
        f"gamma recurrence (worst rel {gamma_worst:.2e} <= 1e-12)",
        worst <= 1e-10 and gamma_worst <= 1e-12,
    )


def test_criterion_02_kernel_mean_identity():
    worst = 0.0
    for pair in GRID_PAIRS:
        p = make_params(*pair)
        s0 = p.sigma
        for r in np.arange(0.1, 0.95, 0.1):
            quad = (
                abs(p.c_norm)
                * (1 - r * r) ** (s0 - 1)
                * circle_integral(lambda t: base_minus(r, t) ** (-0.5 * s0), (), 4096)
                / (2 * math.pi)
            )
            closed = ab.mp_growth_factor(p, float(r))
            worst = max(worst, abs(quad - closed))
    _report(2, f"kernel modulus mean vs closed form (worst {worst:.2e} <= 1e-8)", worst <= 1e-8)


def test_criterion_03_constant_boundary():
    f = ab.from_fourier({0: 1.0})
    worst = 0.0
    for pair in DIAGONAL_PAIRS:
        p = make_params(*pair)
        for r in (0.15, 0.45, 0.75, 0.9):
            val = ab.poisson_integral(p, f, r, 4096)
            closed = ab.mp_growth_factor(p, r)
            worst = max(worst, abs(val - closed))
    worst00 = max(
        abs(ab.poisson_integral(make_params(0, 0), f, z, 4096) - 1.0)
        for z in (0.0, 0.3, 0.6 + 0.2j, -0.85j)
    )
    _report(
        3,
        f"constant data: equal-weight closed form (worst {worst:.2e} <= 1e-8), "
        f"unweighted value 1 (worst {worst00:.2e} <= 1e-12)",
        worst <= 1e-8 and worst00 <= 1e-12,
    )


def test_criterion_04_solver_series_equivalence():
    rng = np.random.default_rng(787)
    zs = [
        r * np.exp(2j * math.pi * (j + 0.3) / 8)
        for r in (0.2, 0.5, 0.8)
        for j in range(8)
    ]
    worst = 0.0
    for _ in range(20):
        f = audit_mod.random_boundary(rng, order=8)
        for pair in GRID_PAIRS:
            p = make_params(*pair)
            coeffs = ab.coefficients_from_boundary(p, f)
            direct = np.atleast_1d(ab.poisson_integral(p, f, np.asarray(zs), 4096))
            for z, dv in zip(zs, direct):
                series = ab.evaluate_expansion(p, coeffs, complex(z))
                worst = max(worst, abs(complex(dv) - series))
    _report(4, f"solver vs series route on |z| <= 0.8 (worst {worst:.2e} <= 1e-6)", worst <= 1e-6)


def test_criterion_05_pde_residual_order():
    h_steps = (1e-2, 5e-3, 2.5e-3)
    rng = np.random.default_rng(3104)
    points = [
        0.55 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()) for _ in range(10)
    ]
    p = make_params(0.5, 0.5)
    f = ab.from_fourier({1: 1.0, 3: 0.6, -2: 0.4})
    u_quad = ab.poisson_extension(p, f, 2048)
    coeffs = ab.coefficients_from_boundary(p, f)
    u_series = lambda z: ab.evaluate_expansion(p, coeffs, z)
    ok = True
    worst_dev = 0.0
    for u in (u_quad, u_series):
        for z in points:
            res = [abs(ab.operator_residual(p, u, complex(z), h)) for h in h_steps]
            for hi, lo in zip(res, res[1:]):
                order = math.log2(hi / lo)
                worst_dev = max(worst_dev, abs(order - 2.0))
                ok = ok and abs(order - 2.0) <= 0.3
    _report(
        5,
        f"operator residual decays at order 2 +/- 0.3 on both routes "
        f"(worst deviation {worst_dev:.2e})",
        ok,
    )


def test_criterion_06_classical_reductions():
    p00 = make_params(0.0, 0.0)
    rep = ab.geometric_constants(p00)
    targets = [
        ("heinz lower bound", ab.HEINZ_LOWER_BOUND, 27 / (4 * math.pi**2)),
        ("omit radius full", rep.get("omit_radius_full_class").value, 2 * math.pi * math.sqrt(6) / 9),
        ("omit radius normalized", rep.get("omit_radius_normalized_class").value, 2 * math.pi * math.sqrt(3) / 9),
        ("covering radius", rep.get("covering_radius").value, 1 / 16),
        ("area", rep.get("area_lower_bound").value, math.pi / 2),
        ("means radial", means_constant(p00, "radial", SUP), 4 / math.pi),
        ("means angular", means_constant(p00, "angular", SUP), 4 / math.pi),
        ("means wirtinger", means_constant(p00, "wirtinger", SUP), 1.0),
        ("starlike k=2", ab.coefficient_bound(p00, "starlike_ck", 2), 2.5),
        ("second coefficient limit", ab.coefficient_bound(p00, "c_minus2"), 0.5),
    ]
    worst = max(abs(v - t) for _, v, t in targets)
    _report(6, f"classical reductions at zero weights (worst {worst:.2e} <= 1e-10)", worst <= 1e-10)


def test_criterion_07_inequality_audits():
    results = audit_mod.standard_suite(n_boundaries=100)
    total = sum(r.cases_total for r in results)
    violated = sum(r.cases_violated for r in results)
    names = ", ".join(f"{r.name}:{r.cases_total}" for r in results)
    _report(
        7,
        f"standard inequality suite clean ({total} cases over {names}; {violated} violations)",
        violated == 0 and total > 10_000,
    )


def test_criterion_08_lemma_audits():
    ok = True
    # monotone-ratio regimes on 99-point grids
    for pair, k in [
        ((0.0, 0.7), 4),
        ((-0.5, 0.5), 3),
        ((-0.3, -0.6), 2),
        ((0.0, -0.4), 3),
        ((0.0, 0.8), 5),
    ]:
        res = audit_mod.check_hypergeometric_ratio_lemma(make_params(*pair), k)
        ok = ok and res.cases_violated == 0 and res.cases_total > 0
    # oscillatory maximizers, including the constant case at exponent 1
    for m, k, a_off in [(0.5, 1.0, 0.0), (1.0, 2.0, 0.3), (2.0, 1.0, 0.0), (2.0, 2.0, 0.3)]:
        res = audit_mod.check_oscillatory_maximum_lemmas(m, k, a_off, 1.0)
        ok = ok and res.cases_violated == 0
        if m == 1.0:
            const_margins = [mg for c, _, mg in res.details if c.startswith("L const")]
            # margins carry a 1e2 factor, so -1e-8 corresponds to 1e-10 constancy
            ok = ok and min(const_margins) > -1e-8
    # moment identities, including the geometric special value
    lhs = 0.5 * circle_integral(lambda t: base_minus(0.5, t) ** (-1.0), (), 4096)
    ok = ok and abs(lhs - 4 * math.pi / 3) <= 1e-8
    for mu, nu in [(2.0, 0.5), (1.0, 1.0), (3.5, -0.4), (0.7, 1.2)]:
        res = audit_mod.check_integral_identities(mu, nu)
        ok = ok and res.cases_violated == 0
    _report(8, "ratio lemma, oscillatory maximizers, and moment identities", ok)


def test_criterion_09_closed_form_master_property():
    ok = True
    flagged_at_origin_inf = False
    for pair in GRID_PAIRS:
        for p_exp in (1.0, 2.0, 4.0, math.inf):
            params = make_params(*pair)
            hp = HolderPair.from_p(p_exp)
            rep = full_report(params, hp)
            unexpected = [n for n in rep.flagged if n != "growth_sup_reference"]
            ok = ok and not unexpected
            if pair == (0.0, 0.0) and math.isinf(p_exp):
                flagged_at_origin_inf = "growth_sup_reference" in rep.flagged
                reference = growth_sup_reference(params, hp)
                grid = growth_sup_grid(params, hp)
                ok = ok and abs(reference - 0.5) < 1e-12 and abs(grid - 1.0) < 1e-8
    _report(
        9,
        "closed forms match defining integrals at 1e-8; the growth supremum "
        "reference discrepancy (1/2 vs 1) is detected and flagged",
        ok and flagged_at_origin_inf,
    )


def test_criterion_10_cli_contract(tmp_path):
    boundary = tmp_path / "one.json"
    boundary.write_text(json.dumps({"fourier": {"0": [1.0, 0.0]}}))
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")

    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["audit", "--suite", "identities", "--seed", "11", "--nodes", "1024"]
    pass_code = cli_main(args + ["--out", str(out1)])
    cli_main(args + ["--out", str(out2)])

    def strip(path):
        doc = json.loads(path.read_text())
        doc.pop("timestamp", None)
        return json.dumps(doc, sort_keys=True)

    deterministic = strip(out1) == strip(out2)
    codes_ok = (
        pass_code == 0
        and cli_main(["solve", str(boundary), "--alpha", "-2", "--beta", "0"]) == 2
        and cli_main(["audit", "--suite", "nonsense"]) == 2
        and cli_main(["solve", str(bad)]) == 3
        and cli_main(["solve", str(tmp_path / "absent.json")]) == 3
    )
    _report(
        10,
        f"CLI determinism (byte-identical modulo timestamp: {deterministic}) and exit codes",
        deterministic and codes_ok,
    )
