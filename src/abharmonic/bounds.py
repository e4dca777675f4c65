"""Closed-form bound constants and their quadrature-defined references.

Every constant used by the inequality audits lives here: the Heinz lower
bound, coefficient estimates, omit/covering/area radii, the growth,
distortion, partial-derivative, and integral-means constants.

The growth, distortion, partial-derivative and integral-means constants
are built from two circle integrals of the kernel base |1 + r e^{is}|^(2m):
plain_moment, whose mean has the closed form F(-m, -m; 1; r^2) and the
r -> 1 limit Gamma(1 + 2m) / Gamma(1 + m)^2 (plain_moment_closed), and
oscillatory_moment, the base weighted by (off + amp |cos(s - x)|)^k, which
is computed by quadrature only.  Both are integrated by _quad.base_integral,
which tabulates |cos(s - x)| and the base's cos((s - y)/2)^2 once per
circle rule and phase (x, y), so a moment evaluates only its two powers,
in one pass over every node of its rule; each distinct moment is
integrated once per process.

Wherever a closed form exists alongside a defining integral, both are
computed; BoundReport.add_pair writes them as X and X_quadrature and notes,
so flags, X when they disagree by more than 1e-6, a non-finite value on
either side always counting as a disagreement.  An entry's method is
quadrature exactly when it carries a node count.  The one
systematic offender is the growth sup constant, whose reference closed
form disagrees with its defining integral already at
(alpha, beta) = (0, 0), p = inf (1/2 versus 1): the supremum of the
defining integral, its r -> 1 limit, is treated as authoritative and the
closed expression is attached as reference.

Conventions: sigma = alpha + beta + 2 and q is the Holder conjugate of p.
The limits p = 1 (q = inf) are handled by explicit sup-norm forms, never
by large finite exponents.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._quad import DEFAULT_NODES, base_integral, base_plus, integrate
from .errors import ParameterError
from .kernel import AlphaBeta, _mode_hyp
from .specfun import beta, gauss_2f1, gauss_2f1_at_one, pochhammer_ratio

HEINZ_LOWER_BOUND = 27.0 / (4.0 * math.pi**2)
HARMONIC_A2_BOUND = 20.9197  # second-coefficient estimate for the plain class
DISCREPANCY_TOL = 1e-6
SUP_GRID_SIZE = 512

SUP = "sup"
KINDS = ("radial", "angular", "wirtinger")  # the derivative kinds


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents with 1/p + 1/q = 1 (inf represented exactly)."""

    p: float
    q: float

    @classmethod
    def from_p(cls, p: float) -> "HolderPair":
        p = float(p)
        if not p >= 1.0:
            raise ParameterError(f"p must satisfy p >= 1, got {p}")
        if math.isinf(p):
            return cls(math.inf, 1.0)
        if p == 1.0:
            return cls(1.0, math.inf)
        return cls(p, p / (p - 1.0))

    @property
    def q_is_inf(self) -> bool:
        return math.isinf(self.q)


def _disagree(closed: float, other: float) -> bool:
    """True when two values differ beyond the discrepancy tolerance; a
    non-finite value on either side, so an infinite tolerance, disagrees."""
    return not abs(closed - other) <= DISCREPANCY_TOL * max(1.0, abs(closed)) < math.inf


@dataclass
class BoundEntry:
    name: str
    value: float
    source: str
    nodes: int | None = None
    note: str | None = None

    @property
    def method(self) -> str:
        """How the value was computed: by quadrature where nodes is set,
        else in closed form."""
        return "closed_form" if self.nodes is None else "quadrature"

    def to_dict(self) -> dict:
        out = {"name": self.name, "value": self.value, "source": self.source, "method": self.method}
        if self.nodes is not None:
            out["nodes"] = self.nodes
        if self.note is not None:
            out["note"] = self.note
        return out


@dataclass
class BoundReport:
    entries: list = field(default_factory=list)

    def add(self, name, value, source, nodes=None, note=None):
        """One entry; nodes marks it as computed by quadrature."""
        self.entries.append(BoundEntry(name, float(value), source, nodes, note))

    def add_pair(self, name, closed, quad, source, nodes):
        """A closed form as name and its defining integral as
        name_quadrature; the closed form is noted, and so flagged, when the
        two disagree."""
        note = None
        if _disagree(closed, quad):
            note = f"closed form and defining integral disagree by {abs(closed - quad):.3e}"
        self.add(name, closed, source, note=note)
        self.add(name + "_quadrature", quad, source + " (defining integral)", nodes)

    def get(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    @property
    def flagged(self) -> list:
        return [e.name for e in self.entries if e.note]

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries], "flagged": self.flagged}


# ---------------------------------------------------------------------------
# the two kernel moments

# each distinct moment is integrated once per process; callers pass its
# arguments positionally, since the caches key on the arguments as passed
_moment_cache = functools.lru_cache(maxsize=4096)


def _radius(r) -> float:
    return 1.0 if r == SUP else float(r)


@_moment_cache
def plain_moment(m: float, r, nodes: int = DEFAULT_NODES) -> float:
    """Integral of |1 + r e^{is}|^(2m) over the circle; r = "sup" means 1.

    The trapezoid rule converges exponentially while the base stays away
    from zero; for r > 0.9 or m < 0 the circle is split at the base
    minimum s = pi and each half integrated by tanh-sinh.
    """
    r = _radius(r)
    breaks = (math.pi,) if (r > 0.9 or m < 0) else ()
    return base_integral(lambda ca, base: base**m, r, 0.0, 0.0, breaks, nodes)


@_moment_cache
def plain_moment_closed(m: float, r) -> float:
    """plain_moment / (2 pi) in closed form: F(-m, -m; 1; r^2), and at
    r = 1 or "sup" its limit Gamma(1 + 2m) / Gamma(1 + m)^2."""
    hyp = (-m, -m, 1.0)
    if r == SUP or r == 1.0:
        return gauss_2f1_at_one(hyp)
    return gauss_2f1(hyp, r * r)


@_moment_cache
def oscillatory_moment(m, k, off, amp, r, x=0.0, y=0.0, nodes: int = DEFAULT_NODES) -> float:
    """Integral of (off + amp |cos(s - x)|)^k |1 + r e^{i(s - y)}|^(2m)
    over the circle, split at the kinks x + pi/2, x + 3 pi/2 and, for
    r > 0.9, at the base minimum y + pi."""
    breaks = [x + 0.5 * math.pi, x + 1.5 * math.pi]
    if r > 0.9:
        breaks.append(y + math.pi)
    return base_integral(lambda ca, base: (off + amp * ca) ** k * base**m, r, x, y, breaks, nodes)


# ---------------------------------------------------------------------------
# coefficient functionals and geometric constants


def heinz_functional(params: AlphaBeta, c0: complex, c1: complex, cm1: complex) -> float:
    """Weighted coefficient sum whose lower bound is 27/(4 pi^2) for
    univalent self-maps of the disk fixing the origin's image class."""
    a, b = params.alpha, params.beta
    return params.c_norm**-2 * (
        abs(c1) ** 2 / (1 + a) ** 2
        + 3.0 * math.sqrt(3.0) / math.pi * abs(c0) ** 2
        + abs(cm1) ** 2 / (1 + b) ** 2
    )


def _ratio_infimum(num_hyp, den_hyp) -> float:
    """inf over r in (0,1) of F(num; r^2)/F(den; r^2) on a grid clustered
    near r = 1, with the exact r -> 1 endpoint included."""
    best = gauss_2f1_at_one(num_hyp) / gauss_2f1_at_one(den_hyp)
    # log-spaced approach to the endpoint plus a coarse sweep of the interior
    xs = np.concatenate(
        [np.linspace(1e-4, 0.98, SUP_GRID_SIZE - 128), 1.0 - np.logspace(-1.7, -6, 128)]
    )
    for x in xs:
        v = gauss_2f1(num_hyp, x) / gauss_2f1(den_hyp, x)
        if v < best:
            best = v
    return float(best)


def coefficient_bound(params: AlphaBeta, kind: str, k: int = 2, extra: complex | None = None) -> float:
    """Coefficient estimates by family.

    typically_real   bound on |G(1+a) c_k / G(k+1+a) - G(1+b) c_{-k} / G(k+1+b)|
                     for real-coefficient normalized maps; extra = c_{-1}
    c_minus2, c2     second-coefficient bounds for the normalized subclass,
                     closed forms on -1 < beta <= alpha <= 0
    starlike_ck/cmk  starlike coefficient bounds, any admissible weights
    conjecture_ck/cmk the conjectured bounds: closed form on
                     -1 < beta < alpha < 0, otherwise a grid infimum
    """
    a, b = params.alpha, params.beta
    if kind == "typically_real":
        if k < 2:
            raise ParameterError("typically_real bound needs k >= 2")
        cm1 = 0j if extra is None else complex(extra)
        # 1/(k-1)! as a product of reciprocals underflows where the factorial would overflow
        return math.prod(1.0 / j for j in range(2, k)) * abs(1.0 / (1 + a) - cm1 / (1 + b))
    if kind in ("c_minus2", "c2"):
        if not (-1.0 < b <= a <= 0.0):
            raise ParameterError(
                f"{kind} bound requires -1 < beta <= alpha <= 0, got ({a}, {b})"
            )
        if kind == "c_minus2":
            return (2 + b) * (1 + b) / (4.0 * (1 + a))
        return HARMONIC_A2_BOUND * (1.0 + a / 2.0)
    if kind in ("starlike_ck", "starlike_cmk", "conjecture_ck", "conjecture_cmk"):
        if k < 2:
            raise ParameterError(f"{kind} bound needs k >= 2")
        lead = (2 * k + 1) * (k + 1) / 6.0 if kind.endswith("_ck") else (2 * k - 1) * (k - 1) / 6.0
        # k! = (2)_{k-1} = (1)_k, divided into the rising factorial term by term
        if kind == "starlike_ck":
            return lead * pochhammer_ratio(2 + a, 2.0, k - 1)
        if kind == "starlike_cmk":
            return lead / (1 + a) * pochhammer_ratio(1 + b, 1.0, k)
        num = _mode_hyp(params, 1)
        den = _mode_hyp(params, k if kind == "conjecture_ck" else -k)
        if -1.0 < b < a < 0.0:
            # monotone regime: the infimum sits at the r -> 1 endpoint
            inf_val = gauss_2f1_at_one(num) / gauss_2f1_at_one(den)
        else:
            inf_val = _ratio_infimum(num, den)
        return lead * inf_val
    raise ParameterError(f"unknown coefficient bound kind {kind!r}")


def geometric_constants(params: AlphaBeta) -> BoundReport:
    """Omit radii, covering radius, and minimal image area for the
    normalized univalent classes."""
    # Gamma(1 + a + b) / |Gamma(2 + a) Gamma(1 + b)|
    fac = 1.0 / abs((1 + params.alpha) * params.c_norm)
    rep = BoundReport()
    rep.add(
        "omit_radius_full_class",
        2.0 * math.pi * math.sqrt(6.0) / 9.0 * fac,
        "omitted-value radius, full normalized class",
    )
    rep.add(
        "omit_radius_normalized_class",
        2.0 * math.pi * math.sqrt(3.0) / 9.0 * fac,
        "omitted-value radius, vanishing antiholomorphic derivative",
    )
    rep.add("covering_radius", fac / 16.0, "guaranteed covered disk radius")
    rep.add("area_lower_bound", math.pi / 2.0 * fac, "minimal image area")
    return rep


def rado_radius_bound(params: AlphaBeta, c1: complex, cm1: complex) -> float:
    """Largest disk radius compatible with univalence, from the first
    coefficients; scales linearly in (c1, cm1)."""
    t1 = abs(c1) / abs((1 + params.alpha) * params.c_norm)
    t2 = abs(cm1) / abs((1 + params.beta) * params.c_norm)
    return math.sqrt((t1**2 + t2**2) / HEINZ_LOWER_BOUND)


# ---------------------------------------------------------------------------
# growth


def _half_weight(params: AlphaBeta) -> float:
    return 0.5 * (params.alpha + params.beta)


def mp_growth_factor(params: AlphaBeta, r: float) -> float:
    """|c| F(-(a+b)/2, -(a+b)/2; 1; r^2); r = 1 or "sup" gives the limit."""
    return abs(params.c_norm) * plain_moment_closed(_half_weight(params), r)


def mp_growth_factor_quadrature(params: AlphaBeta, r: float, nodes: int = DEFAULT_NODES) -> float:
    """Defining integral: mean of the kernel modulus
    |c| (1 - r^2)^(sigma - 1) |1 - r e^{-it}|^(-sigma) over the circle."""
    pref = abs(params.c_norm) * (1.0 - r * r) ** (params.sigma - 1.0)
    return pref * plain_moment(-0.5 * params.sigma, r, nodes) / (2 * math.pi)


def _kernel_exponent(params: AlphaBeta, hp: HolderPair) -> float:
    """m = sigma q / 2 - 1, so that base^m = |1 + r e^{is}|^(sigma q - 2):
    the plain moment behind the growth and partial-derivative bounds."""
    if hp.q_is_inf:
        raise ParameterError("the kernel moment needs finite q (p > 1)")
    return 0.5 * (params.sigma * hp.q - 2.0)


def growth_constant(params: AlphaBeta, hp: HolderPair, r=SUP) -> float:
    """Growth coefficient A(r) with |u| <= A(r) (1-r^2)^(-1/p) ||f||_p.

    r = "sup" returns the supremum over radii of the defining integral
    (the authoritative value; see growth_sup_reference for the closed
    expression it is checked against).
    """
    if hp.q_is_inf:
        return abs(params.c_norm) * (1.0 + _radius(r)) ** params.sigma
    # at "sup" this is the r -> 1 limit: the circle mean of base^m has
    # nonnegative series coefficients in r^2, so the limit is the supremum
    mean = plain_moment_closed(_kernel_exponent(params, hp), r)
    return abs(params.c_norm) * mean ** (1.0 / hp.q)


def growth_constant_quadrature(
    params: AlphaBeta, hp: HolderPair, r: float, nodes: int = DEFAULT_NODES
) -> float:
    """Defining integral of the growth coefficient at one radius."""
    if hp.q_is_inf:
        t = np.linspace(0.0, math.pi, nodes)
        return abs(params.c_norm) * float(np.max(base_plus(r, t) ** (0.5 * params.sigma)))
    mean = plain_moment(_kernel_exponent(params, hp), r, nodes) / (2 * math.pi)
    return abs(params.c_norm) * mean ** (1.0 / hp.q)


def growth_sup_reference(params: AlphaBeta, hp: HolderPair) -> float:
    """Closed-form reference expression for the growth supremum.

    It is the r -> 1 limit of the defining integral times 2^(-sigma/2), so
    it disagrees with the supremum (1/2 versus 1 already at zero weights
    with p = inf); reports flag it and the supremum rules.
    """
    if hp.q_is_inf:
        raise ParameterError("no closed-form growth supremum at p = 1")
    m = _kernel_exponent(params, hp)
    return abs(params.c_norm) * (2.0 ** (-m - 1.0) * plain_moment_closed(m, SUP)) ** (1.0 / hp.q)


def growth_sup_grid(params: AlphaBeta, hp: HolderPair) -> float:
    """Supremum over radii of the growth coefficient A(r): its r -> 1 limit.

    For finite q, A(r)^q is |c|^q times the circle mean
    F(-m, -m; 1; r^2) = sum ((-m)_n / n!)^2 r^(2n), whose coefficients are
    squares, and at p = 1, A(r) = |c| (1 + r)^sigma with sigma > 1; either
    way A is nondecreasing in r.
    """
    return growth_constant(params, hp, SUP)


# ---------------------------------------------------------------------------
# distortion


def _up_exponent(params: AlphaBeta, hp: HolderPair) -> float:
    """q beta + q - 1, the exponent of the gradient-kernel moment, whose
    r = 1 value diverges unless it exceeds -1/2."""
    mb = hp.q * (params.beta + 1.0) - 1.0
    if mb <= -0.5:
        raise ParameterError(
            f"distortion moment diverges: q(1+beta) = {mb + 1.0} must exceed 1/2"
        )
    return mb


def distortion_up(params: AlphaBeta, hp: HolderPair) -> float:
    """Closed form of the gradient-kernel moment at r = 1."""
    return 2.0 * math.pi * plain_moment_closed(_up_exponent(params, hp), SUP)


def distortion_up_quadrature(params: AlphaBeta, hp: HolderPair, nodes: int = DEFAULT_NODES) -> float:
    mb = _up_exponent(params, hp)
    return 2.0 * integrate(lambda t: (4.0 * np.sin(0.5 * t) ** 2) ** mb, 0.0, math.pi, nodes // 2)


def distortion_constant(params: AlphaBeta, hp: HolderPair, r=SUP, nodes: int = DEFAULT_NODES) -> float:
    """Distortion coefficient B(r) with |Du| <= B(r) (1-r^2)^(-1-1/p) ||f||_p."""
    a, b = params.alpha, params.beta
    if not b > -1.0:
        raise ParameterError(f"distortion estimate requires beta > -1, got {b}")
    rr = _radius(r)
    if hp.q_is_inf:
        growth = (1.0 + rr) ** (2.0 * b + 2.0)
        return 2.0 * abs(params.c_norm) * growth * (abs(b + 1.0) + abs(a) * rr)
    q, gap, mb = hp.q, abs(b - a), _up_exponent(params, hp)
    # max of the oscillatory moment over the phase; both endpoint
    # candidates are evaluated, which covers every exponent regime
    vmax = max(
        oscillatory_moment(mb, q, gap * math.pi, gap + 1.0, rr, x, 0.0, nodes)
        for x in (0.0, -0.5 * math.pi)
    )
    pref = 2.0 * abs(params.c_norm) / (2.0 * math.pi) ** (1.0 / q)
    pterm = q * abs(a * rr + b + 1.0) ** (q - 1.0) * abs(a) * rr
    return pref * (pterm * distortion_up(params, hp) + abs(b + 1.0) ** q * vmax)


# ---------------------------------------------------------------------------
# partial derivatives


def _wirtinger_prefactor(params: AlphaBeta, r, one_sided: bool = False) -> float:
    """Prefactor for the Wirtinger-derivative bounds.

    The holomorphic-derivative estimate carries |alpha+1| + |beta| r
    (one_sided=True); by conjugation covariance the antiholomorphic one
    carries the swapped weights, so a constant valid for both derivatives
    takes the max.  The two coincide on equal weights.
    """
    a, b = params.alpha, params.beta
    rr = _radius(r)
    holomorphic = abs(a + 1.0) + abs(b) * rr
    return holomorphic if one_sided else max(holomorphic, abs(b + 1.0) + abs(a) * rr)


def _radial_or_angular(params: AlphaBeta, which: str, r) -> tuple:
    """(lead, w, x) of the radial or angular bound at radius r: the bound
    carries the factor lead, its non-oscillatory term the weight w, and
    its sigma-weighted oscillatory term peaks at phase x."""
    rr = _radius(r)
    if which == "radial":
        return 1.0, abs(params.alpha + params.beta) * rr, 0.0
    if which == "angular":
        return rr, abs(params.alpha - params.beta) * rr, 0.5 * math.pi
    raise ParameterError(f"unknown derivative kind {which!r}")


def partial_constant(
    params: AlphaBeta, hp: HolderPair, which: str, r=SUP, nodes: int = DEFAULT_NODES
) -> float:
    """Bound coefficients for |u_r| ('radial'), |u_theta| ('angular'),
    and |u_z|, |u_zbar| ('wirtinger'), all against
    (1-r^2)^(-1-1/p) ||f||_p."""
    s0 = params.sigma
    gap = abs(params.alpha - params.beta)
    absc = abs(params.c_norm)
    rr = _radius(r)

    if hp.q_is_inf:
        if which == "wirtinger":
            return absc * _wirtinger_prefactor(params, rr) * (1.0 + rr) ** s0
        lead, w, _ = _radial_or_angular(params, which, r)
        return absc * lead * (w + max(s0, gap)) * (1.0 + rr) ** s0

    q = hp.q
    m = _kernel_exponent(params, hp)
    if which == "wirtinger":
        return absc * _wirtinger_prefactor(params, r) * plain_moment_closed(m, r) ** (1.0 / q)

    lead, w, x = _radial_or_angular(params, which, r)
    if r == SUP:
        # oscillatory-maximum threshold: exponent (sigma q - 2)/2 above 1
        # favors aligned phases, below 1 the quarter-turn
        x = 0.0 if s0 * q > 4.0 else 0.5 * math.pi
    g_mean = oscillatory_moment(m, q, gap, s0, rr, x, 0.0, nodes) / (2.0 * math.pi)
    coef = q * (w + s0 + gap) ** (q - 1.0) * w
    return absc * lead * (g_mean + coef * plain_moment_closed(m, r)) ** (1.0 / q)


def partial_angular_diagonal_closed(params: AlphaBeta, hp: HolderPair, r: float) -> float:
    """Beta/hypergeometric closed form of the angular coefficient when
    alpha = beta (used as an extra cross-check of the quadrature route)."""
    a = params.alpha
    if params.beta != a:
        raise ParameterError("closed angular form needs alpha = beta")
    if hp.q_is_inf:
        raise ParameterError("closed angular form needs finite q")
    q = hp.q
    bval = beta(0.5 * (1 + q), 0.5)
    fval = gauss_2f1((1.0 - (a + 1.0) * q, 1.0 - (a + 1.5) * q, 1.0 + 0.5 * q), r * r)
    return (
        abs(params.c_norm)
        * (2.0 * a + 2.0)
        * r
        / math.pi ** (1.0 / q)
        * (bval * fval) ** (1.0 / q)
    )


# ---------------------------------------------------------------------------
# integral means of the partial derivatives


def means_constant(params: AlphaBeta, which: str, r=SUP, nodes: int = DEFAULT_NODES) -> float:
    """Integral-means coefficients: M_p(r, .) of u_r ('radial'),
    u_theta ('angular'), u_z and u_zbar ('wirtinger') are bounded by
    constant / (1 - r^2) times ||f||_p, for every p >= 1."""
    a, b = params.alpha, params.beta
    s0, gap = params.sigma, abs(a - b)
    g2 = _half_weight(params)
    fmean = plain_moment_closed(g2, r)
    if which == "wirtinger":
        return abs(params.c_norm) * _wirtinger_prefactor(params, r) * fmean

    def trig_mean(rr, x):
        """(1/2pi) integral of |cos(s - x)| |1 + r e^{-is}|^(alpha+beta) ds."""
        return oscillatory_moment(g2, 1.0, 0.0, 1.0, rr, x, 0.0, nodes) / (2.0 * math.pi)

    lead, w, x = _radial_or_angular(params, which, r)
    if r == SUP:
        # |cos| weighs the r = 1 base more from alpha + beta = 2 on, |sin| below
        osc = (s0 + gap) * trig_mean(1.0, 0.0 if a + b >= 2.0 else 0.5 * math.pi)
    else:
        osc = s0 * trig_mean(float(r), x) + gap * trig_mean(float(r), 0.5 * math.pi - x)
    return abs(params.c_norm) * lead * (w * fmean + osc)


# ---------------------------------------------------------------------------
# assembled report


def full_report(
    params: AlphaBeta, hp: HolderPair, r: float = 0.6, nodes: int = DEFAULT_NODES
) -> BoundReport:
    """Every constant at one (alpha, beta, p), closed forms paired with
    their defining integrals."""
    finite_q = not hp.q_is_inf
    m = _kernel_exponent(params, hp) if finite_q else None
    pair_radii = ((r, f"at r = {r}"), (SUP, "at r = 1"))
    coefficient_radii = ((r, "r", f" at r = {r}"), (SUP, "sup", ", supremum"))

    def circle_means(e, rad):
        """The circle mean of the plain moment of exponent e at rad, in
        closed form and from its integral."""
        return plain_moment_closed(e, rad), plain_moment(e, rad, nodes) / (2.0 * math.pi)

    def one_sided(rad):
        # the holomorphic-derivative prefactor; partial_constant and
        # means_constant symmetrize it to cover the antiholomorphic side
        return abs(params.c_norm) * _wirtinger_prefactor(params, rad, True)

    rep = BoundReport()
    rep.add("heinz_lower_bound", HEINZ_LOWER_BOUND, "Heinz coefficient inequality")
    rep.entries.extend(geometric_constants(params).entries)
    rep.add(
        "rado_radius_unit",
        rado_radius_bound(params, 1.0, 0.0),
        "maximal univalent image radius at unit first coefficient",
    )
    rep.add("starlike_c2", coefficient_bound(params, "starlike_ck", 2), "starlike coefficient bound, k = 2")
    rep.add("starlike_cm2", coefficient_bound(params, "starlike_cmk", 2), "starlike coefficient bound, k = 2")
    try:
        rep.add("c_minus2_bound", coefficient_bound(params, "c_minus2"), "second-coefficient bound")
        rep.add("c2_bound", coefficient_bound(params, "c2"), "second-coefficient bound")
    except ParameterError:
        pass

    # integral-means factor
    rep.add_pair(
        "mp_factor_r",
        mp_growth_factor(params, r),
        mp_growth_factor_quadrature(params, r, nodes),
        f"integral-means factor at r = {r}",
        nodes,
    )
    rep.add("mp_factor_limit", mp_growth_factor(params, SUP), "integral-means factor, r -> 1")

    # growth
    grid = growth_sup_grid(params, hp)
    if finite_q:
        rep.add_pair(
            "growth_r",
            growth_constant(params, hp, r),
            growth_constant_quadrature(params, hp, r, nodes),
            f"growth coefficient at r = {r}",
            nodes,
        )
        reference = growth_sup_reference(params, hp)
        note = None
        if _disagree(grid, reference):
            note = (
                f"closed-form reference {reference:.12g} disagrees with the "
                f"defining-integral supremum {grid:.12g}; the supremum is authoritative"
            )
        rep.add("growth_sup_reference", reference, "growth supremum, closed-form reference", note=note)
        rep.add("growth_sup_grid", grid, "growth supremum, r -> 1 limit")
    else:
        rep.add("growth_r", growth_constant(params, hp, r), "growth coefficient at fixed r (p = 1)")
        rep.add("growth_sup_grid", grid, "growth supremum (p = 1)")

    # distortion
    try:
        if finite_q:
            rep.add_pair(
                "distortion_up",
                distortion_up(params, hp),
                distortion_up_quadrature(params, hp, nodes),
                "distortion endpoint moment",
                nodes,
            )
        rep.add("distortion_r", distortion_constant(params, hp, r, nodes), f"distortion coefficient at r = {r}", nodes)
        rep.add("distortion_sup", distortion_constant(params, hp, SUP, nodes), "distortion coefficient supremum", nodes)
    except ParameterError:
        pass

    # partials
    if finite_q:
        for name, (rad, where) in zip(("i12_r", "i12_sup"), pair_radii):
            closed, quad = circle_means(m, rad)
            source = f"shared kernel moment {where}"
            rep.add_pair(name, 2.0 * math.pi * closed, 2.0 * math.pi * quad, source, nodes)
    for which in KINDS:
        for rad, tag, where in coefficient_radii:
            value = partial_constant(params, hp, which, rad, nodes)
            source = f"partial-derivative coefficient ({which}){where}"
            rep.add(f"partial_{which}_{tag}", value, source, None if which == "wirtinger" else nodes)
    if finite_q:
        names = ("partial_wirtinger_one_sided", "partial_wirtinger_one_sided_sup")
        for name, (rad, where) in zip(names, pair_radii):
            closed, quad = circle_means(m, rad)
            scale, power = one_sided(rad), 1.0 / hp.q
            source = f"one-sided wirtinger coefficient {where}"
            rep.add_pair(name, scale * closed**power, scale * quad**power, source, nodes)
        if params.alpha == params.beta:
            rep.add_pair(
                "partial_angular_diagonal",
                partial_angular_diagonal_closed(params, hp, r),
                partial_constant(params, hp, "angular", r, nodes),
                "angular coefficient, equal-weight closed form",
                nodes,
            )

    # integral means of partials
    names = ("means_wirtinger_one_sided", "means_wirtinger_one_sided_sup")
    for name, (rad, where) in zip(names, pair_radii):
        closed, quad = circle_means(_half_weight(params), rad)
        source = f"one-sided wirtinger means coefficient {where}"
        rep.add_pair(name, one_sided(rad) * closed, one_sided(rad) * quad, source, nodes)
    for which in KINDS:
        for rad, tag, where in coefficient_radii:
            value = means_constant(params, which, rad, nodes)
            source = f"integral-means coefficient ({which}){where}"
            rep.add(f"means_{which}_{tag}", value, source, None if which == "wirtinger" else nodes)
    return rep
