"""Numerical verification harness.

Each check compares solver-computed ground truth against the closed-form
bound or identity it should satisfy and reports margins:

    margin = bound - observed        (inequality checks)
    margin = -|lhs - rhs|            (identity checks)
    margin = 0.3 - |order - 2|       (residual-decay checks)

A case counts as violated when its margin falls below -tolerance or is
not finite: a NaN or infinite margin never passes.  Value
checks run at 1e-8; checks that rest on finite differences are graded on
margins normalized by the bound magnitude at 1e-4, which budgets the
O(h^2) derivative error at the default step h = 1e-3.

Geometric hypotheses (univalence, starlikeness, mapping onto the disk)
have no numerical certificate; coefficient audits apply exactly the
inequalities the caller asserts via flags.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bnd
from ._quad import base_minus, circle_nodes, integrate, p_mean
from .boundary import BoundaryFunction, from_fourier, lp_norm
from .bounds import HolderPair
from .errors import ParameterError
from .harmonic import (
    DEFAULT_STEP,
    _wirtinger_pair,
    operator_residual,
    poisson_extension,
    poisson_integral,
)
from .kernel import AlphaBeta, _mode_hyp, make_params
from .specfun import beta, gauss_2f1, pochhammer

VALUE_TOL = 1e-8
DERIVATIVE_TOL = 1e-4
RATIO_TOL = 1e-12
AUDIT_NODES = 1024
CONSTANT_NODES = 2048  # nodes of the bound constants and the lemma and identity checks
DEFAULT_SEED = 987001
R_GRID = (0.3, 0.6, 0.9)
# one row of eight angles, offset from the axes, per radius of R_GRID: the
# ring of eight angles at phase GROWTH_PHASE; a row is graded at its ring
# radius, since abs(z) can be one ulp off it
GROWTH_PHASE = 2.0 * math.pi * 0.37 / 8
Z_GRID = np.array([[r * np.exp(2j * math.pi * (j + 0.37) / 8) for j in range(8)] for r in R_GRID])


def _polar_rings(phases) -> tuple:
    """The polar stencil rings (r + h, phase), (r - h, phase), (r, phase + h)
    and (r, phase - h) of each R_GRID radius r at its phase (see _polar)."""
    steps = ((DEFAULT_STEP, 0.0), (-DEFAULT_STEP, 0.0), (0.0, DEFAULT_STEP), (0.0, -DEFAULT_STEP))
    return tuple((r + dr, phase + dt) for r, phase in zip(R_GRID, phases) for dr, dt in steps)


# the rings of the Z_GRID row stencils (see _row_wirtinger and _polar),
# built once so that every check and boundary asks the kernel table for the
# same keys: the radius and angle of each Cartesian point z + h, and the
# polar rings of each row's first point, the angle by math.atan2
# (np.arctan2 can differ by an ulp) and r its R_GRID radius, not abs(z), so
# that the polar radii are those of the growth, means and means-partials rings
CARTESIAN_STENCIL = Z_GRID + DEFAULT_STEP
_CARTESIAN_RINGS = tuple((abs(w), math.atan2(w.imag, w.real)) for w in CARTESIAN_STENCIL.ravel().tolist())
_POLAR_RINGS = _polar_rings(math.atan2(z.imag, z.real) for z in Z_GRID[:, 0].tolist())
# where the Cartesian rings hold each stencil point: value k of the ring
# through row point j - 2k (mod 8) is z_j + h i^k, gathered as [k, row, j]
_TURNS = (
    np.arange(len(R_GRID))[:, None],
    (np.arange(8) - 2 * np.arange(4)[:, None, None]) % 8,
    np.arange(4)[:, None, None],
)
_GROWTH_RINGS = tuple((r, GROWTH_PHASE) for r in R_GRID)
_MEANS_RINGS = tuple((r, 0.0) for r in R_GRID)
MEANS_THETAS = 256  # ring points of the means-of-partials stencils
# e^{-i theta} at the MEANS_THETAS angles, for the polar chain rule
_MEANS_EMINUS = np.exp(-1j * circle_nodes(MEANS_THETAS))
_MEANS_EMINUS.flags.writeable = False
# the polar stencil rings of the means-of-partials check
_MEANS_STENCILS = _polar_rings((0.0,) * len(R_GRID))
PARTIAL_KINDS = ("radial", "angular", "wirtinger", "wirtinger")  # of u_r, u_theta, u_z, u_zbar
# the case ids and grading radii of the boundary checks, in grading order:
# the Z_GRID points row by row (growth, distortion), each with its four
# partials (partials), and the R_GRID rings (integral means), each with
# its four partials (means of partials)
_POINT_IDS = tuple(f"z{i}" for i in range(Z_GRID.size))
_POINT_RADII = tuple(r for r in R_GRID for _ in range(Z_GRID.shape[1]))
_PARTIAL_IDS = tuple(f"{case}:{which}" for case in _POINT_IDS for which in PARTIAL_KINDS)
_PARTIAL_RADII = tuple(r for r in _POINT_RADII for _ in PARTIAL_KINDS)
_RING_IDS = tuple(f"r={r}" for r in R_GRID)
_RING_PARTIAL_IDS = tuple(f"{case}:{which}" for case in _RING_IDS for which in PARTIAL_KINDS)
_RING_PARTIAL_RADII = tuple(r for r in R_GRID for _ in PARTIAL_KINDS)
RATIO_T_GRID = np.linspace(0.01, 0.99, 99)
OSC_RADII = (0.2, 0.5, 0.8, 0.95)
OSC_PHASES = np.linspace(0.0, 2.0 * math.pi, 33)[:-1]
IDENTITY_RADII = (0.1, 0.3, 0.5, 0.7, 0.9)
RESIDUAL_STEPS = (1e-2, 5e-3, 2.5e-3)

STANDARD_PAIRS = ((0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2), (0.0, 1.0))
STANDARD_EXPONENTS = (1.0, 2.0, 4.0, math.inf)


@dataclass(eq=False)
class AuditResult:
    """The cases of a check as three columns: their ids, their radii (None
    for a case without one) and their margins, a float array.  The counts,
    the worst margin and the verdict are read from the margins: a case is
    violated when its margin is below -tolerance or not finite."""

    name: str
    ids: tuple
    radii: tuple
    margins: np.ndarray
    tolerance: float
    seed: int | None = None
    notes: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # margins of any shape, read in C order
        self.ids, self.radii = tuple(self.ids), tuple(self.radii)
        self.margins = np.asarray(self.margins, dtype=float).ravel()
        if not len(self.ids) == len(self.radii) == self.margins.size:
            raise ValueError(
                f"{self.name}: {len(self.ids)} ids, {len(self.radii)} radii and {self.margins.size} margins"
            )

    @property
    def cases_total(self) -> int:
        return self.margins.size

    @property
    def cases_violated(self) -> int:
        return int(np.count_nonzero(~(np.isfinite(self.margins) & (self.margins >= -self.tolerance))))

    @property
    def worst_margin(self) -> float:
        """The smallest margin, NaN when any is NaN, 0 for no case."""
        return float(np.min(self.margins)) if self.margins.size else 0.0

    @property
    def details(self) -> list:
        """The cases as (id, radius, margin) triples."""
        return list(zip(self.ids, self.radii, self.margins.tolist()))

    @property
    def passed(self) -> bool | None:
        """Whether no case is violated; None for a result without cases,
        which did not apply and so neither passed nor failed."""
        if not self.cases_total:
            return None
        return self.cases_violated == 0

    def to_dict(self) -> dict:
        """The result as JSON; one without cases writes "passed": null and
        "applicable": false."""
        passed = self.passed
        out = {
            "name": self.name,
            "cases_total": self.cases_total,
            "cases_violated": self.cases_violated,
            "worst_margin": self.worst_margin,
            "tolerance": self.tolerance,
            "passed": passed,
        }
        if passed is None:
            out["applicable"] = False
        if self.seed is not None:
            out["seed"] = self.seed
        if self.notes:
            out["notes"] = list(self.notes)
        if self.extras:
            out["extras"] = dict(self.extras)
        out["margins"] = [[case, None if r is None else float(r), m] for case, r, m in self.details]
        return out


def _collect(name, records, tolerance, notes=()) -> AuditResult:
    """records: iterable of (case_id, r, margin)."""
    return AuditResult(name, *(tuple(zip(*records)) or ((), (), ())), tolerance, notes=list(notes))


def merge_results(name: str, results) -> AuditResult:
    """One result holding every case of results in order, each distinct
    note once; results graded at different tolerances raise ValueError."""
    results = list(results)
    tolerances = {r.tolerance for r in results}
    if len(tolerances) > 1:
        raise ValueError(f"{name}: cannot merge results graded at tolerances {sorted(tolerances)}")
    out = AuditResult(
        name,
        [case for r in results for case in r.ids],
        [radius for r in results for radius in r.radii],
        np.concatenate([r.margins for r in results] or [()]),
        tolerances.pop() if results else 0.0,
    )
    for r in results:
        out.notes.extend(note for note in r.notes if note not in out.notes)
        for k, v in r.extras.items():
            # a NaN extra wins whatever its place: it is never a pass
            if k not in out.extras or v > out.extras[k] or math.isnan(v):
                out.extras[k] = v
    return out


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Uniforms:
    """The stream of ``np.random.default_rng(seed).uniform()`` in pure
    Python, so that no suite imports ``numpy.random``: NumPy's
    ``SeedSequence`` hashes the seed's 32-bit words into four 64-bit words,
    which seed PCG64 (a 128-bit LCG with XSL-RR output), and a uniform is
    ``(x >> 11) * 2**-53``.  A seed that is not an integer >= 0 raises
    ParameterError."""

    def __init__(self, seed):
        try:
            self.seed = operator.index(seed)
        except TypeError:
            self.seed = -1
        if isinstance(seed, bool) or self.seed < 0:
            raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
        words = [self.seed >> i & _M32 for i in range(0, max(self.seed.bit_length(), 1), 32)]
        const = 0x43B0D7E5

        def hashmix(value):
            nonlocal const
            value = (value ^ const) * (const := const * 0x931E8875 & _M32) & _M32
            return value ^ value >> 16

        def mix(x, y):
            x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return x ^ x >> 16

        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = mix(pool[dst], hashmix(word))
        out, const = [], 0x8B51F9DD
        for i in range(8):
            value = (pool[i % 4] ^ const) * (const := const * 0x58F38DED & _M32) & _M32
            out.append(value ^ value >> 16)
        # four little-endian 64-bit words: the state's high and low word,
        # then the increment's
        w = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
        state, self._inc = w[0] << 64 | w[1], (w[2] << 65 | w[3] << 1 | 1) & _M128
        self._state = ((self._inc + state) * _PCG_MULT + self._inc) & _M128

    def uniform(self, size=None):
        """One uniform in [0, 1), or a float64 array of ``size``."""
        state, inc = self._state, self._inc
        draws = []
        for _ in range(1 if size is None else size):
            state = (state * _PCG_MULT + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122
            draws.append((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53)
        self._state = state
        return draws[0] if size is None else np.array(draws)


def random_boundary(rng, order: int = 8) -> BoundaryFunction:
    """Seeded trig polynomial with coefficients uniform in the unit disk,
    scaled by 1/(1+|k|) to keep the functions tame.

    rng is anything with NumPy's ``uniform(size=n)``: a
    ``np.random.Generator``, or the suites' own generator of a seed, which
    draws the stream of ``np.random.default_rng(seed)`` without importing
    ``numpy.random``; both give the same boundary."""
    # one draw of every uniform, a (modulus, angle) pair per mode: the
    # stream of one draw per uniform
    draws = iter(rng.uniform(size=2 * (2 * order + 1)).tolist())
    coeffs = {}
    for k, (u, v) in zip(range(-order, order + 1), zip(draws, draws)):
        coeffs[k] = math.sqrt(u) * np.exp(2j * math.pi * v) / (1.0 + abs(k))
    return from_fourier(coeffs)


# ---------------------------------------------------------------------------
# growth / means / distortion / partials


# Each Z_GRID row is its first point turned eight times by 2pi/8, and the
# m turns of a point w are the ring of m angles at |w| and phase arg w, so
# the row stencils below are rings (PoissonExtension._circles), whose
# kernel coefficients each weight pair computes once.  They are the
# central differences of harmonic.wirtinger_derivatives and
# radial_angular_derivatives at the default step, with u at each turned
# point taken from the ring instead of the dense sum, so they agree with
# those to the rounding of u (about 1e-14 of its size) over 2h.  The
# distortion and partials checks both read the Wirtinger pair of the
# Cartesian rings; standard_suite runs a boundary's checks one after the
# other, so the pair is folded once per (weights, boundary, nodes) and
# handed to both (_boundary_wirtinger).


def _row_wirtinger(u):
    """(u_z, u_zbar) on Z_GRID.  The Cartesian stencil point z_j + h i^k
    is i^k (z_{j-2k} + h), so the rings of four angles through the 24
    points CARTESIAN_STENCIL hold all 96 stencil points."""
    up, vp, um, vm = u._circles(_CARTESIAN_RINGS, 4).reshape(CARTESIAN_STENCIL.shape + (4,))[_TURNS]
    return _wirtinger_pair(up, um, vp, vm, DEFAULT_STEP)


@functools.lru_cache(maxsize=1)
def _boundary_wirtinger(params: AlphaBeta, boundary: weakref.ref, nodes: int) -> tuple:
    """_row_wirtinger of the extension of the boundary a weak reference
    names, read-only: the distortion and partials checks of one boundary
    share one fold of the Cartesian rings.  The key holds the boundary by
    weak reference, so the memo keeps no released boundary alive, and a
    reference to a released one matches no other key."""
    pair = _row_wirtinger(poisson_extension(params, boundary(), nodes))
    for rows in pair:
        rows.flags.writeable = False
    return pair


def _polar(u, rings, n_theta):
    """(u_r, u_theta) by central differences on the n_theta angles of each
    radius's four polar stencil rings (_polar_rings), a row per radius:
    on Z_GRID for the rings _POLAR_RINGS at eight angles."""
    h = DEFAULT_STEP
    rp, rm, tp, tm = np.moveaxis(u._circles(rings, n_theta).reshape(-1, 4, n_theta), 1, 0)
    return (rp - rm) / (2.0 * h), (tp - tm) / (2.0 * h)


def _normalized(margins, bounds):
    """margins relative to max(1, |bounds|)."""
    return margins / np.maximum(1.0, np.abs(bounds))


def _modulus(z):
    # abs() of each complex; np.abs of a complex array can differ by an ulp
    return np.hypot(z.real, z.imag)


def check_growth(
    params: AlphaBeta, f: BoundaryFunction, hp: HolderPair, nodes: int = AUDIT_NODES
) -> AuditResult:
    """|u(z)| against the growth bound at every grid point."""
    norm = lp_norm(f, hp.p)
    uvals = poisson_extension(params, f, nodes)._circles(_GROWTH_RINGS, 8)
    # at p = inf this is |u| <= A(r) ||f||, A(r) the kernel-modulus mass,
    # which reduces to the classical |u| <= ||f|| at (0, 0)
    bound = [bnd.growth_constant(params, hp, r) * (1.0 - r * r) ** (-1.0 / hp.p) * norm for r in R_GRID]
    margins = np.array(bound)[:, None] - _modulus(uvals)
    return AuditResult("growth", _POINT_IDS, _POINT_RADII, margins, VALUE_TOL)


def check_integral_means(
    params: AlphaBeta, f: BoundaryFunction, hp: HolderPair, nodes: int = AUDIT_NODES
) -> AuditResult:
    """M_p(r, u) against the hypergeometric factor; for constant data on
    equal weights the bound is attained, and the gap is reported."""
    norm = lp_norm(f, hp.p)
    means = p_mean(poisson_extension(params, f, nodes)._circles(_MEANS_RINGS, nodes), hp.p)
    margins = np.array([bnd.mp_growth_factor(params, r) * norm for r in R_GRID]) - means
    extras = {}
    if f.is_constant and params.alpha == params.beta:
        extras["sharpness_gap"] = float(np.max(np.abs(margins)))
    return AuditResult("integral_means", _RING_IDS, R_GRID, margins, VALUE_TOL, extras=extras)


def check_distortion(
    params: AlphaBeta, f: BoundaryFunction, hp: HolderPair, nodes: int = AUDIT_NODES
) -> AuditResult:
    """|Du| by finite differences against the distortion bound."""
    norm = lp_norm(f, hp.p)
    # the constants before any ring: where bounds leaves one undefined, the
    # ParameterError comes before a kernel sample
    coefs = bnd.distortion_constant(params, hp, R_GRID, CONSTANT_NODES)
    bound = [coef * (1.0 - r * r) ** (-1.0 - 1.0 / hp.p) * norm for coef, r in zip(coefs, R_GRID)]
    bound = np.array(bound)[:, None]
    uz, uzb = _boundary_wirtinger(params, weakref.ref(f), nodes)
    margins = _normalized(bound - (_modulus(uz) + _modulus(uzb)), bound)
    return AuditResult("distortion", _POINT_IDS, _POINT_RADII, margins, DERIVATIVE_TOL)


def check_partials(
    params: AlphaBeta, f: BoundaryFunction, hp: HolderPair, nodes: int = AUDIT_NODES
) -> AuditResult:
    """|u_r|, |u_theta|, |u_z|, |u_zbar| against their bound coefficients."""
    norm = lp_norm(f, hp.p)
    polar = _polar(poisson_extension(params, f, nodes), _POLAR_RINGS, 8)
    # (radius, point, partial) in the order of PARTIAL_KINDS
    observed = _modulus(np.stack((*polar, *_boundary_wirtinger(params, weakref.ref(f), nodes)), axis=-1))
    kinds = {which: bnd.partial_constant(params, hp, which, R_GRID, CONSTANT_NODES) for which in bnd.KINDS}
    bound = []
    for i, r in enumerate(R_GRID):
        blow = (1.0 - r * r) ** (-1.0 - 1.0 / hp.p) * norm
        bound.append([kinds[which][i] * blow for which in PARTIAL_KINDS])
    bound = np.array(bound)[:, None, :]
    margins = _normalized(bound - observed, bound)
    return AuditResult("partials", _PARTIAL_IDS, _PARTIAL_RADII, margins, DERIVATIVE_TOL)


def check_means_partials(
    params: AlphaBeta, f: BoundaryFunction, hp: HolderPair, nodes: int = AUDIT_NODES
) -> AuditResult:
    """M_p of the four first-order partials against the means coefficients.

    The exponent p comes with the boundary norm; the coefficients
    themselves do not depend on it.
    """
    norm = lp_norm(f, hp.p)
    u = poisson_extension(params, f, nodes)
    # radial and angular central differences on the twelve stencil rings,
    # then the exact polar chain rule for the Wirtinger pair
    ur, ut = _polar(u, _MEANS_STENCILS, MEANS_THETAS)
    r = np.array(R_GRID)[:, None]
    uz = 0.5 * _MEANS_EMINUS * (ur - 1j * ut / r)
    uzb = 0.5 * np.conj(_MEANS_EMINUS) * (ur + 1j * ut / r)
    # (radius, partial) in the order of PARTIAL_KINDS, one mean per ring
    observed = p_mean(np.stack((ur, ut, uz, uzb), axis=1), hp.p)
    kinds = {which: bnd.means_constant(params, which, R_GRID, CONSTANT_NODES) for which in bnd.KINDS}
    bound = []
    for i, r in enumerate(R_GRID):
        blow = norm / (1.0 - r * r)
        bound.append([kinds[which][i] * blow for which in PARTIAL_KINDS])
    bound = np.array(bound)
    margins = _normalized(bound - observed, bound)
    return AuditResult("means_partials", _RING_PARTIAL_IDS, _RING_PARTIAL_RADII, margins, DERIVATIVE_TOL)


# ---------------------------------------------------------------------------
# lemma-level checks


def check_hypergeometric_ratio_lemma(params: AlphaBeta, k: int) -> AuditResult:
    """Monotonicity of F_k/F_1 and E_k/F_1 in each stated weight regime.

    F_k(t) = F(-alpha, k-beta; k+1; t) and E_k(t) = F(-beta, k-alpha; k+1; t)
    are the hypergeometric factors of series modes k and -k, k >= 2 (at
    k = 1 the ratios are 1 by construction, and k < 1 is no mode of the
    claims): a smaller k raises ParameterError.  Only the factors an
    applicable claim reads are summed: where no regime applies, the check
    sums none.
    """
    if not k >= 2:
        raise ParameterError(f"the ratio lemma needs a mode k >= 2, got k = {k}")
    a, b = params.alpha, params.beta
    # (applies, label, signed mode, sign) of each claim, in record order, the
    # two F claims first: sign 0 grades F/F_1 = 1 and sign +-1 grades
    # +-np.diff(F/F_1), F the factor of the signed mode
    table = (
        (a == 0.0, "Fk/F1 const", k, 0),
        (a < 0.0 and -1.0 < b < 1.0, "Fk/F1 incr", k, 1),
        (a == 0.0 and -1.0 < b <= 0.0, "Ek incr", -k, 1),
        (a == 0.0 and b > 0.0, "Ek decr", -k, -1),
        (-1.0 < b < a < 0.0, "Ek/F1 incr", -k, 1),
    )
    notes = [] if table[0][0] or table[1][0] else [f"no stated F-ratio regime applies at ({a}, {b})"]
    claims = [row[1:] for row in table if row[0]]
    # F_1 and the factor of each claim, each summed once
    modes = dict.fromkeys(m for _, mode, _ in claims for m in (1, mode))
    factors = {m: np.array([gauss_2f1(_mode_hyp(params, m), t) for t in RATIO_T_GRID]) for m in modes}
    records = []
    for label, mode, sign in claims:
        ratio = factors[mode] / factors[1]
        if sign:
            t_grid, margins = RATIO_T_GRID[1:], sign * np.diff(ratio)
        else:
            t_grid, margins = RATIO_T_GRID, -np.abs(ratio - 1.0)
        records += [(f"{label} t={t:.3f}", None, m) for t, m in zip(t_grid, margins)]
    return _collect("hypergeometric_ratio_lemma", records, RATIO_TOL, notes=notes)


def check_oscillatory_maximum_lemmas(m: float, k: float, a_off: float, b_amp: float) -> AuditResult:
    """Maximizer claims for the oscillatory kernel moments.

    D(r, x) (weight shifted against a fixed base) is bounded by its
    r = 1 value at phase 0 for m > 1 and at pi/2 for m <= 1.  The
    companion moment L(y) (base shifted against a fixed weight) has the
    same maximizing phases: 0 for m > 1, pi/2 for m < 1, constant at
    m = 1; the orientation follows the direct grid scan, which is the
    defining check here.
    """
    return _oscillatory_maximum([(m, k, a_off, b_amp)])[0]


def _oscillatory_phase(m: float) -> float:
    # the maximizing phase of D at r = 1 and of L: 0 for m > 1, else pi/2
    return 0.0 if m > 1.0 else 0.5 * math.pi


def _oscillatory_keys(m: float) -> list:
    """The (r, x, y) of every moment the lemma check at exponent m reads,
    in the order it reads them."""
    keys = [(1.0, _oscillatory_phase(m), 0.0)]
    keys += [(r, float(x), 0.0) for r in OSC_RADII for x in OSC_PHASES]
    keys += [(r, 0.0, float(y)) for r in OSC_RADII for y in OSC_PHASES]
    if m != 1.0:
        keys += [(r, 0.0, _oscillatory_phase(m)) for r in OSC_RADII]
    return keys


def _oscillatory_maximum(sets) -> list:
    """check_oscillatory_maximum_lemmas at each (m, k, a_off, b_amp) of sets.

    The moments are taken key-major: every moment of every set at one
    (r, x, y), so at one moment table, before any at the next, which
    builds each table once however many sets share it.  Each moment is the
    same call in any order, so each result is the one a lone check gives.
    """
    for _, _, a_off, b_amp in sets:
        if a_off < 0.0 or b_amp <= 0.0:
            raise ParameterError("need offset >= 0 and amplitude > 0")
    users = {}
    for s in sets:
        if s[0] > -0.5:
            for key in _oscillatory_keys(s[0]):
                users.setdefault(key, {})[s] = None
    values = {
        (s, key): bnd.oscillatory_moment(*s, *key, CONSTANT_NODES)
        for key, group in users.items()
        for s in group
    }
    return [_oscillatory_result(s, values) for s in sets]


def _oscillatory_result(s: tuple, values: dict) -> AuditResult:
    # the lemma check of the parameter set s from its moments in values
    m = s[0]
    records = []
    notes = []
    if m <= -0.5:
        notes.append("r = 1 reference moment diverges for m <= -1/2; bound is trivial")
        return _collect("oscillatory_maximum", [], VALUE_TOL, notes=notes)

    def moment(r, x=0.0, y=0.0):
        return values[s, (r, float(x), float(y))]

    d_ref = moment(1.0, x=_oscillatory_phase(m))
    for r in OSC_RADII:
        for x in OSC_PHASES:
            records.append((f"D r={r} x={x:.3f}", float(r), d_ref - moment(r, x=x)))

    for r in OSC_RADII:
        l_vals = [moment(r, y=y) for y in OSC_PHASES]
        if m == 1.0:
            center = float(np.mean(l_vals))
            scale = max(1.0, abs(center))
            records += [
                (f"L const r={r} y={y:.3f}", float(r), -abs(v - center) / scale * 1e2)
                for y, v in zip(OSC_PHASES, l_vals)
            ]
            # constancy graded at 1e-10 via the 1e2 factor against VALUE_TOL
        else:
            l_ref = moment(r, y=_oscillatory_phase(m))
            records += [
                (f"L max r={r} y={y:.3f}", float(r), l_ref - v) for y, v in zip(OSC_PHASES, l_vals)
            ]
    return _collect("oscillatory_maximum", records, VALUE_TOL, notes=notes)


def check_integral_identities(mu: float, nu: float, r_grid=IDENTITY_RADII) -> AuditResult:
    """Sine-power and plain kernel-moment identities against their
    Beta/hypergeometric right sides."""
    if mu <= 0.0:
        raise ParameterError("sine-power identity needs mu > 0")
    records = []
    for r in r_grid:
        lhs = integrate(
            lambda t: np.sin(t) ** (mu - 1.0) * base_minus(r, t) ** (-nu),
            0.0,
            math.pi,
            CONSTANT_NODES,
        )
        rhs = beta(0.5 * mu, 0.5) * gauss_2f1((nu, nu + 0.5 * (1.0 - mu), 0.5 * (1.0 + mu)), r * r)
        records.append((f"sine-power r={r}", r, -abs(lhs - rhs) / max(1.0, abs(rhs))))
        lhs2 = 0.5 * bnd.plain_moment(-nu, r, CONSTANT_NODES)
        rhs2 = math.pi * bnd.plain_moment_closed(-nu, r)
        records.append((f"plain-moment r={r}", r, -abs(lhs2 - rhs2) / max(1.0, abs(rhs2))))
    return _collect("integral_identities", records, VALUE_TOL)


def check_kernel_mean_and_residual(
    params: AlphaBeta, f: BoundaryFunction, r_grid=IDENTITY_RADII
) -> AuditResult:
    """Kernel circle means against their closed forms, plus second-order
    decay of the finite-difference operator residual for the extension
    of f.

    The modulus mean equals |c| F(-(a+b)/2, -(a+b)/2; 1; r^2); the plain
    mean equals c F(-alpha, -beta; 1; r^2), the factor of series mode 0;
    both scale with c, so their errors are graded relative to
    max(1, |closed form|).  Residual orders are graded as
    margin = 0.3 - |order - 2|.
    """
    one = from_fourier({0: 1.0})
    records = []
    for r in r_grid:
        mod_mean = bnd.mp_growth_factor_quadrature(params, r, CONSTANT_NODES)
        closed = bnd.mp_growth_factor(params, r)
        records.append((f"modulus-mean r={r}", r, -abs(mod_mean - closed) / max(1.0, abs(closed))))
        plain = poisson_integral(params, one, r, CONSTANT_NODES)
        closed = params.c_norm * gauss_2f1(_mode_hyp(params, 0), r * r)
        records.append((f"plain-mean r={r}", r, -abs(plain - closed) / max(1.0, abs(closed))))

    u = poisson_extension(params, f, CONSTANT_NODES)
    rng = _Uniforms(4)
    pts = [0.55 * math.sqrt(rng.uniform()) * np.exp(2j * math.pi * rng.uniform()) for _ in range(4)]
    steps = [operator_residual(params, u, np.array(pts), h) for h in RESIDUAL_STEPS]
    order_records = []
    notes = ["residual margins graded as 0.3 - |order - 2|"]
    for i, (z, *row) in enumerate(zip(pts, *steps)):
        res = [abs(v) for v in row]
        if max(res) < 1e-8:
            # stencil error vanishes (low-order polynomial solution); the
            # operator annihilates u to rounding and no rate is measurable
            order_records.append((f"residual z{i} noise-floor", abs(z), 0.3))
            continue
        for j in range(len(res) - 1):
            if res[j + 1] == 0.0:
                continue
            order = math.log2(res[j] / res[j + 1])
            order_records.append((f"residual z{i} pair{j}", abs(z), 0.3 - abs(order - 2.0)))
    return _collect("kernel_mean_and_residual", records + order_records, VALUE_TOL, notes=notes)


def check_coefficient_inequalities(params: AlphaBeta, coeffs, flags: dict) -> AuditResult:
    """Coefficient inequalities under caller-asserted class membership.

    flags may set: typically_real, starlike, in_s0, onto_disk.  Geometric
    hypotheses are never inferred.
    """
    a, b = params.alpha, params.beta
    records = []
    notes = []
    order = coeffs.order
    if flags.get("typically_real"):
        cm1 = coeffs.c(-1)
        for k in range(2, order + 1):
            lhs = abs(coeffs.c(k) / pochhammer(1 + a, k) - coeffs.c(-k) / pochhammer(1 + b, k))
            rhs = bnd.coefficient_bound(params, "typically_real", k, cm1)
            records.append((f"typically_real k={k}", None, rhs - lhs))
    if flags.get("starlike"):
        for k in range(2, order + 1):
            for label, kind, c in ((f"starlike c{k}", "starlike_ck", k), (f"starlike c-{k}", "starlike_cmk", -k)):
                try:
                    records.append((label, None, bnd.coefficient_bound(params, kind, k) - abs(coeffs.c(c))))
                except ParameterError as exc:
                    notes.append(str(exc))
    if flags.get("in_s0"):
        try:
            records.append(
                (
                    "second coefficient c-2",
                    None,
                    bnd.coefficient_bound(params, "c_minus2") - abs(coeffs.c(-2)),
                )
            )
            records.append(
                ("second coefficient c2", None, bnd.coefficient_bound(params, "c2") - abs(coeffs.c(2)))
            )
        except ParameterError as exc:
            notes.append(str(exc))
    if flags.get("onto_disk"):
        value = bnd.heinz_functional(params, coeffs.c(0), coeffs.c(1), coeffs.c(-1))
        records.append(("heinz", None, value - bnd.HEINZ_LOWER_BOUND))
    return _collect("coefficient_inequalities", records, VALUE_TOL, notes=notes)


# ---------------------------------------------------------------------------
# suites


def _boundary_checks() -> tuple:
    """The five boundary checks as (suite, result name, check) in
    standard_suite's order, looked up at each call so that a check
    replaced on the module (a tracing or test wrapper) is the one run."""
    return (
        ("growth", "growth", check_growth),
        ("means", "integral_means", check_integral_means),
        ("distortion", "distortion", check_distortion),
        ("partials", "partials", check_partials),
        ("means", "means_partials", check_means_partials),
    )


SUITE_NAMES = (*dict.fromkeys(row[0] for row in _boundary_checks()), "lemmas", "identities", "all")


def _draw_boundaries(seed, n_boundaries: int) -> tuple:
    """The seed as an int and n_boundaries random_boundary draws from its
    stream; n_boundaries < 1, then a bad seed, raises ParameterError."""
    if not n_boundaries >= 1:  # no boundary would pass on zero cases
        raise ParameterError(f"suites need n_boundaries >= 1, got {n_boundaries}")
    rng = _Uniforms(seed)
    return rng.seed, [random_boundary(rng) for _ in range(n_boundaries)]


def run_suite(
    name: str,
    params: AlphaBeta,
    hp: HolderPair,
    seed: int = DEFAULT_SEED,
    n_boundaries: int = 10,
    nodes: int = AUDIT_NODES,
) -> list:
    """Run one named suite at a single parameter point on n_boundaries
    boundaries drawn by random_boundary from the stream of
    ``np.random.default_rng(seed)``, which the suite draws itself without
    importing ``numpy.random``.  n_boundaries < 1, or a seed that is not an
    integer >= 0 (a Python or NumPy integer), raises ParameterError."""
    if name not in SUITE_NAMES:
        raise ParameterError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    seed, boundaries = _draw_boundaries(seed, n_boundaries)
    results = []
    checks = sorted(_boundary_checks(), key=lambda row: SUITE_NAMES.index(row[0]))
    for suite, result, check in checks:
        if name not in (suite, "all"):
            continue
        try:
            cases = [check(params, f, hp, nodes=nodes) for f in boundaries]
        except ParameterError as exc:
            if result != "distortion":
                raise
            # bounds leaves its constant undefined here: no case applies
            cases = [_collect(result, [], DERIVATIVE_TOL, notes=[str(exc)])]
        if result == "integral_means":
            cases.append(check(params, from_fourier({0: 1.0}), hp, nodes=nodes))
        results.append(merge_results(result, cases))
    if name in ("lemmas", "all"):
        ratio = [check_hypergeometric_ratio_lemma(params, k) for k in (2, 3, 5)]
        results.append(merge_results("hypergeometric_ratio_lemma", ratio))
        osc = _oscillatory_maximum(
            [(m, k, a_off, 1.0) for m in (0.5, 1.0, 2.0) for k, a_off in ((1.0, 0.0), (2.0, 0.3))]
        )
        results.append(merge_results("oscillatory_maximum", osc))
    if name in ("identities", "all"):
        idents = [
            check_integral_identities(2.0, 0.5),
            check_integral_identities(1.0, 1.0),
            check_integral_identities(3.5, -0.4),
        ]
        results.append(merge_results("integral_identities", idents))
        results.append(check_kernel_mean_and_residual(params, boundaries[0]))
    for res in results:
        res.seed = seed
    return results


def standard_suite(seed: int = DEFAULT_SEED, n_boundaries: int = 100, nodes: int = AUDIT_NODES) -> list:
    """The cross-parameter inequality sweep: 100 seeded boundaries cycled
    round-robin over the standard weight pairs and exponents.  The
    boundaries are drawn as in run_suite, from the stream of
    ``np.random.default_rng(seed)`` without importing ``numpy.random``.
    n_boundaries < 1, or a seed that is not an integer >= 0, raises
    ParameterError."""
    seed, boundaries = _draw_boundaries(seed, n_boundaries)
    combos = [
        (make_params(a, b), HolderPair.from_p(p))
        for (a, b) in STANDARD_PAIRS
        for p in STANDARD_EXPONENTS
    ]
    checks = _boundary_checks()
    results = [None] * n_boundaries
    # check the boundaries weight pair by weight pair, each pair's in index
    # order, so that each pair builds its kernel table once (the table
    # keeps only the latest pair); a boundary is released after its checks,
    # so only one boundary's sample grids are alive at once
    for i in sorted(range(n_boundaries), key=lambda i: i % len(combos) // len(STANDARD_EXPONENTS)):
        f, boundaries[i] = boundaries[i], None
        params, hp = combos[i % len(combos)]
        results[i] = [check(params, f, hp, nodes=nodes) for _, _, check in checks]
    out = [merge_results(result, col) for col, (_, result, _) in zip(zip(*results), checks)]
    for res in out:
        res.seed = seed
    return out
