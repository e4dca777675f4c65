"""Solver core: Poisson integral, series expansion, and measurements.

The two routes to a weighted-harmonic function u with boundary data f are

* the Poisson integral u(z) = (1/2pi) int P(z e^{-it}) f(e^{it}) dt,
  computed with the periodic trapezoid rule, and
* the two-sided series u(z) = sum_k c_k F(-alpha, k-beta; k+1; |z|^2) z^k
  + sum_k c_{-k} F(-beta, k-alpha; k+1; |z|^2) conj(z)^k.

Matching the radial limits of the series against the Fourier data of f
gives c_k = f_hat(k) / F(.; 1), which makes the two routes agree inside
the disk for trigonometric-polynomial data.

Derivative and operator measurements use central finite differences and
treat the function under test as an opaque evaluation callback.  The
evaluation rule: a PoissonExtension evaluates arrays and rings itself
(a ring through its FFT circle convolution); any other callable is
called once per point.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._quad import circle_nodes, p_mean
from .boundary import BoundaryFunction
from .errors import DomainError, StencilError
from .kernel import AlphaBeta, unnormalized_kernel
from .specfun import HypParams, gauss_2f1, gauss_2f1_at_one

DEFAULT_NODES = 4096
DEFAULT_STEP = 1e-3


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk."""

    z: complex

    def __post_init__(self):
        if not abs(self.z) < 1.0:
            raise DomainError(f"|z| must be < 1, got {abs(self.z)}")

    @property
    def r(self) -> float:
        return abs(self.z)

    @property
    def theta(self) -> float:
        return math.atan2(self.z.imag, self.z.real)


def _as_z(z) -> complex:
    return (z if isinstance(z, DiskPoint) else DiskPoint(complex(z))).z


@dataclass
class SeriesCoefficients:
    """Truncated two-sided coefficient sequence c_{-K} ... c_K.

    pos holds c_0 ... c_K, neg holds c_{-1} ... c_{-K}.
    """

    pos: list
    neg: list

    def __post_init__(self):
        self.pos = [complex(v) for v in self.pos]
        self.neg = [complex(v) for v in self.neg]
        if not self.pos:
            self.pos = [0j]
        while len(self.neg) < max(len(self.pos) - 1, 1):
            self.neg.append(0j)

    @property
    def order(self) -> int:
        return max(len(self.pos) - 1, len(self.neg))

    def c(self, k: int) -> complex:
        if k >= 0:
            return self.pos[k] if k < len(self.pos) else 0j
        return self.neg[-k - 1] if -k - 1 < len(self.neg) else 0j

    @classmethod
    def from_dict(cls, coeffs: dict) -> "SeriesCoefficients":
        coeffs = {int(k): complex(v) for k, v in coeffs.items()}
        kmax = max((abs(k) for k in coeffs), default=1)
        return cls(
            [coeffs.get(k, 0j) for k in range(kmax + 1)],
            [coeffs.get(-k, 0j) for k in range(1, kmax + 1)],
        )

    def to_dict(self) -> dict:
        out = {k: v for k, v in enumerate(self.pos)}
        out.update({-(i + 1): v for i, v in enumerate(self.neg)})
        return out


@dataclass
class HarmonicSnapshot:
    """Coefficients of the plain-harmonic circle match at radius r.

    A[k] = c_k F(-alpha, k-beta; k+1; r^2) r^k for k = 0..K and
    B[k-1] = c_{-k} F(-beta, k-alpha; k+1; r^2) r^k for k = 1..K; these
    are the coefficients of the harmonic function sharing u's values on
    |z| = r, written in powers of e^{i theta}.
    """

    r: float
    A: list
    B: list

    def circle_values(self, theta) -> np.ndarray:
        coeffs = dict(enumerate(self.A))
        coeffs.update({-(i + 1): b for i, b in enumerate(self.B)})
        return BoundaryFunction(coeffs).evaluate(theta)

    def normalized_ratios(self):
        """(A_k/A_1 for k >= 2, B_k/A_1 for k >= 1); requires A_1 != 0."""
        a1 = self.A[1]
        if a1 == 0:
            raise DomainError("normalization requires A_1 != 0")
        return [a / a1 for a in self.A[2:]], [b / a1 for b in self.B]


# ---------------------------------------------------------------------------
# the two solution routes


def _pos_hyp(params: AlphaBeta, k: int) -> HypParams:
    return HypParams(-params.alpha, k - params.beta, k + 1.0)


def _neg_hyp(params: AlphaBeta, k: int) -> HypParams:
    return HypParams(-params.beta, k - params.alpha, k + 1.0)


def check_nodes(nodes: int) -> int:
    """Return nodes, raising DomainError unless it is a power of two >= 64."""
    if nodes < 64 or nodes & (nodes - 1):
        raise DomainError(f"nodes must be a power of two >= 64, got {nodes}")
    return nodes


def poisson_integral(params: AlphaBeta, f: BoundaryFunction, z, nodes: int = DEFAULT_NODES):
    """Poisson integral of f at z: a complex for a scalar or DiskPoint z, else an array."""
    t = circle_nodes(check_nodes(nodes))
    z = np.asarray(z.z if isinstance(z, DiskPoint) else z, dtype=complex)
    if not np.all(np.abs(z) < 1.0):
        raise DomainError(f"|z| must be < 1, got {np.max(np.abs(z))}")
    kern = unnormalized_kernel(params, z[..., None] * np.exp(-1j * t))
    vals = params.c_norm * np.mean(kern * f.values_on_grid(nodes), axis=-1)
    return complex(vals) if vals.ndim == 0 else vals


class PoissonExtension:
    """The extension of f as a reusable evaluation callback.

    Calling it evaluates the Poisson integral at scalar or array
    arguments.  circle_values exploits that the integral on a uniform
    circle grid is a circular convolution of the kernel with the
    boundary samples, so one FFT replaces a dense kernel matrix.  Both
    paths read f only on its nodes-point grid; a ring's phase goes
    through the kernel.
    """

    def __init__(self, params: AlphaBeta, f: BoundaryFunction, nodes: int = DEFAULT_NODES):
        self.params = params
        self.f = f
        self.nodes = check_nodes(nodes)

    def __call__(self, z):
        return poisson_integral(self.params, self.f, z, self.nodes)

    def circle_values(self, r: float, n_theta: int | None = None, phase: float = 0.0) -> np.ndarray:
        """u(r e^{i(theta_j + phase)}) on the uniform n_theta grid."""
        if not 0.0 <= r < 1.0:
            raise DomainError(f"circle radius must be in [0, 1), got {r}")
        n = self.nodes
        n_theta = n if n_theta is None else n_theta
        if n % n_theta:
            return self(r * np.exp(1j * (circle_nodes(n_theta) + phase)))
        kern = unnormalized_kernel(self.params, r * np.exp(1j * (circle_nodes(n) + phase)))
        fvals = self.f.values_on_grid(n)
        vals = self.params.c_norm * np.fft.ifft(np.fft.fft(kern) * np.fft.fft(fvals)) / n
        return vals[:: n // n_theta]


def poisson_extension(params: AlphaBeta, f: BoundaryFunction, nodes: int = DEFAULT_NODES) -> PoissonExtension:
    """The extension as a reusable evaluation callback (scalar or array in)."""
    return PoissonExtension(params, f, nodes)


def evaluate_expansion(params: AlphaBeta, coeffs: SeriesCoefficients, z) -> complex:
    """Series route: evaluate the two-sided expansion at one point."""
    z = _as_z(z)
    x = abs(z) ** 2
    total = 0j
    zk = 1.0 + 0j
    for k in range(len(coeffs.pos)):
        ck = coeffs.pos[k]
        if ck != 0:
            total += ck * gauss_2f1(_pos_hyp(params, k), x) * zk
        zk *= z
    zbk = np.conj(z)
    for i in range(len(coeffs.neg)):
        k = i + 1
        cmk = coeffs.neg[i]
        if cmk != 0:
            total += cmk * gauss_2f1(_neg_hyp(params, k), x) * zbk
        zbk *= np.conj(z)
    return complex(total)


def coefficients_from_boundary(params: AlphaBeta, f: BoundaryFunction) -> SeriesCoefficients:
    """Series coefficients whose radial limit reproduces f.

    c_k = f_hat(k) / F(-alpha, k-beta; k+1; 1) for k >= 0 and
    c_{-k} = f_hat(-k) / F(-beta, k-alpha; k+1; 1); the limits exist
    because c - a - b = 1 + alpha + beta > 0 throughout.
    """
    order = max(f.order, 1)
    pos = []
    for k in range(order + 1):
        fk = f.fourier.get(k, 0j)
        pos.append(fk / gauss_2f1_at_one(_pos_hyp(params, k)) if fk != 0 else 0j)
    neg = []
    for k in range(1, order + 1):
        fk = f.fourier.get(-k, 0j)
        neg.append(fk / gauss_2f1_at_one(_neg_hyp(params, k)) if fk != 0 else 0j)
    return SeriesCoefficients(pos, neg)


def snapshot(params: AlphaBeta, coeffs: SeriesCoefficients, r: float) -> HarmonicSnapshot:
    """Circle-match coefficients A_k(r), B_k(r); r = 1 uses the x -> 1 limits."""
    if not (0.0 < r <= 1.0):
        raise DomainError(f"snapshot radius must be in (0, 1], got {r}")

    def hyp(p: HypParams) -> float:
        if r == 1.0:
            return gauss_2f1_at_one(p)
        return gauss_2f1(p, r * r)

    A = [coeffs.c(k) * hyp(_pos_hyp(params, k)) * r**k for k in range(len(coeffs.pos))]
    B = [coeffs.c(-k) * hyp(_neg_hyp(params, k)) * r**k for k in range(1, len(coeffs.neg) + 1)]
    return HarmonicSnapshot(r, A, B)


# ---------------------------------------------------------------------------
# finite-difference measurements on opaque disk functions


def _eval_many(u, zs: np.ndarray) -> np.ndarray:
    """u at each of the points zs (a 1-d array)."""
    if isinstance(u, PoissonExtension):
        return u(zs)
    return np.array([u(z) for z in zs], dtype=complex)


def _ring(u, r: float, n_theta: int) -> np.ndarray:
    """u at r e^{i theta_j} on the uniform n_theta grid."""
    if isinstance(u, PoissonExtension):
        return u.circle_values(r, n_theta)
    return _eval_many(u, r * np.exp(1j * circle_nodes(n_theta)))


def _wirtinger_pair(up, um, vp, vm, h: float):
    """(u_z, u_zbar) from central differences along x (up, um) and y (vp, vm)."""
    ux = (up - um) / (2.0 * h)
    uy = (vp - vm) / (2.0 * h)
    return 0.5 * (ux - 1j * uy), 0.5 * (ux + 1j * uy)


def wirtinger_derivatives(u, z, h: float = DEFAULT_STEP, richardson: bool = False):
    """(u_z, u_zbar) by central differences of step h.

    richardson=True combines steps h and h/2 to cancel the leading error
    term (fourth-order accuracy at three times the evaluations).
    """
    if richardson:
        c1, c1b = wirtinger_derivatives(u, z, h)
        c2, c2b = wirtinger_derivatives(u, z, 0.5 * h)
        return (4.0 * c2 - c1) / 3.0, (4.0 * c2b - c1b) / 3.0
    z = _as_z(z)
    if abs(z) + h >= 1.0:
        raise StencilError(f"stencil leaves the disk at |z| = {abs(z)}, h = {h}")
    pts = np.array([z + h, z - h, z + 1j * h, z - 1j * h], dtype=complex)
    return _wirtinger_pair(*_eval_many(u, pts), h)


def jacobian_norm(u, z, h: float = DEFAULT_STEP) -> float:
    """Operator norm |Du| = |u_z| + |u_zbar|."""
    uz, uzb = wirtinger_derivatives(u, z, h)
    return abs(uz) + abs(uzb)


def radial_angular_derivatives(u, z, h: float = DEFAULT_STEP):
    """(u_r, u_theta) by central differences in polar coordinates."""
    z = _as_z(z)
    r, theta = abs(z), math.atan2(z.imag, z.real)
    if r < h:
        raise StencilError(f"radial stencil needs r >= h, got r = {r}")
    if r + h >= 1.0:
        raise StencilError(f"stencil leaves the disk at r = {r}, h = {h}")
    e = complex(math.cos(theta), math.sin(theta))
    pts = np.array(
        [
            (r + h) * e,
            (r - h) * e,
            r * np.exp(1j * (theta + h)),
            r * np.exp(1j * (theta - h)),
        ],
        dtype=complex,
    )
    rp, rm, tp, tm = _eval_many(u, pts)
    return (rp - rm) / (2.0 * h), (tp - tm) / (2.0 * h)


def operator_residual(params: AlphaBeta, u, z, h: float = DEFAULT_STEP, richardson: bool = False) -> complex:
    """Finite-difference value of the weighted operator applied to u at z.

    Uses u_{z zbar} = Laplacian/4 on the five-point stencil and returns
    (1-|z|^2) [ (1-|z|^2) u_{z zbar} + alpha z u_z + beta zbar u_zbar
    - alpha beta u ]; second-order accurate in h, fourth-order with
    richardson=True.
    """
    if richardson:
        r1 = operator_residual(params, u, z, h)
        r2 = operator_residual(params, u, z, 0.5 * h)
        return (4.0 * r2 - r1) / 3.0
    z = _as_z(z)
    if abs(z) + 2.0 * h >= 1.0:
        raise StencilError(f"stencil leaves the disk at |z| = {abs(z)}, h = {h}")
    pts = np.array([z, z + h, z - h, z + 1j * h, z - 1j * h], dtype=complex)
    u0, up, um, vp, vm = _eval_many(u, pts)
    lap = (up + um + vp + vm - 4.0 * u0) / (h * h)
    uzzb = 0.25 * lap
    uz, uzb = _wirtinger_pair(up, um, vp, vm, h)
    one_minus = 1.0 - abs(z) ** 2
    return one_minus * (
        one_minus * uzzb
        + params.alpha * z * uz
        + params.beta * np.conj(z) * uzb
        - params.alpha * params.beta * u0
    )


def integral_means(u, r: float, p: float, nodes: int = 1024) -> float:
    """M_p(r, u); p = inf takes the circle-grid maximum."""
    if not (0.0 < r < 1.0):
        raise DomainError(f"integral_means requires 0 < r < 1, got {r}")
    return p_mean(_ring(u, r, nodes), p)


def export_grid_csv(u, out, n_radial: int = 16, n_angular: int = 64, r_max: float = 0.95):
    """Evaluate u on a polar grid and write x, y, re, im rows to the open
    text stream out (opened with newline="" when it is a file); a bad
    radius raises before any row is written."""
    radii = [(i + 1) / (n_radial + 1) * r_max for i in range(n_radial)]
    thetas = circle_nodes(n_angular)
    rings = [_ring(u, r, n_angular) for r in radii]
    writer = csv.writer(out)
    writer.writerow(["x", "y", "re", "im"])
    for r, vals in zip(radii, rings):
        for z, v in zip(r * np.exp(1j * thetas), vals):
            writer.writerow(
                [f"{z.real:.17g}", f"{z.imag:.17g}", f"{v.real:.17g}", f"{v.imag:.17g}"]
            )
