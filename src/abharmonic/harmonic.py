"""Solver core: Poisson integral, series expansion, and measurements.

The two routes to a weighted-harmonic function u with boundary data f are

* the Poisson integral u(z) = (1/2pi) int P(z e^{-it}) f(e^{it}) dt,
  computed with the periodic trapezoid rule, and
* the two-sided series u(z) = sum_k c_k F(-alpha, k-beta; k+1; |z|^2) z^k
  + sum_k c_{-k} F(-beta, k-alpha; k+1; |z|^2) conj(z)^k.

The series is indexed by a signed mode k: a mode k < 0 is the conjugate
mode |k|, conj(z)^|k| in place of z^|k|, with the weights swapped, so
one triple (kernel._mode_hyp) serves both signs.  Matching the radial
limits of the series against the Fourier data of f gives
c_k = f_hat(k) / F(mode k; 1), which makes the two routes agree inside
the disk for trigonometric-polynomial data.

Derivative and operator measurements take a point or an array of points,
use central finite differences, and treat the function under test as an
opaque evaluation callback that gets every stencil point of the array at
once.  The evaluation rule: a PoissonExtension evaluates arrays,
rings and rotation orbits itself (the m turns of a point by 2pi/m
through one kernel row shifted by nodes/m places; a ring whose angle
count divides the nodes through its FFT circle convolution, any other
ring as the orbits of a few base points); any other callable is called
once per point.

Orbit kernel rows and ring-kernel FFTs depend on the weights, the nodes
and the points, not on f, so they are kept per weight pair: a table of
the latest (params, nodes) serves every extension at that pair, and
each boundary pays only for its own sums and inverse FFTs.  The dense
path (poisson_integral, calls on arrays) and the base-point rows of a
ring whose angle count does not divide the nodes keep no table.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._quad import DEFAULT_NODES, circle_nodes, p_mean
from .boundary import BoundaryFunction
from .errors import DomainError, StencilError
from .kernel import AlphaBeta, _mode_hyp, unnormalized_kernel
from .specfun import gauss_2f1, gauss_2f1_at_one

DEFAULT_STEP = 1e-3
# kernel-row products per block of a dense Poisson evaluation (at least
# one row of nodes; a point's orbit of m turns takes m products per
# kernel point): a block's temporaries stay in cache and in reused heap
# memory instead of being fresh multi-megabyte arrays whose page faults
# cost as much as the kernel
_BLOCK_POINTS = 8192
# bytes of kernel arrays the table of one (params, nodes) keeps: the
# audit's 39 orbit rows and 15 ring kernels take 3.5 MB at 4,096 nodes
_TABLE_BYTES = 4 << 20


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


def _disk_array(z) -> np.ndarray:
    """A point, DiskPoint or array of points as a complex array in the open disk."""
    z = np.asarray(z.z if isinstance(z, DiskPoint) else z, dtype=complex)
    if not np.all(np.abs(z) < 1.0):
        raise DomainError(f"|z| must be < 1, got {np.max(np.abs(z))}")
    return z


@dataclass
class SeriesCoefficients:
    """Truncated two-sided coefficient sequence: coeffs[k] = c_k for signed k."""

    coeffs: dict

    def __post_init__(self):
        self.coeffs = {int(k): complex(v) for k, v in self.coeffs.items()}

    @property
    def order(self) -> int:
        return max((abs(k) for k in self.coeffs), default=0)

    def c(self, k: int) -> complex:
        return self.coeffs.get(k, 0j)


@dataclass
class HarmonicSnapshot:
    """Coefficients of the plain-harmonic circle match at radius r.

    coeffs[k] = c_k F(mode k; r^2) r^|k| for signed k; these are the
    coefficients of the harmonic function sharing u's values on |z| = r,
    written in powers of e^{i theta}.
    """

    r: float
    coeffs: dict

    def circle_values(self, theta) -> np.ndarray:
        return BoundaryFunction(self.coeffs).evaluate(theta)

    def normalized_ratios(self):
        """(coeffs[k]/coeffs[1] for k >= 2, coeffs[-k]/coeffs[1] for k >= 1);
        requires coeffs[1] != 0."""
        a1 = self.coeffs.get(1, 0j)
        if a1 == 0:
            raise DomainError("normalization requires coeffs[1] != 0")
        order = max(abs(k) for k in self.coeffs)
        return (
            [self.coeffs.get(k, 0j) / a1 for k in range(2, order + 1)],
            [self.coeffs.get(-k, 0j) / a1 for k in range(1, order + 1)],
        )


# ---------------------------------------------------------------------------
# the two solution routes


def check_nodes(nodes: int) -> int:
    """Return nodes, raising DomainError unless it is a power of two >= 64."""
    if nodes < 64 or nodes & (nodes - 1):
        raise DomainError(f"nodes must be a power of two >= 64, got {nodes}")
    return nodes


@functools.lru_cache(maxsize=16)
def _conj_roots(nodes: int) -> np.ndarray:
    """exp(-i t_j) on the nodes-point circle grid, read-only."""
    roots = np.exp(-1j * circle_nodes(nodes))
    roots.flags.writeable = False
    return roots


class _KernelTable:
    """Read-only kernel arrays of one (params, nodes) by key; once they
    hold more than _TABLE_BYTES, the oldest go first."""

    def __init__(self):
        self.entries = {}
        self.nbytes = 0

    def get(self, key, make):
        """The entry under key, made by make() when absent; an array larger
        than the whole budget is returned without being kept."""
        arr = self.entries.get(key)
        if arr is None:
            arr = make()
            if arr.nbytes <= _TABLE_BYTES:
                arr.flags.writeable = False
                self.entries[key] = arr
                self.nbytes += arr.nbytes
                while self.nbytes > _TABLE_BYTES:
                    self.nbytes -= self.entries.pop(next(iter(self.entries))).nbytes
        return arr


@functools.lru_cache(maxsize=1)
def _kernel_table(params: AlphaBeta, nodes: int) -> _KernelTable:
    """The table of the latest (params, nodes); another pair drops it."""
    return _KernelTable()


def _kernel_rows(params: AlphaBeta, z: np.ndarray, n: int) -> np.ndarray:
    """P(z e^{-i t_l}) on the n-point grid, one row per z, shape (z.size, n),
    evaluated in blocks of at most _BLOCK_POINTS (or one row)."""
    roots = _conj_roots(n)
    flat = z.reshape(-1)
    rows = np.empty((flat.size, n), dtype=complex)
    step = max(1, _BLOCK_POINTS // n)
    for i in range(0, flat.size, step):
        rows[i : i + step] = unnormalized_kernel(params, flat[i : i + step, None] * roots)
    return rows


def _turned_means(params: AlphaBeta, fvals: np.ndarray, z: np.ndarray, m: int, rows=None) -> np.ndarray:
    """mean_l P(z e^{-i t_l}) f[(l + k n/m) mod n] for each z and k < m, of
    shape z.shape + (m,): one kernel row per z (the given rows, or rows
    evaluated block by block), summed in blocks of at most _BLOCK_POINTS
    products (or one z and one turn)."""
    n = fvals.size
    step = max(1, _BLOCK_POINTS // (n * m))
    turns = max(1, _BLOCK_POINTS // n)
    # row k, the samples turned by k n/m places, is a view of the samples
    # repeated once, so many turns take no m x n copy; when one block holds
    # every turn, a contiguous copy multiplies faster than the strided view
    frot = sliding_window_view(np.concatenate((fvals, fvals[:-1])), n)[:: n // m]
    if m <= turns:
        frot = np.ascontiguousarray(frot)
    flat = z.reshape(-1)
    means = np.empty((flat.size, m), dtype=complex)
    for i in range(0, flat.size, step):
        kern = _kernel_rows(params, flat[i : i + step], n) if rows is None else rows[i : i + step]
        for k in range(0, m, turns):
            means[i : i + step, k : k + turns] = np.mean(kern[:, None, :] * frot[k : k + turns], axis=-1)
    return means.reshape(z.shape + (m,))


def poisson_integral(params: AlphaBeta, f: BoundaryFunction, z, nodes: int = DEFAULT_NODES):
    """Poisson integral of f at z: a complex for a scalar or DiskPoint z, else an array."""
    check_nodes(nodes)
    z = _disk_array(z)
    vals = params.c_norm * _turned_means(params, f.values_on_grid(nodes), z, 1)[..., 0]
    return complex(vals) if vals.ndim == 0 else vals


class PoissonExtension:
    """The extension of f as a reusable evaluation callback.

    Calling it evaluates the Poisson integral at scalar or array
    arguments.  orbit_values exploits that turning a point by 2 pi/m,
    with m dividing the nodes, shifts its kernel row against the
    boundary samples; circle_values uses the same rotation structure,
    so a ring costs one FFT circle convolution when its angle count
    divides the nodes, and otherwise one kernel row per orbit of
    turns, never one per angle.  Every path reads f only on its
    nodes-point grid; a ring's phase goes through the kernel.
    """

    def __init__(self, params: AlphaBeta, f: BoundaryFunction, nodes: int = DEFAULT_NODES):
        self.params = params
        self.f = f
        self.nodes = check_nodes(nodes)

    def __call__(self, z):
        return poisson_integral(self.params, self.f, z, self.nodes)

    @functools.cached_property
    def _fhat(self) -> np.ndarray:
        """FFT of the boundary samples, shared by every ring."""
        return np.fft.fft(self.f.values_on_grid(self.nodes))

    def orbit_values(self, z, m: int) -> np.ndarray:
        """u(z e^{2 pi i k/m}) for k = 0..m-1, of shape z.shape + (m,).

        Turning z by 2 pi k/m shifts its kernel row P(z e^{-i t_l}) by
        k nodes/m places, so each z costs one kernel row and m sums of
        that row against the turned samples f[(l + k nodes/m) mod nodes];
        column 0 is poisson_integral(z) bit for bit.  The rows of a point
        set come from the table of (params, nodes) unless they outgrow it.
        """
        n = self.nodes
        if m < 1 or n % m:
            raise DomainError(f"orbit size must divide nodes = {n}, got {m}")
        z = _disk_array(z)
        rows = None
        if z.size * _conj_roots(n).nbytes <= _TABLE_BYTES:
            key = ("rows", z.shape, z.tobytes())
            rows = _kernel_table(self.params, n).get(key, lambda: _kernel_rows(self.params, z, n))
        return self.params.c_norm * _turned_means(self.params, self.f.values_on_grid(n), z, m, rows)

    def circle_values(self, r: float, n_theta: int, phase: float = 0.0) -> np.ndarray:
        """u(r e^{i(theta_j + phase)}) on the uniform n_theta grid."""
        return self._circles([(r, phase)], n_theta)[0]

    def _circles(self, rings, n_theta: int) -> np.ndarray:
        """circle_values at each (r, phase) of rings, one row per ring.

        With g = gcd(nodes, n_theta) and d = n_theta/g, angle a + d k of a
        ring is its base point r e^{i(phase + 2 pi a/n_theta)} turned k
        times by 2 pi/g.  When n_theta divides nodes (d = 1), the ring
        kernels' FFTs come from the table of (params, nodes) and one
        inverse FFT serves every ring; otherwise each ring is the g-turn
        orbits of its d base points, d kernel rows that are not kept.
        """
        _check_angles(n_theta)
        for r, _ in rings:
            if not 0.0 <= r < 1.0:
                raise DomainError(f"circle radius must be in [0, 1), got {r}")
        n = self.nodes
        g = math.gcd(n, n_theta)
        d = n_theta // g
        if d > 1:
            base = np.array([r * np.exp(1j * (circle_nodes(n_theta)[:d] + phase)) for r, phase in rings])
            means = _turned_means(self.params, self.f.values_on_grid(n), base, g)
            return self.params.c_norm * np.swapaxes(means, 1, 2).reshape(len(rings), n_theta)
        table = _kernel_table(self.params, n)

        def ring_fft(r, phase):
            return np.fft.fft(unnormalized_kernel(self.params, r * np.exp(1j * (circle_nodes(n) + phase))))

        kfft = np.array([table.get(("ring", r, phase), lambda: ring_fft(r, phase)) for r, phase in rings])
        vals = self.params.c_norm * np.fft.ifft(kfft * self._fhat) / n
        return vals[:, :: n // n_theta]


def poisson_extension(params: AlphaBeta, f: BoundaryFunction, nodes: int = DEFAULT_NODES) -> PoissonExtension:
    """The extension as a reusable evaluation callback (scalar or array in)."""
    return PoissonExtension(params, f, nodes)


def evaluate_expansion(params: AlphaBeta, coeffs: SeriesCoefficients, z) -> complex:
    """Series route: evaluate the two-sided expansion at one point."""
    z = complex(_disk_array(z))
    x = abs(z) ** 2
    total = 0j
    K = coeffs.order
    zbar = np.conj(z)
    # modes 0..K, then -1..-K, each power one product on from the last:
    # another summation order or w ** |k| moves the sum by an ulp
    for ks, w, wk in ((range(K + 1), z, 1.0 + 0j), (range(-1, -K - 1, -1), zbar, zbar)):
        for k in ks:
            ck = coeffs.c(k)
            if ck != 0:
                total += ck * gauss_2f1(_mode_hyp(params, k), x) * wk
            wk *= w
    return complex(total)


def coefficients_from_boundary(params: AlphaBeta, f: BoundaryFunction) -> SeriesCoefficients:
    """Series coefficients whose radial limit reproduces f.

    c_k = f_hat(k) / F(mode k; 1) for every signed k up to the order; the
    limits exist because c - a - b = 1 + alpha + beta > 0 for every mode.
    """
    order = max(f.order, 1)
    coeffs = {}
    for k in range(-order, order + 1):
        fk = f.fourier.get(k, 0j)
        coeffs[k] = fk / gauss_2f1_at_one(_mode_hyp(params, k)) if fk != 0 else 0j
    return SeriesCoefficients(coeffs)


def snapshot(params: AlphaBeta, coeffs: SeriesCoefficients, r: float) -> HarmonicSnapshot:
    """Circle-match coefficients at radius r; r = 1 uses the x -> 1 limits."""
    if not (0.0 < r <= 1.0):
        raise DomainError(f"snapshot radius must be in (0, 1], got {r}")
    hyp = gauss_2f1_at_one if r == 1.0 else functools.partial(gauss_2f1, x=r * r)
    return HarmonicSnapshot(
        r, {k: c * hyp(_mode_hyp(params, k)) * r ** abs(k) for k, c in coeffs.coeffs.items()}
    )


# ---------------------------------------------------------------------------
# finite-difference measurements on opaque disk functions


def _eval_many(u, zs: np.ndarray) -> np.ndarray:
    """u at each of the points zs (an array of any shape)."""
    if isinstance(u, PoissonExtension):
        return u(zs)
    return np.array([u(z) for z in zs.flat], dtype=complex).reshape(zs.shape)


def _check_angles(n_theta: int) -> None:
    """Raise DomainError unless a ring has at least one angle."""
    if n_theta < 1:
        raise DomainError(f"n_theta must be a positive angle count, got {n_theta}")


def _ring(u, r: float, n_theta: int) -> np.ndarray:
    """u at r e^{i theta_j} on the uniform n_theta grid."""
    if isinstance(u, PoissonExtension):
        return u.circle_values(r, n_theta)
    _check_angles(n_theta)
    return _eval_many(u, r * np.exp(1j * circle_nodes(n_theta)))


def _cmul(x, y):
    """x * y rounded as for complex scalars (numpy's array loop can fuse multiply-adds)."""
    return x.real * y.real - x.imag * y.imag + 1j * (x.real * y.imag + x.imag * y.real)


def _stencil(u, z, h: float, reach: float, points):
    """z as an array, |z|, and u on the stencil points(z, |z|) of each z in
    one evaluation, as one array per stencil point (scalars for a point z).
    Every stencil needs |z| + reach < 1."""
    z = _disk_array(z)
    r = np.hypot(z.real, z.imag)  # abs() of each z; np.abs of an array can differ by an ulp
    if np.max(r) + reach >= 1.0:
        raise StencilError(f"stencil leaves the disk at |z| = {np.max(r)}, h = {h}")
    vals = _eval_many(u, points(z[..., None], r[..., None]))
    return z, r, np.moveaxis(vals, -1, 0)


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
    _, _, vals = _stencil(u, z, h, h, lambda z, r: z + h * np.array([1, -1, 1j, -1j]))
    return _wirtinger_pair(*vals, h)


def jacobian_norm(u, z, h: float = DEFAULT_STEP):
    """Operator norm |Du| = |u_z| + |u_zbar|."""
    uz, uzb = wirtinger_derivatives(u, z, h)
    return np.hypot(uz.real, uz.imag) + np.hypot(uzb.real, uzb.imag)


def radial_angular_derivatives(u, z, h: float = DEFAULT_STEP):
    """(u_r, u_theta) by central differences in polar coordinates."""

    def polar(z, r):
        if np.min(r) < h:
            raise StencilError(f"radial stencil needs r >= h, got r = {np.min(r)}")
        # math.atan2 per point: np.arctan2 can differ from it by an ulp
        phi = np.vectorize(math.atan2)(z.imag, z.real)
        return (r + h * np.array([1, -1, 0, 0])) * np.exp(1j * (phi + h * np.array([0, 0, 1, -1])))

    _, _, (rp, rm, tp, tm) = _stencil(u, z, h, h, polar)
    return (rp - rm) / (2.0 * h), (tp - tm) / (2.0 * h)


def operator_residual(params: AlphaBeta, u, z, h: float = DEFAULT_STEP, richardson: bool = False):
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
    five = lambda z, r: z + h * np.array([0, 1, -1, 1j, -1j])  # noqa: E731
    z, r, (u0, up, um, vp, vm) = _stencil(u, z, h, 2.0 * h, five)
    uzzb = 0.25 * (up + um + vp + vm - 4.0 * u0) / (h * h)
    uz, uzb = _wirtinger_pair(up, um, vp, vm, h)
    # float_power is pow(|z|, 2) as on a float; r**2 squares, which can differ by an ulp
    one_minus = 1.0 - np.float_power(r, 2)
    return one_minus * (
        one_minus * uzzb
        + _cmul(params.alpha * z, uz)
        + _cmul(params.beta * np.conj(z), uzb)
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
