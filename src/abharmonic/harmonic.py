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
once.  The evaluation rule: a PoissonExtension evaluates arrays, rings
and rotation orbits itself.  Arrays and orbits go through one routine
(PoissonExtension._orbits): the m turns of a point by 2 pi/m shift its
kernel row by nodes/m places, so an orbit is one kernel row and m-point
FFTs, and an array is m = 1 orbits.  A ring |z| = r goes through the
convolution theorem (PoissonExtension._circles): the kernel on the ring
is analytic and periodic, so its Fourier coefficients decay like r^|q|,
and a few hundred kernel samples fix them to rounding, whatever the
nodes and the angle count.  Any other callable is called once per point.

A point set's transformed kernel rows and a ring's kernel coefficients
depend on the weights, the nodes and the points, not on f, so orbit
point sets and rings keep them per weight pair: a table of the latest
(params, nodes) serves every extension at that pair, and each boundary
pays only for its own sums and FFTs, on the sample spectra it keeps
(BoundaryFunction.spectrum).  Arrays keep no table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._quad import DEFAULT_NODES, circle_nodes, p_mean
from .boundary import BoundaryFunction
from .errors import DomainError, StencilError
from .kernel import AlphaBeta, _mode_hyp, unnormalized_kernel
from .specfun import gauss_2f1, gauss_2f1_at_one

DEFAULT_STEP = 1e-3
# kernel points per block of a kernel-row evaluation (at least one row):
# a block's complex temporaries (64 KiB) stay in cache and below the
# 128 KiB at which glibc's malloc maps fresh pages, whose faults would
# cost as much as the kernel
_BLOCK_POINTS = 4096
# bytes of kernel arrays the table of one (params, nodes) keeps: at 4,096
# nodes the audit's 39 transformed orbit rows take 2.5 MB and each of its
# 15 ring coefficient vectors at most 64 KB
_TABLE_BYTES = 4 << 20
# the level below which a ring kernel's Fourier coefficients are left out,
# relative to their 1-norm (which bounds the kernel on the ring): 16 ulps,
# above the FFT's rounding noise in them, which reaches about 2 ulps
_RING_TOL = 2.0**-48


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


def _orbit_rows(params: AlphaBeta, z: np.ndarray, m: int, n: int) -> np.ndarray:
    """The kernel rows P(z e^{-i t_l}) of the flat points z on the n-point
    grid, row l = b n/m + a held at [b, a] and transformed by an m-point
    inverse FFT along b, of shape (z.size, m, n/m); evaluated in blocks
    of at most _BLOCK_POINTS kernel points (or one row)."""
    roots = _conj_roots(n)
    out = np.empty((z.size, m, n // m), dtype=complex)
    step = max(1, _BLOCK_POINTS // n)
    for i in range(0, z.size, step):
        rows = unnormalized_kernel(params, z[i : i + step, None] * roots)
        out[i : i + step] = np.fft.ifft(rows.reshape(-1, m, n // m), axis=1)
    return out


def _ring_length(params: AlphaBeta, r: float, cap: int) -> int:
    """The first sample count of a ring of radius r: the smallest power of
    two N >= 64 at which the size |q|^a r^|q| / Gamma(a + 1) of the ring
    kernel's Fourier coefficients, a = max(alpha, beta, 0), is below
    _RING_TOL at q = N/4, or cap if that is smaller.  (The coefficients
    of (1 - w)^-(a+1) grow as q^a / Gamma(a + 1), and r^|q| is the decay
    of an analytic periodic function on the ring.)"""
    a = max(params.alpha, params.beta, 0.0)
    decay = -math.log(r) if r > 0.0 else math.inf
    digits = -math.log(_RING_TOL) - math.lgamma(a + 1.0)
    size = 64
    while size < cap and size / 4 * decay - a * math.log(size / 4) < digits:
        size *= 2
    return min(size, cap)


def _ring_spectrum(params: AlphaBeta, r: float, phase: float, size: int) -> np.ndarray:
    """p = FFT/N of the N = size kernel samples P(r e^{i(phase + 2 pi k/N)}),
    evaluated in blocks of _BLOCK_POINTS."""
    t = circle_nodes(size)
    vals = np.empty(size, dtype=complex)
    for i in range(0, size, _BLOCK_POINTS):
        block = slice(i, i + _BLOCK_POINTS)
        vals[block] = unnormalized_kernel(params, r * np.exp(1j * (phase + t[block])))
    return np.fft.fft(vals) / size


def _ring_coefficients(
    params: AlphaBeta, table: _KernelTable, r: float, phase: float, cap: int
) -> np.ndarray:
    """The ring kernel's coefficients p (_ring_spectrum) at the first N
    from _ring_length on, doubling, whose outer quarter N/4 <= |q| <= N/2
    is below _RING_TOL times the 1-norm of p, or at N = cap, where the
    sum is exact.  Each p is kept in table under (r, phase, N, decayed),
    decayed telling whether it passed that test, so no p is made or
    tested twice and a ring's N does not depend on what the table holds."""
    size = _ring_length(params, r, cap)
    while True:
        for decayed in (True, False):
            p = table.entries.get((r, phase, size, decayed))
            if p is not None:
                break
        else:
            p = _ring_spectrum(params, r, phase, size)
            mag = np.abs(p)
            decayed = bool(mag[size // 4 : 3 * size // 4 + 1].max() <= _RING_TOL * mag.sum())
            table.get((r, phase, size, decayed), lambda: p)
        if decayed or size == cap:
            return p
        size = min(2 * size, cap)


def poisson_integral(params: AlphaBeta, f: BoundaryFunction, z, nodes: int = DEFAULT_NODES):
    """Poisson integral of f at z: a complex for a scalar or DiskPoint z, else an array."""
    vals = PoissonExtension(params, f, nodes)._orbits(_disk_array(z), 1, keep=False)[..., 0]
    return complex(vals) if vals.ndim == 0 else vals


class PoissonExtension:
    """The extension of f as a reusable evaluation callback.

    Calling it evaluates the Poisson integral at scalar or array
    arguments.  orbit_values evaluates rotation orbits: turning a point
    by 2 pi/m, with m dividing the nodes, shifts its kernel row against
    the boundary samples by nodes/m places, so an orbit costs one kernel
    row and m-point FFTs.  circle_values evaluates a ring from the
    kernel's Fourier coefficients on it, sampled only as finely as they
    need, never one kernel row per angle.  Every path reads f only on
    its nodes-point grid; a ring's phase goes through the kernel.
    """

    def __init__(self, params: AlphaBeta, f: BoundaryFunction, nodes: int = DEFAULT_NODES):
        self.params = params
        self.f = f
        self.nodes = check_nodes(nodes)

    def __call__(self, z):
        return poisson_integral(self.params, self.f, z, self.nodes)

    def _orbits(self, z: np.ndarray, m: int, keep: bool) -> np.ndarray:
        """u(z e^{2 pi i k/m}) for k < m, of shape z.shape + (m,), with m
        dividing the nodes n.

        With s = n/m, row l = b s + a and f_j = f[j mod n], turn k is
        (c/n) sum_a sum_b R[b s + a] f[(b + k) s + a] for z's kernel row
        R: a circular correlation along b, so it is one inverse FFT of
        the sum over a of the transformed rows times the m-point FFT of
        the samples.  With keep, a point set's transformed rows come from
        the table of (params, nodes) unless they outgrow it; otherwise
        they are evaluated in blocks of at most _BLOCK_POINTS kernel
        points (or one row) and not kept.
        """
        n = self.nodes
        s = n // m
        fhat = self.f.spectrum(n, m)
        flat = z.reshape(-1)
        rows = None
        if keep and flat.size * _conj_roots(n).nbytes <= _TABLE_BYTES:
            key = (m, z.shape, z.tobytes())
            rows = _kernel_table(self.params, n).get(key, lambda: _orbit_rows(self.params, flat, m, n))
        sums = np.empty((flat.size, m), dtype=complex)
        step = max(1, _BLOCK_POINTS // n)
        for i in range(0, flat.size, step):
            block = _orbit_rows(self.params, flat[i : i + step], m, n) if rows is None else rows[i : i + step]
            sums[i : i + step] = np.sum(block * fhat, axis=-1)
        return (self.params.c_norm / s * np.fft.ifft(sums, axis=-1)).reshape(z.shape + (m,))

    def orbit_values(self, z, m: int) -> np.ndarray:
        """u(z e^{2 pi i k/m}) for k = 0..m-1, of shape z.shape + (m,).

        Each z costs one kernel row, transformed once per point set and
        kept per (params, nodes), and m-point FFTs per boundary.
        """
        n = self.nodes
        if m < 1 or n % m:
            raise DomainError(f"orbit size must divide nodes = {n}, got {m}")
        return self._orbits(_disk_array(z), m, keep=True)

    def circle_values(self, r: float, n_theta: int, phase: float = 0.0) -> np.ndarray:
        """u(r e^{i(theta_j + phase)}) on the uniform n_theta grid."""
        return self._circles([(r, phase)], n_theta)[0]

    def _circles(self, rings, n_theta: int) -> np.ndarray:
        """circle_values at each (r, phase) of rings, one row per ring.

        u at angle theta_j is (c/n) sum_l K(theta_j - t_l) f_l for the
        ring's kernel K(s) = P(r e^{i(phase + s)}), so by the convolution
        theorem it is (c/n) sum_q p_q F_{q mod n} e^{i q theta_j}, with p_q the Fourier
        coefficients of K and F the n-point FFT of the samples.  p comes
        from N samples of K (_ring_coefficients), q runs over [-N/2, N/2),
        and the products, laid out in q order, fold onto the n_theta bins
        q mod n_theta of one inverse FFT.  With N = lcm(n, n_theta) this
        is the n-node sum re-indexed; a smaller N leaves out only
        coefficients below rounding.  The rings of one N are computed
        together, each row as it would be alone, so a ring is the same
        bit for bit in any call.
        """
        _check_angles(n_theta)
        for r, _ in rings:
            if not 0.0 <= r < 1.0:
                raise DomainError(f"circle radius must be in [0, 1), got {r}")
        n = self.nodes
        cap = math.lcm(n, n_theta)
        table = _kernel_table(self.params, n)
        coeffs = [_ring_coefficients(self.params, table, float(r), float(phase), cap) for r, phase in rings]
        top = max((p.size for p in coeffs), default=0) // 2
        fq = self.f.spectrum(n, n)[np.arange(-top, top) % n, 0]  # F at q = -top .. top - 1
        bins = np.empty((len(rings), n_theta), dtype=complex)
        for size in {p.size for p in coeffs}:
            at = [i for i, p in enumerate(coeffs) if p.size == size]
            p = np.array([coeffs[i] for i in at])
            half = size // 2
            # q = -N/2 + j goes to column start + j, which is bin q mod n_theta
            start = -half % n_theta
            folded = np.zeros((len(at), -(-(start + size) // n_theta) * n_theta), dtype=complex)
            np.multiply(p[:, half:], fq[top - half : top], out=folded[:, start : start + half])
            np.multiply(p[:, :half], fq[top : top + half], out=folded[:, start + half : start + size])
            bins[at] = folded.reshape(len(at), -1, n_theta).sum(axis=1)
        return self.params.c_norm / n * np.fft.ifft(bins, norm="forward")


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
    Every stencil needs a finite step h > 0 and |z| + reach < 1."""
    if not 0.0 < h < math.inf:
        raise StencilError(f"stencil step must be finite and positive, got h = {h}")
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
