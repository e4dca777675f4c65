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
once.  The evaluation rule: a PoissonExtension evaluates arrays and
rings itself.  An array is the dense n-node sum, one kernel row per
point.  A ring |z| = r, at any phase and angle count, goes through the
convolution theorem (PoissonExtension._circles): the kernel on the ring
is analytic and periodic, so its Fourier coefficients decay like r^|q|,
and a few hundred kernel samples fix them to rounding, whatever the
nodes and the angle count.  The m turns of a point w by 2 pi/m are the
ring of m angles at |w| and phase arg w, so every rotation orbit is a
ring.  Any other callable is called once per point.

A ring's kernel coefficients depend on the weights, the nodes and the
ring, not on f, and on the phase only through a turn: P(conj w) =
conj P(w), so the kernel of a radius at phase 0 has real coefficients,
which one irfft of its samples on the half circle gives, and the ring at
phase phi has those times e^{i q phi} (_ring_coefficients says where a
turn is exact).  So rings keep them per weight pair: a table of the
latest (params, nodes) keeps the real row of each radius, sampled once
for every ring set at that radius, and each ring set an extension asks
for, with its angle count, as a plan (_RingPlan) that holds the turned
rows in the layout of the fold, and serves every extension at that
pair; each boundary pays only for one gather of the sample spectrum it
keeps (BoundaryFunction.spectrum), its products and fold, and one
inverse FFT.  Arrays keep no table.
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
# bytes of radius rows (real coefficients) and ring plans (padded
# coefficient blocks and spectrum indices) the table of one (params, nodes)
# keeps: the audit's 33 rows and five plans of a pair take 0.15 and 0.57 MB
# at 1,024 nodes
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


def alias_free_nodes(order: int) -> int:
    """The fewest nodes, a power of two >= 64, that serve Fourier data of
    the given order: more than twice the order."""
    return max(64, 1 << (2 * order).bit_length())


def _check_order(f: BoundaryFunction, nodes: int) -> None:
    # on n nodes mode k is mode k - n: a sum over the nodes would extend
    # data of order n/2 or more as its alias
    if f.order >= nodes // 2:
        raise DomainError(
            f"Fourier order {f.order} is at least nodes/2 = {nodes // 2}; "
            f"it needs nodes >= {alias_free_nodes(f.order)}"
        )


class _KernelTable:
    """The read-only kernel coefficients of one (params, nodes): the real
    row of each radius under (r, cap) (_ring_rows) and the plan
    (_RingPlan) of each ring set under (rings, n_theta); once they hold
    more than _TABLE_BYTES, the oldest go first."""

    def __init__(self):
        self.entries = {}
        self.nbytes = 0

    def _keep(self, key, entry):
        # an entry larger than the whole budget is not kept
        if entry.nbytes <= _TABLE_BYTES:
            self.entries[key] = entry
            self.nbytes += entry.nbytes
            while self.nbytes > _TABLE_BYTES:
                self.nbytes -= self.entries.pop(next(iter(self.entries))).nbytes

    def get(self, key, make):
        """The entry under key, made by make() when absent; an entry larger
        than the whole budget is returned without being kept."""
        entry = self.entries.get(key)
        if entry is None:
            entry = make()
            self._keep(key, entry)
        return entry

    def rows(self, params: AlphaBeta, radii, cap: int) -> dict:
        """The row of each radius at cap, by radius; those not kept are
        made together (_ring_rows) and kept."""
        rows = {r: self.entries.get((r, cap)) for r in radii}
        missing = [r for r, row in rows.items() if row is None]
        if missing:
            for r, row in _ring_rows(params, missing, cap).items():
                rows[r] = row
                self._keep((r, cap), row)
        return rows


@functools.lru_cache(maxsize=1)
def _kernel_table(params: AlphaBeta, nodes: int) -> _KernelTable:
    """The table of the latest (params, nodes); another pair drops it."""
    return _KernelTable()


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


def _turns(phases, size: int) -> np.ndarray:
    """e^{i q phase} for each of phases, one row each, at the frequencies
    q in [-size/2, size/2) of an even size, in FFT order.  e^{i m phase},
    0 <= m <= size/2, is the product of e^{i 32 a phase} and
    e^{i b phase} for m = 32 a + b, 0 <= b < 32: about size/64 + 32
    complex exponentials a row instead of size; e^{-i m phase} is its
    conjugate."""
    half = size // 2
    phases = np.asarray(phases, dtype=float)[:, None]
    fine = np.exp(1j * phases * np.arange(32))
    coarse = np.exp(1j * (32.0 * phases) * np.arange(half // 32 + 1))
    pos = (coarse[:, :, None] * fine[:, None, :]).reshape(len(phases), -1)[:, : half + 1]
    return np.concatenate((pos[:, :half], np.conj(pos[:, half:0:-1])), axis=1)


def _ring_rows(params: AlphaBeta, radii, cap: int) -> dict:
    """rho, the Fourier coefficients of the phase-0 ring kernel
    K(s) = P(r e^{is}) of each radius, by radius, in FFT order, read-only.

    P(conj w) = conj P(w), so K(-s) = conj K(s) and rho is real: its N
    samples K(-t_k) = P(r e^{-i t_k}) are Hermitian in k, and one irfft of
    the N/2 + 1 of the half circle t_k <= pi gives all N coefficients.  A
    radius takes the first N from _ring_length on, doubling, whose outer
    quarter N/4 <= |q| <= N/2 is below _RING_TOL times the 1-norm of rho,
    or N = cap, where the sum is exact.  Each round evaluates the samples
    of every radius still open, whatever its N, as one run of kernel
    points in blocks of at most _BLOCK_POINTS, and transforms the rows of
    one N together; a row is the same bits whatever the radii beside it.
    """
    rows = {}
    todo = {r: _ring_length(params, r, cap) for r in dict.fromkeys(radii)}
    while todo:
        groups = {}
        for r, size in todo.items():
            groups.setdefault(size, []).append(r)
        points = [
            np.array(group)[:, None] * np.exp(-1j * circle_nodes(size)[: size // 2 + 1])
            for size, group in groups.items()
        ]
        run = np.concatenate([w.ravel() for w in points])
        vals = np.empty(run.size, dtype=complex)
        for j in range(0, run.size, _BLOCK_POINTS):
            vals[j : j + _BLOCK_POINTS] = unnormalized_kernel(params, run[j : j + _BLOCK_POINTS])
        todo, start = {}, 0
        for (size, group), w in zip(groups.items(), points):
            block = np.fft.irfft(vals[start : start + w.size].reshape(w.shape), size)
            block.flags.writeable = False
            start += w.size
            mag = np.abs(block)
            decayed = mag[:, size // 4 : 3 * size // 4 + 1].max(axis=1) <= _RING_TOL * mag.sum(axis=1)
            for r, row, done in zip(group, block, decayed):
                if done or size == cap:
                    rows[r] = row
                else:
                    todo[r] = min(2 * size, cap)
    return rows


def _ring_spectra(params: AlphaBeta, rings, size: int) -> np.ndarray:
    """p, the Fourier coefficients of the kernel K(s) = P(r e^{i(phase + s)})
    of each (r, phase) of rings from its N = size samples on the full
    circle, one row per ring, in FFT order.  The samples
    P(r e^{i phase} e^{-i t_k}) are K at -t_k, so p is their inverse FFT;
    they are evaluated in blocks of at most _BLOCK_POINTS columns, the
    rings of a block sharing one e^{-i t_k}."""
    t = circle_nodes(size)
    r, phase = np.array(rings).T[..., None]
    z = r * np.exp(1j * phase)
    vals = np.empty((len(rings), size), dtype=complex)
    for j in range(0, size, _BLOCK_POINTS):
        w = z * np.exp(-1j * t[j : j + _BLOCK_POINTS])
        vals[:, j : j + _BLOCK_POINTS] = unnormalized_kernel(params, w)
    return np.fft.ifft(vals, axis=1)


def _ring_coefficients(params: AlphaBeta, rings, cap: int, table: _KernelTable) -> dict:
    """The ring kernel's coefficients p of each distinct (r, phase) of
    rings, by ring, from the real row rho of its radius (_ring_rows) in
    table.  The ring at phase phi is the phase-0 kernel turned by phi, so
    p_q = rho_q e^{i q phi}, and a phase-0 ring takes rho as it is.  The
    turn moves the N-sample aliases rho_{q + mN} by e^{i mN phi}, so a row
    is turned only where they are below rounding: its Nyquist coefficient,
    which every row short of cap passed in the decay test, is at most
    _RING_TOL times its 1-norm.  A capped row above that is sampled at the
    ring's own phase (_ring_spectra), where the sum is the n-node sum
    re-indexed, at most _BLOCK_POINTS kernel points (or one ring) at a time."""
    rows = table.rows(params, [r for r, _ in rings], cap)
    coeffs = {}
    turned = {}
    sampled = []
    for ring in dict.fromkeys(rings):
        r, phase = ring
        row = rows[r]
        if phase == 0.0:
            coeffs[ring] = row
        elif row.size < cap or abs(row[row.size // 2]) <= _RING_TOL * np.abs(row).sum():
            turned.setdefault(row.size, []).append(ring)
        else:
            sampled.append(ring)
    for size, group in turned.items():
        block = np.array([rows[r] for r, _ in group]) * _turns([phase for _, phase in group], size)
        coeffs.update(zip(group, block))
    step = max(1, _BLOCK_POINTS // cap)
    for i in range(0, len(sampled), step):
        coeffs.update(zip(sampled[i : i + step], _ring_spectra(params, sampled[i : i + step], cap)))
    return coeffs


class _RingPlan:
    """The kernel coefficients of a ring set at n_theta angles on n nodes,
    laid out for the fold of PoissonExtension._circles, read-only.

    A ring's N coefficients p_q, q in [-N/2, N/2), sit at the columns
    q mod L of a row of width L = n_theta ceil(N/n_theta), zero where no
    q falls.  Rings of one L form a group: their indices in the set
    (at), their rows as a (rings, L/n_theta, n_theta) block, and the
    columns cols of index, which holds q mod n of every column of every
    group: q = c for the columns c < L - L // 2, q = c - L above.
    """

    def __init__(self, params: AlphaBeta, rings: tuple, n_theta: int, nodes: int, table: _KernelTable):
        coeffs = _ring_coefficients(params, rings, math.lcm(nodes, n_theta), table)
        by_width = {}
        for i, ring in enumerate(rings):
            by_width.setdefault(-(-coeffs[ring].size // n_theta) * n_theta, []).append(i)
        self.groups = []
        index = []
        start = 0
        for width, at in by_width.items():
            block = np.zeros((len(at), width), dtype=complex)
            for row, i in zip(block, at):
                p = coeffs[rings[i]]
                half = p.size // 2
                row[:half] = p[:half]
                row[width - p.size + half :] = p[half:]
            block = block.reshape(len(at), width // n_theta, n_theta)
            block.flags.writeable = False
            cols = np.arange(width)
            cols[width - width // 2 :] -= width
            index.append(cols % nodes)
            self.groups.append((at, block, slice(start, start + width)))
            start += width
        self.index = np.concatenate(index) if index else np.empty(0, dtype=np.intp)
        self.index.flags.writeable = False
        self.nbytes = self.index.nbytes + sum(block.nbytes for _, block, _ in self.groups)


def poisson_integral(params: AlphaBeta, f: BoundaryFunction, z, nodes: int = DEFAULT_NODES):
    """Poisson integral of f at z: a complex for a scalar or DiskPoint z, else an array.

    The dense sum (c/n) sum_l P(z e^{-i t_l}) f_l over the n = nodes grid,
    its kernel rows evaluated in blocks of at most _BLOCK_POINTS kernel
    points (or one row).  Fourier data of order nodes/2 or more raise
    DomainError, as the nodes cannot tell its modes from their aliases.
    """
    check_nodes(nodes)
    _check_order(f, nodes)
    z = _disk_array(z)
    grid = f.values_on_grid(nodes)
    roots = np.exp(-1j * circle_nodes(nodes))
    flat = z.reshape(-1)
    sums = np.empty(flat.size, dtype=complex)
    step = max(1, _BLOCK_POINTS // nodes)
    for i in range(0, flat.size, step):
        rows = unnormalized_kernel(params, flat[i : i + step, None] * roots)
        sums[i : i + step] = np.sum(rows * grid, axis=-1)
    vals = (params.c_norm / nodes * sums).reshape(z.shape)
    return complex(vals) if vals.ndim == 0 else vals


class PoissonExtension:
    """The extension of f as a reusable evaluation callback.

    Calling it evaluates the Poisson integral at scalar or array
    arguments, one kernel row of the nodes per point.  circle_values
    evaluates a ring from the kernel's Fourier coefficients on it,
    sampled only as finely as they need, never one kernel row per angle;
    a rotation orbit is the ring through its point.  Every path reads f
    only on its nodes-point grid; a ring's phase goes through the kernel.
    Fourier data of order nodes/2 or more raise DomainError, as they do
    in poisson_integral.
    """

    def __init__(self, params: AlphaBeta, f: BoundaryFunction, nodes: int = DEFAULT_NODES):
        self.params = params
        self.f = f
        self.nodes = check_nodes(nodes)
        _check_order(f, nodes)

    def __call__(self, z):
        return poisson_integral(self.params, self.f, z, self.nodes)

    def circle_values(self, r: float, n_theta: int, phase: float = 0.0) -> np.ndarray:
        """u(r e^{i(theta_j + phase)}) on the uniform n_theta grid."""
        return self._circles([(r, phase)], n_theta)[0]

    def _circles(self, rings, n_theta: int) -> np.ndarray:
        """circle_values at each (r, phase) of rings, one row per ring.

        u at angle theta_j is (c/n) sum_l K(theta_j - t_l) f_l for the
        ring's kernel K(s) = P(r e^{i(phase + s)}), so by the convolution
        theorem it is (c/n) sum_q p_q F_{q mod n} e^{i q theta_j}, with p_q
        the Fourier coefficients of K and F the n-point FFT of the samples.
        p comes from N samples of the kernel at the ring's radius, turned
        by its phase (_ring_coefficients), q runs over [-N/2, N/2), and
        the products fold onto the n_theta bins q mod n_theta of one
        inverse FFT.  With N = lcm(n, n_theta) this is the
        n-node sum re-indexed; a smaller N leaves out only coefficients
        below rounding.

        The fold: the kernel table keeps the ring set's coefficients as a
        _RingPlan, whose rows of width L hold them at the columns q mod L;
        one gather reads F at every column, and bin b sums the products in
        column b of a row as a (L/n_theta, n_theta) array.  Below 32 bins
        that is one dot product per ring and bin, up to 2.5 times faster
        than numpy's sum over rows that short; from 32 bins on, the sum of
        the rows, which the dot products, n_theta apart in memory, no
        longer beat.  Rings of one L are folded together, each as it would
        be alone, so a ring is the same bit for bit in any call.
        """
        rings = tuple((float(r), float(phase)) for r, phase in rings)
        n = self.nodes
        table = _kernel_table(self.params, n)

        def build():
            # a set in the table passed these checks when it was built
            _check_angles(n_theta)
            for r, _ in rings:
                if not 0.0 <= r < 1.0:
                    raise DomainError(f"circle radius must be in [0, 1), got {r}")
            return _RingPlan(self.params, rings, n_theta, n, table)

        plan = table.get((rings, n_theta), build)
        spec = self.f.spectrum(n)[plan.index]
        bins = np.empty((len(rings), n_theta), dtype=complex)
        for at, p, cols in plan.groups:
            fl = spec[cols].reshape(p.shape[1:])
            if n_theta < 32:
                bins[at] = np.matmul(p.transpose(0, 2, 1)[:, :, None, :], fl.T[:, :, None])[..., 0, 0]
            else:
                bins[at] = (p * fl).sum(axis=1)
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
