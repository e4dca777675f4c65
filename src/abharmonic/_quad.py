"""Quadrature helpers.

Two rules cover everything this package integrates:

* the periodic trapezoid rule on a uniform circle grid, which is
  spectrally accurate for smooth 2*pi-periodic integrands, and
* a tanh-sinh (double exponential) rule for pieces whose integrand has
  kinks (``|cos|`` factors) or integrable algebraic endpoint
  singularities (weights like ``(2 - 2*cos b)**m`` with ``m > -1/2``).

Integrands are expected to accept numpy arrays.  The standard tanh-sinh
rule of n nodes on (-1, 1) is kept per n in a small per-process cache;
integrate places it on (a, b) on every call.

circle_integral integrates over [0, 2pi] by the trapezoid grid without
break points, else by integrate on each piece between two neighbouring
break points.  The kernel moments (off + amp |cos(s - x)|)^k
|1 + r e^{i(s - y)}|^(2m) go through kernel_moment, which places its own
break points and caches each moment; its integrands are functions of
|cos(s - x)| and L = log |1 + r e^{i(s - y)}|^2 only: a per-process cache
of 64 tables, one per rule and radius, keyed on (breaks, nodes, x, y, r),
holds both at every node of that rule with the nodes' weights, so a
moment takes one exp per node, on the same nodes as circle_integral.  A
moment at a new radius costs one table build; no suite or workload scans
radii finely, and the audit's lemma scan takes its moments key-major.
kernel_moment also takes a tuple of radii and returns a tuple: the radii
that share a break set go through one pass over their stacked log rows,
each row with the bits of its radius alone, and the tuple is one entry of
the same moment cache.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError

TWO_PI = 2.0 * np.pi
DEFAULT_NODES = 4096  # the package-wide default node count


def circle_nodes(n: int) -> np.ndarray:
    """Uniform angles t_j = 2*pi*j/n, j = 0..n-1."""
    return TWO_PI * np.arange(n) / n


def p_mean(vals, p: float):
    """(mean |vals|^p)^(1/p) over circle-grid samples along the last axis;
    p = inf takes max |vals|.  A float for 1-d vals, else an array of the
    leading shape, each row with the bits it has alone."""
    if not p >= 1.0:
        raise DomainError(f"p-means require p >= 1 or p = inf, got {p}")
    a = np.abs(vals)
    top = a.max(axis=-1)
    if math.isinf(p):
        return float(top) if top.ndim == 0 else top
    # |vals|^p and their sum stay normal floats while p log2(max |vals|)
    # lies well inside the exponent range; beyond it they would overflow or
    # underflow, so such a row is scaled by its maximum first.  A mean is
    # add.reduce / size: np.mean's bits without its overhead.  The power
    # 1/p is taken row by row on a scalar, whose bits numpy's array power
    # does not keep
    limit = 1000.0 - math.log2(a.shape[-1])
    scale = np.array(
        [t if 0.0 < t < math.inf and not -1000.0 < p * math.log2(t) < limit else 1.0 for t in top.flat]
    ).reshape(top.shape)
    sums = np.add.reduce((a / scale[..., None]) ** p, axis=-1) / a.shape[-1]
    means = scale * np.array([m ** (1.0 / p) for m in sums.flat]).reshape(top.shape)
    return float(means) if means.ndim == 0 else means


@functools.lru_cache(maxsize=16)
def _tanh_sinh_rule(n: int):
    # Nodes u = tanh(v), v = (pi/2) sinh t on n steps of t in [-3.6, 3.6].
    # The distance of a node to the nearer endpoint, 1 - |u|, is computed
    # without cancellation so that integrands singular at an endpoint are
    # evaluated at honest positions.  Read-only, as every caller shares it.
    t = np.linspace(-3.6, 3.6, n)
    h = t[1] - t[0]
    v = 0.5 * np.pi * np.sinh(t)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2
    ev = np.exp(-2.0 * np.abs(v))
    dist = 2.0 * ev / (1.0 + ev)  # = 1 - |u|
    upper = t >= 0.0
    for arr in (w, dist, upper):
        arr.flags.writeable = False
    return w, dist, upper


def _tanh_sinh_nodes(a: float, b: float, n: int):
    # The rule of _tanh_sinh_rule(n) placed on (a, b): the nodes that do not
    # collapse onto an endpoint in floating point, and their weights (still
    # to be scaled by (b - a) / 2).
    w, dist, upper = _tanh_sinh_rule(n)
    half = 0.5 * (b - a)
    x = np.where(upper, b - half * dist, a + half * dist)
    keep = (x != a) & (x != b)
    return x[keep], w[keep]


def integrate(fn, a: float, b: float, nodes: int = 600) -> float:
    """Integral of fn over (a, b) by the tanh-sinh rule.

    Handles integrable endpoint singularities; interior kinks should be
    turned into endpoints, as circle_integral does with its break points.
    Nodes that collapse onto an endpoint in floating point are dropped
    (their weights are at the level of double rounding).  A non-finite
    limit or nodes < 1 raises DomainError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got ({a}, {b})")
    if not nodes >= 1:
        raise DomainError(f"quadrature needs nodes >= 1, got {nodes}")
    if b <= a:
        return 0.0
    x, w = _tanh_sinh_nodes(a, b, max(nodes, 51))
    half = 0.5 * (b - a)
    vals = np.asarray(fn(x))
    return float(half * np.sum(w * vals))


def _circle_pieces(breaks: tuple, nodes: int):
    # The tanh-sinh pieces (a, b, n) of [0, 2pi] split at the break points
    # taken modulo 2 pi, with the node budget shared among them; None, for
    # the trapezoid grid, without break points.
    if not nodes >= 1:
        raise DomainError(f"quadrature needs nodes >= 1, got {nodes}")
    if not breaks:
        return None
    pts = {0.0, TWO_PI}
    for s in breaks:
        s = float(s)
        if not math.isfinite(s):
            raise DomainError(f"break points must be finite, got {s}")
        pts.add(s % TWO_PI)
    pts = sorted(pts)
    pieces = [(a, b) for a, b in zip(pts[:-1], pts[1:]) if b - a > 1e-13]
    per = max(nodes // max(len(pieces), 1), 201)
    return [(a, b, per) for a, b in pieces]


def circle_integral(fn, breaks=(), nodes: int = DEFAULT_NODES) -> float:
    """Integral of fn over [0, 2pi].

    With no interior break points the periodic trapezoid rule is used;
    otherwise the interval is split at the (normalized) break points and
    each smooth piece handled by integrate, the pieces added in order from
    0.  A non-finite break point or nodes < 1 raises DomainError before fn
    is called.
    """
    pieces = _circle_pieces(tuple(breaks), nodes)
    if pieces is None:
        return float(TWO_PI * np.mean(fn(circle_nodes(nodes))))
    total = 0
    for a, b, n in pieces:
        total += integrate(fn, a, b, n)
    return total


@functools.lru_cache(maxsize=64)
def _moment_rule(breaks: tuple, nodes: int, x: float, y: float, r: float):
    # |cos(s - x)|, the log of the base (1 - r)^2 + 4 r cos((s - y) / 2)^2
    # and the weights w at the nodes s of circle_integral's rule, and each
    # piece's (start, stop, half): w = None on the trapezoid grid, else the
    # kept tanh-sinh weights of each piece of _circle_pieces in order, still
    # to be scaled by half = (b - a) / 2.  Read-only, as every caller shares
    # them.  Keyed on the break tuple as passed, so break sets that split the
    # circle alike hold equal tables under separate keys; lru_cache keeps no
    # exception, so a bad argument raises on every call.
    pieces = _circle_pieces(breaks, nodes)
    if pieces is None:
        s, w, spans = circle_nodes(nodes), None, ()
    else:
        xs, ws = zip(*(_tanh_sinh_nodes(*piece) for piece in pieces))
        s, w = np.concatenate(xs), np.concatenate(ws)
        w.flags.writeable = False
        spans, start = [], 0
        for (a, b, _), piece in zip(pieces, xs):
            spans.append((start, start + piece.size, 0.5 * (b - a)))
            start += piece.size
    ca = np.abs(np.cos(s - x))
    log_base = np.log(base_plus(r, s - y))
    for arr in (ca, log_base):
        arr.flags.writeable = False
    return ca, log_base, w, tuple(spans)


def _kernel_moment(m, k, off, amp, r, x, y, breaks, nodes):
    """circle_integral of (off + amp |cos(s - x)|)^k |1 + r e^{i(s - y)}|^(2m):
    a float for one radius r, a tuple for a tuple of radii.

    Neither the cosine nor the log L of the base |1 + r e^{i(s - y)}|^2
    depends on the exponents or the weight, so both are tabulated with the
    rule's weights once per rule, phase (x, y) and radius; a call takes one
    exp per node and radius: exp(m L) at k = 0, (off + amp |cos|) exp(m L)
    at k = 1, else exp(m L + k log(off + amp |cos|)).  A tuple's radii are
    one pass over their stacked L rows, and the weight, which does not
    depend on the radius, is taken once; every step is element-wise, so
    each row has the bits of its radius alone.  Each piece's weighted sum
    is numpy's pairwise sum of a contiguous slice of a row, which depends
    only on the slice, so it has the bits of integrate on that piece alone.
    """
    if isinstance(r, tuple):
        rules = [_moment_rule(tuple(breaks), nodes, x, y, radius) for radius in r]
        ca, _, w, spans = rules[0]
        log_base = np.array([rule[1] for rule in rules])
    else:
        ca, log_base, w, spans = _moment_rule(tuple(breaks), nodes, x, y, r)
    # in place where it keeps the bits: a temporary of the rule's size
    # costs about as much as the exp
    vals = m * log_base
    if k != 0:
        weight = amp * ca
        weight += off
        if k != 1:
            vals += k * np.log(weight, out=weight)
    np.exp(vals, out=vals)
    if k == 1:
        vals *= weight
    if w is None:
        totals = TWO_PI * (np.add.reduce(vals, axis=-1) / vals.shape[-1])  # np.mean's bits
    else:
        vals *= w
        totals = 0
        for a, b, half in spans:
            totals += half * np.add.reduce(vals[..., a:b], axis=-1)
    return tuple(totals.tolist()) if isinstance(r, tuple) else float(totals)


@functools.lru_cache(maxsize=4096)
def kernel_moment(m, k, off, amp, r, x, y, nodes, /):
    """Integral of (off + amp |cos(s - x)|)^k |1 + r e^{i(s - y)}|^(2m)
    over the circle, once per process for each distinct moment: a float
    for one radius r, a tuple for a tuple of radii.

    The circle breaks at the |cos| kinks x + pi/2 and x + 3 pi/2 where
    k != 0, and at the base minimum y + pi where r > 0.9; with no break
    the trapezoid grid serves.  The radii of a tuple that share a break
    set are integrated in one pass (_kernel_moment), each with the bits it
    has alone.  Positional-only: one moment, one cache key.
    """
    kinks = (x + 0.5 * math.pi, x + 1.5 * math.pi) if k != 0 else ()

    def moment(radii, far):
        return _kernel_moment(m, k, off, amp, radii, x, y, kinks + (y + math.pi,) if far else kinks, nodes)

    if not isinstance(r, tuple):
        return moment(r, r > 0.9)
    sides = {}
    for radius in r:
        sides.setdefault(radius > 0.9, []).append(radius)
    got = {far: iter(moment(tuple(side), far)) for far, side in sides.items()}
    return tuple(next(got[radius > 0.9]) for radius in r)


def _base(r: float, sq) -> np.ndarray:
    # (1 - r)^2 + 4 r sq: the base 1 + r^2 -+ 2 r cos(s) from the square of
    # cos(s / 2) or sin(s / 2)
    return (1.0 - r) ** 2 + 4.0 * r * sq


def base_plus(r: float, s) -> np.ndarray:
    """1 + r^2 + 2 r cos(s), written to stay accurate near s = pi."""
    return _base(r, np.cos(0.5 * np.asarray(s)) ** 2)


def base_minus(r: float, s) -> np.ndarray:
    """1 + r^2 - 2 r cos(s), written to stay accurate near s = 0."""
    return _base(r, np.sin(0.5 * np.asarray(s)) ** 2)
