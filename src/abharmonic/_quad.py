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

Circle integrals split [0, 2pi] by one rule, shared by circle_integral and
base_integral: the trapezoid grid without break points, else a tanh-sinh
piece between each two neighbouring break points.  The nodes of all its
pieces are kept as one read-only array per rule, in a per-process cache
of 64 rules keyed on the break tuple as the caller passes it and the node
count (the split and the placement run only when a rule is built), so an
integrand is evaluated once per integral, on every node at once; each
piece is then summed on its own slice, which gives the same bits as
integrating the pieces one by one, as elementwise ufuncs and numpy's
pairwise sum of a contiguous slice do not depend on what lies around the
slice.  The kernel moments go through base_integral, whose integrands are
functions of |cos(s - x)| and cos((s - y)/2)^2 only; a further cache holds
those two read-only factor arrays per rule and phase (x, y) (64 entries),
so a moment evaluates only its own powers.
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


def p_mean(vals, p: float) -> float:
    """(mean |vals|^p)^(1/p) over circle-grid samples; p = inf takes max |vals|."""
    if not p >= 1.0:
        raise DomainError(f"p-means require p >= 1 or p = inf, got {p}")
    a = np.abs(vals)
    top = float(a.max())
    if math.isinf(p):
        return top
    # |vals|^p and their sum stay normal floats while p log2(max |vals|)
    # lies well inside the exponent range; beyond it they would overflow or
    # underflow, so the samples are scaled by their maximum first
    if 0.0 < top < math.inf and not -1000.0 < p * math.log2(top) < 1000.0 - math.log2(a.size):
        return top * float(np.mean((a / top) ** p) ** (1.0 / p))
    return float(np.mean(a**p) ** (1.0 / p))


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
    limit raises DomainError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got ({a}, {b})")
    if b <= a:
        return 0.0
    x, w = _tanh_sinh_nodes(a, b, max(nodes, 51))
    half = 0.5 * (b - a)
    vals = np.asarray(fn(x))
    return float(half * np.sum(w * vals))


def _circle_pieces(breaks: tuple, nodes: int) -> list:
    # The tanh-sinh pieces (a, b, n) of [0, 2pi] split at the break points
    # taken modulo 2 pi, with the node budget shared among them.
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


@functools.lru_cache(maxsize=64)
def _circle_rule(breaks: tuple, nodes: int):
    # The nodes s of every piece of the circle rule in one read-only array,
    # their weights w and each piece's (start, stop, half): the n-point
    # trapezoid grid and w = None without break points, else the kept
    # tanh-sinh nodes of each piece (a, b, n) of _circle_pieces in piece
    # order, weights still to be scaled by half = (b - a) / 2.  Keyed on
    # the break tuple as passed, so break sets that split the circle alike
    # hold equal rules under separate keys.  A bad argument raises on every
    # call, as lru_cache keeps no exception.
    if not nodes >= 1:
        raise DomainError(f"circle integrals need nodes >= 1, got {nodes}")
    if not breaks:
        s = circle_nodes(nodes)
        s.flags.writeable = False
        return s, None, ()
    pieces = _circle_pieces(breaks, nodes)
    xs, ws = zip(*(_tanh_sinh_nodes(*piece) for piece in pieces))
    s, w = np.concatenate(xs), np.concatenate(ws)
    s.flags.writeable = False
    w.flags.writeable = False
    spans, start = [], 0
    for (a, b, _), x in zip(pieces, xs):
        spans.append((start, start + x.size, 0.5 * (b - a)))
        start += x.size
    return s, w, tuple(spans)


def _circle_sum(vals, rule) -> float:
    # The circle rule applied to the integrand's values at its nodes: each
    # piece's weighted sum is numpy's pairwise sum of a contiguous slice,
    # which depends only on the slice, so it is the bits of integrate on
    # that piece alone; the pieces are added in order from 0.
    _, w, spans = rule
    if w is None:
        return float(TWO_PI * np.mean(vals))
    wv = w * vals
    total = 0
    for a, b, half in spans:
        total += half * float(np.add.reduce(wv[a:b]))
    return total


def circle_integral(fn, breaks=(), nodes: int = DEFAULT_NODES) -> float:
    """Integral of fn over [0, 2pi].

    With no interior break points the periodic trapezoid rule is used;
    otherwise the interval is split at the (normalized) break points and
    each smooth piece handled by tanh-sinh.  fn is evaluated once, on the
    read-only array of every node of the rule.  A non-finite break point
    or nodes < 1 raises DomainError.
    """
    rule = _circle_rule(tuple(breaks), nodes)
    return _circle_sum(fn(rule[0]), rule)


@functools.lru_cache(maxsize=64)
def _phase_factors(breaks: tuple, nodes: int, x: float, y: float):
    # |cos(s - x)| and cos((s - y) / 2)^2 at the nodes s of the circle rule
    # _circle_rule(breaks, nodes).  Read-only, as every caller shares them.
    s = _circle_rule(breaks, nodes)[0]
    ca = np.abs(np.cos(s - x))
    c2 = np.cos(0.5 * (s - y)) ** 2
    ca.flags.writeable = False
    c2.flags.writeable = False
    return ca, c2


def base_integral(
    term, r: float, x: float, y: float, breaks=(), nodes: int = DEFAULT_NODES
) -> float:
    """circle_integral of term(|cos(s - x)|, |1 + r e^{i(s - y)}|^2).

    Neither cosine depends on r or on term, so both are tabulated once per
    circle rule and phase (x, y); a call evaluates term and the base once,
    on every node of the rule and with the same floats as the integrand
    written out in s.
    """
    breaks = tuple(breaks)
    ca, c2 = _phase_factors(breaks, nodes, x, y)
    return _circle_sum(term(ca, _base(r, c2)), _circle_rule(breaks, nodes))


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
