"""Quadrature helpers.

Two rules cover everything this package integrates:

* the periodic trapezoid rule on a uniform circle grid, which is
  spectrally accurate for smooth 2*pi-periodic integrands, and
* a tanh-sinh (double exponential) rule for pieces whose integrand has
  kinks (``|cos|`` factors) or integrable algebraic endpoint
  singularities (weights like ``(2 - 2*cos b)**m`` with ``m > -1/2``).

Integrands are expected to accept numpy arrays.  Tanh-sinh nodes and
weights are placed once per (a, b, n) in a small per-process cache, so
repeated integrals over the same piece only evaluate the integrand.
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


def circle_mean(fn, nodes: int = DEFAULT_NODES):
    """Mean value (1/2pi) * integral of fn over [0, 2pi), trapezoid rule."""
    return np.mean(fn(circle_nodes(nodes)))


def p_mean(vals, p: float) -> float:
    """(mean |vals|^p)^(1/p) over circle-grid samples; p = inf takes max |vals|."""
    if not p >= 1.0:
        raise DomainError(f"p-means require p >= 1 or p = inf, got {p}")
    a = np.abs(vals)
    if math.isinf(p):
        return float(a.max())
    return float(np.mean(a**p) ** (1.0 / p))


@functools.lru_cache(maxsize=16)
def _tanh_sinh_rule(n: int, tmax: float = 3.6):
    # Nodes u = tanh(v), v = (pi/2) sinh t.  The distance of a node to the
    # nearer endpoint, 1 - |u|, is computed without cancellation so that
    # integrands singular at an endpoint are evaluated at honest positions.
    t = np.linspace(-tmax, tmax, n)
    h = t[1] - t[0]
    v = 0.5 * np.pi * np.sinh(t)
    w = h * 0.5 * np.pi * np.cosh(t) / np.cosh(v) ** 2
    ev = np.exp(-2.0 * np.abs(v))
    dist = 2.0 * ev / (1.0 + ev)  # = 1 - |u|
    upper = t >= 0.0
    return w, dist, upper


@functools.lru_cache(maxsize=64)
def _tanh_sinh_nodes(a: float, b: float, n: int):
    # The rule of _tanh_sinh_rule(n) placed on (a, b): the nodes that do not
    # collapse onto an endpoint in floating point, and their weights (still
    # to be scaled by (b - a) / 2).  Read-only, as every caller shares them.
    w, dist, upper = _tanh_sinh_rule(n)
    half = 0.5 * (b - a)
    x = np.where(upper, b - half * dist, a + half * dist)
    keep = (x != a) & (x != b)
    x, w = x[keep], w[keep]
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def integrate(fn, a: float, b: float, nodes: int = 600) -> float:
    """Integral of fn over (a, b) by the tanh-sinh rule.

    Handles integrable endpoint singularities; interior kinks should be
    turned into endpoints via integrate_piecewise.  Nodes that collapse
    onto an endpoint in floating point are dropped (their weights are at
    the level of double rounding).  A non-finite limit raises DomainError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration limits must be finite, got ({a}, {b})")
    if b <= a:
        return 0.0
    x, w = _tanh_sinh_nodes(a, b, max(nodes, 51))
    half = 0.5 * (b - a)
    vals = np.asarray(fn(x))
    return float(half * np.sum(w * vals))


def integrate_piecewise(fn, breaks, nodes: int = DEFAULT_NODES) -> float:
    """Integral of fn over [breaks[0], breaks[-1]], tanh-sinh on each piece."""
    breaks = sorted(breaks)
    pieces = [(a, b) for a, b in zip(breaks[:-1], breaks[1:]) if b - a > 1e-13]
    per = max(nodes // max(len(pieces), 1), 201)
    return sum(integrate(fn, a, b, per) for a, b in pieces)


def circle_integral(fn, breaks=(), nodes: int = DEFAULT_NODES) -> float:
    """Integral of fn over [0, 2pi].

    With no interior break points the periodic trapezoid rule is used;
    otherwise the interval is split at the (normalized) break points and
    each smooth piece handled by tanh-sinh.
    """
    if not breaks:
        return float(TWO_PI * circle_mean(fn, nodes))
    pts = {0.0, TWO_PI}
    for s in breaks:
        pts.add(float(s) % TWO_PI)
    return integrate_piecewise(fn, sorted(pts), nodes)


def base_plus(r: float, s) -> np.ndarray:
    """1 + r^2 + 2 r cos(s), written to stay accurate near s = pi."""
    return (1.0 - r) ** 2 + 4.0 * r * np.cos(0.5 * np.asarray(s)) ** 2


def base_minus(r: float, s) -> np.ndarray:
    """1 + r^2 - 2 r cos(s), written to stay accurate near s = 0."""
    return (1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * np.asarray(s)) ** 2
