import math

import numpy as np
import pytest

from abharmonic import _quad
from abharmonic._quad import DEFAULT_NODES, integrate
from abharmonic.errors import DomainError

HALF_PI = 0.5 * math.pi

# the nine (a, b, n) pieces of a `bounds` report: the circle split at
# multiples of pi/2 into 2, 3 or 4 pieces
BOUNDS_PIECES = [
    (0.0, HALF_PI, 1024),
    (0.0, HALF_PI, 1365),
    (0.0, math.pi, 2048),
    (HALF_PI, math.pi, 1024),
    (HALF_PI, 3.0 * HALF_PI, 1365),
    (math.pi, 3.0 * HALF_PI, 1024),
    (math.pi, 2.0 * math.pi, 2048),
    (3.0 * HALF_PI, 2.0 * math.pi, 1024),
    (3.0 * HALF_PI, 2.0 * math.pi, 1365),
]
PIECES = BOUNDS_PIECES + [
    (0.0, math.pi, DEFAULT_NODES // 2),
    # the nodes collapse onto the endpoints and are dropped
    (1.0, 1.0 + 1e-12, 600),
]


def placed_formula(fn, a, b, nodes):
    """The tanh-sinh sum with its nodes placed anew on every call."""
    w, dist, upper = _quad._tanh_sinh_rule(max(nodes, 51))
    half = 0.5 * (b - a)
    x = np.where(upper, b - half * dist, a + half * dist)
    keep = (x != a) & (x != b)
    vals = np.asarray(fn(x[keep]))
    return float(half * np.sum(w[keep] * vals))


def integrand(t):
    # endpoint singularity at 0 and 2 pi and a kink at pi / 2 and 3 pi / 2
    return (4.0 * np.sin(0.5 * t) ** 2) ** -0.3 * np.abs(np.cos(t)) + np.cos(3.0 * t)


@pytest.mark.parametrize("a, b, nodes", PIECES)
def test_cached_nodes_give_placed_bits(a, b, nodes):
    _quad._tanh_sinh_nodes.cache_clear()
    expected = placed_formula(integrand, a, b, nodes)
    cold = integrate(integrand, a, b, nodes)
    warm = integrate(integrand, a, b, nodes)
    assert cold == expected and warm == expected
    info = _quad._tanh_sinh_nodes.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_collapsed_nodes_are_dropped():
    x, w = _quad._tanh_sinh_nodes(1.0, 1.0 + 1e-12, 600)
    assert 0 < x.size < 600 and x.size == w.size
    assert np.all((x > 1.0) & (x < 1.0 + 1e-12))


def test_cached_arrays_are_read_only():
    x, w = _quad._tanh_sinh_nodes(0.0, math.pi, 256)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_cache_is_bounded():
    for k in range(128):
        integrate(np.cos, 0.0, 1.0 + k / 256.0, 64)
    info = _quad._tanh_sinh_nodes.cache_info()
    assert info.maxsize == info.currsize == 64


@pytest.mark.parametrize(
    "a, b",
    [
        (0.0, math.nan),
        (math.nan, 1.0),
        (math.nan, math.nan),
        (0.0, math.inf),
        (-math.inf, 0.0),
        (math.inf, math.inf),
    ],
)
def test_non_finite_limit_raises(a, b):
    _quad._tanh_sinh_nodes.cache_clear()
    calls = []
    with pytest.raises(DomainError):
        integrate(lambda t: calls.append(t) or np.ones_like(t), a, b)
    assert calls == [] and _quad._tanh_sinh_nodes.cache_info().currsize == 0
