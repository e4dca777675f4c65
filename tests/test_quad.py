import math

import numpy as np
import pytest

from abharmonic import _quad
from abharmonic._quad import DEFAULT_NODES, base_integral, circle_integral, integrate, p_mean
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_break_point_raises(bad):
    calls = []
    with pytest.raises(DomainError):
        circle_integral(lambda s: calls.append(s) or np.ones_like(s), breaks=(1.0, bad))
    with pytest.raises(DomainError):
        base_integral(lambda ca, base: calls.append(ca) or base, 0.5, 0.0, 0.0, (bad,))
    assert calls == []


@pytest.mark.parametrize("piece", [(256,), (0.0, math.pi, 256)])
def test_phase_factors_are_read_only(piece):
    for arr in _quad._phase_factors(piece, 0.7, -0.4):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("piece", [(256,), BOUNDS_PIECES[4]])
def test_phase_factors_are_the_written_out_cosines(piece):
    s = _quad.circle_nodes(256) if len(piece) == 1 else _quad._tanh_sinh_nodes(*piece)[0]
    ca, c2 = _quad._phase_factors(piece, 0.7, -0.4)
    assert np.array_equal(ca, np.abs(np.cos(s - 0.7)))
    assert np.array_equal(c2, np.cos(0.5 * (s + 0.4)) ** 2)


def test_phase_cache_is_bounded():
    for k in range(128):
        base_integral(lambda ca, base: ca * base, 0.5, k / 64.0, 0.0, (), 64)
    info = _quad._phase_factors.cache_info()
    assert info.maxsize == info.currsize == 64


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 50.0])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_p_mean_in_range_keeps_the_plain_formula(p, scale):
    # where |vals|^p cannot overflow or underflow, the mean is the one
    # expression it always was, bit for bit
    vals = scale * np.random.default_rng(3).normal(size=512)
    a = np.abs(vals)
    assert p_mean(vals, p) == float(np.mean(a**p) ** (1.0 / p))


@pytest.mark.parametrize(
    "vals, p, expected",
    [
        # the largest sample dominates: max * (count of maxima / n)^(1/p)
        ([3.0, 1.0, 2.0, 0.5], 700.0, 3.0 * 4.0 ** (-1.0 / 700.0)),
        ([3.0, 1.0, 2.0, 0.5], 5000.0, 3.0 * 4.0 ** (-1.0 / 5000.0)),
        ([3.0, 1.0, 2.0, 0.5], 1e308, 3.0),
        ([0.5, 0.5], 5000.0, 0.5),
        ([0.5, 0.5], 1e308, 0.5),
        # samples so small that their fourth powers underflow
        ([1e-300, 2e-300], 4.0, 2e-300 * (0.5 * (1.0 + 0.5**4)) ** 0.25),
    ],
)
def test_p_mean_at_extreme_exponents(vals, p, expected):
    assert p_mean(np.array(vals), p) == pytest.approx(expected, rel=1e-14)


def test_p_mean_of_zeros_and_non_finite_samples():
    assert p_mean(np.zeros(4), 700.0) == 0.0
    assert p_mean(np.array([1.0, math.inf]), 700.0) == math.inf
