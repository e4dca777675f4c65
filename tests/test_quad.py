import importlib
import math
import pkgutil

import numpy as np
import pytest

import abharmonic
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
def test_integrate_gives_placed_bits(a, b, nodes):
    _quad._tanh_sinh_rule.cache_clear()
    expected = placed_formula(integrand, a, b, nodes)
    # on a cold and on a warm standard rule
    assert integrate(integrand, a, b, nodes) == expected
    assert integrate(integrand, a, b, nodes) == expected


def test_collapsed_nodes_are_dropped():
    seen = []
    integrate(lambda x: seen.append(x) or np.ones_like(x), 1.0, 1.0 + 1e-12, 600)
    (x,) = seen
    assert 0 < x.size < 600
    assert np.all((x > 1.0) & (x < 1.0 + 1e-12))


@pytest.mark.parametrize("nodes", [51, 600, 2048])
def test_standard_rule_is_read_only(nodes):
    for arr in _quad._tanh_sinh_rule(nodes):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_integrate_keeps_only_the_standard_rule():
    # nodes are placed on every call: 128 intervals add one entry, the rule
    _quad._tanh_sinh_rule.cache_clear()
    for k in range(128):
        integrate(np.cos, 0.0, 1.0 + k / 256.0, 64)
    info = _quad._tanh_sinh_rule.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


@pytest.mark.parametrize("nodes", [0, -4, -4096])
@pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)])
def test_integrate_node_count_below_one_raises(a, b, nodes):
    # before a rule is built or the integrand called, as on the circle
    _quad._tanh_sinh_rule.cache_clear()
    calls = []
    with pytest.raises(DomainError, match="nodes"):
        integrate(lambda t: calls.append(t) or np.ones_like(t), a, b, nodes)
    assert calls == [] and _quad._tanh_sinh_rule.cache_info().currsize == 0


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
    _quad._tanh_sinh_rule.cache_clear()
    calls = []
    with pytest.raises(DomainError):
        integrate(lambda t: calls.append(t) or np.ones_like(t), a, b)
    assert calls == [] and _quad._tanh_sinh_rule.cache_info().currsize == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_break_point_raises(bad):
    calls = []
    with pytest.raises(DomainError):
        circle_integral(lambda s: calls.append(s) or np.ones_like(s), breaks=(1.0, bad))
    with pytest.raises(DomainError):
        base_integral(lambda ca, base: calls.append(ca) or base, 0.5, 0.0, 0.0, (bad,))
    assert calls == []


def placed_pieces(breaks, nodes):
    """The nodes of each piece of the circle rule, placed anew."""
    if not breaks:
        return [_quad.circle_nodes(nodes)]
    pieces = []
    for a, b, n in _quad._circle_pieces(breaks, nodes):
        integrate(lambda x: pieces.append(x) or np.ones_like(x), a, b, n)
    return pieces


def placed_nodes(breaks, nodes):
    """The nodes of the circle rule, each piece placed anew."""
    return np.concatenate(placed_pieces(breaks, nodes))


# (breaks, nodes) of two rules of each kind: the 256-point trapezoid grid,
# the circle halved at pi, and the quarter turns split at x + pi/2,
# x + 3 pi/2 and y + pi of a bounds report's oscillatory moment at r > 0.9
RULES = [
    ((), 256),
    ((math.pi,), 512),
    ((HALF_PI, 3.0 * HALF_PI, math.pi), 4096),
]


@pytest.mark.parametrize("breaks, nodes", RULES)
def test_moment_rule_is_read_only(breaks, nodes):
    ca, c2, w, _ = _quad._moment_rule(breaks, nodes, 0.7, -0.4)
    for arr in (ca, c2) if w is None else (ca, c2, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("breaks, nodes", RULES)
def test_moment_rule_holds_the_written_out_cosines(breaks, nodes):
    s = placed_nodes(breaks, nodes)
    ca, c2, _, _ = _quad._moment_rule(breaks, nodes, 0.7, -0.4)
    assert np.array_equal(ca, np.abs(np.cos(s - 0.7)))
    assert np.array_equal(c2, np.cos(0.5 * (s + 0.4)) ** 2)


def test_moment_table_is_bounded():
    # phases on the trapezoid grid and break points of split rules
    for k in range(128):
        base_integral(lambda ca, base: ca * base, 0.5, k / 64.0, 0.0, (), 64)
        base_integral(lambda ca, base: ca * base, 0.5, 0.0, 0.0, (k / 64.0,), 512)
    info = _quad._moment_rule.cache_info()
    assert info.maxsize == info.currsize == 64


# break sets with wrap-around (negative and beyond 2 pi), duplicates, breaks
# at 0 and 2 pi, a single break, and a report's four quarter-turn pieces
BREAK_SETS = [
    (math.pi,),
    (-1.0, 2.0 * math.pi + 0.5, 3.0),
    (0.3, 0.3, 0.3 + 2.0 * math.pi, 4.0),
    (0.0, 2.0 * math.pi, 1.7),
    (0.0,),
    (HALF_PI, 3.0 * HALF_PI, math.pi),
]


def piecewise_formula(fn, breaks, nodes):
    """The circle rule written out piece by piece: integrate on each."""
    total = 0
    for a, b, n in _quad._circle_pieces(breaks, nodes):
        total += integrate(fn, a, b, n)
    return total


@pytest.mark.parametrize("nodes", [64, 2048, DEFAULT_NODES])
@pytest.mark.parametrize("breaks", BREAK_SETS)
def test_circle_integral_gives_piecewise_bits(breaks, nodes):
    calls = []

    def fn(s):
        calls.append(s.size)
        return integrand(s)

    assert circle_integral(fn, breaks, nodes) == piecewise_formula(integrand, breaks, nodes)
    # one call per piece, on every kept node of the piece
    assert calls == [x.size for x in placed_pieces(breaks, nodes)]


@pytest.mark.parametrize("nodes", [64, 2048])
def test_break_sets_that_split_alike_give_equal_bits(nodes):
    # each tuple as passed is its own key, so four entries hold equal tables
    x, y = 0.7, -0.4
    alike = [(math.pi,), (-math.pi,), (3.0 * math.pi,), (math.pi, 2.0 * math.pi)]
    _quad._moment_rule.cache_clear()
    circles = {circle_integral(integrand, breaks, nodes) for breaks in alike}
    bases = {
        base_integral(lambda ca, base: (0.2 + ca) * base**-0.3, 0.95, x, y, breaks, nodes)
        for breaks in alike
    }
    assert len(circles) == len(bases) == 1
    assert _quad._moment_rule.cache_info().currsize == 4


@pytest.mark.parametrize("nodes", [64, 2048, DEFAULT_NODES])
@pytest.mark.parametrize("r", [0.6, 0.95, 1.0])
@pytest.mark.parametrize("breaks", BREAK_SETS)
def test_base_integral_gives_piecewise_bits(breaks, r, nodes):
    x, y, m, k = 0.7, -0.4, -0.3, 1.7
    calls = []

    def term(ca, base):
        calls.append(ca.size)
        return (0.2 + ca) ** k * base**m

    def written_out(s):
        base = (1.0 - r) ** 2 + 4.0 * r * np.cos(0.5 * (s - y)) ** 2
        return (0.2 + np.abs(np.cos(s - x))) ** k * base**m

    assert base_integral(term, r, x, y, breaks, nodes) == piecewise_formula(written_out, breaks, nodes)
    assert len(calls) == 1


@pytest.mark.parametrize("nodes", [0, -4, -4096])
@pytest.mark.parametrize("breaks", [(), (math.pi,)])
def test_node_count_below_one_raises(breaks, nodes):
    calls = []
    with pytest.raises(DomainError, match="nodes"):
        circle_integral(lambda s: calls.append(s) or np.ones_like(s), breaks, nodes)
    with pytest.raises(DomainError, match="nodes"):
        base_integral(lambda ca, base: calls.append(ca) or base, 0.5, 0.0, 0.0, breaks, nodes)
    assert calls == []


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


# every per-process cache of the package
CACHES = {
    "_quad._tanh_sinh_rule",
    "_quad._moment_rule",
    "bounds.plain_moment",
    "bounds.plain_moment_closed",
    "bounds.oscillatory_moment",
    "harmonic._conj_roots",
    "harmonic._kernel_table",
    "cli._parser",
}


def test_cache_inventory():
    # module-level functions and class members that carry cache_info,
    # each counted in the module that defines it; every one is bounded
    found = {}
    for info in pkgutil.iter_modules(abharmonic.__path__):
        mod = importlib.import_module(f"abharmonic.{info.name}")
        for obj in vars(mod).values():
            for fn in vars(obj).values() if isinstance(obj, type) else (obj,):
                if hasattr(fn, "cache_info") and fn.__module__ == mod.__name__:
                    found[f"{info.name}.{fn.__name__}"] = fn.cache_info().maxsize
    assert set(found) == CACHES
    assert all(maxsize is not None for maxsize in found.values()), found
