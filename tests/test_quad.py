import importlib
import math
import pkgutil

import mpmath
import numpy as np
import pytest

import abharmonic
from abharmonic import _quad
from abharmonic._quad import DEFAULT_NODES, base_plus, circle_integral, integrate, kernel_moment, p_mean
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
        _quad._kernel_moment(1.0, 0, 0.0, 0.0, 0.5, 0.0, 0.0, (bad,), DEFAULT_NODES)
    # a break point kernel_moment places at a non-finite phase
    with pytest.raises(DomainError):
        kernel_moment(1.0, 1, 0.0, 1.0, 0.5, bad, 0.0, 64)
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
    ca, log_base, w, _ = _quad._moment_rule(breaks, nodes, 0.7, -0.4, 0.95)
    for arr in (ca, log_base) if w is None else (ca, log_base, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("r", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("breaks, nodes", RULES)
def test_moment_rule_holds_the_written_out_cosine_and_log_base(breaks, nodes, r):
    s = placed_nodes(breaks, nodes)
    ca, log_base, _, _ = _quad._moment_rule(breaks, nodes, 0.7, -0.4, r)
    assert np.array_equal(ca, np.abs(np.cos(s - 0.7)))
    assert np.array_equal(log_base, np.log((1.0 - r) ** 2 + 4.0 * r * np.cos(0.5 * (s + 0.4)) ** 2))


@pytest.mark.parametrize("r", [0.0, 0.6, 0.9, 0.95, 1.0])
@pytest.mark.parametrize("m", [-0.3, 0.0, 2.5])
@pytest.mark.parametrize("k", [0, 1, 1.7])
def test_kernel_moment_places_its_breaks_by_one_rule(monkeypatch, k, m, r):
    # the |cos| kinks where k != 0 and the base minimum where r > 0.9,
    # whatever the sign of m
    x, y, nodes = 0.7, -0.4, 512
    seen = []
    engine = _quad._kernel_moment

    def recorded(*args):
        seen.append(args[7])
        return engine(*args)

    monkeypatch.setattr(_quad, "_kernel_moment", recorded)
    kernel_moment.cache_clear()
    got = kernel_moment(m, k, 0.2, 1.5, r, x, y, nodes)
    breaks = (x + HALF_PI, x + 3.0 * HALF_PI) if k != 0 else ()
    if r > 0.9:
        breaks += (y + math.pi,)
    assert seen == [breaks]
    assert got == engine(m, k, 0.2, 1.5, r, x, y, breaks, nodes)
    # a second call is a cache hit
    assert kernel_moment(m, k, 0.2, 1.5, r, x, y, nodes) == got and len(seen) == 1


def test_moment_table_is_bounded():
    # phases on the trapezoid grid, break points of split rules and radii
    for k in range(128):
        _quad._kernel_moment(1.0, 1, 0.0, 1.0, 0.5, k / 64.0, 0.0, (), 64)
        _quad._kernel_moment(1.0, 1, 0.0, 1.0, 0.5, 0.0, 0.0, (k / 64.0,), 512)
        _quad._kernel_moment(1.0, 1, 0.0, 1.0, k / 128.0, 0.0, 0.0, (), 64)
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
    bases = {_quad._kernel_moment(-0.3, 1, 0.2, 1.0, 0.95, x, y, breaks, nodes) for breaks in alike}
    assert len(circles) == len(bases) == 1
    assert _quad._moment_rule.cache_info().currsize == 4


def exp_form(m, k, off, amp, r, x, y):
    """The integrand of kernel_moment written out in s, in its exp form."""

    def fn(s):
        ca = np.abs(np.cos(s - x))
        log_base = np.log((1.0 - r) ** 2 + 4.0 * r * np.cos(0.5 * (s - y)) ** 2)
        if k == 0:
            return np.exp(m * log_base)
        if k == 1:
            return (off + amp * ca) * np.exp(m * log_base)
        return np.exp(m * log_base + k * np.log(off + amp * ca))

    return fn


@pytest.mark.parametrize("nodes", [64, 2048, DEFAULT_NODES])
@pytest.mark.parametrize("r", [0.6, 0.95, 1.0])
@pytest.mark.parametrize("breaks", BREAK_SETS)
def test_kernel_moment_gives_piecewise_bits(breaks, r, nodes):
    # at k = 0, 1 and otherwise, from one table lookup
    x, y, m = 0.7, -0.4, -0.3
    for k in (0, 1, 1.7):
        before = _quad._moment_rule.cache_info()
        expected = piecewise_formula(exp_form(m, k, 0.2, 1.5, r, x, y), breaks, nodes)
        assert _quad._kernel_moment(m, k, 0.2, 1.5, r, x, y, breaks, nodes) == expected
        after = _quad._moment_rule.cache_info()
        assert (after.hits + after.misses) - (before.hits + before.misses) == 1


# radii of one break set each: the trapezoid grid at k = 0 (or the kinks
# alone at k != 0) up to 0.9, the base minimum too above it
STACKED_RADII = {False: (0.0, 0.3, 0.6, 0.9, 0.6), True: (0.95, 0.99, 1.0)}


@pytest.mark.parametrize("nodes", [64, 2048, DEFAULT_NODES])
@pytest.mark.parametrize("k", [0, 1, 4.0 / 3.0, 2])
@pytest.mark.parametrize("far", [False, True])
def test_stacked_radii_give_the_single_radius_bits(far, k, nodes):
    # one pass over the stacked rows of a tuple of radii gives each radius
    # the bits of its own call, repeated radii included
    x, y = 0.7, -0.4
    breaks = ((x + HALF_PI, x + 3.0 * HALF_PI) if k != 0 else ()) + ((y + math.pi,) if far else ())
    radii = STACKED_RADII[far]
    for m in (-0.3, 0.37, 2.5):
        alone = tuple(_quad._kernel_moment(m, k, 0.2, 1.5, r, x, y, breaks, nodes) for r in radii)
        assert _quad._kernel_moment(m, k, 0.2, 1.5, radii, x, y, breaks, nodes) == alone


def test_kernel_moment_of_a_radius_tuple():
    # radii on both sides of 0.9, in any order: one pass per break set, and
    # a tuple of the single-radius moments in the order given
    radii = (0.95, 0.3, 1.0, 0.6, 0.3)
    for k in (0, 1, 2):
        got = kernel_moment(0.37, k, 0.2, 1.5, radii, 0.7, -0.4, 2048)
        assert type(got) is tuple
        assert got == tuple(kernel_moment(0.37, k, 0.2, 1.5, r, 0.7, -0.4, 2048) for r in radii)


# the oracle grid: m in (-0.49, 10), each k of the distortion, partial and
# lemma moments and their k = 0 and 1 branches, radii up to the r = 1 limit
ORACLE_RADII = [0.0, 0.3, 0.6, 0.9, 0.95, 1.0]
ORACLE_POWERS = [0, 1, 4.0 / 3.0, 2, 3]


@pytest.mark.parametrize("nodes", [2048, DEFAULT_NODES])
@pytest.mark.parametrize("k", ORACLE_POWERS)
@pytest.mark.parametrize("r", ORACLE_RADII)
def test_kernel_moment_matches_the_power_integrand(r, k, nodes):
    # (off + amp |cos(s - x)|)^k |1 + r e^{i(s - y)}|^(2m) written out with
    # powers and integrated by circle_integral on the same break points:
    # the exp form moves each node by a few ulps, the sum by far less
    rng = np.random.default_rng([27, ORACLE_RADII.index(r), ORACLE_POWERS.index(k), nodes])
    for _ in range(6):
        m = rng.uniform(-0.49, 10.0)
        x, y = rng.uniform(-math.pi, 3.0 * math.pi, 2)
        off, amp = rng.uniform(0.0, 1.0), rng.uniform(0.5, 3.0)
        breaks = [x + HALF_PI, x + 3.0 * HALF_PI] + ([y + math.pi] if r > 0.9 else [])

        def power_form(s):
            return (off + amp * np.abs(np.cos(s - x))) ** k * base_plus(r, s - y) ** m

        expected = circle_integral(power_form, breaks, nodes)
        got = _quad._kernel_moment(m, k, off, amp, r, x, y, breaks, nodes)
        assert got == pytest.approx(expected, rel=1e-13, abs=0.0), (m, x, y, off, amp)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 0.9])
def test_plain_kernel_moment_matches_the_hypergeometric_mean(r):
    # 2 pi F(-m, -m; 1; r^2) from mpmath, on the trapezoid grid
    rng = np.random.default_rng([27, int(10 * r)])
    for m in rng.uniform(-0.49, 10.0, 12):
        expected = 2.0 * math.pi * float(mpmath.hyp2f1(-m, -m, 1, r * r))
        got = kernel_moment(m, 0, 0.0, 0.0, r, 0.0, 0.0, DEFAULT_NODES)
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0), m


@pytest.mark.parametrize("nodes", [0, -4, -4096])
@pytest.mark.parametrize("breaks", [(), (math.pi,)])
def test_node_count_below_one_raises(breaks, nodes):
    calls = []
    with pytest.raises(DomainError, match="nodes"):
        circle_integral(lambda s: calls.append(s) or np.ones_like(s), breaks, nodes)
    with pytest.raises(DomainError, match="nodes"):
        _quad._kernel_moment(1.0, 0, 0.0, 0.0, 0.5, 0.0, 0.0, breaks, nodes)
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


def _p_mean_of_row(vals, p):
    # p_mean's 1-d form, one row at a time
    a = np.abs(vals)
    top = float(a.max())
    if math.isinf(p):
        return top
    if 0.0 < top < math.inf and not -1000.0 < p * math.log2(top) < 1000.0 - math.log2(a.size):
        return top * float((np.add.reduce((a / top) ** p) / a.size) ** (1.0 / p))
    return float((np.add.reduce(a**p) / a.size) ** (1.0 / p))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
@pytest.mark.parametrize("shape", [(3, 1024), (3, 4, 256), (8, 60), (1, 7)])
def test_p_mean_rows_keep_their_bits(p, shape):
    # one pass over the rows gives each row's 1-d mean bit for bit: rows
    # of size 1, 1e-300 (whose powers underflow from p = 1.5 on) and 1e300
    # (which overflow), so the scaled branch sits beside the plain one
    rng = np.random.default_rng(17)
    vals = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    rows = vals.reshape(-1, shape[-1])
    rows *= np.array([1.0, 1e-300, 1e300, 1e-3])[np.arange(len(rows)) % 4, None]
    means = p_mean(vals, p)
    assert means.shape == shape[:-1]
    assert means.ravel().tolist() == [_p_mean_of_row(row, p) for row in rows]
    for row in rows:
        mean = p_mean(row, p)
        assert type(mean) is float and mean == _p_mean_of_row(row, p)


# every per-process cache of the package
CACHES = {
    "_quad._tanh_sinh_rule",
    "_quad._moment_rule",
    "_quad.kernel_moment",
    "audit._boundary_wirtinger",
    "bounds.plain_moment_closed",
    "harmonic._half_roots",
    "harmonic._kernel_table",
    "harmonic._turn_rows",
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
