"""Real special functions: Gamma, Beta, Pochhammer symbols and their
ratios, and Gauss 2F1.

The hypergeometric evaluator follows the classical strategy for real
arguments on (-1, 1):

* terminating series summed exactly when a parameter is a non-positive
  integer,
* direct term recurrence for |x| <= 0.8,
* the Pfaff map x -> x/(x-1) for x < -0.8,
* the connection formula toward argument 1-x for 0.8 < x < 1 when
  c - a - b > 0 and safely away from the integer-degenerate case; where
  its two terms cancel by more than a factor _CANCELLATION, as they do
  for large b and c (the series modes of high order), the direct series
  instead if it converges within MAX_TERMS terms and does not cancel more
  than _DIRECT_CANCELLATION times as much,
* for 0.8 < x < 1 when c - a - b < 0 away from integers, the direct
  series where it converges within MAX_TERMS terms, and otherwise Euler's
  transformation F(a,b;c;x) = (1-x)^(c-a-b) F(c-a, c-b; c; x)
  (DLMF 15.8.1), which turns c - a - b into a + b - c > 0 for the
  connection formula;
* for near-integer c - a - b, the direct series (it still converges for
  x < 1 and the connection coefficients would cancel catastrophically).

A ConvergenceError is raised when the term budget of MAX_TERMS runs out.
For 0.8 < x < 1 and moderate parameters that happens only where c - a - b
lies within _DEGENERATE_GAP of an integer, once x is close enough to 1:
the direct series needs about 1/(1-x) terms there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, ParameterError, PoleError

INTEGER_TOL = 1e-12
SERIES_RTOL = 1e-16
MAX_TERMS = 10_000
_DIRECT_CUTOFF = 0.8
_DEGENERATE_GAP = 1e-3
_CANCELLATION = 64.0
# where the connection terms cancel, the direct series is taken unless it
# cancels more than this many times as much: a unit of the connection
# formula's cancellation factor costs more error than one of the direct
# series', since its coefficients are products of Gamma values (a median
# 14 ulps against 2.3, 90th percentiles 157 against 8.4, over 1,312
# cancelling cases checked against mpmath)
_DIRECT_CANCELLATION = 64.0


def _nonpositive_int(x: float, tol: float = INTEGER_TOL):
    """Return x rounded when x is within tol of a non-positive integer."""
    n = round(x)
    if n <= 0 and abs(x - n) <= tol:
        return int(n)
    return None


def gamma(x: float) -> float:
    """Gamma function for real non-pole arguments.

    Arguments below 1/2 go through the reflection identity
    Gamma(x) = pi / (sin(pi x) Gamma(1 - x)), with sin(pi x) reduced
    around the nearest integer so accuracy survives close to the poles.
    """
    x = float(x)
    if _nonpositive_int(x) is not None:
        raise PoleError(f"gamma pole at x = {x}")
    if x >= 0.5:
        return math.gamma(x)
    n = round(x)
    s = math.sin(math.pi * (x - n))
    if n % 2:
        s = -s
    return math.pi / (s * math.gamma(1.0 - x))


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), continued by zero at the poles."""
    if _nonpositive_int(x) is not None:
        return 0.0
    return 1.0 / gamma(x)


def beta(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), x, y > 0."""
    if x <= 0.0 or y <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({x}, {y})")
    return gamma(x) * gamma(y) / gamma(x + y)


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise DomainError("pochhammer requires n >= 0")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def pochhammer_ratio(a: float, b: float, n: int) -> float:
    """(a)_n / (b)_n as the product of (a + j) / (b + j) over j < n, so it
    stays finite where (a)_n and (b)_n overflow apart; no b + j may be 0."""
    if n < 0:
        raise DomainError("pochhammer_ratio requires n >= 0")
    out = 1.0
    for j in range(n):
        out *= (a + j) / (b + j)
    return out


@dataclass(frozen=True)
class HypParams:
    """Parameter triple (a, b, c) of the Gauss hypergeometric series."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if _nonpositive_int(self.c) is not None:
            raise ParameterError(
                f"third hypergeometric parameter c = {self.c} is a "
                "non-positive integer (series undefined)"
            )

    def shifted(self) -> "HypParams":
        return HypParams(self.a + 1.0, self.b + 1.0, self.c + 1.0)


def _coerce(p) -> HypParams:
    if isinstance(p, HypParams):
        return p
    a, b, c = p
    return HypParams(float(a), float(b), float(c))


def _series(a: float, b: float, c: float, x: float) -> tuple[float, float]:
    # (the sum, the sum of its terms' moduli): the second exceeds the
    # modulus of the first by the factor the summation cancels
    term = total = size = 1.0
    for n in range(MAX_TERMS):
        term *= (a + n) * (b + n) * x / ((c + n) * (n + 1.0))
        total += term
        size += abs(term)
        if abs(term) <= SERIES_RTOL * abs(total):
            return total, size
    raise ConvergenceError(
        f"hypergeometric series did not converge for ({a}, {b}; {c}; {x}) "
        f"within {MAX_TERMS} terms",
        params=(a, b, c, x), terms=MAX_TERMS, last_term=term,
    )


def _terminating(a: float, b: float, c: float, x: float, n_terms: int) -> float:
    term = 1.0
    total = 1.0
    for n in range(n_terms):
        term *= (a + n) * (b + n) * x / ((c + n) * (n + 1.0))
        total += term
    return total


def gauss_2f1(p, x: float) -> float:
    """F(a, b; c; x) for real parameters and |x| < 1."""
    p = _coerce(p)
    x = float(x)
    if abs(x) >= 1.0:
        raise DomainError(f"gauss_2f1 requires |x| < 1, got x = {x}")
    a, b, c = p.a, p.b, p.c
    if x == 0.0:
        return 1.0

    na = _nonpositive_int(a)
    nb = _nonpositive_int(b)
    if na is not None or nb is not None:
        n_terms = min(-n for n in (na, nb) if n is not None)
        return _terminating(a, b, c, x, n_terms)

    if abs(x) <= _DIRECT_CUTOFF:
        return _series(a, b, c, x)[0]

    if x < 0.0:
        # Pfaff: F(a,b;c;x) = (1-x)^(-a) F(a, c-b; c; x/(x-1)), and the
        # mapped argument lies in (0.44, 0.5) for x in (-1, -0.8).
        return (1.0 - x) ** (-a) * gauss_2f1(HypParams(a, c - b, c), x / (x - 1.0))

    cab = c - a - b
    if abs(cab - round(cab)) < _DEGENERATE_GAP:
        # Near-integer c-a-b: connection coefficients are singular, so fall
        # back to the direct series, which converges for x < 1 and fails
        # loudly via ConvergenceError only as x -> 1.
        return _series(a, b, c, x)[0]

    if cab < 0.0:
        # The direct series, where it converges within its budget; otherwise
        # Euler: the new triple has c - a - b = -cab > 0, away from integers
        try:
            return _series(a, b, c, x)[0]
        except ConvergenceError:
            return (1.0 - x) ** cab * gauss_2f1(HypParams(c - a, c - b, c), x)

    y = 1.0 - x
    coef1 = gauss_2f1_at_one(p)
    coef2 = gamma(c) * gamma(-cab) * reciprocal_gamma(a) * reciprocal_gamma(b)
    total = size = 0.0
    if coef1 != 0.0:
        t = coef1 * _series(a, b, a + b - c + 1.0, y)[0]
        total, size = total + t, size + abs(t)
    if coef2 != 0.0:
        t = coef2 * y**cab * _series(c - a, c - b, cab + 1.0, y)[0]
        total, size = total + t, size + abs(t)
    if size > _CANCELLATION * abs(total):
        # the two terms cancel, as they do for large b and c (series modes of
        # high order): take the direct series where it converges and does
        # not cancel more than _DIRECT_CANCELLATION times as much
        try:
            direct, direct_size = _series(a, b, c, x)
        except ConvergenceError:
            return total
        if direct_size * abs(total) < _DIRECT_CANCELLATION * size * abs(direct):
            return direct
    return total


def gauss_2f1_at_one(p) -> float:
    """Limit of F(a, b; c; x) at x -> 1, requires c - a - b > 0.

    Equals Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)); the value is
    zero when c-a or c-b hits a non-positive integer.
    """
    p = _coerce(p)
    cab = p.c - p.a - p.b
    if cab <= 0.0:
        raise DomainError(
            f"F(a,b;c;1) requires c - a - b > 0, got {cab} "
            f"for ({p.a}, {p.b}; {p.c})"
        )
    return (
        gamma(p.c)
        * gamma(cab)
        * reciprocal_gamma(p.c - p.a)
        * reciprocal_gamma(p.c - p.b)
    )


def gauss_2f1_derivative(p, x: float) -> float:
    """d/dx F(a, b; c; x) = (a b / c) F(a+1, b+1; c+1; x)."""
    p = _coerce(p)
    if p.a == 0.0 or p.b == 0.0:
        return 0.0
    return p.a * p.b / p.c * gauss_2f1(p.shifted(), x)
