"""The weighted Poisson kernel on the unit disk and its parameter pair.

The kernel is

    (1 - |w|^2)^(alpha+beta+1) / ((1 - w)^(alpha+1) (1 - conj(w))^(beta+1))

with the principal branch of the complex powers; this is well defined on
the disk because Re(1 - w) > 0 there.  The normalized kernel multiplies
by c = Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+1).

It is evaluated in polar form.  Write 1 - w = rho e^{i phi} with
rho = |1 - w| and phi = arg(1 - w) = atan2(-Im w, 1 - Re w).  Since
Re(1 - w) > 0, phi lies in (-pi/2, pi/2), so the principal logarithms
are log(1 - w) = log rho + i phi and log(1 - conj(w)) = log rho - i phi,
and the principal-branch formula equals exactly

    (1 - |w|^2)^(sigma-1) * rho^(-sigma) * exp(i (beta - alpha) phi)

with sigma = alpha + beta + 2: two real powers and a phase, which is
1 when alpha = beta.  rho^2 is formed as (1 - Re w)^2 + (Im w)^2, and
1 - |w|^2 keeps its relative accuracy up to the circle, so the kernel
stays within a few ulps of its value at the given w, next to w = 1 too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .specfun import HypParams, gamma, _nonpositive_int

UNIT_MODULUS_TOL = 1e-12
_CANCELLATION_BELOW = 0.0625


@dataclass(frozen=True)
class AlphaBeta:
    """Validated weight pair with its cached normalizing constant."""

    alpha: float
    beta: float
    c_norm: float

    @property
    def sigma(self) -> float:
        """alpha + beta + 2, the exponent driving every kernel estimate."""
        return self.alpha + self.beta + 2.0


def _mode_hyp(params: AlphaBeta, k: int) -> HypParams:
    """Triple (-a, |k| - b, |k| + 1) of series mode k, with (a, b) =
    (alpha, beta) for k >= 0 and (beta, alpha) for k < 0: mode -k is the
    conjugate of mode k with the weights swapped."""
    a, b = (params.alpha, params.beta) if k >= 0 else (params.beta, params.alpha)
    return HypParams(-a, abs(k) - b, abs(k) + 1.0)


def normalizing_constant(alpha: float, beta: float) -> float:
    return gamma(alpha + 1.0) * gamma(beta + 1.0) / gamma(alpha + beta + 1.0)


def make_params(alpha: float, beta: float) -> AlphaBeta:
    """Validate (alpha, beta) and attach the normalizing constant.

    Requires finite weights, alpha + beta > -1 and neither weight within
    1e-12 of a negative integer.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterError(f"weights must be finite, got ({alpha}, {beta})")
    if not alpha + beta > -1.0:
        raise ParameterError(
            f"require alpha + beta > -1, got alpha + beta = {alpha + beta}"
        )
    for name, v in (("alpha", alpha), ("beta", beta)):
        n = _nonpositive_int(v)
        if n is not None and n < 0:
            raise ParameterError(f"{name} = {v} is a negative integer")
    return AlphaBeta(alpha, beta, normalizing_constant(alpha, beta))


def _split(a):
    """Veltkamp split a = hi + lo, both halves 26 bits wide, so that the
    products of halves are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _one_minus_abs_sq(x, y):
    """1 - x^2 - y^2 to a few ulps of its value.

    The plain difference loses about log2(1 / (1 - |w|^2)) bits near the
    circle.  Where 1 - |w|^2 < 1/16 it is rebuilt from the exact squares
    of the split halves; there |w|^2 > 15/16, so 1 - (xh^2 + yh^2) is exact.
    """
    d = 1.0 - (x * x + y * y)
    near = d < _CANCELLATION_BELOW
    if not np.any(near):
        return d
    xh, xl = _split(x)
    yh, yl = _split(y)
    a, b = xh * xh, yh * yh
    s = a + b
    b_part = s - a
    s_err = (a - (s - b_part)) + (b - b_part)  # a + b = s + s_err exactly
    exact = (1.0 - s) - s_err - (2.0 * (xh * xl + yh * yl) + (xl * xl + yl * yl))
    return np.where(near, exact, d)


def unnormalized_kernel(params: AlphaBeta, w):
    """Kernel value at w in the open disk, without the normalizing constant.

    Accepts a complex scalar or a numpy array of them.
    """
    w = np.asarray(w, dtype=complex)
    if not np.all(np.abs(w) < 1.0):
        raise DomainError("kernel argument must satisfy |w| < 1")
    x, y = w.real, w.imag
    one_minus_x = 1.0 - x
    rho_sq = one_minus_x * one_minus_x + y * y
    sigma = params.sigma
    val = _one_minus_abs_sq(x, y) ** (sigma - 1.0) * rho_sq ** (-0.5 * sigma)
    if params.alpha != params.beta:
        val = val * np.exp(1j * (params.beta - params.alpha) * np.arctan2(-y, one_minus_x))
    else:
        val = val.astype(complex)
    if val.ndim == 0:
        return complex(val)
    return val


def poisson_kernel(params: AlphaBeta, z, zeta):
    """Normalized kernel c * u(z * conj(zeta)) for |z| < 1, |zeta| = 1."""
    zeta = complex(zeta)
    if not abs(abs(zeta) - 1.0) <= UNIT_MODULUS_TOL:
        raise DomainError(f"|zeta| must be 1 within {UNIT_MODULUS_TOL}, got {abs(zeta)}")
    return params.c_norm * unnormalized_kernel(params, np.asarray(z, dtype=complex) * np.conj(zeta))
