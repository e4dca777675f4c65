"""The weighted Poisson kernel on the unit disk and its parameter pair.

The kernel is

    (1 - |w|^2)^(alpha+beta+1) / ((1 - w)^(alpha+1) (1 - conj(w))^(beta+1))

with the principal branch of the complex powers; this is well defined on
the disk because Re(1 - w) > 0 there.  The normalized kernel multiplies
by c = Gamma(alpha+1) Gamma(beta+1) / Gamma(alpha+beta+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .specfun import gamma, _nonpositive_int

UNIT_MODULUS_TOL = 1e-12


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


def unnormalized_kernel(params: AlphaBeta, w):
    """Kernel value at w in the open disk, without the normalizing constant.

    Accepts a complex scalar or a numpy array of them.
    """
    w = np.asarray(w, dtype=complex)
    if not np.all(np.abs(w) < 1.0):
        raise DomainError("kernel argument must satisfy |w| < 1")
    one_minus_sq = 1.0 - (w * np.conj(w)).real
    val = (
        one_minus_sq ** (params.alpha + params.beta + 1.0)
        / ((1.0 - w) ** (params.alpha + 1.0) * (1.0 - np.conj(w)) ** (params.beta + 1.0))
    )
    if val.ndim == 0:
        return complex(val)
    return val


def poisson_kernel(params: AlphaBeta, z, zeta):
    """Normalized kernel c * u(z * conj(zeta)) for |z| < 1, |zeta| = 1."""
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > UNIT_MODULUS_TOL:
        raise DomainError(f"|zeta| must be 1 within {UNIT_MODULUS_TOL}, got {abs(zeta)}")
    return params.c_norm * unnormalized_kernel(params, np.asarray(z, dtype=complex) * np.conj(zeta))
