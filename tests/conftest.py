"""Shared high-precision oracles for the test suite, and a fixture that
starts every test with an empty kernel table.

The hypergeometric oracle sums the defining series in 50-digit arithmetic
with at least 200 terms, continuing until the terms fall below 1e-30 of
the partial sum, so its own truncation error never pollutes comparisons
at the 1e-10 level.
"""

import mpmath as mp
import pytest

from abharmonic import harmonic

mp.mp.dps = 50


@pytest.fixture(autouse=True)
def cold_kernel_table():
    """Each test starts without ring plans kept from another, so
    a test that counts kernel work or patches the kernel sees every
    evaluation."""
    harmonic._kernel_table.cache_clear()


def mp_gauss_2f1(a, b, c, x, min_terms=200):
    a, b, c, x = map(mp.mpf, (a, b, c, x))
    total = mp.mpf(1)
    term = mp.mpf(1)
    n = 0
    while True:
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1)) * x
        total += term
        n += 1
        if n >= min_terms and abs(term) < mp.mpf("1e-30") * max(abs(total), mp.mpf("1e-30")):
            break
        if n > 200_000:
            raise RuntimeError("oracle did not converge")
    return total


def mp_gamma(x):
    return mp.gamma(mp.mpf(x))


@pytest.fixture
def f21_oracle():
    return lambda a, b, c, x: float(mp_gauss_2f1(a, b, c, x))


@pytest.fixture
def gamma_oracle():
    return lambda x: float(mp_gamma(x))
