"""Boundary data on the unit circle.

A boundary function is held as finite Fourier data (a map k -> f_hat(k))
and as uniform samples on t_j = 2*pi*j/N, sampled once per N and kept
read-only.  Trigonometric polynomials are the intended scope, so Fourier
evaluation is exact and all circle quadrature below is the plain
periodic trapezoid rule.  On the N-point grid exp(i k t_j) depends only
on k mod N, so there the Fourier data act folded onto N bins (_folded).

Document format (JSON-style):

    {"fourier": {"0": [1.0, 0.0], "-2": [0.5, 0.0]}}
    {"samples": [[re, im], [re, im], ...]}

Given both, the samples' DFT must match the folded data within 1e-10 at
every bin, whatever the order.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from ._quad import DEFAULT_NODES, p_mean
from .errors import BoundaryFileError, ParameterError

_CONSISTENCY_TOL = 1e-10


def _read_only_grid(samples) -> np.ndarray:
    """A read-only complex copy of samples, whose count must be a power of two."""
    samples = np.array(samples, dtype=complex)
    n = len(samples)
    if n < 1 or n & (n - 1):
        raise ParameterError(f"sample count must be a power of two, got {n}")
    samples.flags.writeable = False
    return samples


def _dft(samples: np.ndarray, ks) -> np.ndarray:
    """(1/N) sum_j samples_j exp(-i k t_j) at each k of ks: FFT bin k mod N."""
    return (np.fft.fft(samples) / len(samples))[np.asarray(ks) % len(samples)]


def _folded(fourier: dict, n: int) -> np.ndarray:
    """The Fourier data on n bins, f_hat(k) added into bin k mod n."""
    spectrum = np.zeros(n, dtype=complex)
    for k, v in fourier.items():
        spectrum[k % n] += v
    return spectrum


class BoundaryFunction:
    """Circle function with Fourier data; given samples are its grid for
    their N and must agree with the data at every bin."""

    def __init__(self, fourier: dict[int, complex], samples=None):
        if not fourier:
            raise ParameterError("need fourier coefficients")
        self.fourier = {int(k): complex(v) for k, v in sorted(fourier.items())}
        self.order = max(abs(k) for k in self.fourier)
        self._grids = {}
        self._spectra = {}
        self._norms = {}
        if samples is not None:
            samples = _read_only_grid(samples)
            n = len(samples)
            gap = np.abs(_dft(samples, np.arange(n)) - _folded(self.fourier, n))
            j = int(np.argmax(gap))  # the first NaN, if any
            if not gap[j] <= _CONSISTENCY_TOL:
                raise ParameterError(
                    f"fourier data and samples disagree by {gap[j]:.3e} at modes k = {j} mod {n}"
                )
            self._grids[n] = samples

    def evaluate(self, t):
        """Value sum_k f_hat(k) exp(i k t); t may be scalar or array."""
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for k, v in self.fourier.items():
            out += v * np.exp(1j * k * t)
        if out.ndim == 0:
            return complex(out)
        return out

    __call__ = evaluate

    def values_on_grid(self, n: int) -> np.ndarray:
        """The read-only samples on t_j = 2*pi*j/n, computed on first use.

        One inverse FFT of the folded data builds the grid, which is exact
        for any order because exp(i k t_j) depends only on k mod n.
        """
        if n not in self._grids:
            if n < 1:
                raise ParameterError(f"grid size must be a positive count, got n = {n}")
            grid = np.fft.ifft(_folded(self.fourier, n), norm="forward")
            grid.flags.writeable = False
            self._grids[n] = grid
        return self._grids[n]

    def spectrum(self, n: int) -> np.ndarray:
        """The read-only n-point FFT of the n-point grid, computed on first use."""
        if n not in self._spectra:
            spec = np.fft.fft(self.values_on_grid(n))
            spec.flags.writeable = False
            self._spectra[n] = spec
        return self._spectra[n]

    @property
    def is_constant(self) -> bool:
        return all(k == 0 for k, v in self.fourier.items() if abs(v) > 0)

    def __repr__(self):
        return f"BoundaryFunction(order={self.order}, terms={len(self.fourier)})"


def from_fourier(coeffs: dict) -> BoundaryFunction:
    return BoundaryFunction({int(k): complex(v) for k, v in coeffs.items()})


def fourier_from_samples(samples, order: int) -> dict[int, complex]:
    """DFT coefficients f_hat(k) = (1/N) sum_j samples_j exp(-i k t_j) for
    k = 0, 1, -1, ..., order, -order, in that order.

    Exact for band-limited input; requires order < N/2 to avoid aliasing.
    """
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if order >= n / 2:
        raise ParameterError(
            f"aliasing: truncation order {order} needs more than {n} samples"
        )
    up = np.arange(1, order + 1)
    ks = np.concatenate(([0], np.column_stack((up, -up)).ravel()))
    return dict(zip(ks.tolist(), _dft(samples, ks).tolist()))


def from_samples(samples) -> BoundaryFunction:
    """Boundary function from uniform samples, keeping all resolvable modes;
    the samples are its grid for their N."""
    samples = _read_only_grid(samples)
    n = len(samples)
    # the fourier_from_samples modes up to n/2 - 1, in ascending order, each
    # kept unless negligible (mode 0 always); hypot is abs() of a complex
    order = max(n // 2 - 1, 0)
    ks = np.arange(-order, order + 1)
    spec = _dft(samples, ks)
    keep = (ks == 0) | (np.hypot(spec.real, spec.imag) > 1e-14)
    f = BoundaryFunction(dict(zip(ks[keep].tolist(), spec[keep].tolist())))
    f._grids[n] = samples  # unchecked: the dropped modes need not be zero
    return f


def lp_norm(f: BoundaryFunction, p: float, nodes: int = DEFAULT_NODES) -> float:
    """Circle L^p norm; p = inf uses the grid maximum (a lower bound that
    converges from below under grid refinement); kept on f per (p, nodes)."""
    if (p, nodes) not in f._norms:
        f._norms[p, nodes] = p_mean(f.values_on_grid(nodes), p)
    return f._norms[p, nodes]


# ---------------------------------------------------------------------------
# document interface


def _complex_pair(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise BoundaryFileError(f"expected [re, im], got {v!r}")
    try:
        re, im = float(v[0]), float(v[1])
    except (TypeError, ValueError, OverflowError) as exc:
        raise BoundaryFileError(f"non-numeric entry {v!r}") from exc
    if not (math.isfinite(re) and math.isfinite(im)):
        raise BoundaryFileError(f"non-finite entry {v!r}")
    return complex(re, im)


def _sample_array(raw: list) -> np.ndarray:
    """The [re, im] entries of raw as a complex array: one numpy pass over
    the flattened pairs when every entry is a list or tuple of two finite
    numbers, else entry by entry through _complex_pair, which names the
    first bad entry."""
    if set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) == {2}:
        try:
            pairs = np.fromiter(chain.from_iterable(raw), dtype=float, count=2 * len(raw))
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if np.isfinite(pairs).all():
                # a view of the (re, im) pairs keeps signed zeros that re + 1j * im can flip
                return pairs.view(complex)
    return np.array([_complex_pair(v) for v in raw])


def parse_document(doc) -> BoundaryFunction:
    if not isinstance(doc, dict):
        raise BoundaryFileError("boundary document must be an object")
    if "fourier" not in doc and "samples" not in doc:
        raise BoundaryFileError("document needs a 'fourier' or 'samples' key")
    samples = None
    if "samples" in doc:
        if not isinstance(doc["samples"], list) or not doc["samples"]:
            raise BoundaryFileError("'samples' must be a non-empty list")
        samples = _sample_array(doc["samples"])
    coeffs = {}
    if "fourier" in doc:
        raw = doc["fourier"]
        if not isinstance(raw, dict) or not raw:
            raise BoundaryFileError("'fourier' must be a non-empty object")
        for k, v in raw.items():
            try:
                key = int(k)
            except (TypeError, ValueError) as exc:
                raise BoundaryFileError(f"bad Fourier index {k!r}") from exc
            coeffs[key] = _complex_pair(v)
    try:
        return BoundaryFunction(coeffs, samples) if coeffs else from_samples(samples)
    except ParameterError as exc:
        raise BoundaryFileError(str(exc)) from exc


def load(path) -> BoundaryFunction:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BoundaryFileError(f"cannot read boundary file {path}: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per level of nesting
        raise BoundaryFileError(f"cannot read boundary file {path}: nested too deeply") from exc
    return parse_document(doc)


def document(f: BoundaryFunction) -> dict:
    return {"fourier": {str(k): [v.real, v.imag] for k, v in f.fourier.items()}}
