"""Boundary data on the unit circle.

A boundary function is held as finite Fourier data (a map k -> f_hat(k))
and as uniform samples on t_j = 2*pi*j/N, sampled once per N and kept
read-only.  Trigonometric polynomials are the intended scope, so Fourier
evaluation is exact and all circle quadrature below is the plain
periodic trapezoid rule.

Document format (JSON-style):

    {"fourier": {"0": [1.0, 0.0], "-2": [0.5, 0.0]}}
    {"samples": [[re, im], [re, im], ...]}

CSV export uses columns t, re, im.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from ._quad import circle_nodes, p_mean
from .errors import BoundaryFileError, ParameterError

DEFAULT_NODES = 4096
_CONSISTENCY_TOL = 1e-10


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class BoundaryFunction:
    """Circle function with Fourier data; given samples are its grid for their N."""

    def __init__(self, fourier: dict[int, complex], samples=None):
        if not fourier and samples is None:
            raise ParameterError("need fourier coefficients or samples")
        self.fourier = {int(k): complex(v) for k, v in sorted(fourier.items())}
        self.order = max((abs(k) for k in self.fourier), default=0)
        self._grids = {}
        if samples is not None:
            samples = np.array(samples, dtype=complex)
            n = len(samples)
            if not _is_power_of_two(n):
                raise ParameterError(f"sample count must be a power of two, got {n}")
            if self.fourier and self.order < n // 2:
                recomputed = fourier_from_samples(samples, self.order)
                for k, v in self.fourier.items():
                    if abs(recomputed.get(k, 0.0) - v) > _CONSISTENCY_TOL:
                        raise ParameterError(
                            "fourier data and samples disagree at "
                            f"k = {k}: {v} vs {recomputed.get(k, 0.0)}"
                        )
            samples.flags.writeable = False
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
        """The read-only samples on t_j = 2*pi*j/n, computed on first use."""
        if n not in self._grids:
            grid = self.evaluate(circle_nodes(n))
            grid.flags.writeable = False
            self._grids[n] = grid
        return self._grids[n]

    @property
    def is_constant(self) -> bool:
        return all(k == 0 for k, v in self.fourier.items() if abs(v) > 0)

    def __repr__(self):
        return f"BoundaryFunction(order={self.order}, terms={len(self.fourier)})"


def from_fourier(coeffs: dict) -> BoundaryFunction:
    return BoundaryFunction({int(k): complex(v) for k, v in coeffs.items()})


def fourier_from_samples(samples, order: int) -> dict[int, complex]:
    """DFT coefficients f_hat(k) = (1/N) sum_j samples_j exp(-i k t_j).

    Exact for band-limited input; requires order < N/2 to avoid aliasing.
    """
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if order >= n / 2:
        raise ParameterError(
            f"aliasing: truncation order {order} needs more than {n} samples"
        )
    spec = np.fft.fft(samples) / n
    out = {0: complex(spec[0])}
    for k in range(1, order + 1):
        out[k] = complex(spec[k])
        out[-k] = complex(spec[n - k])
    return out


def from_samples(samples) -> BoundaryFunction:
    """Boundary function from uniform samples, keeping all resolvable modes."""
    samples = np.asarray(samples, dtype=complex)
    n = len(samples)
    if not _is_power_of_two(n):
        raise ParameterError(f"sample count must be a power of two, got {n}")
    coeffs = fourier_from_samples(samples, n // 2 - 1)
    coeffs = {k: v for k, v in coeffs.items() if k == 0 or abs(v) > 1e-14}
    return BoundaryFunction(coeffs, samples)


def lp_norm(f: BoundaryFunction, p: float, nodes: int = DEFAULT_NODES) -> float:
    """Circle L^p norm; p = inf uses the grid maximum (a lower bound that
    converges from below under grid refinement)."""
    return p_mean(f.values_on_grid(nodes), p)


# ---------------------------------------------------------------------------
# document and CSV interfaces


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


def parse_document(doc) -> BoundaryFunction:
    if not isinstance(doc, dict):
        raise BoundaryFileError("boundary document must be an object")
    if "fourier" not in doc and "samples" not in doc:
        raise BoundaryFileError("document needs a 'fourier' or 'samples' key")
    samples = None
    if "samples" in doc:
        if not isinstance(doc["samples"], list) or not doc["samples"]:
            raise BoundaryFileError("'samples' must be a non-empty list")
        samples = [_complex_pair(v) for v in doc["samples"]]
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
    except (OSError, json.JSONDecodeError) as exc:
        raise BoundaryFileError(f"cannot read boundary file {path}: {exc}") from exc
    return parse_document(doc)


def document(f: BoundaryFunction) -> dict:
    return {"fourier": {str(k): [v.real, v.imag] for k, v in f.fourier.items()}}


def save_samples_csv(f: BoundaryFunction, path, nodes: int = 256) -> None:
    t = circle_nodes(nodes)
    vals = f.evaluate(t)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "re", "im"])
        for tj, vj in zip(t, vals):
            writer.writerow([f"{tj:.17g}", f"{vj.real:.17g}", f"{vj.imag:.17g}"])
