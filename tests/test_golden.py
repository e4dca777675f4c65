"""Golden outputs of the bound constants, the moment-based audits, the
audit suites, the evaluation layer and the series route.

The reference file pins what `bounds`, the lemma/identity audits, the
named audit suites, the inequality sweep, `solve`, the
finite-difference measurements and the series route (`expand`, the
expansion, its circle snapshots, the hypergeometric ratio lemma and the
conjectured coefficient bounds) produce, so that a refactor can be checked against the numbers it must
keep.  Names, sources, methods, node counts, notes, flagged sets and
case ids must match exactly; floats must match within
1e-12 * max(1, |ref|).

A section is regenerated only on purpose, never to make a refactor pass,
and only the named section is rewritten.  `--write` re-pins only what
moved: a stored float that still matches within the pin is kept as it is,
and the number of floats written anew is printed.  `--diff` writes
nothing: it prints the path of every non-float field that differs from
the stored section, the number of floats compared and the worst relative
float difference |got - ref| / max(1, |ref|); without a section name it
does so for every section, each under its name:

    PYTHONPATH=src python tests/test_golden.py --diff [SECTION]
    PYTHONPATH=src python tests/test_golden.py --write SECTION
"""

import functools
import gzip
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from abharmonic import audit
from abharmonic.boundary import from_fourier
from abharmonic.bounds import (
    SUP,
    HolderPair,
    coefficient_bound,
    distortion_constant,
    full_report,
    growth_constant,
    means_constant,
    partial_constant,
)
from abharmonic.cli import main
from abharmonic._quad import circle_nodes
from abharmonic.errors import ConvergenceError, ParameterError
from abharmonic.harmonic import (
    coefficients_from_boundary,
    evaluate_expansion,
    integral_means,
    operator_residual,
    radial_angular_derivatives,
    snapshot,
    wirtinger_derivatives,
)
from abharmonic.kernel import make_params

GOLDEN = Path(__file__).with_name("golden") / "bounds_golden.json.gz"
REL_TOL = 1e-12

REPORT_PAIRS = audit.STANDARD_PAIRS + ((1.0, 1.0), (2.7, -1.4), (-0.3, -0.6))
REPORT_EXPONENTS = (1.0, 1.5, 2.0, 4.0, math.inf)
AUDIT_RADII = (0.3, 0.6, 0.9, SUP)
KINDS = ("radial", "angular", "wirtinger")

EVAL_PAIRS = ((0.3, -0.2), (2.7, -1.4))
# 64 and 32 divide --nodes 4096; 60 does not, so its rings' cap lcm(4096, 60) is 61,440
SOLVE_GRIDS = ("4x64", "8x32", "4x60")
EVAL_POINTS = (0.3 - 0.2j, 0.5 + 0.4j, -0.6 + 0.1j)
MEANS_RADII = (0.3, 0.7)
MEANS_EXPONENTS = (1.0, 2.0, math.inf)
# (alpha, beta, p, suite names); at (1, -1.5) distortion is skipped and
# the ratio lemma has no case
SUITE_POINTS = ((0.3, -0.2, math.inf, audit.SUITE_NAMES), (1.0, -1.5, 2.0, ("all", "distortion")))

SERIES_PAIRS = ((0.0, 0.0), (0.5, 0.5), (-0.5, 1.0), (0.3, -0.2), (2.7, -1.4), (-0.3, -0.6))
SERIES_DOCUMENTS = {
    "linear": {"1": [1.0, 0.0]},
    "mixed": {"0": [0.4, 0.1], "1": [1.0, -0.5], "-2": [0.25, 0.0], "5": [0.0, 0.2]},
    "negative": {"-4": [0.3, -0.2], "-1": [0.5, 0.5], "1": [0.7, 0.0], "2": [0.0, -0.1]},
}
SNAPSHOT_RADII = (0.5, 0.9, 1.0)
# the monotone-ratio regimes of acceptance criterion 08
RATIO_LEMMA_CASES = (((0.0, 0.7), 4), ((-0.5, 0.5), 3), ((-0.3, -0.6), 2), ((0.0, -0.4), 3), ((0.0, 0.8), 5))
CONJECTURE_ORDERS = (2, 3, 5)


def _key(*parts) -> str:
    return " ".join(str(p) for p in parts)


def _attempt(fn, *args, **kwargs):
    """Value of fn, or the name of the parameter or convergence error it raises."""
    try:
        return fn(*args, **kwargs)
    except (ParameterError, ConvergenceError) as exc:
        return type(exc).__name__


def _full_reports() -> dict:
    out = {}
    for a, b in REPORT_PAIRS:
        params = make_params(a, b)
        for p in REPORT_EXPONENTS:
            out[_key(a, b, p)] = full_report(params, HolderPair.from_p(p)).to_dict()
    return out


def _audit_constants() -> dict:
    """The constants at the radii and node count the audits use."""
    out = {}
    for a, b in REPORT_PAIRS:
        params = make_params(a, b)
        for r in AUDIT_RADII:
            for which in KINDS:
                out[_key("means", a, b, which, r)] = _attempt(means_constant, params, which, r, 2048)
            for p in REPORT_EXPONENTS:
                hp = HolderPair.from_p(p)
                out[_key("growth", a, b, p, r)] = _attempt(growth_constant, params, hp, r)
                out[_key("distortion", a, b, p, r)] = _attempt(
                    distortion_constant, params, hp, r, 2048
                )
                for which in KINDS:
                    out[_key("partial", a, b, p, which, r)] = _attempt(
                        partial_constant, params, hp, which, r, 2048
                    )
    return out


def _audit_margins() -> dict:
    out = {}
    for m in (0.5, 1.0, 2.0, -0.7):
        for k, off in ((1.0, 0.0), (2.0, 0.3)):
            res = audit.check_oscillatory_maximum_lemmas(m, k, off, 1.0)
            out[_key("oscillatory", m, k, off)] = res.to_dict()
    for mu, nu in ((2.0, 0.5), (1.0, 1.0), (3.5, -0.4), (0.7, 1.2)):
        out[_key("identities", mu, nu)] = audit.check_integral_identities(mu, nu).to_dict()
    f = audit.random_boundary(np.random.default_rng(audit.DEFAULT_SEED))
    res = audit.check_kernel_mean_and_residual(make_params(0.3, -0.2), f)
    out["kernel_mean_and_residual"] = res.to_dict()
    return out


def _suites() -> dict:
    """run_suite's results, in its order, on three boundaries."""
    out = {}
    for a, b, p, names in SUITE_POINTS:
        params, hp = make_params(a, b), HolderPair.from_p(p)
        for name in names:
            results = audit.run_suite(name, params, hp, n_boundaries=3, nodes=1024)
            out[_key(name, a, b, p)] = [r.to_dict() for r in results]
    return out


def _pair(v) -> list:
    return [float(np.real(v)), float(np.imag(v))]


def _solve_documents() -> dict:
    """One Fourier document and one 4096-sample document (the node count
    of `solve`, so the stored samples are used as they are)."""
    t = 2.0 * np.pi * np.arange(4096) / 4096
    samples = 1.0 / (1.6 - np.exp(1j * t)) + 0.3 * np.exp(-2j * t)
    return {
        "fourier": {
            "fourier": {"0": [0.4, 0.1], "1": [1.0, -0.5], "-2": [0.25, 0.0], "5": [0.0, 0.2]}
        },
        "samples": {"samples": [_pair(v) for v in samples]},
    }


def _solve_values() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in _solve_documents().items():
            doc_path = Path(tmp) / f"{name}.json"
            doc_path.write_text(json.dumps(doc), encoding="utf-8")
            for a, b in EVAL_PAIRS:
                for grid in SOLVE_GRIDS:
                    csv_path = Path(tmp) / "grid.csv"
                    argv = ["solve", str(doc_path), "--alpha", str(a), "--beta", str(b)]
                    assert main(argv + ["--grid", grid, "--out", str(csv_path)]) == 0
                    lines = csv_path.read_text(encoding="utf-8").splitlines()
                    assert lines[0] == "x,y,re,im"
                    # re, im per row; x, y are fixed by the grid
                    rows = [[float(v) for v in line.split(",")[2:]] for line in lines[1:]]
                    out[_key(name, a, b, grid)] = rows
    return out


def _measurements(params, u) -> dict:
    out = {}
    for r in MEANS_RADII:
        for p in MEANS_EXPONENTS:
            out[_key("integral_means", r, p)] = integral_means(u, r, p, nodes=256)
    for z in EVAL_POINTS:
        for rich in (False, True):
            out[_key("wirtinger", z, rich)] = [
                _pair(v) for v in wirtinger_derivatives(u, z, richardson=rich)
            ]
            out[_key("operator_residual", z, rich)] = _pair(
                operator_residual(params, u, z, richardson=rich)
            )
        out[_key("radial_angular", z)] = [_pair(v) for v in radial_angular_derivatives(u, z)]
    return out


def _evaluation() -> dict:
    """The inequality sweep over all 20 (weights, p) combinations, `solve`
    on grids the FFT ring path can and cannot serve, and the
    finite-difference measurements on a vectorisable lambda and on the
    scalar-only series evaluation."""
    out = {"standard_suite": [r.to_dict() for r in audit.standard_suite(n_boundaries=20, nodes=1024)]}
    out["solve"] = _solve_values()
    f = from_fourier({0: 0.5, 1: 1.0 - 0.3j, -1: 0.2j, 3: 0.4})
    for a, b in EVAL_PAIRS:
        params = make_params(a, b)
        coeffs = coefficients_from_boundary(params, f)
        plain = lambda z: z**3 + 0.5 * np.conj(z) ** 2 + np.exp(z)  # noqa: E731
        series = functools.partial(evaluate_expansion, params, coeffs)
        out[_key("lambda", a, b)] = _measurements(params, plain)
        out[_key("expansion", a, b)] = _measurements(params, series)
    return out


def _series() -> dict:
    """`expand` without its timestamp, the expansion, its circle
    snapshots, the ratio lemma and the conjectured coefficient bounds."""
    out = {}
    theta = circle_nodes(12)
    with tempfile.TemporaryDirectory() as tmp:
        for name, fourier in SERIES_DOCUMENTS.items():
            doc_path, json_path = Path(tmp) / f"{name}.json", Path(tmp) / "expand.json"
            doc_path.write_text(json.dumps({"fourier": fourier}), encoding="utf-8")
            f = from_fourier({int(k): complex(*v) for k, v in fourier.items()})
            for a, b in SERIES_PAIRS:
                argv = ["expand", str(doc_path), "--alpha", str(a), "--beta", str(b)]
                assert main(argv + ["--out", str(json_path)]) == 0
                doc = json.loads(json_path.read_text(encoding="utf-8"))
                del doc["timestamp"]
                out[_key("expand", name, a, b)] = doc
                params = make_params(a, b)
                coeffs = coefficients_from_boundary(params, f)
                out[_key("expansion", name, a, b)] = [
                    _pair(evaluate_expansion(params, coeffs, z)) for z in EVAL_POINTS
                ]
                for r in SNAPSHOT_RADII:
                    snap = snapshot(params, coeffs, r)
                    ratios = snap.normalized_ratios()
                    out[_key("snapshot", name, a, b, r)] = {
                        "circle_values": [_pair(v) for v in snap.circle_values(theta)],
                        "normalized_ratios": [[_pair(v) for v in part] for part in ratios],
                    }
    for pair, k in RATIO_LEMMA_CASES:
        res = audit.check_hypergeometric_ratio_lemma(make_params(*pair), k)
        out[_key("ratio_lemma", *pair, k)] = res.to_dict()
    for a, b in SERIES_PAIRS:
        params = make_params(a, b)
        for kind in ("conjecture_ck", "conjecture_cmk"):
            for k in CONJECTURE_ORDERS:
                out[_key(kind, a, b, k)] = _attempt(coefficient_bound, params, kind, k)
    return out


SECTIONS = {
    "full_report": _full_reports,
    "audit_constants": _audit_constants,
    "audit_margins": _audit_margins,
    "suites": _suites,
    "evaluation": _evaluation,
    "series": _series,
}


def _differences(got, ref, where: str):
    """Walk a result against its stored reference, yielding
    (where, got, ref, d): d is the relative difference of a compared
    float, None for a non-float field that differs."""
    if isinstance(ref, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool):
            yield where, got, ref, None
        elif math.isnan(ref) or math.isnan(got):
            yield where, got, ref, 0.0 if math.isnan(ref) and math.isnan(got) else math.inf
        else:
            yield where, got, ref, abs(got - ref) / max(1.0, abs(ref))
    elif isinstance(ref, dict) and isinstance(got, dict):
        if set(got) == set(ref) and list(got) != list(ref):
            yield where + " (key order)", list(got), list(ref), None
        for k in ref:
            if k in got:
                yield from _differences(got[k], ref[k], f"{where}.{k}")
            else:
                yield f"{where}.{k}", "(missing)", ref[k], None
        for k in got:
            if k not in ref:
                yield f"{where}.{k}", got[k], "(missing)", None
    elif isinstance(ref, list) and isinstance(got, (list, tuple)) and len(got) == len(ref):
        for i, (g, r) in enumerate(zip(got, ref)):
            yield from _differences(g, r, f"{where}[{i}]")
    elif not (got == ref and type(got) is type(ref)):
        yield where, got, ref, None


def _assert_matches(got, ref, where: str) -> None:
    for path, g, r, d in _differences(got, ref, where):
        assert d is not None and d <= REL_TOL, f"{path}: {g!r} != {r!r}"


def _normalize(obj):
    """Round-trip through JSON so tuples and floats compare like the file."""
    return json.loads(json.dumps(obj))


def _load() -> dict:
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return _load()


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_matches_golden(golden, section):
    _assert_matches(_normalize(SECTIONS[section]()), golden[section], section)


def _merge(got, ref):
    """(doc, n): got with every float that matches its stored counterpart
    in ref within REL_TOL kept as stored, and n the number of floats that
    were not kept (moved beyond the pin, or new)."""
    if isinstance(got, dict):
        ref = ref if isinstance(ref, dict) else {}
        merged = {k: _merge(v, ref.get(k)) for k, v in got.items()}
        return {k: doc for k, (doc, _) in merged.items()}, sum(n for _, n in merged.values())
    if isinstance(got, list):
        ref = ref if isinstance(ref, list) and len(ref) == len(got) else [None] * len(got)
        merged = [_merge(g, r) for g, r in zip(got, ref)]
        return [doc for doc, _ in merged], sum(n for _, n in merged)
    if isinstance(got, float):
        if isinstance(ref, float) and next(_differences(got, ref, ""))[3] <= REL_TOL:
            return ref, 0
        return got, 1
    return got, 0


def test_write_repins_only_what_moved():
    ref = {"a": 1.0, "b": [0.5, 2.0, "x"], "c": {"d": 3.0, "gone": 1.0}, "e": [1.0], "f": 1.0}
    got = {
        "a": 1.0 + 1e-14,
        "b": [0.5 + 1e-6, 2.0, "y"],
        "c": {"d": 3.0, "h": 4.0},
        "e": [1.0, 2.0],
        "f": 1,
    }
    doc, repinned = _merge(got, ref)
    assert doc == dict(got, a=1.0)
    assert type(doc["f"]) is int
    # 0.5 moved beyond the pin; 4.0 and the two floats of the resized list are new
    assert repinned == 4


def _write(section: str) -> None:
    """Regenerate one section, re-pinning only the floats that moved; the
    other sections keep their stored values."""
    doc = _load() if GOLDEN.exists() else {}
    doc[section], repinned = _merge(_normalize(SECTIONS[section]()), doc.get(section))
    print(f"{repinned} floats re-pinned")
    GOLDEN.parent.mkdir(exist_ok=True)
    raw = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    with open(GOLDEN, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(raw)


def _diff(section: str) -> None:
    """Print how one section differs from its stored values."""
    got = _normalize(SECTIONS[section]())
    floats, worst = 0, 0.0
    for path, g, r, d in _differences(got, _load()[section], section):
        if d is None:
            print(f"{path}: {g!r} != {r!r}")
        else:
            floats, worst = floats + 1, max(worst, d)
    print(f"{floats} floats compared; worst relative difference {worst:.3g}")


if __name__ == "__main__":
    mode, names = sys.argv[1:2], sys.argv[2:]
    valid = mode == ["--write"] and len(names) == 1 or mode == ["--diff"] and len(names) <= 1
    if not (valid and set(names) <= set(SECTIONS)):
        sys.exit(
            "usage: python tests/test_golden.py --diff [SECTION] | --write SECTION; "
            f"SECTION is one of {', '.join(SECTIONS)}"
        )
    if mode == ["--write"]:
        _write(names[0])
    elif names:
        _diff(names[0])
    else:
        for section in SECTIONS:
            print(f"{section}:")
            _diff(section)
