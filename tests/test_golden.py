"""Golden outputs of the bound constants and the moment-based audits.

The reference file pins what `bounds` and the lemma/identity audits
produce, so that a refactor of the kernel-moment code can be checked
against the numbers it must keep.  Names, sources, methods, node counts,
notes, flagged sets and case ids must match exactly; floats must match
within 1e-12 * max(1, |ref|).

The file is regenerated only on purpose, never to make a refactor pass:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import gzip
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from abharmonic import audit
from abharmonic.bounds import (
    SUP,
    HolderPair,
    distortion_constant,
    full_report,
    growth_constant,
    means_constant,
    partial_constant,
)
from abharmonic.errors import ParameterError
from abharmonic.kernel import make_params

GOLDEN = Path(__file__).with_name("golden") / "bounds_golden.json.gz"
REL_TOL = 1e-12

REPORT_PAIRS = audit.STANDARD_PAIRS + ((1.0, 1.0), (2.7, -1.4), (-0.3, -0.6))
REPORT_EXPONENTS = (1.0, 1.5, 2.0, 4.0, math.inf)
AUDIT_RADII = (0.3, 0.6, 0.9, SUP)
KINDS = ("radial", "angular", "wirtinger")


def _key(*parts) -> str:
    return " ".join(str(p) for p in parts)


def _attempt(fn, *args, **kwargs):
    """Value of fn, or the name of the parameter error it raises."""
    try:
        return fn(*args, **kwargs)
    except ParameterError:
        return "ParameterError"


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


SECTIONS = {
    "full_report": _full_reports,
    "audit_constants": _audit_constants,
    "audit_margins": _audit_margins,
}


def _assert_matches(got, ref, where: str) -> None:
    if isinstance(ref, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        if math.isnan(ref):
            assert math.isnan(got), f"{where}: {got!r} != nan"
        else:
            tol = REL_TOL * max(1.0, abs(ref))
            assert abs(got - ref) <= tol, f"{where}: {got!r} != {ref!r}"
    elif isinstance(ref, dict):
        assert isinstance(got, dict) and list(got) == list(ref), f"{where}: keys differ"
        for k in ref:
            _assert_matches(got[k], ref[k], f"{where}.{k}")
    elif isinstance(ref, list):
        assert isinstance(got, (list, tuple)) and len(got) == len(ref), f"{where}: length differs"
        for i, (g, r) in enumerate(zip(got, ref)):
            _assert_matches(g, r, f"{where}[{i}]")
    else:
        assert got == ref and type(got) is type(ref), f"{where}: {got!r} != {ref!r}"


def _normalize(obj):
    """Round-trip through JSON so tuples and floats compare like the file."""
    return json.loads(json.dumps(obj))


@pytest.fixture(scope="module")
def golden():
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_matches_golden(golden, section):
    _assert_matches(_normalize(SECTIONS[section]()), golden[section], section)


def _write() -> None:
    doc = {name: fn() for name, fn in SECTIONS.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    raw = json.dumps(doc, separators=(",", ":")).encode("utf-8")
    with open(GOLDEN, "wb") as fh, gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
        gz.write(raw)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    _write()
