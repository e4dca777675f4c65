"""The three benchmark workloads: seeded inputs, ops and output checks.

Each workload is a single-client closed loop: the worker sends one op,
waits for it to return, then sends the next.  Inputs come from Python's
``random.Random(seed)`` (its stream is fixed across Python versions), so
a change to the library cannot change them.  Every op's output is turned
into a plain JSON-style *record*; the checks below judge records, and
the reference file holds the records the seed code produced at
``DEFAULT_SEED``.

Imported only by the worker, after ``abharmonic`` is importable.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from abharmonic import audit, boundary, cli, harmonic, kernel

DEFAULT_SEED = 1
REL_TOL = 1e-9  # numbers match the reference within REL_TOL * max(1, |ref|)
SERIES_TOL = 1e-8  # solve values against the series route
SERIES_PROBES = 32  # grid points per solve op checked against the series route

# audit_sweep: one audit.standard_suite call over 20 boundaries, which is the
# paper's 15,900-case sweep (100 boundaries) cut to one pass over its 20
# standard (weights, p) combinations: 3,180 cases, ~2 s, so a run repeats it
# often enough for its median to hold still on a shared machine
SWEEP_BOUNDARIES = 20
SWEEP_NODES = 1024
# cases per boundary, per bucket of audit.standard_suite
SWEEP_CASES_PER_BOUNDARY = {
    "growth": 24,
    "integral_means": 3,
    "distortion": 24,
    "partials": 96,
    "means_partials": 12,
}

# cli_solve: the three pairs with non-integer kernel exponents (general
# complex powers) twice each, and the three pairs whose exponents hit numpy's
# integer and half-integer power paths (about 4x faster) once each, so the
# median op is a general-weight solve.  Each ring is one dense evaluation of
# (angles x 4096 nodes); few rings keep an op near 0.3 s, so the speed probes
# around an op see the conditions it ran in
SOLVE_SLOW_PAIRS = ((0.5, 0.5), (0.3, -0.2), (2.7, -1.4))
SOLVE_FAST_PAIRS = ((0.0, 0.0), (-0.5, 1.0), (0.0, 1.0))
# 4x60: 60 does not divide the 4096 nodes, so a ring FFT path cannot serve it
SOLVE_GRIDS = ((4, 64), (8, 32), (4, 60))
SOLVE_SAMPLES = 4096
BOUNDARY_ORDER = 8

# cli_bounds
BOUNDS_OPS = 140
BOUNDS_EXPONENTS = ("1", "1.5", "2", "3", "4", "inf")
BOUNDS_WEIGHT_RANGE = (-0.9, 3.0)


@dataclass
class Op:
    """One op: its parameters (provenance), CLI arguments and output file."""

    params: dict
    argv: list = field(default_factory=list)
    out_path: str | None = None


# ---------------------------------------------------------------------------
# input generation


def _trig_coefficients(rng: random.Random) -> dict:
    """Order-8 trig polynomial, coefficients uniform in the unit disk
    scaled by 1/(1+|k|)."""
    coeffs = {}
    for k in range(-BOUNDARY_ORDER, BOUNDARY_ORDER + 1):
        w = math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        coeffs[k] = w / (1.0 + abs(k))
    return coeffs


def _boundary_document(coeffs: dict, kind: str) -> dict:
    if kind == "fourier":
        return {"fourier": {str(k): [v.real, v.imag] for k, v in coeffs.items()}}
    t = 2.0 * np.pi * np.arange(SOLVE_SAMPLES) / SOLVE_SAMPLES
    values = sum(c * np.exp(1j * k * t) for k, c in coeffs.items())
    return {"samples": np.column_stack([values.real, values.imag]).tolist()}


def _random_weights(rng: random.Random):
    lo, hi = BOUNDS_WEIGHT_RANGE
    while True:
        a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if a + b > -1.0:
            return a, b


def make_ops(workload: str, seed: int, workdir: str, n_ops: int | None = None) -> list:
    """The batch of ops a run of `workload` repeats; `n_ops` keeps a prefix
    (smoke mode), so a short batch at DEFAULT_SEED still has references."""
    rng = random.Random(seed)
    if workload == "audit_sweep":
        return [Op({"suite_seed": rng.randrange(2**31), "n_boundaries": SWEEP_BOUNDARIES, "nodes": SWEEP_NODES})]

    ops = []
    if workload == "cli_solve":
        # each slow pair on two grids and each fast pair on one, so every
        # grid serves three ops and the batch's work is the same at any seed
        grids = list(SOLVE_GRIDS)
        rng.shuffle(grids)
        combos = [(pair, grids[(i + j) % 3]) for i, pair in enumerate(SOLVE_SLOW_PAIRS) for j in (0, 1)]
        rng.shuffle(grids)
        combos += list(zip(SOLVE_FAST_PAIRS, grids))
        rng.shuffle(combos)
        kinds = (["fourier", "samples"] * len(combos))[: len(combos)]
        rng.shuffle(kinds)
        for i, ((a, b), (nr, nt)) in enumerate(combos[:n_ops]):
            kind = kinds[i]
            doc_path = f"{workdir}/boundary{i}.json"
            with open(doc_path, "w", encoding="utf-8") as fh:
                json.dump(_boundary_document(_trig_coefficients(rng), kind), fh)
            out = f"{workdir}/solve{i}.csv"
            argv = ["solve", doc_path, "--alpha", repr(a), "--beta", repr(b),
                    "--grid", f"{nr}x{nt}", "--out", out]
            ops.append(Op({"alpha": a, "beta": b, "grid": f"{nr}x{nt}", "document": kind,
                           "doc_path": doc_path}, argv, out))
        return ops

    if workload == "cli_bounds":
        for i in range(BOUNDS_OPS if n_ops is None else n_ops):
            a, b = _random_weights(rng)
            p = BOUNDS_EXPONENTS[i % len(BOUNDS_EXPONENTS)]
            out = f"{workdir}/bounds{i}.json"
            argv = ["bounds", "--alpha", repr(a), "--beta", repr(b), "--p", p, "--out", out]
            ops.append(Op({"alpha": a, "beta": b, "p": p}, argv, out))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running an op


def run_op(workload: str, op: Op):
    """Send one op through the library's public entry point; returns the
    raw output (audit results, or the CLI exit code)."""
    if workload == "audit_sweep":
        p = op.params
        return audit.standard_suite(seed=p["suite_seed"], n_boundaries=p["n_boundaries"], nodes=p["nodes"])
    return cli.main(op.argv)


def op_items(workload: str, op: Op) -> int:
    """Work one op completes: audit cases, grid points written, or reports."""
    if workload == "audit_sweep":
        return op.params["n_boundaries"] * sum(SWEEP_CASES_PER_BOUNDARY.values())
    if workload == "cli_solve":
        nr, nt = (int(v) for v in op.params["grid"].split("x"))
        return nr * nt
    return 1


def to_record(workload: str, op: Op, raw) -> dict:
    """The op's output as a JSON-style record (what checks and references see)."""
    if workload == "audit_sweep":
        return {
            "results": [
                {
                    "name": r.name,
                    "cases_total": r.cases_total,
                    "cases_violated": r.cases_violated,
                    "worst_margin": r.worst_margin,
                    "cases": [case for case, _, _ in r.details],
                    "r": [r_ for _, r_, _ in r.details],
                    "margins": [m for _, _, m in r.details],
                }
                for r in raw
            ]
        }
    record = {"exit": raw}
    if raw != cli.EXIT_OK:
        return record
    if workload == "cli_solve":
        with open(op.out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        record["header"] = rows[0]
        record["xy"] = [[float(x), float(y)] for x, y, _, _ in rows[1:]]
        record["values"] = [[float(re), float(im)] for _, _, re, im in rows[1:]]
        return record
    with open(op.out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    report = doc["report"]
    record["alpha"], record["beta"], record["p"] = doc["alpha"], doc["beta"], doc["p"]
    record["names"] = [e["name"] for e in report["entries"]]
    record["values"] = [e["value"] for e in report["entries"]]
    record["flagged"] = report["flagged"]
    return record


def reference_view(workload: str, record: dict) -> dict:
    """The part of a record stored as reference (solve coordinates are
    checked against the grid formula instead)."""
    if workload == "cli_solve":
        return {k: v for k, v in record.items() if k != "xy"}
    return record


# ---------------------------------------------------------------------------
# checks


def _numbers(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def compare(ref, got, path: str = "") -> str | None:
    """First difference between a reference record and an output record:
    structure, ints, strings, booleans and None exactly, floats within
    REL_TOL * max(1, |ref|), and a non-finite float never matches."""
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or isinstance(got, bool) or not math.isfinite(got):
            return f"{path}: got {got!r}, expected {ref!r}"
        if abs(got - ref) > REL_TOL * max(1.0, abs(ref)):
            return f"{path}: got {got!r}, expected {ref!r}"
        return None
    if type(ref) is not type(got):
        return f"{path}: got {type(got).__name__}, expected {type(ref).__name__}"
    if isinstance(ref, dict):
        if ref.keys() != got.keys():
            return f"{path}: keys {sorted(got)} != {sorted(ref)}"
        for k in ref:
            msg = compare(ref[k], got[k], f"{path}.{k}")
            if msg:
                return msg
        return None
    if isinstance(ref, list):
        if len(ref) != len(got):
            return f"{path}: length {len(got)} != {len(ref)}"
        for i, (r, g) in enumerate(zip(ref, got)):
            msg = compare(r, g, f"{path}[{i}]")
            if msg:
                return msg
        return None
    return None if ref == got else f"{path}: got {got!r}, expected {ref!r}"


def _check_sweep(op: Op, record: dict) -> str | None:
    n_b = op.params["n_boundaries"]
    expected = {name: per * n_b for name, per in SWEEP_CASES_PER_BOUNDARY.items()}
    got = {r["name"]: r["cases_total"] for r in record["results"]}
    if got != expected:
        return f"case counts {got} != {expected}"
    for r in record["results"]:
        if r["cases_violated"] != 0:
            return f"{r['name']}: {r['cases_violated']} violations"
        if len(r["margins"]) != r["cases_total"]:
            return f"{r['name']}: {len(r['margins'])} margins for {r['cases_total']} cases"
    return None


def _check_solve(op: Op, record: dict, rng: random.Random) -> str | None:
    nr, nt = (int(v) for v in op.params["grid"].split("x"))
    if record["header"] != ["x", "y", "re", "im"]:
        return f"header {record['header']}"
    if len(record["values"]) != nr * nt:
        return f"{len(record['values'])} rows for a {nr}x{nt} grid"
    rmax = 0.95  # the CLI default --rmax
    for i in range(nr):
        r = (i + 1) / (nr + 1) * rmax
        for j in range(nt):
            z = r * cmath.exp(2j * math.pi * j / nt)
            x, y = record["xy"][i * nt + j]
            if abs(complex(x, y) - z) > 1e-12:
                return f"row {i * nt + j}: point {x}, {y} is not grid point {z}"
    params = kernel.make_params(op.params["alpha"], op.params["beta"])
    coeffs = harmonic.coefficients_from_boundary(params, boundary.load(op.params["doc_path"]))
    for row in rng.sample(range(nr * nt), min(SERIES_PROBES, nr * nt)):
        x, y = record["xy"][row]
        series = harmonic.evaluate_expansion(params, coeffs, complex(x, y))
        got = complex(*record["values"][row])
        if not abs(got - series) <= SERIES_TOL:
            return f"row {row}: solve {got} vs series route {series}"
    return None


def _check_bounds(op: Op, record: dict) -> str | None:
    p = op.params
    if (record["alpha"], record["beta"]) != (p["alpha"], p["beta"]):
        return f"weights echoed as {record['alpha']}, {record['beta']}"
    if str(record["p"]) not in (p["p"], str(float(p["p"]))):
        return f"p echoed as {record['p']!r} for {p['p']}"
    if len(set(record["names"])) != len(record["names"]):
        return "duplicate entry names"
    if not set(record["flagged"]) <= set(record["names"]):
        return f"flagged {record['flagged']} not among the entries"
    return None


def check(workload: str, op: Op, record: dict, reference: dict | None, rng: random.Random) -> str | None:
    """None when the op's output is right, else the reason it is not.

    Invariants hold at any seed; `reference` (the seed code's record for
    this op, at DEFAULT_SEED) adds the exact comparison."""
    if record.get("exit", 0) != cli.EXIT_OK:
        return f"exit code {record['exit']}"
    if not all(math.isfinite(v) for v in _numbers(record)):
        return "non-finite value in the output"
    if workload == "audit_sweep":
        msg = _check_sweep(op, record)
    elif workload == "cli_solve":
        msg = _check_solve(op, record, rng)
    else:
        msg = _check_bounds(op, record)
    if msg is None and reference is not None:
        msg = compare(reference, reference_view(workload, record), "output")
    return msg
