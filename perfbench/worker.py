"""One batch of one workload, in a fresh interpreter.

`run.py` starts this script once per batch, so module caches start cold
as they do for a CLI user.  It imports the library, makes the batch's
inputs, runs the ops back to back (closed loop, one client) with speed
probes between them, then checks every op's output and prints one JSON
line with what it measured.

    python3 perfbench/worker.py --workload cli_bounds --seed 1 --trace 0 \
        --t-spawn <perf_counter at spawn> --workdir <empty directory>

`--write-reference` instead stores the batch's records at DEFAULT_SEED as
the reference later runs are compared against.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import abharmonic
import workloads as wl
from tracing import Tracer

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
PROBES_PER_GAP = 3


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> list:
    with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
        return json.load(fh)["records"]


def _rounded(obj):
    # 13 significant digits keep the stored file small and sit far inside REL_TOL
    if isinstance(obj, float):
        return float(f"{obj:.13g}")
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def speed_probe() -> float:
    """Seconds one fixed piece of work takes now: numpy complex powers and a
    Python loop, the two kinds of work the library does.

    Run between ops (never inside one), it tells how fast the machine is
    going around each op; run.py scales op times by it (see README.md)."""
    w = np.linspace(0.1, 0.8, 2048) * np.exp(1j * np.linspace(0.0, 6.0, 2048))
    t0 = time.perf_counter()
    (1.0 - w) ** -1.3 * (1.0 - np.conj(w)) ** -0.8
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.perf_counter() in the parent just before it started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--ops", type=int, default=None, help="smoke mode: a short prefix of the batch")
    ap.add_argument("--write-reference", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="report set-up time, run no op")
    args = ap.parse_args(argv)

    src = Path(abharmonic.__file__).resolve().parents[1]
    if src != HERE.parent / "src":
        print(f"error: abharmonic imported from {src}, not from this checkout", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    ops = wl.make_ops(args.workload, args.seed, args.workdir, args.ops)
    setup_s = time.perf_counter() - args.t_spawn
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probes_s": [[speed_probe() for _ in range(PROBES_PER_GAP)]]}))
        return 0

    # closed loop: each op is sent when the previous one has returned;
    # PROBES_PER_GAP speed probes run before each op and after the last
    raws, errors, latencies, probes = [], [], [], []
    clock = time.perf_counter
    for op in ops:
        probes.append([speed_probe() for _ in range(PROBES_PER_GAP)])
        if tracer:
            tracer.active = True
        t0 = clock()
        try:
            raws.append(wl.run_op(args.workload, op))
            errors.append(None)
        except Exception:  # a failed op is counted, never dropped or retried
            raws.append(None)
            errors.append(traceback.format_exc(limit=3))
        latencies.append(clock() - t0)
        if tracer:
            tracer.active = False
    probes.append([speed_probe() for _ in range(PROBES_PER_GAP)])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    references = [None] * len(ops)
    if args.seed == wl.DEFAULT_SEED and not args.write_reference:
        references = load_reference(args.workload)[: len(ops)]
        if len(references) != len(ops):
            print(f"error: the reference holds {len(references)} ops, the batch {len(ops)}", file=sys.stderr)
            return 1
    check_rng = random.Random(args.seed)
    records, failures = [], []
    for i, (op, raw, err, ref) in enumerate(zip(ops, raws, errors, references)):
        record = None
        if err is None:
            try:
                record = wl.to_record(args.workload, op, raw)
                err = wl.check(args.workload, op, record, ref, check_rng)
            except Exception:
                err = traceback.format_exc(limit=3)
        records.append(record)
        if err is not None:
            failures.append({"op": i, "params": _public(op.params), "reason": err})

    if args.write_reference:
        if args.seed != wl.DEFAULT_SEED or args.ops is not None or failures:
            print("error: references come from a full batch at DEFAULT_SEED that passes "
                  f"every invariant; failures: {failures}", file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        doc = {"workload": args.workload, "seed": args.seed,
               "records": [_rounded(wl.reference_view(args.workload, r)) for r in records]}
        with gzip.GzipFile(reference_path(args.workload), "wb", mtime=0) as fh:
            fh.write(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
        print(json.dumps({"wrote": str(reference_path(args.workload).relative_to(HERE.parent))}))
        return 0

    out = {
        "setup_s": setup_s,
        "latencies_s": latencies,
        "probes_s": probes,
        "items": sum(wl.op_items(args.workload, op) for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failures": failures,
        "reference_checked": references[0] is not None,
        "inputs": [_public(op.params) for op in ops],
        "versions": {"numpy": np.__version__, "abharmonic": abharmonic.__version__},
    }
    if tracer:
        out["layers"] = tracer.metrics()
        out["layers"]["cli.bytes_out"] = sum(
            os.path.getsize(op.out_path) for op in ops if op.out_path and os.path.exists(op.out_path)
        )
        out["layers"]["trace.coverage"] = sum(tracer.layer_self().values()) / sum(latencies)
        out["top_functions"] = tracer.top_functions()
    print(json.dumps(out))
    return 0


def _public(params: dict) -> dict:
    """Op parameters as provenance (without paths into the work directory)."""
    return {k: v for k, v in params.items() if k != "doc_path"}


if __name__ == "__main__":
    sys.exit(main())
