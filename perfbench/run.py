"""abharmonic benchmark: three closed-loop workloads with output checks.

    python3 perfbench/run.py --workload <audit_sweep|cli_solve|cli_bounds|all> \
        --seed 1 --seconds 32 --trace 0

Run from any directory; the library is imported from the ``src`` of the
checkout this file sits in.  Each batch of ops runs in a fresh interpreter
(`worker.py`) with one BLAS/OpenMP thread, one batch at a time, and
batches repeat until the next one would end after ``--seconds``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced batch and reports per-layer metrics.  Every op's
output is checked; a failed op counts in ``failed`` and ``error_rate``.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, median_low, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

WORKLOADS = ("audit_sweep", "cli_solve", "cli_bounds")
DEFAULT_SEED = 1  # the seed the reference outputs were made at (workloads.DEFAULT_SEED)
SMOKE_OPS = {"audit_sweep": 1, "cli_solve": 2, "cli_bounds": 6}  # ops per batch in smoke mode
MIN_BATCHES = 3  # untraced batches per run, so each op's time is a median of at least 3
SETUP_RUNS = 6  # extra interpreters per run that only set up, for the setup_s median
BATCH_TIMEOUT_S = 150
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# about the speed probe's median on the machine the benchmark was defined on
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6) in its least loaded
# periods; times are reported at this speed (see README.md)
REFERENCE_PROBE_S = 1.7e-3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "items/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
# printed only: error_rate is 0 on correct code and a bound relative to a zero
# median means nothing (the JSON result carries attempted and failed instead);
# the p90 needs >= 100 ops in the run to have 10 samples beyond it; the
# unscaled times and the speed show how much the machine's speed moved
REPORT_ONLY_UNITS = {
    "op_p90_ms": "ms",
    "wall_unscaled_s": "s",
    "op_p50_unscaled_ms": "ms",
    "speed": "ratio",
    "error_rate": "fraction",
}
PER_LAYER_UNITS = {
    "boundary.grid_calls": "count",
    "boundary.grid_unique_ratio": "ratio",
    "boundary.eval_points": "count",
    "boundary.self_s": "s",
    "kernel.calls": "count",
    "kernel.points": "count",
    "kernel.self_s": "s",
    "kernel.ns_per_point": "ns",
    "harmonic.dense_points": "count",
    "harmonic.ring_calls": "count",
    "harmonic.stencil_calls": "count",
    "harmonic.self_s": "s",
    "quad.calls": "count",
    "quad.integrand_points": "count",
    "quad.self_s": "s",
    "bounds.calls": "count",
    "bounds.sup_grid_s": "s",
    "bounds.self_s": "s",
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "audit.cases": "count",
    "audit.growth_s": "s",
    "audit.means_s": "s",
    "audit.distortion_s": "s",
    "audit.partials_s": "s",
    "audit.means_partials_s": "s",
    "audit.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.coverage": "fraction",
    "trace.overhead_s": "s",
}


class BenchmarkError(RuntimeError):
    """A batch could not run or report; the run prints no result."""


def run_batch(workload: str, seed: int, trace: int, env: dict, workdir: str, extra=()) -> dict:
    batch_dir = tempfile.mkdtemp(dir=workdir)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--workdir", batch_dir, *extra]
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=BATCH_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} batch ran over {BATCH_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload} batch exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def run_workload(workload: str, args, env: dict, workdir: str):
    """Set-up runs, then rounds of batches (trace: an untraced and a traced
    batch) until the next round would end after args.seconds.

    Returns (set-up-only results, untraced batches, traced batches).
    End-to-end runs make at least MIN_BATCHES rounds, traced runs one,
    smoke runs exactly one and no set-up-only runs."""
    extra = ["--ops", str(SMOKE_OPS[workload])] if args.smoke else []
    modes = (0, 1) if args.trace else (0,)
    min_rounds = 1 if args.trace or args.smoke else MIN_BATCHES
    n_setups = 0 if args.trace or args.smoke else SETUP_RUNS
    start = time.perf_counter()
    setups = [run_batch(workload, args.seed, 0, env, workdir, extra + ["--setup-only"]) for _ in range(n_setups)]
    batches = {0: [], 1: []}
    rounds = 0
    while True:
        for trace in modes:
            batches[trace].append(run_batch(workload, args.seed, trace, env, workdir, extra))
        rounds += 1
        elapsed = time.perf_counter() - start
        if args.smoke or (rounds >= min_rounds and elapsed + elapsed / rounds > args.seconds):
            return setups, batches[0], batches[1]


def scaled_latencies(batch: dict) -> list:
    """Each op's time at the reference speed: its perf_counter latency times
    REFERENCE_PROBE_S over the median of the speed probes just before and
    just after it."""
    p = batch["probes_s"]
    return [t * REFERENCE_PROBE_S / median(p[i] + p[i + 1]) for i, t in enumerate(batch["latencies_s"])]


def scaled_setup(run: dict) -> float:
    """Set-up time at the reference speed, by the probes right after it."""
    return run["setup_s"] * REFERENCE_PROBE_S / median(run["probes_s"][0])


def batch_time(batches: list, latencies=scaled_latencies) -> float:
    """Time to finish one batch: the sum over its ops of each op's median
    over the run's batches (the same op, same inputs, in each batch)."""
    return sum(median(times) for times in zip(*(latencies(b) for b in batches)))


def end_to_end(setups: list, batches: list) -> dict:
    """Metric -> (value, unit, sample count, what the count counts)."""
    scaled = [t for b in batches for t in scaled_latencies(b)]
    unscaled = [t for b in batches for t in b["latencies_s"]]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(len(b["failures"]) for b in batches)
    k = len(batches)
    n_ops = batches[0]["attempted"]
    wall = batch_time(batches)
    per_batch = f"batches of {n_ops} ops, each op's median"
    m = {
        "setup_s": (median([scaled_setup(r) for r in setups + batches]), len(setups) + k, "set-ups"),
        "wall_s": (wall, k, per_batch),
        "throughput": (batches[0]["items"] / wall, k, per_batch),
        "op_p50_ms": (1e3 * median(scaled), len(scaled), "ops"),
        "peak_rss_mb": (median([b["peak_rss_mb"] for b in batches]), k, "processes"),
        "wall_unscaled_s": (batch_time(batches, lambda b: b["latencies_s"]), k, per_batch),
        "op_p50_unscaled_ms": (1e3 * median(unscaled), len(unscaled), "ops"),
        "speed": (REFERENCE_PROBE_S / median([p for b in batches for gap in b["probes_s"] for p in gap]),
                  sum(len(gap) for b in batches for gap in b["probes_s"]), "probes"),
        "error_rate": (failed / attempted, attempted, "ops"),
    }
    if len(scaled) >= 100:
        m["op_p90_ms"] = (1e3 * quantiles(scaled, n=10, method="inclusive")[8], len(scaled), "ops")
    units = {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}
    return {name: (v, units[name], count, what) for name, (v, count, what) in m.items()}


def _scaled_layers(batch: dict) -> dict:
    """A traced batch's layer metrics, times at the reference speed (by the
    median of all the batch's probes: spans cannot be matched to probes)."""
    factor = REFERENCE_PROBE_S / median([p for gap in batch["probes_s"] for p in gap])
    return {k: v * factor if k.endswith("_s") or k == "kernel.ns_per_point" else v
            for k, v in batch["layers"].items()}


def per_layer(untraced: list, traced: list) -> dict:
    layers = [_scaled_layers(b) for b in traced]
    # median_low keeps each value one batch's measurement (counts stay whole)
    m = {k: median_low([lay[k] for lay in layers]) for k in layers[0]}
    m["trace.overhead_s"] = batch_time(traced) - batch_time(untraced)
    return m


def provenance(args, workloads, results) -> dict:
    try:
        # the ceiling keeps git from reporting a repository that merely contains the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "abharmonic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    first = results[workloads[0]][1][0]
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": first["versions"]["numpy"],
        "abharmonic": first["versions"]["abharmonic"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "threads_env": THREAD_ENV,
        "inputs": {w: results[w][1][0]["inputs"] for w in workloads},
    }


def _terminate(signum, frame):
    # raising here lets subprocess.run kill and reap the running worker and
    # the work directory be removed before the process ends
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one tiny batch per workload")
    ap.add_argument("--write-reference", action="store_true",
                    help=f"store the outputs at seed {DEFAULT_SEED} as the reference "
                         "(only on code whose outputs are known to be right)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "abharmonic" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/abharmonic to benchmark", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **THREAD_ENV}
    WORK_DIR.mkdir(exist_ok=True)
    results = {}
    try:
        with tempfile.TemporaryDirectory(dir=WORK_DIR) as workdir:
            for w in workloads:
                if args.write_reference:
                    print(run_batch(w, DEFAULT_SEED, 0, env, workdir, ["--write-reference"])["wrote"])
                    continue
                results[w] = run_workload(w, args, env, workdir)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    if args.write_reference:
        return 0

    print("provenance " + json.dumps(provenance(args, workloads, results)))
    attempted = failed = 0
    metrics = {}
    for w in workloads:
        setups, untraced, traced = results[w]
        all_batches = untraced + traced
        attempted += sum(b["attempted"] for b in all_batches)
        failed += sum(len(b["failures"]) for b in all_batches)
        checked = "reference and invariants" if all_batches[0]["reference_checked"] else "invariants"
        print(f"[{w}] {len(untraced)} untraced and {len(traced)} traced batches; outputs checked: {checked}")
        for b in all_batches:
            for f in b["failures"]:
                print(f"  FAILED op {f['op']} {json.dumps(f['params'])}: {f['reason']}")
        print("  batch times (s, scaled): " + " ".join(f"{sum(scaled_latencies(b)):.3f}" for b in all_batches))
        e2e = end_to_end(setups, untraced)
        for name, (value, unit, count, what) in e2e.items():
            print(f"  {name:<18} {value:12.6g} {unit:<9} (n={count} {what})")
        if args.trace:
            layers = per_layer(untraced, traced)
            for name, value in layers.items():
                print(f"  {name:<26} {value:14.6g} {PER_LAYER_UNITS[name]}")
            print("  top functions by self time, first traced batch (calls, total s, self s; unscaled):")
            for label, calls, total, self_s in traced[0]["top_functions"]:
                print(f"    {label:<48} {calls:9d} {total:9.4f} {self_s:9.4f}")
            chosen = {k: (layers[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
        else:
            chosen = {k: e2e[k][:2] for k in END_TO_END_UNITS}
        prefix = "" if len(workloads) == 1 else f"{w}."
        for name, (value, unit) in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": unit}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
