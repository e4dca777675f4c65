"""Self-test of the benchmark.

    python3 -m pytest perfbench/test_perfbench.py -q

Runs the smoke mode (one tiny batch per workload, untraced and traced),
plants faults in outputs to show the checks reject them, and runs the
benchmark where the library is missing to show it then fails.
"""

from __future__ import annotations

import copy
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

# where each workload's record holds a number to plant a fault in
PLANT_SITES = {
    "audit_sweep": lambda rec: (rec["results"][3]["margins"], 17),
    "cli_solve": lambda rec: (rec["values"][5], 1),
    "cli_bounds": lambda rec: (rec["values"], 7),
}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert run.DEFAULT_SEED == wl.DEFAULT_SEED


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_and_passes_checks(trace):
    proc = _run("--workload", "all", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # with trace=1 this includes the traced batches: the wrappers change no output
    assert result["correct"] and result["failed"] == 0
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    expected = {f"{w}.{name}": unit for w in run.WORKLOADS for name, unit in units.items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    text = proc.stdout
    assert text.startswith("provenance ")
    for name in ("error_rate", "op_p50_ms", "setup_s"):
        assert f"  {name} " in text
    # at the default seed every workload is compared against the stored reference
    assert text.count("outputs checked: reference and invariants") == len(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reference_check_rejects_planted_nan_and_perturbation(workload):
    ref = worker.load_reference(workload)[0]
    assert wl.compare(ref, copy.deepcopy(ref)) is None
    for plant in (lambda v: math.nan, lambda v: v + 1e-6 * max(1.0, abs(v))):
        bad = copy.deepcopy(ref)
        values, i = PLANT_SITES[workload](bad)
        values[i] = plant(values[i])
        assert wl.compare(ref, bad) is not None


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_invariant_check_rejects_planted_nan(workload, tmp_path):
    seed = wl.DEFAULT_SEED + 1  # no reference: invariants only
    op = wl.make_ops(workload, seed, str(tmp_path), run.SMOKE_OPS[workload])[0]
    record = wl.to_record(workload, op, wl.run_op(workload, op))
    assert wl.check(workload, op, record, None, random.Random(seed)) is None
    values, i = PLANT_SITES[workload](record)
    values[i] = math.nan
    assert wl.check(workload, op, record, None, random.Random(seed)) is not None


def test_solve_check_rejects_a_wrong_value(tmp_path):
    seed = wl.DEFAULT_SEED + 1
    op = wl.make_ops("cli_solve", seed, str(tmp_path), 1)[0]
    record = wl.to_record("cli_solve", op, wl.run_op("cli_solve", op))
    for row in record["values"]:  # every row, so the sampled probes must see it
        row[0] += 1e-6
    assert "series route" in wl.check("cli_solve", op, record, None, random.Random(seed))


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cli_bounds", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
