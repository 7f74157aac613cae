#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

For every workload it checks that
- an untraced run succeeds and emits every end-to-end metric of
  BENCHMARK.json with its declared unit;
- two traced runs emit every per-layer metric with its unit, their counts
  repeat exactly, and the layer each workload exists for shows work;
and that run.py exits non-zero, printing no result, in a copy that holds only
BENCHMARK.json and perfbench/.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# counts that must be positive on each tiny workload
SHOWS_WORK = {
    "heatmap_small": ("optimize.grad_calls", "experiments.pool_starts", "oracles.compare_calls"),
    "experiment_wide": ("scenarios.build_ensemble_calls", "experiments.pool_starts"),
    "table_spline": ("experiments.run_experiment_calls", "estimators.profile_build_calls"),
    "verify_bounds": ("riskfn.integral_calls", "riskfn.kappa_calls", "optimize.minimize_calls"),
}
# depends on how many commands fit the time budget, not on the program
NOT_REPEATED = {"outputs_identical"}


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180)


def result(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace}: exit code {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(last)}")
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        fail(f"{workload} trace={trace}: {last['failed']} of {last['attempted']} commands failed\n{proc.stdout}")
    return last


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_units(workload: str, emitted: dict, declared: list[dict]) -> None:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in emitted.items()}
    if got != want:
        fail(f"{workload}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in emitted.items():
        if not isinstance(m["value"], (int, float)):
            fail(f"{workload}: {name} is not a number")


def check_stripped_copy() -> None:
    """Without the program, run.py must refuse to run."""
    copy = os.path.join(HERE, "_work", f"stripped-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(copy, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
        proc = run("heatmap_small", 0, cwd=copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        fail(f"run.py without the program: exit code {proc.returncode}, stdout {proc.stdout!r}")
    print("ok   run.py refuses to run without the program")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in WORKLOADS:
        check_units(workload, result(workload, 0)["metrics"], bench["end_to_end"])
        first, second = (result(workload, 1)["metrics"] for _ in range(2))
        check_units(workload, first, bench["per_layer"])
        for name, m in first.items():
            if m["unit"] in ("count", "bytes") and name not in NOT_REPEATED and m["value"] != second[name]["value"]:
                fail(f"{workload}: {name} is {m['value']} then {second[name]['value']}")
        idle = [name for name in SHOWS_WORK[workload] if first[name]["value"] <= 0]
        if idle:
            fail(f"{workload}: no work counted in {idle}")
        print(f"ok   {workload}: metrics, units and repeated counts")
    check_stripped_copy()
    return 0


if __name__ == "__main__":
    sys.exit(main())
