#!/usr/bin/env python3
"""Benchmark of the ``mtkrr`` command line.

    python3 perfbench/run.py --workload heatmap_small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in this process calls ``mtkrr.cli.main(argv)`` in a closed loop:
the next command starts only when the previous one has returned.  The
program is imported from ``src/`` of the checkout this file sits in.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json;
``--trace 1`` runs a separate traced loop and reports the per-layer ones.
Every command's outputs are checked (see workloads.py) and compared with the
seed-commit reference.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a result file
with the environment, every metric and every command goes to
``perfbench/results/``.  Exit code 2, and no result, when the program cannot
be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
# one BLAS thread, set before numpy is first imported: with --jobs 1 every
# command then runs on one core, like the calibration loop it is divided by.
# The inherited values go into the environment record.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_BLAS_ENV = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import JOBS, TRACE_JOBS, CheckFailed  # noqa: E402

MIN_TIMED = 3  # timed commands per untraced run, whatever --seconds says
SETUP_REPEATS = 7  # set-up probes per untraced run, spread over it
SETUP_PROBE = """\
import os, sys
root, here, workload, seed, workdir, size = sys.argv[1:]
sys.path[:0] = [os.path.join(root, "src"), here]
import mtkrr.cli
import workloads
workloads.make_command(workload, int(seed), workdir, size)
"""


@dataclass
class Record:
    """Outcome of one CLI command."""

    wall: float
    cpu: float
    error: str
    identical: bool
    bytes: int
    layer: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)  # key numbers of the outputs
    digests: dict = field(default_factory=dict)
    calibration: float = 0.0  # mean wall time of the calibration loops run just before and after


def import_program():
    """Import ``mtkrr.cli`` from this checkout's ``src``; exit 2 if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "mtkrr", "cli.py")):
        print(f"error: no mtkrr sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    import mtkrr.cli

    if os.path.dirname(os.path.abspath(mtkrr.__file__)) != os.path.join(src, "mtkrr"):
        print(f"error: imported mtkrr from {mtkrr.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return mtkrr.cli


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_command(cli, cmd, jobs: int, ref: dict | None, tracer=None, command_id: int = 0) -> Record:
    """Run one command, then check its outputs outside the timed region."""
    for path in cmd.outputs.values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
    out, err = io.StringIO(), io.StringIO()
    error = ""
    if tracer is not None:
        tracer.begin(command_id)
        tracer.install()
    try:
        self0, child0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(cmd.argv_with_jobs(jobs))
            if rc != 0:
                error = f"exit code {rc}: {err.getvalue().strip()[-500:]}"
        except SystemExit as exc:
            error = f"SystemExit({exc.code})"
        except Exception as exc:  # a crashing command is a failed operation, not a crashed benchmark
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
        self1, child1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if tracer is not None:
            tracer.uninstall()
    layer = tracer.finish() if tracer is not None else {}

    keys, digests = {}, {}
    if not error:
        try:
            keys = workloads.check_outputs(cmd, out.getvalue())
            digests = workloads.digests(cmd)
        except CheckFailed as exc:
            error = str(exc)
    if not error and ref is not None:
        problems = workloads.compare_keys(keys, ref["keys"])
        if problems:
            error = "differs from the seed-commit reference: " + "; ".join(problems[:3])
    identical = not error and ref is not None and digests == ref["digests"]
    nbytes = sum(os.path.getsize(p) for p in cmd.outputs.values() if os.path.isfile(p))
    cpu = _cpu(self1) + _cpu(child1) - _cpu(self0) - _cpu(child0)
    return Record(wall, cpu, error, identical, nbytes, layer, keys, digests)


def loop(budget: float, step, minimum: int) -> list:
    """Call ``step`` at least ``minimum`` times, then until the next call would overrun ``budget`` seconds."""
    out = []
    start = perf_counter()
    while True:
        out.append(step(len(out)))
        elapsed = perf_counter() - start
        if len(out) >= minimum and elapsed * (len(out) + 1) / len(out) > budget:
            return out


def percentile_label(values: list[float]) -> tuple[str, float] | None:
    """Highest whole percentile with at least ten samples above it, as (label, value)."""
    n = len(values)
    if n < 20:
        return None
    q = math.floor(100 * (1 - 10 / n))
    return f"p{q}", sorted(values)[max(0, math.ceil(q / 100 * n) - 1)]


def setup_time(cmd, seed: int, size: str, workdir: str) -> float:
    """Wall time of a fresh interpreter that imports mtkrr.cli and writes the config."""
    probe_dir = os.path.join(workdir, "setup")
    os.makedirs(probe_dir, exist_ok=True)
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_PROBE, ROOT, HERE, cmd.workload, str(seed), probe_dir, size],
                   check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return perf_counter() - start


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(cli, cmd, ref, seed: int, seconds: float, size: str, workdir: str) -> tuple[list, dict]:
    """Calibrated commands in a closed loop, with the set-up probes spread over the run."""
    setups = []
    start = perf_counter()

    kind = calibration.KIND[cmd.workload]

    def calibrated(i: int) -> Record:
        before = calibration.calibrate(kind)
        record = run_command(cli, cmd, JOBS, ref)
        record.calibration = (before + calibration.calibrate(kind)) / 2
        # probes share the run's stretches of host speed with the commands
        if i >= 0 and len(setups) < SETUP_REPEATS * (perf_counter() - start) / seconds:
            setups.append(setup_time(cmd, seed, size, workdir))
        return record

    warm = calibrated(-1)
    start = perf_counter()
    timed = loop(seconds, calibrated, MIN_TIMED)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_time(cmd, seed, size, workdir))
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    walls = [r.wall for r in timed]
    ratios = [r.wall / r.calibration for r in timed]
    n = len(timed)
    metrics = {
        "cmd_cal": {"value": statistics.median(ratios), "unit": "cal", "samples": n,
                    "note": f"median over commands of wall time / time of the {kind} "
                            "calibration loop run just before and after it"},
        "calibration_s": {"value": statistics.median(r.calibration for r in timed), "unit": "s", "samples": n,
                          "note": f"median wall time of the {kind} calibration loop"},
        "cmd_s": {"value": statistics.median(walls), "unit": "s", "samples": n,
                  "note": "median wall time of one CLI command after import"},
        "work_per_s": {"value": cmd.units * n / sum(walls), "unit": "1/s", "samples": n,
                       "note": f"{cmd.units} units per command over the timed wall time"},
        "cpu_s": {"value": statistics.median(r.cpu for r in timed), "unit": "s", "samples": n,
                  "note": "median user+system CPU per command"},
        "setup_s": {"value": statistics.median(setups), "unit": "s", "samples": len(setups),
                    "note": "fresh interpreter: import mtkrr.cli and write the config"},
        "rss_peak_mb": {"value": self_rss / 1024, "unit": "MB", "samples": 1,
                        "note": "ru_maxrss of the benchmark process, which runs every command in-process"},
    }
    for name, values, unit in (("cmd_cal", ratios, "cal"), ("cmd_s", walls, "s")):
        tail = percentile_label(values)
        if tail is not None:
            metrics[f"{name}_{tail[0]}"] = {"value": tail[1], "unit": unit, "samples": n, "note": f"tail of {name}"}
    return [warm, *timed], metrics


def per_layer(cli, cmd, ref, seconds: float) -> tuple[list, dict, tracing.Tracer, dict]:
    """Cycles of (untraced, traced pass A, traced pass B) commands within the time budget."""
    tracer = tracing.Tracer()
    warm = run_command(cli, cmd, TRACE_JOBS, ref)
    pass_of = {}

    def cycle(i: int):
        untraced = run_command(cli, cmd, TRACE_JOBS, ref)
        pass_of[2 * i] = "A"
        traced_a = run_command(cli, cmd, TRACE_JOBS, ref, tracer, 2 * i)
        traced_b = None
        if cmd.takes_jobs:
            pass_of[2 * i + 1] = "B"
            traced_b = run_command(cli, cmd, 1, ref, tracer, 2 * i + 1)
        return untraced, traced_a, traced_b

    cycles = loop(seconds, cycle, 1)
    metrics = {}
    for name in cycles[0][1].layer:
        pass_name = "B" if name in tracing.PASS_B and cmd.takes_jobs else "A"
        values = [c[1 if pass_name == "A" else 2].layer[name] for c in cycles]
        if isinstance(values[0], int):
            metrics[name] = {"value": values[0], "unit": "count", "pass": pass_name, "samples": len(values),
                             "repeats": len(set(values)) == 1}
        else:
            unit = "ms" if "_ms_" in name else "s"
            metrics[name] = {"value": statistics.median(values), "unit": unit, "pass": pass_name,
                             "samples": len(values)}
    untraced = statistics.median(c[0].wall for c in cycles)
    traced = statistics.median(c[1].wall for c in cycles)
    records = [warm] + [r for c in cycles for r in c if r is not None]
    metrics["experiments.bytes_written"] = {"value": cycles[0][1].bytes, "unit": "bytes", "pass": "A",
                                            "samples": len(cycles)}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s", "pass": "A vs untraced",
                                   "samples": len(cycles), "note": f"untraced cmd_s {untraced!r}, traced {traced!r}"}
    metrics["outputs_identical"] = {"value": sum(r.identical for r in records), "unit": "count", "pass": "all",
                                    "samples": len(records), "note": "commands whose output bytes match the reference"}
    return records, metrics, tracer, pass_of


# ---------------------------------------------------------------------------
# environment and reporting


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import multiprocessing

    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "blas_thread_env_inherited": INHERITED_BLAS_ENV,
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_context().get_start_method(),
        "machine": platform.machine(),
        "system": platform.platform(),
    }


def declared_metrics(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def load_reference(cmd, size: str) -> dict | None:
    if size != "full":
        return None
    with open(os.path.join(HERE, "reference", "reference.json")) as fh:
        return json.load(fh)["workloads"][cmd.workload].get(str(cmd.variant))


def write_spans(path: str, tracer: tracing.Tracer, pass_of: dict, origin: float) -> None:
    with gzip.open(path, "wt") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({
                "name": s[tracing.NAME], "start": s[tracing.START] - origin, "end": s[tracing.END] - origin,
                "parent": s[tracing.PARENT], "command": s[tracing.COMMAND], "pass": pass_of[s[tracing.COMMAND]],
                "self": s[tracing.END] - s[tracing.START] - s[tracing.CHILD]}) + "\n")


def run_one(args) -> int:
    cli = import_program()
    origin = perf_counter()
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cmd = workloads.make_command(args.workload, args.seed, workdir, args.size)
        ref = load_reference(cmd, args.size)
        if args.trace:
            records, metrics, tracer, pass_of = per_layer(cli, cmd, ref, args.seconds)
            declared = declared_metrics("per_layer")
        else:
            records, metrics = end_to_end(cli, cmd, ref, args.seed, args.seconds, args.size, workdir)
            declared = declared_metrics("end_to_end")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r.error for r in records if r.error]
    jobs = TRACE_JOBS if args.trace else JOBS
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": cmd.variant,
        "config_seed": cmd.params["seed"],
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": jobs if cmd.takes_jobs else None,
        "argv": cmd.argv_with_jobs(jobs),
        "units_per_command": cmd.units,
        "environment": environment(),
        "reference": "seed-commit variant" if ref is not None else "none",
        "attempted": len(records),
        "failed": len(failed),
        "fail_ratio": len(failed) / len(records),
        "errors": failed[:10],
        "metrics": metrics,
        "commands": [dict(wall=r.wall, cpu=r.cpu, calibration=r.calibration, identical=r.identical, error=r.error)
                     for r in records],
    }
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        result["tracer_missing"] = sorted(set(tracer.missing))
        write_spans(stem + "-spans.jsonl.gz", tracer, pass_of, origin)
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"{args.workload} seed={args.seed} variant={cmd.variant} trace={args.trace} "
          f"commands={len(records)} reference={result['reference']}")
    for name, m in metrics.items():
        where = f" pass {m['pass']}" if "pass" in m else ""
        extra = "" if m.get("repeats", True) else " (differs between commands!)"
        print(f"  {name:36s} {m['value']!r:>24} {m['unit']:6s} n={m['samples']}{where}{extra}")
    print(f"  {'fail_ratio':36s} {result['fail_ratio']!r:>24} {'1':6s} {len(failed)}/{len(records)} commands")
    for error in failed[:3]:
        print(f"  FAILED: {error}")
    missing = [n for n in declared if n not in metrics or metrics[n]["unit"] != declared[n]]
    if missing:
        print(f"error: metrics missing or with another unit: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {n: {"value": metrics[n]["value"], "unit": declared[n]} for n in declared},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, exactly as a single-workload run."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"][name] = last["metrics"]
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the self-test only")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
