#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads heatmap_small,table_spline --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/trajectory/baseline.json

Runs run.py once per (workload, seed) with BENCHMARK.json's run_seconds and
prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the quartile distance as a share of the median, against a third of the
metric's bound.  ``--out`` also writes these figures as a trajectory entry;
with ``--trace 1`` the entry keeps every per-layer metric of the last run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the figures to this JSON file")
    args = parser.parse_args()
    declared = bench["per_layer" if args.trace else "end_to_end"]

    entry = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in declared}
        failed = attempted = 0
        for seed in seeds_of(args.seeds):
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                   "--trace", str(args.trace)],
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += last["failed"]
            attempted += last["attempted"]
            for name, m in last["metrics"].items():
                values[name].append(m["value"])
        figures = {}
        print(f"{workload}: {failed} of {attempted} commands failed")
        for m in declared:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / abs(med) if med else 0.0
            limit = m.get("bound", 0) / 3
            flag = "" if "bound" not in m else ("  ok" if spread < limit else "  TOO WIDE")
            ok &= not flag.endswith("WIDE") or m["name"] == "setup_s"
            figures[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": m["unit"],
                                  "values": vals}
            print(f"  {m['name']:34s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f}" + (f" (bound/3 {limit:.4f}){flag}" if "bound" in m else ""))
        entry["workloads"][workload] = {"failed": failed, "attempted": attempted, "metrics": figures}
        with open(os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{args.trace}.json")) as fh:
            last_result = json.load(fh)
        entry["environment"] = last_result["environment"]
        if args.trace:  # every per-layer metric of the last run, with the pass it came from
            entry["workloads"][workload][f"all_metrics_seed{seed}"] = last_result["metrics"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(entry, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
