#!/usr/bin/env python3
"""Regenerate ``reference/reference.json`` from the program in this checkout.

    python3 perfbench/make_reference.py

Runs every input variant of every workload once and stores the digests of
its output files and its key numbers.  The committed reference was made at
the seed commit recorded in the file; regenerate it only when a change
declares that outputs move, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def reference_of(cli, cmd) -> dict:
    record = run.run_command(cli, cmd, workloads.JOBS, ref=None)
    if record.error:
        raise SystemExit(f"{cmd.workload} variant {cmd.variant}: {record.error}")
    return {"keys": record.keys, "digests": record.digests}


def main() -> int:
    cli = run.import_program()
    workdir = os.path.join(run.HERE, "_work", f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    table = {}
    try:
        for name in workloads.WORKLOADS:
            table[name] = {}
            for variant in range(workloads.VARIANTS):
                if name == "verify_bounds" and variant > 0:
                    table[name][str(variant)] = table[name]["0"]  # the grid does not depend on the seed
                    continue
                table[name][str(variant)] = reference_of(cli, workloads.make_command(name, variant, workdir))
                print(f"{name} variant {variant}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    payload = {"commit": run.git_commit(), "variants": workloads.VARIANTS, "rtol": workloads.RTOL,
               "workloads": table}
    with open(os.path.join(run.HERE, "reference", "reference.json"), "w") as fh:
        json.dump(payload, fh, indent=None, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
