"""The commands' outputs, byte for byte: digests of every data file, stdout and stderr summary, in ``golden.json``.

Each case runs one ``mtkrr`` command in process, in a fresh directory:

- the four benchmark workloads (``heatmap_small``, ``experiment_wide``,
  ``table_spline`` at seeds 0, 5 and 17, and ``verify_bounds``), with their
  configs written here as the benchmark writes them;
- ``oracle`` for the six scenario kinds at n = 50 and n = 1100;
- ``verify-bounds`` on the grid ``--bd-pairs 3:5.5 --n-values 50,200``, and
  at n = 51 200 alone, whose rows are wide enough to scan one grid point at
  a time;
- ``risk-curve`` at n = 50 and n = 2000;
- the template checks: ``risk-curve`` with a bad n and delta, and
  ``verify-bounds`` with a bad beta and c, each exiting 1 with its config
  errors.

A case records its exit code and, for every data file, its stdout and its
stderr summary (each line up to ``; stage ms``, which carries wall times),
the sha256 of the content and a short digest of each line, so that a
mismatch names the file and its first differing line.  The output
directory's path is written as ``<out>`` before hashing.  The bits depend on
the numpy build (``einsum``'s lanes, ``eigh``), so the file records
``numpy.__version__`` and ``platform.machine()``, and the check runs only
where both match.

A change that moves numerics on purpose rewrites the file from the
repository root with ``PYTHONPATH=src python -m tests.golden --write`` and
declares every moved digest.  ``python -m tests.golden`` alone prints the
differences from the recorded file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

from mtkrr.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
SEEDS = (0, 5, 17)
KINDS = ("h2points", "h1out", "setting_a", "setting_b", "setting_c", "setting_d")
LINE_DIGEST = 12  # hex digits kept of each line's sha256


def _ini(path: Path, section: str, values: dict) -> None:
    path.write_text(f"[{section}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items()))


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _workload(name: str, seed: int, out: Path) -> tuple[list[str], list[str]]:
    """(argv, data files) of a benchmark workload at a benchmark seed; the config's scenario seed is the
    benchmark's, a hash of the workload and the seed's variant (one of 32)."""
    scenario_seed = random.Random(f"{name}/{seed % 32}").getrandbits(32)
    if name == "heatmap_small":
        _ini(out / "heatmap.ini", "heatmap", dict(
            kind="setting_c", n=50, p=5, c1=1.0, delta1=2.0, beta_or_m=2.0,
            row_param="c2", row_values=_floats((0.001, 0.01, 0.1, 0.5, 1.0)),
            col_param="delta2", col_values=_floats((1.0, 1.5, 2.0, 2.5, 3.0)),
            sigma2=1.0, n_rep=10, seed=scenario_seed, out_csv=out / "heatmap.csv", out_svg=out / "heatmap.svg"))
        return ["heatmap", "--config", str(out / "heatmap.ini")], ["heatmap.csv", "heatmap.svg"]
    if name == "experiment_wide":
        _ini(out / "experiment.ini", "experiment", dict(
            kind="setting_a", n=2000, p=20, c1=1.0, c2=0.25, delta1=2.0, beta_or_m=2.0, sigma2=1.0, n_rep=4,
            seed=scenario_seed, out_json=out / "experiment.json", out_csv=out / "experiment.csv"))
        return ["experiment", "--config", str(out / "experiment.ini")], ["experiment.json", "experiment.csv"]
    _ini(out / "table.ini", "table", dict(
        kind="setting_b", n=40, p=5, c1=1.0, delta1=2.0, beta_or_m_values=_floats((1.0, 2.0, 3.0)),
        c2_values=_floats((0.25,)), sigma2=1.0, n_rep=2, seed=scenario_seed, out_csv=out / "table.csv"))
    return ["table", "--config", str(out / "table.ini")], ["table.csv"]


def cases() -> dict:
    """Each case's name and a function of the output directory that gives its (argv, data files)."""
    found = {f"{name} seed {seed}": (lambda out, name=name, seed=seed: _workload(name, seed, out))
             for name in ("heatmap_small", "experiment_wide", "table_spline") for seed in SEEDS}
    for kind in KINDS:
        for n in (50, 1100):
            delta2 = ["--delta2", "1.5"] if kind in ("setting_c", "setting_d") else []
            found[f"oracle {kind} n {n}"] = lambda out, kind=kind, n=n, delta2=delta2: (
                ["oracle", "--kind", kind, "--n", str(n), "--p", "4", "--c1", "1", "--c2", "0.5", "--delta1", "2",
                 *delta2, "--seed", "5", "--out", str(out / "oracle.json")], ["oracle.json"])
    for name, grid in (("verify_bounds", []),
                       ("verify-bounds 3:5.5 at n 50,200", ["--bd-pairs", "3:5.5", "--n-values", "50,200"]),
                       ("verify-bounds 3:5.5 at n 51200", ["--bd-pairs", "3:5.5", "--n-values", "51200"])):
        found[name] = lambda out, grid=grid: (["verify-bounds", *grid, "--out", str(out / "bounds.txt")],
                                              ["bounds.txt"])
    for n in (50, 2000):
        found[f"risk-curve n {n}"] = lambda out, n=n: (
            ["risk-curve", "--n", str(n), "--beta", "2", "--delta", "2", "--c", "1", "--out", str(out / "risk.csv")],
            ["risk.csv"])
    # rejected templates: no data file, the config errors on stderr
    found["risk-curve bad n and delta"] = lambda out: (
        ["risk-curve", "--n", "0", "--p", "1", "--beta", "2", "--delta", "-2", "--c", "1", "--out",
         str(out / "risk.csv")], [])
    found["verify-bounds bad beta and c"] = lambda out: (
        ["verify-bounds", "--bd-pairs", "0:2,2:2", "--c-values=1,-1", "--out", str(out / "bounds.txt")], [])
    return found


def _digest(text: bytes) -> dict:
    return {"sha256": hashlib.sha256(text).hexdigest(),
            "lines": [hashlib.sha256(line).hexdigest()[:LINE_DIGEST] for line in text.splitlines()]}


def run(case) -> tuple[dict, dict]:
    """(record, texts) of one case: its exit code and digests, and the normalized text of each output."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argv, files = case(out)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        summary = "".join(line.split("; stage ms")[0] + "\n" for line in stderr.getvalue().splitlines())
        texts = {name: (out / name).read_bytes() for name in files}
        texts |= {"stdout": stdout.getvalue().encode(), "stderr": summary.encode()}
        texts = {name: text.replace(str(out).encode(), b"<out>") for name, text in texts.items()}
    return {"exit": code, "outputs": {name: _digest(text) for name, text in texts.items()}}, texts


def differences(recorded: dict) -> list[str]:
    """Run every case and name each difference from the recorded cases: an exit code, a case or an output missing
    on one side, or an output's first differing line (with the line as it reads now)."""
    problems, everything = [], cases()
    for name in sorted(set(recorded) | set(everything)):
        if name not in everything or name not in recorded:
            problems.append(f"{name}: {'not run' if name not in everything else 'not recorded'}")
            continue
        found, texts = run(everything[name])
        want = recorded[name]
        if found["exit"] != want["exit"]:
            problems.append(f"{name}: exit code {found['exit']}, recorded {want['exit']}")
        for output in sorted(set(want["outputs"]) | set(found["outputs"])):
            if output not in found["outputs"] or output not in want["outputs"]:
                problems.append(f"{name}: {output} {'missing' if output not in found['outputs'] else 'not recorded'}")
                continue
            new, old = found["outputs"][output], want["outputs"][output]
            if new["sha256"] == old["sha256"]:
                continue
            lines = texts[output].splitlines()
            at = next((k for k, (a, b) in enumerate(zip(new["lines"], old["lines"])) if a != b),
                      min(len(new["lines"]), len(old["lines"])))
            now = lines[at].decode(errors="replace") if at < len(lines) else "<end of output>"
            problems.append(f"{name}: {output} differs first at line {at + 1} ({len(lines)} lines, "
                            f"recorded {len(old['lines'])}): {now!r}")
    return problems


def platform_key() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def write() -> None:
    record = {name: run(case)[0] for name, case in cases().items()}
    GOLDEN.write_text(json.dumps({**platform_key(), "cases": record}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite golden.json from this build's outputs")
    if parser.parse_args().write:
        write()
    else:
        problems = differences(json.loads(GOLDEN.read_text())["cases"])
        print("\n".join(problems) or "every output is byte-identical to golden.json")
        sys.exit(1 if problems else 0)
