"""The four benchmark workloads: generated inputs, CLI argv and output checks.

Every workload is one ``mtkrr`` subcommand.  Its inputs are made from the
benchmark seed: the seed selects one of ``VARIANTS`` input variants, and the
variant fixes the config's scenario seed.  A reference of the seed-commit
outputs is stored for every variant (``reference/reference.json``), so each
run can be checked against it whatever seed it is given.

This module imports nothing from ``mtkrr``: the set-up probe and the checks
must not depend on the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass

VARIANTS = 32
JOBS = 1  # --jobs of the end-to-end run: one process, so the host's drift can be calibrated out
TRACE_JOBS = 2  # --jobs of traced pass A, so that pool starts are counted

# Relative tolerance against the seed-commit reference.  ROADMAP item 2
# (relative stopping rule) may move oracle risks by about 1e-3 relative, and
# item 4 (closed-form spline kernel) by about 1e-10; 5e-3 admits both.
RTOL = 5e-3

VERIFY_CHECKS = (
    "property-1 upper bound",
    "property-2 localization",
    "property-3 lower bound",
    "property-4 regime flip",
    "s2 integral envelope",
    "s1 integral envelope",
    "alpha constant",
)

# Full sizes are the benchmark; "tiny" sizes serve only the self-test.  Full
# commands take about 0.5 to 1.5 s, so that a run holds many of them and the
# calibration loops run just before and after each one bracket it closely.
SIZES = {
    "heatmap_small": {
        "full": dict(n=50, p=5, c2=(0.001, 0.01, 0.1, 0.5, 1.0), delta2=(1.0, 1.5, 2.0, 2.5, 3.0), n_rep=10),
        "tiny": dict(n=12, p=3, c2=(0.01, 1.0), delta2=(1.5, 2.5), n_rep=4),
    },
    "experiment_wide": {
        "full": dict(n=2000, p=20, n_rep=4),
        "tiny": dict(n=60, p=4, n_rep=4),
    },
    "table_spline": {
        "full": dict(n=40, p=5, m=(1.0, 2.0, 3.0), c2=(0.25,), n_rep=2),
        "tiny": dict(n=12, p=3, m=(1.0, 3.0), c2=(0.25,), n_rep=2),
    },
    "verify_bounds": {
        "full": dict(args=()),
        "tiny": dict(args=("--n-values", "50", "--p-values", "1,4", "--c-values", "1", "--bd-pairs", "2:2")),
    },
}
WORKLOADS = tuple(SIZES)


class CheckFailed(Exception):
    """An output is missing, unparsable, non-finite or inconsistent."""


@dataclass(frozen=True)
class Command:
    """One generated CLI invocation and what it must produce."""

    workload: str
    variant: int
    argv: tuple[str, ...]  # without --jobs
    takes_jobs: bool
    outputs: dict[str, str]  # role -> path
    units: int  # oracle comparisons, or template cells for verify_bounds
    params: dict

    def argv_with_jobs(self, jobs: int) -> list[str]:
        return list(self.argv) + (["--jobs", str(jobs)] if self.takes_jobs else [])


def config_seed(workload: str, variant: int) -> int:
    """Scenario seed written into the config of one input variant."""
    return random.Random(f"{workload}/{variant}").getrandbits(32)


def _write_ini(path: str, section: str, values: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"[{section}]\n")
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")


def _csv_list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def make_command(workload: str, seed: int, workdir: str, size: str = "full") -> Command:
    """Write the inputs of ``workload`` for ``seed`` into ``workdir``."""
    p = SIZES[workload][size]
    variant = seed % VARIANTS
    cseed = config_seed(workload, variant)

    def out(name: str) -> str:
        return os.path.join(workdir, name)

    if workload == "heatmap_small":
        outputs = {"csv": out("heatmap.csv"), "svg": out("heatmap.svg")}
        _write_ini(out("heatmap.ini"), "heatmap", dict(
            kind="setting_c", n=p["n"], p=p["p"], c1=1.0, delta1=2.0, beta_or_m=2.0,
            row_param="c2", row_values=_csv_list(p["c2"]),
            col_param="delta2", col_values=_csv_list(p["delta2"]),
            sigma2=1.0, n_rep=p["n_rep"], seed=cseed,
            out_csv=outputs["csv"], out_svg=outputs["svg"]))
        argv = ("heatmap", "--config", out("heatmap.ini"))
        units = len(p["c2"]) * len(p["delta2"]) * p["n_rep"]
    elif workload == "experiment_wide":
        outputs = {"json": out("experiment.json"), "csv": out("experiment.csv")}
        _write_ini(out("experiment.ini"), "experiment", dict(
            kind="setting_a", n=p["n"], p=p["p"], c1=1.0, c2=0.25, delta1=2.0, beta_or_m=2.0,
            sigma2=1.0, n_rep=p["n_rep"], seed=cseed,
            out_json=outputs["json"], out_csv=outputs["csv"]))
        argv = ("experiment", "--config", out("experiment.ini"))
        units = p["n_rep"]
    elif workload == "table_spline":
        outputs = {"csv": out("table.csv")}
        _write_ini(out("table.ini"), "table", dict(
            kind="setting_b", n=p["n"], p=p["p"], c1=1.0, delta1=2.0,
            beta_or_m_values=_csv_list(p["m"]), c2_values=_csv_list(p["c2"]),
            sigma2=1.0, n_rep=p["n_rep"], seed=cseed, out_csv=outputs["csv"]))
        argv = ("table", "--config", out("table.ini"))
        units = len(p["m"]) * len(p["c2"]) * p["n_rep"]
    elif workload == "verify_bounds":
        # verify-bounds takes no seed: every variant runs the same grid
        outputs = {"txt": out("bounds.txt")}
        argv = ("verify-bounds", *p["args"], "--out", outputs["txt"])
        units = _verify_cells(p["args"])
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return Command(workload, variant, argv, workload != "verify_bounds", outputs, units,
                   dict(p, seed=cseed))


def _verify_cells(args: tuple[str, ...]) -> int:
    """Template cells of the verify-bounds grid (defaults: 3 n x 4 p x 3 c x 3 pairs)."""
    grid = {"--n-values": "50,200,800", "--p-values": "1,2,5,10", "--c-values": "0.5,1,2",
            "--bd-pairs": "2:2,4:2,2:1.5"}
    grid.update(zip(args[::2], args[1::2]))
    return math.prod(len(v.split(",")) for v in grid.values())


# ---------------------------------------------------------------------------
# output checks


def digests(cmd: Command) -> dict[str, str]:
    out = {}
    for role, path in cmd.outputs.items():
        with open(path, "rb") as fh:
            out[role] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_csv(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _finite(values, what: str) -> list[float]:
    try:
        out = [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"{what}: unparsable number ({exc})") from None
    if not all(math.isfinite(v) for v in out):
        raise CheckFailed(f"{what}: non-finite value")
    return out


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_heatmap(cmd: Command, stdout: str) -> dict:
    rows = _read_csv(cmd.outputs["csv"])
    c2, d2 = cmd.params["c2"], cmd.params["delta2"]
    header = ["c2\\delta2"] + [repr(float(v)) for v in d2]
    k = len(c2)
    _expect(len(rows) == 2 * k + 4, f"heatmap csv has {len(rows)} rows")
    _expect(rows[0] == ["# mean_ratio"] and rows[k + 2] == ["# ci95_halfwidth"], "heatmap csv section markers")
    _expect(rows[1] == header and rows[k + 3] == header, "heatmap csv header")
    means, halves = [], []
    for i, v in enumerate(c2):
        for block, dest in ((rows[2 + i], means), (rows[k + 4 + i], halves)):
            _expect(len(block) == len(d2) + 1 and float(block[0]) == v, f"heatmap csv row {i}")
            dest.extend(_finite(block[1:], "heatmap csv"))
    _expect(all(m > 0 for m in means) and all(h >= 0 for h in halves), "heatmap values out of range")

    try:
        root = ET.parse(cmd.outputs["svg"]).getroot()
    except ET.ParseError as exc:
        raise CheckFailed(f"heatmap svg does not parse: {exc}") from None
    children = list(root)
    cells = [(children[i + 1].text, children[i + 2].text) for i, el in enumerate(children)
             if el.tag.endswith("rect") and el.get("width") == "64"]
    _expect(len(cells) == len(means), f"heatmap svg has {len(cells)} cells")
    for (value, half), m, h in zip(cells, means, halves):
        _expect(value == f"{m:.3f}" and half == f"±{h:.3f}", "heatmap svg disagrees with csv")
    return {"mean_ratio": means, "ci95_halfwidth": halves}


def _check_experiment(cmd: Command, stdout: str) -> dict:
    try:
        with open(cmd.outputs["json"]) as fh:
            report = json.load(fh)
    except ValueError as exc:
        raise CheckFailed(f"experiment json does not parse: {exc}") from None
    n_rep = cmd.params["n_rep"]
    spec = report.get("spec", {})
    _expect(spec.get("kind") == "setting_a" and spec.get("n") == cmd.params["n"]
            and spec.get("p") == cmd.params["p"] and spec.get("seed") == cmd.params["seed"],
            "experiment json spec differs from the config")
    _expect(report.get("n_rep") == n_rep, "experiment json n_rep")
    ratios = _finite(report.get("ratios", []), "experiment ratios")
    _expect(len(ratios) == n_rep and all(r > 0 for r in ratios), "experiment ratios count or sign")
    mean, std = _finite([report.get("mean_ratio"), report.get("std_ratio")], "experiment summary")
    _finite([report.get("b_bar"), report.get("pi1"), report.get("pi2"), *report.get("ci95", [])],
            "experiment statistics")
    _expect(abs(mean - sum(ratios) / n_rep) <= 1e-12 * abs(mean), "mean_ratio is not the mean of the ratios")
    rows = _read_csv(cmd.outputs["csv"])
    _expect(rows[0] == ["replicate", "ratio"] and len(rows) == n_rep + 1, "experiment csv shape")
    _expect([float(r[1]) for r in rows[1:]] == ratios and [r[0] for r in rows[1:]] == [str(i) for i in range(n_rep)],
            "experiment csv disagrees with json")
    return {"ratios": ratios, "mean_ratio": [mean], "std_ratio": [std]}


def _check_table(cmd: Command, stdout: str) -> dict:
    rows = _read_csv(cmd.outputs["csv"])
    cells = [(m, c2) for m in cmd.params["m"] for c2 in cmd.params["c2"]]
    _expect(rows[0] == ["C2", "r", "beta_or_m", "b_bar", "pi1", "mean_ratio", "std_ratio", "pi2"], "table csv header")
    _expect(len(rows) == len(cells) + 1, f"table csv has {len(rows)} rows")
    means, stds = [], []
    for (m, c2), row in zip(cells, rows[1:]):
        vals = _finite(row, "table csv")
        _expect(len(vals) == 8 and vals[0] == c2 and vals[2] == m, "table csv row order")
        _expect(0 <= vals[3] <= 1 and vals[5] > 0, "table csv values out of range")
        means.append(vals[5])
        stds.append(vals[6])
    return {"mean_ratio": means, "std_ratio": stds}


def _check_verify(cmd: Command, stdout: str) -> dict:
    with open(cmd.outputs["txt"]) as fh:
        lines = fh.read().splitlines()
    _expect(stdout.splitlines() == lines, "verify-bounds stdout differs from its --out file")
    names = []
    for line in lines:
        _expect(not line.startswith("FAIL"), f"verify-bounds: {line}")
        _expect(line.startswith("PASS "), f"verify-bounds line not understood: {line!r}")
        names.append(line[5:].split(":", 1)[0])
    _expect(tuple(names) == VERIFY_CHECKS, f"verify-bounds checks {names}")
    alpha = _finite([lines[-1].rsplit("=", 1)[1]], "alpha constant")
    return {"alpha": alpha}


_CHECKS = {
    "heatmap_small": _check_heatmap,
    "experiment_wide": _check_experiment,
    "table_spline": _check_table,
    "verify_bounds": _check_verify,
}

# keys whose values are spreads: compared against RTOL on a unit scale,
# because a small spread inherits the absolute drift of the ratios
_SPREAD_KEYS = {"std_ratio", "ci95_halfwidth"}


def check_outputs(cmd: Command, stdout: str) -> dict[str, list[float]]:
    """Parse and cross-check the outputs of one command; return its key numbers."""
    for role, path in cmd.outputs.items():
        _expect(os.path.isfile(path), f"missing output {role}: {path}")
    try:
        return _CHECKS[cmd.workload](cmd, stdout)
    except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"{cmd.workload} outputs: {type(exc).__name__}: {exc}") from None


def compare_keys(keys: dict, ref: dict) -> list[str]:
    """Differences between key numbers and the reference beyond RTOL."""
    problems = []
    for name, ref_values in ref.items():
        values = keys.get(name)
        if values is None or len(values) != len(ref_values):
            problems.append(f"{name}: shape differs from the reference")
            continue
        floor = 1.0 if name in _SPREAD_KEYS else 0.0
        for i, (a, b) in enumerate(zip(values, ref_values)):
            if abs(a - b) > RTOL * max(abs(a), abs(b), floor):
                problems.append(f"{name}[{i}] = {a!r}, reference {b!r}")
    return problems
