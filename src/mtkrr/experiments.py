"""Monte Carlo comparison harness: replicate oracle-risk ratios and the
Hoeffding / CLT test statistics summarizing them.

Each replicate generates a fresh ensemble from a derived sub-seed, computes
the exact multi-task and single-task oracle risks, and records their ratio.
Aggregation is an ordered reduction over replicate index, so reports are
bit-reproducible for a fixed (spec, sigma2, n_rep) regardless of how many
worker processes are used.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .estimators import comparison_rows
from .optimize import minimize_profiles
from .oracles import oracle_result
from .scenarios import ScenarioSpec, build_ensemble, replicate_spec

Z_975 = 1.959963984540054  # 97.5% standard normal quantile


def _phi(x: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated outcome of one replicated oracle comparison."""

    spec: ScenarioSpec
    sigma2: float
    n_rep: int
    ratios: tuple[float, ...]
    b_bar: float
    pi1: float
    mean_ratio: float
    std_ratio: float
    pi2: float
    ci95: tuple[float, float]
    pi2_scale: str  # "N" (replicates, default) or "n" (sample size)


def pvalue_pi1(b_bar: float, n_rep: int) -> float:
    """Hoeffding p-value for the sign test on the replicate win indicator."""
    if not 0 <= b_bar <= 1:
        raise ValueError("b_bar must lie in [0, 1]")
    if n_rep < 1:
        raise ValueError("n_rep must be positive")
    if b_bar < 0.5:
        return 0.0
    return math.exp(-2.0 * n_rep * (b_bar - 0.5) ** 2)


def pvalue_pi2(mean_ratio: float, std_ratio: float, n_scale: int) -> float:
    """Asymptotic p-value Phi(sqrt(N) (mean - 1) / std) for the mean-ratio test."""
    if std_ratio <= 0 or not math.isfinite(std_ratio):
        raise ValueError("std_ratio must be positive and finite")
    return _phi(math.sqrt(n_scale) * (mean_ratio - 1.0) / std_ratio)


def _ratio_slice(spec: ScenarioSpec, sigma2: float, indices: list[int]) -> list[float]:
    """Oracle-risk ratios of the given replicates, all p + 2 searches of each in one stacked search.

    Replicate ``i`` draws a fresh ensemble from ``replicate_spec(spec, i)``.
    Replicates with equal eigenvalues (every synthetic kind) share one
    spectrum row of the stack.
    """
    rows = spec.p + 2
    signal, noise = np.empty((len(indices) * rows, spec.n)), np.empty(len(indices) * rows)
    spectra: dict[bytes, int] = {}
    gammas, owners = [], []
    for k, i in enumerate(indices):
        spectrum, tasks = build_ensemble(replicate_spec(spec, i))
        owner = spectra.setdefault(spectrum.gamma.tobytes(), len(spectra))
        if owner == len(gammas):
            gammas.append(spectrum.gamma)
        owners.append(owner)
        signal[k * rows:(k + 1) * rows], noise[k * rows:(k + 1) * rows] = comparison_rows(tasks, sigma2)
    search = minimize_profiles(spec.n, np.vstack(gammas), signal, noise, spectrum=np.repeat(owners, rows))
    return [oracle_result(search[k * rows:(k + 1) * rows]).rho for k in range(len(indices))]


def _compute_ratios(spec: ScenarioSpec, sigma2: float, n_rep: int, jobs: int) -> list[float]:
    indices = list(range(n_rep))
    if jobs <= 1 or n_rep < 2 * jobs:
        return _ratio_slice(spec, sigma2, indices)
    chunks = [indices[k::jobs] for k in range(jobs)]
    out: list[float | None] = [None] * n_rep
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_ratio_slice, spec, sigma2, chunk) for chunk in chunks]
        for chunk, fut in zip(chunks, futures):
            for i, value in zip(chunk, fut.result()):
                out[i] = value
    return [v for v in out if v is not None]


def run_experiment(
    spec: ScenarioSpec,
    sigma2: float,
    n_rep: int,
    jobs: int = 1,
    pi2_scale: str = "N",
) -> ExperimentReport:
    """Replicate the oracle comparison n_rep times and aggregate the statistics.

    ``pi2_scale`` selects the normalization inside the CLT statistic: "N"
    (the replicate count, the statistically meaningful choice) or "n" (the
    per-task sample size).  The choice is recorded in the report.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be positive")
    if pi2_scale not in ("N", "n"):
        raise ValueError("pi2_scale must be 'N' or 'n'")
    ratios = _compute_ratios(spec, sigma2, n_rep, max(1, jobs))
    if any(not math.isfinite(r) for r in ratios):
        bad = next(i for i, r in enumerate(ratios) if not math.isfinite(r))
        raise FloatingPointError(f"replicate {bad} produced a non-finite oracle ratio")

    arr = np.asarray(ratios)
    b_bar = float(np.mean(arr < 1.0))
    mean = float(arr.mean())
    scale = n_rep if pi2_scale == "N" else spec.n
    if n_rep > 1:
        std = float(arr.std(ddof=1))
        pi2 = pvalue_pi2(mean, std, scale) if std > 0 else (0.0 if mean < 1 else 1.0)
        half = Z_975 / math.sqrt(n_rep) * std
        ci95 = (mean - half, mean + half)
    else:
        # single replicate: dispersion and the CLT statistic are undefined
        std = math.nan
        pi2 = math.nan
        ci95 = (math.nan, math.nan)
    return ExperimentReport(
        spec=spec,
        sigma2=sigma2,
        n_rep=n_rep,
        ratios=tuple(float(r) for r in ratios),
        b_bar=b_bar,
        pi1=pvalue_pi1(b_bar, n_rep),
        mean_ratio=mean,
        std_ratio=std,
        pi2=pi2,
        ci95=ci95,
        pi2_scale=pi2_scale,
    )


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "spec": report.spec.to_dict(),
        "sigma2": report.sigma2,
        "n_rep": report.n_rep,
        "b_bar": report.b_bar,
        "pi1": report.pi1,
        "mean_ratio": report.mean_ratio,
        "std_ratio": report.std_ratio,
        "pi2": report.pi2,
        "ci95": list(report.ci95),
        "pi2_scale": report.pi2_scale,
        "ratios": list(report.ratios),
    }


def report_to_json(report: ExperimentReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


def write_report_json(report: ExperimentReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(report_to_json(report))
        fh.write("\n")


TABLE_COLUMNS = ("C2", "r", "beta_or_m", "b_bar", "pi1", "mean_ratio", "std_ratio", "pi2")


def emit_table(reports: list[ExperimentReport], path: str) -> None:
    """Write one CSV row per report, in the layout of the comparison tables."""
    if not reports:
        raise ValueError("no reports to tabulate")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TABLE_COLUMNS)
        for rep in reports:
            s = rep.spec
            r = s.c2 / s.c1 if s.c1 > 0 else math.inf
            writer.writerow(
                [repr(s.c2), repr(r), repr(s.beta_or_m), repr(rep.b_bar), repr(rep.pi1),
                 repr(rep.mean_ratio), repr(rep.std_ratio), repr(rep.pi2)]
            )


def emit_heatmap_csv(
    grid: list[list[ExperimentReport]],
    row_name: str,
    row_values: list[float],
    col_name: str,
    col_values: list[float],
    path: str,
) -> None:
    """CSV grid of mean ratios followed by the matching grid of ci95 half-widths."""
    if not grid or any(len(row) != len(col_values) for row in grid) or len(grid) != len(row_values):
        raise ValueError("report grid does not match the declared axes")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = [f"{row_name}\\{col_name}"] + [repr(v) for v in col_values]
        writer.writerow(["# mean_ratio"])
        writer.writerow(header)
        for rv, row in zip(row_values, grid):
            writer.writerow([repr(rv)] + [repr(rep.mean_ratio) for rep in row])
        writer.writerow(["# ci95_halfwidth"])
        writer.writerow(header)
        for rv, row in zip(row_values, grid):
            writer.writerow([repr(rv)] + [repr((rep.ci95[1] - rep.ci95[0]) / 2.0) for rep in row])


def default_jobs() -> int:
    return os.cpu_count() or 1
