"""Monte Carlo comparison harness: replicate oracle-risk ratios and the
Hoeffding / CLT test statistics summarizing them.

Each replicate generates a fresh ensemble from a derived sub-seed, computes
the exact multi-task and single-task oracle risks, and records their ratio.
``run_experiments`` takes a command's whole work list (every spec, every
replicate), draws each spec's replicates as one block, and minimizes all
their risk curves in one ``minimize_profiles`` call, in one process.  Each
search is bit-identical in any stack and aggregation is an ordered reduction
over replicate index, so a spec's report is the same in any work list.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .estimators import comparison_rows
from .optimize import ProfileMinimum, minimize_profiles
from .oracles import oracle_ratios
from .scenarios import ScenarioSpec, derive_seed, draw

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


def _report(spec: ScenarioSpec, sigma2: float, n_rep: int, search: list[ProfileMinimum], pi2_scale: str):
    """Aggregate the searches of one spec's replicates, p + 2 per replicate, into its report."""
    arr = oracle_ratios(np.array([best.value for best in search]).reshape(n_rep, spec.p + 2))[2]
    finite = np.isfinite(arr)
    if not finite.all():
        raise FloatingPointError(f"replicate {int(np.argmin(finite))} produced a non-finite oracle ratio")
    ratios = arr.tolist()

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
        std = pi2 = math.nan
        ci95 = (math.nan, math.nan)
    return ExperimentReport(spec=spec, sigma2=sigma2, n_rep=n_rep, ratios=tuple(ratios), b_bar=b_bar,
                            pi1=pvalue_pi1(b_bar, n_rep), mean_ratio=mean, std_ratio=std, pi2=pi2, ci95=ci95,
                            pi2_scale=pi2_scale)


def run_experiments(specs: list[ScenarioSpec], sigma2: float, n_rep: int,
                    pi2_scale: str = "N") -> tuple[list[ExperimentReport], list[ProfileMinimum]]:
    """Replicate the oracle comparison of every spec n_rep times, all in one stacked search.

    The specs must share n and p.  Each spec's rows are dropped once joined, before the search.  Returns one report per spec and the
    searches: p + 2 per replicate, replicate by replicate, spec by spec.
    ``pi2_scale`` selects the normalization inside the CLT statistic: "N"
    (the replicate count, the statistically meaningful choice) or "n" (the
    per-task sample size); each report records it.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be positive")
    if pi2_scale not in ("N", "n"):
        raise ValueError("pi2_scale must be 'N' or 'n'")
    if len({(spec.n, spec.p) for spec in specs}) != 1:
        raise ValueError("the specs of one run must share n and p")
    gammas, rows = [], []
    for spec in specs:
        spectra, h = draw(spec, [derive_seed(spec.seed, r) for r in range(n_rep)])
        signal, noise = comparison_rows(h, sigma2)
        owner = len(gammas) + np.arange(n_rep) % len(spectra)  # replicate r searches on spectrum r % len(spectra)
        gammas += [spectrum.gamma for spectrum in spectra]
        rows.append((signal.reshape(-1, spec.n), np.tile(noise, n_rep), np.repeat(owner, spec.p + 2)))
    del spectra, h  # the search needs only the rows and the eigenvalues: free the last block and its bases,
    signal, noise, owner = map(np.concatenate, zip(*rows))
    del rows  # and the per-spec rows once joined
    # spectra equal bit for bit, such as every cell of a synthetic sweep at one (n, beta), share one grid scan
    gamma = np.vstack(gammas)
    _, first, which = np.unique(gamma.view(f"V{gamma.strides[0]}").ravel(), return_index=True, return_inverse=True)
    search = minimize_profiles(specs[0].n, gamma[first], signal, noise, spectrum=which[owner])
    size = n_rep * (specs[0].p + 2)
    return [_report(spec, sigma2, n_rep, search[k * size:(k + 1) * size], pi2_scale)
            for k, spec in enumerate(specs)], search


def run_experiment(spec: ScenarioSpec, sigma2: float, n_rep: int, pi2_scale: str = "N") -> ExperimentReport:
    """Replicate the oracle comparison n_rep times and aggregate the statistics: ``run_experiments`` of one spec."""
    return run_experiments([spec], sigma2, n_rep, pi2_scale)[0][0]


def report_to_dict(report: ExperimentReport) -> dict:
    """The report's fields in declaration order, with the ratios moved to the end."""
    fields_ = {field.name: getattr(report, field.name) for field in fields(report) if field.name != "ratios"}
    return fields_ | {"spec": report.spec.to_dict(), "ci95": list(report.ci95), "ratios": list(report.ratios)}


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


def emit_heatmap_csv(grid: list[list[ExperimentReport]], row_name: str, row_values: list[float], col_name: str,
                     col_values: list[float], path: str) -> None:
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
