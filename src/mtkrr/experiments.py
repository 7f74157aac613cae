"""Monte Carlo comparison harness: replicate oracle-risk ratios and the
Hoeffding / CLT test statistics summarizing them.

Each replicate generates a fresh ensemble from a derived sub-seed, computes
the exact multi-task and single-task oracle risks, and records their ratio.
``run_experiments`` takes a command's whole work list (every spec, every
replicate), draws its replicates in chunks straight into one block of search
rows, and compares them all in one stacked search, in one process.  Each
search is bit-identical in any stack and aggregation is an ordered reduction
over replicate index, so a spec's report is the same in any work list.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .optimize import Search
from .oracles import search_comparisons, stacked_rows
from .scenarios import ScenarioSpec, derive_seeds, draw

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


def _report(spec: ScenarioSpec, sigma2: float, n_rep: int, arr: np.ndarray, pi2_scale: str):
    """Aggregate the oracle ratios of one spec's replicates into its report."""
    finite = np.isfinite(arr)
    if not finite.all():
        raise FloatingPointError(f"replicate {int(np.argmin(finite))} produced a non-finite oracle ratio")
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
    return ExperimentReport(spec=spec, sigma2=sigma2, n_rep=n_rep, ratios=tuple(arr.tolist()), b_bar=b_bar,
                            pi1=pvalue_pi1(b_bar, n_rep), mean_ratio=mean, std_ratio=std, pi2=pi2, ci95=ci95,
                            pi2_scale=pi2_scale)


def run_experiments(specs: list[ScenarioSpec], sigma2: float, n_rep: int,
                    pi2_scale: str = "N") -> tuple[list[ExperimentReport], Search, dict[str, float]]:
    """Replicate the oracle comparison of every spec n_rep times: draw, rows, one stacked search, report.

    The specs must share their kind, n and p.  Every replicate's sub-seed is derived in one hash pass, and
    the work list is drawn in chunks (``scenarios.draw``) whose rows ``oracles.stacked_rows`` writes into
    one (R, p + 2, n) block, so no (R, n, p) block of all replicates is ever built.  Returns one report per
    spec, each from its slice of the ratios, the one ``Search`` of the comparison (p + 2 rows per
    replicate, replicate by replicate, spec by spec), and the wall time in seconds of each stage, summed
    over the chunks: ``draw``, ``rows``, ``search`` and ``report``.
    ``pi2_scale`` selects the normalization inside the CLT statistic: "N" (the replicate count, the
    statistically meaningful choice) or "n" (the per-task sample size); each report records it.
    """
    if n_rep < 1:
        raise ValueError("n_rep must be positive")
    if pi2_scale not in ("N", "n"):
        raise ValueError("pi2_scale must be 'N' or 'n'")
    if len({(spec.kind, spec.n, spec.p) for spec in specs}) != 1:
        raise ValueError("the specs of one run must share n and p and their kind")
    start = time.perf_counter()
    seeds = derive_seeds(np.repeat(np.array([spec.seed for spec in specs], dtype=np.uint64), n_rep),
                         np.tile(np.arange(n_rep), len(specs)))
    # replicate r of spec k on spectrum owner[k n_rep + r]; setting B's spectra are complete once every chunk is drawn
    gamma, owner, chunks = draw(specs, seeds.reshape(len(specs), n_rep))
    times = {"draw": time.perf_counter() - start}
    signal, noise = stacked_rows(chunks, len(owner), specs[0].n, specs[0].p, sigma2, times)
    # spectra equal bit for bit, such as every cell of a synthetic sweep at one (n, beta), share one grid scan
    start = time.perf_counter()
    _, first, which = np.unique(gamma.view(f"V{gamma.strides[0]}").ravel(), return_index=True, return_inverse=True)
    times["draw"] += time.perf_counter() - start
    _, _, rho, search = search_comparisons(specs[0].n, gamma[first], signal, noise, spectrum=which[owner], times=times)
    start = time.perf_counter()
    reports = [_report(spec, sigma2, n_rep, rho[k * n_rep:(k + 1) * n_rep], pi2_scale) for k, spec in enumerate(specs)]
    times["report"] = time.perf_counter() - start
    return reports, search, times
