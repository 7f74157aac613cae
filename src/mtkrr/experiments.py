"""Monte Carlo comparison harness: replicate oracle-risk ratios and the
Hoeffding / CLT test statistics summarizing them.

Each replicate generates a fresh ensemble from a derived sub-seed, computes
the exact multi-task and single-task oracle risks, and records their ratio.
``run_experiments`` takes a command's whole work list (every spec, every
replicate), draws its replicates in chunks straight into one block of search
rows, and compares them all in one stacked search, in one process; the
replicates ``scenarios.draw`` gives one spectrum share its grid scan.  Each
search is bit-identical in any stack and aggregation is an ordered reduction
over replicate index, so a spec's report is the same in any work list.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .optimize import Search
from .oracles import search_comparisons, stacked_rows
from .scenarios import RANDOM_KINDS, ScenarioSpec, derive_seeds, draw

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


def _reports(specs: list[ScenarioSpec], sigma2: float, n_rep: int, rho: np.ndarray, pi2_scale: str):
    """Aggregate the oracle ratios of every spec's replicates, an (S, n_rep) block, into one report per spec.

    Each statistic is formed for every spec at once, reduced along the contiguous replicate axis, so each
    spec's bits are those of its own ratios alone.
    """
    finite = np.isfinite(rho)
    bad = np.flatnonzero(~finite.all(axis=1))
    if bad.size:
        raise FloatingPointError(f"replicate {int(np.argmin(finite[bad[0]]))} produced a non-finite oracle ratio")
    b_bar = np.mean(rho < 1.0, axis=1).tolist()
    mean = rho.mean(axis=1).tolist()
    # single replicate: dispersion and the CLT statistic are undefined
    std = rho.std(axis=1, ddof=1).tolist() if n_rep > 1 else [math.nan] * len(specs)
    reports = []
    for spec, ratios, b, m, s in zip(specs, rho.tolist(), b_bar, mean, std):
        if n_rep > 1:
            pi2 = pvalue_pi2(m, s, n_rep if pi2_scale == "N" else spec.n) if s > 0 else (0.0 if m < 1 else 1.0)
            half = Z_975 / math.sqrt(n_rep) * s
            ci95 = (m - half, m + half)
        else:
            pi2, ci95 = math.nan, (math.nan, math.nan)
        reports.append(ExperimentReport(spec=spec, sigma2=sigma2, n_rep=n_rep, ratios=tuple(ratios), b_bar=b,
                                        pi1=pvalue_pi1(b, n_rep), mean_ratio=m, std_ratio=s, pi2=pi2, ci95=ci95,
                                        pi2_scale=pi2_scale))
    return reports


def run_experiments(specs: list[ScenarioSpec], sigma2: float, n_rep: int,
                    pi2_scale: str = "N") -> tuple[list[ExperimentReport], Search, dict[str, float]]:
    """Replicate the oracle comparison of every spec n_rep times: draw, rows, one stacked search, report.

    The specs must share their kind, n and p.  Every replicate's sub-seed is derived in one hash pass, and
    the work list is drawn in chunks (``scenarios.draw``) whose rows ``oracles.stacked_rows`` writes into
    one (R, p + 2, n) block, so no (R, n, p) block of all replicates is ever built.  The replicates of a
    deterministic kind (not in ``RANDOM_KINDS``) are all equal, so one per spec is drawn and searched, and
    its ratio and searches stand for every replicate.  Returns one report per
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
    reps = n_rep if specs[0].kind in RANDOM_KINDS else 1  # one replicate stands for all of a deterministic kind's
    seeds = derive_seeds(np.repeat(np.array([spec.seed for spec in specs], dtype=np.uint64), reps),
                         np.tile(np.arange(reps), len(specs)))
    # replicate r of spec k on spectrum owner[k reps + r]; setting B's spectra are complete once every chunk is drawn
    gamma, owner, chunks = draw(specs, seeds.reshape(len(specs), reps))
    times = {"draw": time.perf_counter() - start}
    signal, noise = stacked_rows(chunks, len(owner), specs[0].n, specs[0].p, sigma2, times)
    _, _, rho, search = search_comparisons(specs[0].n, gamma, signal, noise, spectrum=owner, times=times)
    start = time.perf_counter()
    if reps < n_rep:  # each spec's ratio and p + 2 searches, repeated for its every replicate
        rho = np.repeat(rho, n_rep)
        columns = (getattr(search, column.name).reshape(len(specs), -1) for column in fields(Search))
        search = Search(*(np.tile(column, n_rep).ravel() for column in columns))
    reports = _reports(specs, sigma2, n_rep, rho.reshape(len(specs), n_rep), pi2_scale)
    times["report"] = time.perf_counter() - start
    return reports, search, times
