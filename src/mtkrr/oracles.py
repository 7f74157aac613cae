"""Multi-task vs single-task oracle risks and their rate-form ratio predictions.

The multi-task oracle separates exactly: the risk is a sum of a mean part in
lam and a variance part in mu, each a one-dimensional ridge risk curve, so
the joint optimum is two independent line searches.  The single-task oracle
is p independent line searches, one per task.  Both risks are normalized per
observation (divided by n p), which makes their ratio rho dimensionless.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterable

import numpy as np

from .estimators import comparison_rows
from .optimize import Search, minimize_profiles


def stacked_rows(chunks: Iterable[tuple[slice, np.ndarray]], reps: int, n: int, p: int, sigma2: float,
                 times: dict[str, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``reps`` comparisons whose coefficients come in chunks: signal (reps, p + 2, n) and noise.

    ``chunks`` yields (rows, h), replicates ``rows`` (a slice) and their (len, n, p) coefficients, as
    ``scenarios.draw`` does.  ``comparison_rows`` writes each chunk's rows into their slice of the one
    block, so only the block grows with ``reps``, and each chunk is released before the next is drawn.
    A chunk with a coefficient that is not finite is an error; a row that overflows is built quietly and
    left to the search, which names the first row that is not finite.  With ``times``, the seconds spent
    drawing the chunks are added to ``draw``, and those spent building their rows go in as ``rows``.
    The noise levels depend on (sigma2, p) alone, so they are given with no chunk too.
    """
    signal = np.empty((reps, p + 2, n))
    noise = comparison_rows(np.empty((0, n, p)), sigma2, out=signal[:0])[1]
    drawn = built = 0.0
    start = time.perf_counter()
    for rows, h in chunks:
        middle = time.perf_counter()
        if not np.isfinite(h).all():
            raise ValueError("task coefficients must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            comparison_rows(h, sigma2, out=signal[rows])
        del h
        end = time.perf_counter()
        drawn, built, start = drawn + middle - start, built + end - middle, end
    if times is not None:
        times["draw"] = times.get("draw", 0.0) + drawn + time.perf_counter() - start
        times["rows"] = built
    return signal, noise


def search_comparisons(n: int, gamma: np.ndarray, signal: np.ndarray, noise: np.ndarray,
                       spectrum: np.ndarray | None = None, times: dict[str, float] | None = None
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, Search]:
    """Both oracles and rho of each replicate from its rows, ``signal`` (R, p + 2, n) and ``noise`` (p + 2,).

    Replicate r searches on ``gamma[spectrum[r]]``, or on spectrum 0 without ``spectrum``.  Returns the
    multi-task risk, the single-task risk (the task minima summed left to right, not pairwise) and rho,
    one per replicate, and the one stacked ``Search``: mean part, variance part, each task, per replicate.
    With ``times``, the wall time in seconds of the search goes in as ``search``, and the stages of
    ``minimize_profiles`` as its sub-stages ``search.scan``, ``search.model`` and ``search.newton``.
    """
    start = time.perf_counter()
    reps, p = signal.shape[0], signal.shape[1] - 2
    owner, stages = None if spectrum is None else np.repeat(spectrum, p + 2), None if times is None else {}
    search = minimize_profiles(n, gamma, signal.reshape(-1, n), np.tile(noise, reps), spectrum=owner, times=stages)
    if times is not None:
        times["search"] = time.perf_counter() - start
        times.update((f"search.{stage}", seconds) for stage, seconds in stages.items())
    values = search.value.reshape(reps, p + 2)
    st_risk = np.add.accumulate(values[:, 2:], axis=1)[:, -1] / p
    if (st_risk <= 0).any():
        raise ZeroDivisionError("single-task oracle risk is zero; the ratio is undefined")
    mt_risk = values[:, 0] + values[:, 1]
    return mt_risk, st_risk, mt_risk / st_risk, search


def rho_formula_2points(p: int, delta: float, r: float) -> float:
    """Rate-form ratio for two equal clusters of identical tasks (r = C2/C1).

    The denominator averages the two cluster terms with weight 1/2 each, as
    ``rho_formula_1out`` weights its terms by (p-1)/p and 1/p.  The two
    formulas therefore agree at p = 2 (where the two configurations build the
    same tasks for every r) and at r = 0 (where every task is the same).
    """
    if p < 2 or p % 2:
        raise ValueError("two-cluster repartition needs an even p >= 2")
    if r < 0:
        raise ValueError("r must be nonnegative")
    e = 1 / (2 * delta)
    num = p ** (e - 1) + ((p - 1) / p) ** (1 - e) * r**e
    den = ((1 + math.sqrt(r)) ** (1 / delta) + abs(1 - math.sqrt(r)) ** (1 / delta)) / 2
    return num / den


def rho_formula_1out(p: int, delta: float, r: float) -> float:
    """Rate-form ratio for p-1 identical tasks plus one outlier (r = C2/C1)."""
    if p < 2:
        raise ValueError("outlier repartition needs p >= 2")
    if r < 0:
        raise ValueError("r must be nonnegative")
    e = 1 / (2 * delta)
    num = p ** (e - 1) + ((p - 1) / p) ** (1 - e) * r**e
    den = (p - 1) / p * (1 + math.sqrt(r / (p - 1))) ** (1 / delta) + (1 / p) * abs(
        1 - math.sqrt(r * (p - 1))
    ) ** (1 / delta)
    return num / den
