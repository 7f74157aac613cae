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

from .estimators import multitask_rows, singletask_rows
from .optimize import Search, minimize_profiles
from .spectral import mean_variance


def comparison_rows(h: np.ndarray, sigma2: float, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Signal rows and noise levels of the p + 2 searches of one comparison: mean part, variance part, tasks.

    ``h`` holds the task coefficients, n x p, or an (R, n, p) block of R replicates with signal
    (R, p + 2, n), each replicate's rows bit-identical to those of its ensemble alone.  The rows are
    written into ``out`` when it is given; no temporary is larger than ``h``.
    """
    p = h.shape[-1]
    signal = np.empty(h.shape[:-2] + (p + 2, h.shape[-2])) if out is None else out
    _, mt_noise = multitask_rows(*mean_variance(h), sigma2, p, out=signal[..., :2, :])
    _, st_noise = singletask_rows(h, sigma2, out=signal[..., 2:, :])
    return signal, np.concatenate((mt_noise, st_noise))


def stacked_rows(chunks: Iterable[tuple[slice, np.ndarray]], reps: int, n: int, p: int, sigma2: float,
                 times: dict[str, float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``reps`` comparisons whose coefficients come in chunks: signal (reps, p + 2, n) and noise.

    ``chunks`` yields (rows, h), replicates ``rows`` (a slice) and their (len, n, p) coefficients, as
    ``scenarios.draw`` does.  ``comparison_rows`` writes each chunk's rows into their slice of the one
    block, so only the block grows with ``reps``, and each chunk is released before the next is drawn.
    With ``times``, the seconds spent drawing the chunks are added to ``draw``, and those spent building
    their rows go in as ``rows``.
    """
    signal, noise = np.empty((reps, p + 2, n)), None
    drawn = built = 0.0
    start = time.perf_counter()
    for rows, h in chunks:
        middle = time.perf_counter()
        _, noise = comparison_rows(h, sigma2, out=signal[rows])
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
    With ``times``, the wall time in seconds of the search goes in as ``search``.
    """
    start = time.perf_counter()
    reps, p = signal.shape[0], signal.shape[1] - 2
    owner = None if spectrum is None else np.repeat(spectrum, p + 2)
    search = minimize_profiles(n, gamma, signal.reshape(-1, n), np.tile(noise, reps), spectrum=owner)
    if times is not None:
        times["search"] = time.perf_counter() - start
    values = search.value.reshape(reps, p + 2)
    st_risk = np.add.accumulate(values[:, 2:], axis=1)[:, -1] / p
    if (st_risk <= 0).any():
        raise ZeroDivisionError("single-task oracle risk is zero; the ratio is undefined")
    mt_risk = values[:, 0] + values[:, 1]
    return mt_risk, st_risk, mt_risk / st_risk, search


def compare(n: int, gamma: np.ndarray, h: np.ndarray, sigma2: float, spectrum: np.ndarray | None = None,
            times: dict[str, float] | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, Search]:
    """Both oracles and rho of each replicate of an (R, n, p) block, replicate r on ``gamma[spectrum[r]]``.

    The rows of the whole block (``comparison_rows``) go to ``search_comparisons``, which returns the
    multi-task risk, the single-task risk and rho of each replicate and the one stacked ``Search``; a
    work list drawn in chunks takes ``stacked_rows`` instead.  Without ``spectrum`` every replicate
    searches on spectrum 0.  A block the caller holds no reference to is freed once its rows are built,
    before the search.  With ``times``, the wall times in seconds of the row build and of the search go
    in as ``rows`` and ``search``.
    """
    start = time.perf_counter()
    signal, noise = comparison_rows(h, sigma2)
    del h
    if times is not None:
        times["rows"] = time.perf_counter() - start
    return search_comparisons(n, gamma, signal, noise, spectrum, times)


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
