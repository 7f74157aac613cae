import contextlib
import math
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings
from scipy.integrate import quad

from mtkrr import optimize
from mtkrr.estimators import comparison_rows
from mtkrr.optimize import SOURCES, Search, minimize_profiles
from mtkrr.oracles import search_comparisons
from mtkrr.spectral import KernelSpectrum, TaskEnsemble
from reference import RidgeRiskProfile, RiskParams

# Property tests draw a fixed set of examples: the same ones on every run, no
# example database, and no per-example deadline, so the suite stays
# deterministic and its running time bounded.
settings.register_profile("mtkrr", derandomize=True, max_examples=60, deadline=None, database=None)
settings.load_profile("mtkrr")


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    """Random symmetric PSD matrix with sensible conditioning."""
    b = rng.standard_normal((n, n))
    return scale * (b @ b.T) / n


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def quad_tail_integral(a: float, v_upper: float = 1.0) -> float:
    """Adaptive-quadrature oracle for int_0^U u^(a-1)/(1+u)^2 du, U = v_upper/(1 - v_upper).

    The substitution v = u/(1+u) turns the integrand into v^(a-1) (1-v)^(1-a)
    on (0, v_upper); v_upper = 1 gives the whole tail integral B(a, 2-a).
    Near the ends of (0, 2) QUADPACK may stop on extrapolation roundoff
    (``full_output`` keeps that quiet); its own error estimate is then
    authoritative and must stay below 1e-8 relative.
    """
    val, abserr = quad(lambda v: v ** (a - 1) * (1 - v) ** (1 - a), 0.0, v_upper,
                       epsabs=0.0, epsrel=1e-10, limit=200, full_output=1)[:2]
    assert math.isfinite(val) and val > 0 and abserr <= 1e-8 * val, (a, v_upper, val, abserr)
    return val


def quad_kappa(beta: float, delta: float) -> float:
    """kappa(beta, delta) with both tail integrals taken by ``quad_tail_integral``."""
    i1 = quad_tail_integral((1 - 2 * delta) / (2 * beta) + 2)
    i2 = quad_tail_integral(1 / (2 * beta))
    e = 1 / (2 * delta)
    return i1**e * i2 ** (1 - e) * (2 * delta - 1) ** e * delta / (beta * (2 * delta - 1))


# Brute-force references: the template sums written out, and a risk curve on a whole lam grid.


def s1(n: int, lam: float, beta: float, delta: float) -> float:
    """S1(n, lam) = sum_{i<=n} i^(4 beta - 2 delta) / (1 + lam i^(2 beta))^2, summed directly."""
    i = np.arange(1, n + 1, dtype=float)
    return float(np.sum(i ** (4 * beta - 2 * delta) / (1 + lam * i ** (2 * beta)) ** 2))


def s2(n: int, lam: float, beta: float) -> float:
    """S2(n, lam) = sum_{i<=n} 1 / (1 + lam i^(2 beta))^2, summed directly."""
    i = np.arange(1, n + 1, dtype=float)
    return float(np.sum(1.0 / (1 + lam * i ** (2 * beta)) ** 2))


class Row(NamedTuple):
    """One row of a ``Search``, with its source by name."""

    lam: float
    value: float
    grad: float
    iterations: int
    source: str
    stationarity: float


def rows(search: Search) -> list[Row]:
    """The rows of ``search``: its columns zipped."""
    return [Row(*row) for row in zip(search.lam.tolist(), search.value.tolist(), search.grad.tolist(),
                                     search.iterations.tolist(), [SOURCES[code] for code in search.source.tolist()],
                                     search.stationarity.tolist())]


def bits(search: Search, index=slice(None)) -> tuple[bytes, ...]:
    """The raw bytes of every column of ``search`` at ``index``: equal only if bit for bit equal (-0.0 and nan too)."""
    return tuple(getattr(search, field.name)[index].tobytes() for field in fields(search))


def stack(results: list):
    """One result of columns (a ``Search`` or ``Bounds``) holding the rows of ``results`` in order."""
    return type(results[0])(*(np.concatenate([getattr(result, field.name) for result in results])
                              for field in fields(results[0])))


def columns(grid: list[RiskParams]) -> tuple[np.ndarray, ...]:
    """The template cells of ``grid`` as the columns (n, p, sigma2, beta, delta, c) that ``minimize_risks`` takes."""
    return tuple(np.array([getattr(params, field.name) for params in grid]) for field in fields(RiskParams))


@contextlib.contextmanager
def parabola_start():
    """Inside the block, Newton starts every basin at the vertex of the parabola through its three grid values.

    ``optimize._model_start`` is patched to return its fallback, the parabola's shift, so a search's result
    with and without the start model can be compared with no switch in the package.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_model_start", lambda *args: args[-1])
        yield


@contextlib.contextmanager
def full_width():
    """Inside the block, the grid scan and Newton evaluate every row over its whole eigen-axis.

    ``optimize.SPLIT_WIDTH``, the gate of the tail-moment table that splits the scan's points and Newton's
    basins into a head and a tail, is patched above every width, so a search's result with and without the
    split can be compared with no switch in the package.  The gate changes nothing else: every width takes
    the same two-pass grid scan.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "SPLIT_WIDTH", sys.maxsize)
        yield


def search_one(profile: RidgeRiskProfile) -> Search:
    """Minimize one ridge risk curve over lam in [0, +inf]: a one-row ``minimize_profiles``."""
    return minimize_profiles(profile.n, profile.gamma, profile.signal[None, :], np.array([profile.noise]))


def minimize_profile(profile: RidgeRiskProfile) -> Row:
    """The one row of ``search_one``."""
    return rows(search_one(profile))[0]


def value_grid(profile: RidgeRiskProfile, lams: np.ndarray) -> np.ndarray:
    """The risk curve of ``profile`` at every strictly positive lam of ``lams``, in one array pass."""
    lams = np.asarray(lams, dtype=float)
    d = profile.gamma[None, :] + profile.n * lams[:, None]
    bias = profile.n * lams**2 * np.sum(profile.signal[None, :] / d**2, axis=1)
    var = profile.noise / profile.n * np.sum((profile.gamma[None, :] / d) ** 2, axis=1)
    return bias + var


# Each oracle searched alone: the reference the stacked search of
# ``mtkrr.oracles.search_comparisons`` (all p + 2 curves of every replicate in one pass) is compared against.


def compare_one(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float):
    """The comparison of one ensemble: its multi-task risk, single-task risk and rho, and its p + 2 searches.

    The rows come straight from the ensemble's coefficients (``comparison_rows``), not from the chunks of
    ``scenarios.draw`` that every command reads: a route independent of the draw.
    """
    mt_risk, st_risk, rho, search = search_comparisons(spectrum.n, spectrum.gamma,
                                                       *comparison_rows(tasks.h[None], sigma2))
    return float(mt_risk[0]), float(st_risk[0]), float(rho[0]), search


def mean_part_profile(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float) -> RidgeRiskProfile:
    """Risk curve in lam for the task-mean component (row 0 of ``comparison_rows``)."""
    signal, noise = comparison_rows(tasks.h, sigma2)
    return RidgeRiskProfile(n=spectrum.n, gamma=spectrum.gamma, signal=signal[0], noise=noise[0])


def variance_part_profile(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float) -> RidgeRiskProfile:
    """Risk curve in mu for the between-task component (row 1 of ``comparison_rows``)."""
    signal, noise = comparison_rows(tasks.h, sigma2)
    return RidgeRiskProfile(n=spectrum.n, gamma=spectrum.gamma, signal=signal[1], noise=noise[1])


@dataclass(frozen=True)
class MTOracle:
    lambda_star: float
    mu_star: float
    risk: float
    mean_part: float
    var_part: float
    search: Search  # the mean-part and variance-part searches


@dataclass(frozen=True)
class STOracle:
    lambdas: tuple[float, ...]
    risk: float
    per_task: tuple[float, ...]
    search: Search  # one search per task


def oracle_multitask(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float) -> MTOracle:
    """Minimize the mean part over lam and the variance part over mu apart: rows 0 and 1 of ``comparison_rows``."""
    signal, noise = comparison_rows(tasks.h, sigma2)
    search = minimize_profiles(spectrum.n, spectrum.gamma, signal[:2], noise[:2])
    (lambda_star, mu_star), (mean, var) = search.lam.tolist(), search.value.tolist()
    return MTOracle(lambda_star=lambda_star, mu_star=mu_star, risk=mean + var, mean_part=mean, var_part=var,
                    search=search)


def oracle_singletask(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float) -> STOracle:
    """Per-task oracle ridge risks, averaged over the p tasks (rows 2.. of ``comparison_rows``)."""
    signal, noise = comparison_rows(tasks.h, sigma2)
    search = minimize_profiles(spectrum.n, spectrum.gamma, signal[2:], noise[2:])
    risks = search.value.tolist()
    return STOracle(lambdas=tuple(search.lam.tolist()), risk=sum(risks) / len(risks), per_task=tuple(risks),
                    search=search)
