import math
from dataclasses import dataclass

import numpy as np
from hypothesis import settings
from scipy.integrate import quad

from mtkrr.estimators import multitask_rows, singletask_rows
from mtkrr.optimize import ProfileMinimum, RidgeRiskProfile, minimize_profiles
from mtkrr.spectral import KernelSpectrum, MeanVarianceProfile, TaskEnsemble

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


def value_grid(profile: RidgeRiskProfile, lams: np.ndarray) -> np.ndarray:
    """The risk curve of ``profile`` at every strictly positive lam of ``lams``, in one array pass."""
    lams = np.asarray(lams, dtype=float)
    d = profile.gamma[None, :] + profile.n * lams[:, None]
    bias = profile.n * lams**2 * np.sum(profile.signal[None, :] / d**2, axis=1)
    var = profile.noise / profile.n * np.sum((profile.gamma[None, :] / d) ** 2, axis=1)
    return bias + var


# Each oracle searched alone: the reference the stacked search of
# ``mtkrr.oracles.compare_oracles`` (all p + 2 curves in one pass) is compared against.


def mean_part_profile(spectrum: KernelSpectrum, profile: MeanVarianceProfile, sigma2: float, p: int) -> RidgeRiskProfile:
    """Risk curve in lam for the task-mean component (row 0 of ``multitask_rows``)."""
    signal, noise = multitask_rows(profile.mu, profile.varsigma2, sigma2, p)
    return RidgeRiskProfile(n=spectrum.n, gamma=spectrum.gamma, signal=signal[0], noise=noise[0])


def variance_part_profile(spectrum: KernelSpectrum, profile: MeanVarianceProfile, sigma2: float, p: int) -> RidgeRiskProfile:
    """Risk curve in mu for the between-task component (row 1 of ``multitask_rows``)."""
    signal, noise = multitask_rows(profile.mu, profile.varsigma2, sigma2, p)
    return RidgeRiskProfile(n=spectrum.n, gamma=spectrum.gamma, signal=signal[1], noise=noise[1])


@dataclass(frozen=True)
class MTOracle:
    lambda_star: float
    mu_star: float
    risk: float
    mean_part: float
    var_part: float
    search: tuple[ProfileMinimum, ProfileMinimum]  # the mean-part and variance-part searches


@dataclass(frozen=True)
class STOracle:
    lambdas: tuple[float, ...]
    risk: float
    per_task: tuple[float, ...]
    search: tuple[ProfileMinimum, ...]  # one search per task


def oracle_multitask(spectrum: KernelSpectrum, profile: MeanVarianceProfile, sigma2: float, p: int) -> MTOracle:
    """Independently minimize the mean part over lam and the variance part over mu."""
    signal, noise = multitask_rows(profile.mu, profile.varsigma2, sigma2, p)
    mean, var = minimize_profiles(spectrum.n, spectrum.gamma, signal, noise)
    return MTOracle(lambda_star=mean.lam, mu_star=var.lam, risk=mean.value + var.value, mean_part=mean.value,
                    var_part=var.value, search=(mean, var))


def oracle_singletask(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float) -> STOracle:
    """Per-task oracle ridge risks, averaged over the p tasks."""
    search = minimize_profiles(spectrum.n, spectrum.gamma, *singletask_rows(tasks.h, sigma2))
    risks = [best.value for best in search]
    return STOracle(lambdas=tuple(best.lam for best in search), risk=sum(risks) / len(search),
                    per_task=tuple(risks), search=tuple(search))
