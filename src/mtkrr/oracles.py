"""Multi-task vs single-task oracle risks and their rate-form ratio predictions.

The multi-task oracle separates exactly: the risk is a sum of a mean part in
lam and a variance part in mu, each a one-dimensional ridge risk curve, so
the joint optimum is two independent line searches.  The single-task oracle
is p independent line searches, one per task.  Both risks are normalized per
observation (divided by n p), which makes their ratio rho dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import comparison_rows
from .optimize import ProfileMinimum, RidgeRiskProfile, minimize_profiles
from .spectral import KernelSpectrum, TaskEnsemble


@dataclass(frozen=True)
class OracleResult:
    """Joint outcome of the two oracle searches on one problem instance."""

    mt_risk: float
    st_risk: float
    lambda_star: float
    mu_star: float
    st_lambdas: tuple[float, ...]
    rho: float
    diagnostics: tuple[float, ...]  # per-task single-task oracle risks
    search: tuple[ProfileMinimum, ...]  # mean part, variance part, then each task


def oracle_ratios(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Multi-task risk, single-task risk and rho per row of an (R, p + 2) array laid out by ``comparison_rows``.

    The single-task risk sums the p task minima left to right (``accumulate``, not numpy's pairwise sum).
    """
    values = np.asarray(values, dtype=float)
    st_risk = np.add.accumulate(values[:, 2:], axis=1)[:, -1] / (values.shape[1] - 2)
    if (st_risk <= 0).any():
        raise ZeroDivisionError("single-task oracle risk is zero; the ratio is undefined")
    mt_risk = values[:, 0] + values[:, 1]
    return mt_risk, st_risk, mt_risk / st_risk


def compare_oracles(spectrum: KernelSpectrum, tasks: TaskEnsemble, sigma2: float) -> OracleResult:
    """Run both oracles on the same ensemble, in one stacked search, and form the risk ratio."""
    search = minimize_profiles(spectrum.n, spectrum.gamma, *comparison_rows(tasks.h, sigma2))
    values = [best.value for best in search]
    mt_risk, st_risk, rho = (float(x[0]) for x in oracle_ratios([values]))
    return OracleResult(mt_risk=mt_risk, st_risk=st_risk, lambda_star=search[0].lam, mu_star=search[1].lam,
                        st_lambdas=tuple(best.lam for best in search[2:]), rho=rho, diagnostics=tuple(values[2:]),
                        search=tuple(search))


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


def df_and_bias(spectrum: KernelSpectrum, h_j: np.ndarray, lam: float) -> tuple[float, float]:
    """Effective degrees of freedom tr(A_lam) and squared bias of one task.

    df(lam) = sum gamma_i / (gamma_i + n lam); the bias, normalized by n, is
    the bias part of the task's ridge risk curve.  At lam = 0 the smoother is
    the projector onto the kernel range, so df counts the positive
    eigenvalues and the bias keeps only null-space energy.
    """
    gamma = spectrum.gamma
    bias = RidgeRiskProfile(spectrum.n, gamma, np.asarray(h_j, dtype=float) ** 2, 0.0).parts(lam)[0]
    df = np.divide(gamma, gamma + spectrum.n * lam, out=np.zeros_like(gamma), where=gamma > 0)
    return float(np.sum(df)), bias


def hm_bound_rhs(
    n: int,
    p: int,
    sigma2: float,
    theta: float,
    mt_oracle_risk: float,
    f_sqnorm: float,
    big_l: float = 1.0,
) -> float:
    """Right-hand side of the data-driven estimator's oracle inequality.

    (1 + 1/ln n)^2 * mt_oracle_risk + L sigma2 (2+theta)^2 p ln(n)^3 / n
    + p / n^(theta/2) * f_sqnorm / (n p).  The absolute constant L is not
    specified by the theory; it is exposed as a knob with default 1.
    """
    if n < 3:
        raise ValueError("need n >= 3 for the logarithmic terms")
    if theta < 2:
        raise ValueError("theta must be at least 2")
    log_n = math.log(n)
    return (
        (1 + 1 / log_n) ** 2 * mt_oracle_risk
        + big_l * sigma2 * (2 + theta) ** 2 * p * log_n**3 / n
        + p / n ** (theta / 2) * f_sqnorm / (n * p)
    )
