"""Multi-task ridge regularizers and the two routes to their exact risk.

The multi-task smoother is A = T (T + np I)^{-1} with T = (M^{-1} x K)
(Kronecker product), M being a p x p coupling matrix that penalizes the task
mean with weight ``lam`` and the between-task variance with weight ``mu``.
``risk_direct`` materializes the np x np operator and evaluates the
bias-variance decomposition by brute force; ``risk_spectral`` evaluates the
same risk from the kernel eigenvalues and the mean/variance profiles in
O(n).  The two must agree to floating-point accuracy, which is the central
correctness check of the package.

The spectral route is canonical: it is defined for lam = 0 and mu = 0 where
the Kronecker-inverse formula is not, and it has no size cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optimize import RidgeRiskProfile
from .spectral import KernelSpectrum, MeanVarianceProfile, TaskEnsemble, mean_variance, reconstruct_tasks

DENSE_SIZE_CAP = 512  # the O((np)^3) route exists only for cross-validation


class SingularRegularizerError(ValueError):
    """The Kronecker route needs an invertible coupling matrix (lam, mu > 0)."""


def _mean_projector(p: int) -> np.ndarray:
    return np.full((p, p), 1.0 / p)


@dataclass(frozen=True)
class RegularizerAV:
    """Coupling matrix penalizing the task mean (lam) and task variance (mu)."""

    p: int
    lam: float
    mu: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("penalty weights must be nonnegative")

    def matrix(self) -> np.ndarray:
        J = _mean_projector(self.p)
        return (self.lam / self.p) * J + (self.mu / self.p) * (np.eye(self.p) - J)


@dataclass(frozen=True)
class RegularizerSD:
    """Coupling matrix penalizing individual norms (alpha) and pairwise differences (beta_pen).

    Identical to RegularizerAV(alpha, alpha + p * beta_pen); kept as its own
    type because the two parameterizations cover different nonnegative cones.
    """

    p: int
    alpha: float
    beta_pen: float

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("p must be a positive integer")
        if self.alpha < 0 or self.beta_pen < 0:
            raise ValueError("penalty weights must be nonnegative")

    def matrix(self) -> np.ndarray:
        return RegularizerAV(self.p, self.alpha, self.alpha + self.p * self.beta_pen).matrix()


@dataclass(frozen=True)
class RiskBreakdown:
    bias: float
    variance: float
    total: float

    @classmethod
    def of(cls, bias: float, variance: float) -> "RiskBreakdown":
        return cls(bias=bias, variance=variance, total=bias + variance)


def penalty_value(reg: RegularizerAV | RegularizerSD, gram: np.ndarray) -> float:
    """Quadratic penalty sum_{j,l} M_{jl} <g^j, g^l> from the task Gram matrix."""
    gram = np.asarray(gram, dtype=float)
    p = reg.p
    if gram.shape != (p, p):
        raise ValueError(f"gram matrix must be {p} x {p}, got {gram.shape}")
    scale = max(1.0, float(np.max(np.abs(gram))))
    if np.max(np.abs(gram - gram.T)) > 1e-10 * scale:
        raise ValueError("gram matrix is not symmetric")
    if np.linalg.eigvalsh(gram).min() < -1e-8 * scale:
        raise ValueError("gram matrix is not positive semidefinite")
    return float(np.sum(reg.matrix() * gram))


def build_operator(spectrum: KernelSpectrum, reg: RegularizerAV) -> np.ndarray:
    """Materialize the dense np x np multi-task smoother (validation path only)."""
    if reg.lam == 0 or reg.mu == 0:
        raise SingularRegularizerError("dense route requires lam > 0 and mu > 0; use the spectral route for zero penalties")
    n, p = spectrum.n, reg.p
    if n * p > DENSE_SIZE_CAP:
        raise ValueError(f"dense operator of size {n * p} exceeds cap {DENSE_SIZE_CAP}")
    K = spectrum.kernel_matrix()
    Minv = np.linalg.inv(reg.matrix())
    T = np.kron(Minv, K)
    # T and (T + npI)^{-1} commute, so the product is symmetric
    A = np.linalg.solve(T + n * p * np.eye(n * p), T)
    return 0.5 * (A + A.T)


def risk_direct(
    spectrum: KernelSpectrum, tasks: TaskEnsemble, reg: RegularizerAV, sigma2: float
) -> RiskBreakdown:
    """Exact risk via the dense operator: ||(A - I) f||^2/np + sigma2 tr(A'A)/np."""
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    if tasks.p != reg.p:
        raise ValueError("ensemble and regularizer disagree on the number of tasks")
    n, p = spectrum.n, tasks.p
    A = build_operator(spectrum, reg)
    F = reconstruct_tasks(spectrum, tasks)
    f = F.T.ravel()  # tasks stacked one after another
    bias = float(np.sum((A @ f - f) ** 2)) / (n * p)
    variance = sigma2 * float(np.sum(A * A)) / (n * p)
    return RiskBreakdown.of(bias, variance)


def multitask_rows(mu: np.ndarray, varsigma2: np.ndarray, sigma2: float, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Signal rows and noise levels of the two multi-task risk curves.

    Row 0 is the task-mean component, a curve in lam with effective noise
    sigma2/p; row 1 the between-task component, a curve in mu with
    effective noise (p-1) sigma2/p.  ``mu`` and ``varsigma2`` may carry
    leading replicate axes; the rows are then the second-to-last axis.
    """
    return np.stack((mu**2 / p, varsigma2), axis=-2), np.array([sigma2 / p, (p - 1) * sigma2 / p])


def singletask_rows(h: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Signal rows and noise levels of the p single-task risk curves of coefficients h (..., n, p), one row per task."""
    return np.swapaxes(h, -1, -2) ** 2, np.full(h.shape[-1], float(sigma2))


def comparison_rows(h: np.ndarray, sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Signal rows and noise levels of the p + 2 searches of one comparison: mean part, variance part, tasks.

    ``h`` holds the task coefficients, n x p, or an (R, n, p) block of R replicates with signal
    (R, p + 2, n), each replicate's rows bit-identical to those of its ensemble alone.
    """
    mt_signal, mt_noise = multitask_rows(*mean_variance(h), sigma2, h.shape[-1])
    st_signal, st_noise = singletask_rows(h, sigma2)
    return np.concatenate((mt_signal, st_signal), axis=-2), np.concatenate((mt_noise, st_noise))


def risk_spectral(
    spectrum: KernelSpectrum,
    profile: MeanVarianceProfile,
    lam: float,
    mu: float,
    sigma2: float,
    p: int,
) -> RiskBreakdown:
    """Exact risk from the spectral decomposition; valid for lam, mu in [0, inf]."""
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    if p < 1:
        raise ValueError("p must be a positive integer")
    signal, noise = multitask_rows(profile.mu, profile.varsigma2, sigma2, p)
    n, gamma = spectrum.n, spectrum.gamma
    b1, v1 = RidgeRiskProfile(n=n, gamma=gamma, signal=signal[0], noise=noise[0]).parts(lam)  # mean part
    b2, v2 = RidgeRiskProfile(n=n, gamma=gamma, signal=signal[1], noise=noise[1]).parts(mu)  # between-task part
    return RiskBreakdown.of(b1 + b2, v1 + v2)


def risk_single_task(spectrum: KernelSpectrum, h_j: np.ndarray, lam: float, sigma2: float) -> RiskBreakdown:
    """Per-task ridge risk, normalized by n (the comparison harness averages over tasks)."""
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    profile = RidgeRiskProfile(n=spectrum.n, gamma=spectrum.gamma, signal=np.asarray(h_j, dtype=float) ** 2, noise=sigma2)
    return RiskBreakdown.of(*profile.parts(lam))

