"""Spectral representation of a multi-task regression problem.

The kernel matrix K is diagonalized once, task signals are rotated into the
kernel eigenbasis, and the whole analysis then works with three vectors per
problem: the eigenvalues ``gamma_i``, the task-mean profile ``mu_i`` and the
between-task variance profile ``varsigma2_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_TOL = 1e-10
SYMMETRY_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-8  # eigenvalues in [-1e-8, 0) are rounding noise, below is an error


class NotPSDError(ValueError):
    """Kernel matrix has an eigenvalue too negative to be rounding noise."""


@dataclass(frozen=True)
class KernelSpectrum:
    """Eigendecomposition K = basis.T @ diag(gamma) @ basis.

    Rows of ``basis`` are the eigenvectors; ``gamma`` is sorted descending,
    ties broken by original index, all entries nonnegative.  ``basis=None``
    stands for the identity, so a spectrum given directly in its eigenbasis
    (the synthetic settings) stores and checks no n x n matrix.
    """

    n: int
    gamma: np.ndarray
    basis: np.ndarray | None = None

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        basis = None if self.basis is None else np.asarray(self.basis, dtype=float)
        n = self.n
        if n <= 0:
            raise ValueError("sample size must be positive")
        if gamma.shape != (n,) or (basis is not None and basis.shape != (n, n)):
            raise ValueError(f"inconsistent shapes: gamma {gamma.shape}, basis {getattr(basis, 'shape', None)}, n={n}")
        if np.any(gamma < 0):
            raise NotPSDError(f"negative eigenvalue {gamma.min()!r}")
        if np.any(np.diff(gamma) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        if basis is not None and np.max(np.abs(basis @ basis.T - np.eye(n))) > ORTHOGONALITY_TOL:
            raise ValueError("basis rows are not orthonormal")
        gamma = gamma.copy()
        gamma.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)
        if basis is not None:
            basis = basis.copy()
            basis.flags.writeable = False
            object.__setattr__(self, "basis", basis)

    def kernel_matrix(self) -> np.ndarray:
        """Reassemble K from the stored eigendecomposition."""
        if self.basis is None:
            return np.diag(self.gamma)
        return self.basis.T @ (self.gamma[:, None] * self.basis)


@dataclass(frozen=True)
class TaskEnsemble:
    """Spectral coefficients of the p task signals, one column per task."""

    n: int
    p: int
    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        if h.shape != (self.n, self.p):
            raise ValueError(f"h has shape {h.shape}, expected {(self.n, self.p)}")
        if not np.all(np.isfinite(h)):
            raise ValueError("task coefficients must be finite")
        h = h.copy()
        h.flags.writeable = False
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class MeanVarianceProfile:
    """Task-mean profile mu_i and between-task variance profile varsigma2_i."""

    mu: np.ndarray
    varsigma2: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        vs = np.asarray(self.varsigma2, dtype=float)
        if mu.ndim != 1 or vs.shape != mu.shape:
            raise ValueError("mu and varsigma2 must be 1-D arrays of equal length")
        if np.any(vs < 0):
            raise ValueError("variance profile must be nonnegative")
        mu = mu.copy()
        vs = vs.copy()
        mu.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "varsigma2", vs)


def eigendecompose_kernel(K: np.ndarray) -> KernelSpectrum:
    """Diagonalize a symmetric PSD kernel matrix.

    Eigenvalues are returned in descending order (stable ties); values in
    [-1e-8, 0) are clamped to zero, anything more negative raises NotPSDError.
    """
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {K.shape}")
    scale = max(1.0, float(np.max(np.abs(K)))) if K.size else 1.0
    if np.max(np.abs(K - K.T)) > SYMMETRY_TOL * scale:
        raise ValueError("kernel matrix is not symmetric")
    w, v = np.linalg.eigh(K)
    if w.min() < -EIGENVALUE_CLAMP:
        raise NotPSDError(f"kernel matrix is not positive semidefinite (min eigenvalue {w.min()!r})")
    w = np.maximum(w, 0.0)
    order = np.argsort(-w, kind="stable")
    return KernelSpectrum(n=K.shape[0], gamma=w[order], basis=v[:, order].T)


def project_tasks(spectrum: KernelSpectrum, F: np.ndarray) -> TaskEnsemble:
    """Rotate task values F (one column per task) into the kernel eigenbasis."""
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.shape[0] != spectrum.n:
        raise ValueError(f"task values have {F.shape[0]} rows, spectrum has n={spectrum.n}")
    return TaskEnsemble(n=spectrum.n, p=F.shape[1], h=F if spectrum.basis is None else spectrum.basis @ F)


def reconstruct_tasks(spectrum: KernelSpectrum, tasks: TaskEnsemble) -> np.ndarray:
    """Inverse of project_tasks: recover the task values F from coefficients."""
    if tasks.n != spectrum.n:
        raise ValueError("spectrum and ensemble sample sizes differ")
    if spectrum.basis is None:
        return tasks.h.copy()
    return spectrum.basis.T @ tasks.h


def mean_variance(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and between-task variance profiles of coefficients h (n x p, or (R, n, p) for R replicates).

    mu_i = sum_j h_i^j / sqrt(p) and varsigma2_i = (1/p) sum_j (h_i^j - hbar_i)^2
    with hbar_i the plain row mean (= mu_i / sqrt(p)).  Computed directly from
    row sums, never materializing the p x p rotation that diagonalizes the
    task-coupling matrix.  Both reduce along the contiguous task axis, so each
    replicate of a block gets the bits of its n x p slice alone.
    """
    return h.sum(axis=-1) / math.sqrt(h.shape[-1]), np.var(h, axis=-1)


def mean_variance_profile(tasks: TaskEnsemble) -> MeanVarianceProfile:
    """Split an ensemble into its mean and between-task variance profiles (see ``mean_variance``)."""
    return MeanVarianceProfile(*mean_variance(tasks.h))
