"""Spectral representation of a multi-task regression problem.

The kernel matrix K is diagonalized once and the task signals are rotated
into the kernel eigenbasis, so the whole analysis works with the eigenvalues
``gamma_i`` and the n x p task coefficients ``h_i^j``.  The rows of every
risk curve are built from these by ``estimators.comparison_rows``.
"""

from __future__ import annotations

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


def eigendecompose_kernels(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a (b, n, n) stack of symmetric PSD kernel matrices with one ``eigh`` call: gamma and bases.

    Each matrix gets the bits of its own call and is checked on its own, as ``KernelSpectrum`` checks one:
    symmetric to ``SYMMETRY_TOL`` times its largest entry (at least 1), eigenvalues in [-1e-8, 0) clamped
    to zero and anything lower a ``NotPSDError``, an orthonormal basis.  gamma (b, n) is sorted descending
    with stable ties; basis[r] holds the eigenvectors as rows, C-contiguous, so that ``basis @ F`` gives
    each slice the bits of its own product.
    """
    skew = np.abs(K - K.swapaxes(1, 2)).max(axis=(1, 2))
    if np.any(skew > SYMMETRY_TOL * np.maximum(1.0, np.abs(K).max(axis=(1, 2)))):
        raise ValueError("kernel matrix is not symmetric")
    w, v = np.linalg.eigh(K)
    if np.any(w[:, :1] < -EIGENVALUE_CLAMP):  # eigh sorts ascending
        raise NotPSDError(f"kernel matrix is not positive semidefinite (min eigenvalue {w.min()!r})")
    order = np.argsort(-np.maximum(w, 0.0, out=w), axis=1, kind="stable")
    basis = np.ascontiguousarray(np.take_along_axis(v.swapaxes(1, 2), order[:, :, None], axis=1))
    del v
    gram = basis @ basis.swapaxes(1, 2)
    gram -= np.eye(K.shape[-1])
    if np.any(np.abs(gram, out=gram).max(axis=(1, 2)) > ORTHOGONALITY_TOL):
        raise ValueError("basis rows are not orthonormal")
    return np.take_along_axis(w, order, axis=1), basis

