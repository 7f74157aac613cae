"""Signal rows and noise levels of the risk curves of each estimator.

The multi-task risk separates exactly into a task-mean part, a curve in
``lam``, and a between-task part, a curve in ``mu``; the single-task risk is
one curve per task.  Each curve is a ridge risk curve on the kernel
eigenvalues, given here by its squared signal coefficients (one row) and its
noise level, and searched by ``optimize.minimize_profiles``.
``oracles.comparison_rows`` lays out the rows of both estimators for one
comparison.  The dense Kronecker smoother that cross-checks these rows lives
in the test suite (``tests/reference.py``).
"""

from __future__ import annotations

import numpy as np


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
