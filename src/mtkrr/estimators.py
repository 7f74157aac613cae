"""Signal rows and noise levels of the risk curves of both estimators.

The multi-task risk separates exactly into a task-mean part, a curve in
``lam``, and a between-task part, a curve in ``mu``; the single-task risk is
one curve per task.  Each is a ridge risk curve on the kernel eigenvalues,
given by its squared signal coefficients (one row) and its noise level, and
searched by ``optimize.minimize_profiles``.  ``oracles.stacked_rows`` alone
calls ``comparison_rows``.  The dense Kronecker smoother that cross-checks
these rows lives in the test suite (``tests/reference.py``).
"""

from __future__ import annotations

import math

import numpy as np


def comparison_rows(h: np.ndarray, sigma2: float, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Signal rows and noise levels of the p + 2 searches of one comparison: mean part, variance part, tasks.

    ``h`` holds the task coefficients, n x p, or an (R, n, p) block of R replicates with signal (R, p + 2, n).
    Row 0 is mu_i^2 / p with mu_i = sum_j h_i^j / sqrt(p), a curve in lam with noise sigma2 / p; row 1 the
    between-task variance varsigma2_i = (1/p) sum_j (h_i^j - hbar_i)^2, a curve in mu with noise
    (p - 1) sigma2 / p; row 2 + j is (h_i^j)^2, with noise sigma2.  The task sum is taken once and no p x p
    rotation is formed; the variance takes ``np.var``'s steps from the sum (divide by p, subtract, square,
    sum, divide by p), so it has its bits.  Every reduction runs along the contiguous task axis, so each
    replicate's rows are bit-identical to its ensemble's alone.  The rows are written into ``out`` when it
    is given; no temporary is larger than ``h``.
    """
    p = h.shape[-1]
    signal = np.empty(h.shape[:-2] + (p + 2, h.shape[-2])) if out is None else out
    total = h.sum(axis=-1)
    spread = h - (total / p)[..., None]
    np.square(spread, out=spread)
    np.divide(spread.sum(axis=-1), p, out=signal[..., 1, :])
    del spread
    np.square(total / math.sqrt(p), out=signal[..., 0, :])
    signal[..., 0, :] /= p
    np.square(np.swapaxes(h, -1, -2), out=signal[..., 2:, :])
    noise = np.full(p + 2, float(sigma2))
    noise[:2] = sigma2 / p, (p - 1) * sigma2 / p
    return signal, noise
