"""One-dimensional minimization of fixed-design ridge risks.

Every oracle computed in this package reduces to minimizing, over a single
regularization parameter ``lam >= 0``, a function of the form

    g(lam) = n lam^2 sum_i s_i / (g_i + n lam)^2            (bias)
           + (v / n) sum_i (g_i / (g_i + n lam))^2          (variance)

where ``g_i`` are the (nonnegative) kernel eigenvalues, ``s_i`` the squared
signal coefficients along the corresponding eigendirections, and ``v`` the
effective noise variance.  The multi-task mean part, the multi-task variance
part, each single-task risk, and the polynomial-decay template risk are all
instances of this family; they differ only in ``s`` and ``v``.

``minimize_profiles`` minimizes a stack of such curves in one pass and
returns one ``Search``: one array per field, entry k for row k.  It works in
t = log lam.  Each spectrum's bracket is [g_min+/n, g_max/n] (smallest
positive and largest eigenvalue) widened by ``BRACKET_DECADES`` on each
side, so the search follows the scale of the spectrum.  A log grid over the
bracket locates every candidate basin of every row; all basins are then
refined together by a safeguarded Newton iteration on dR/dt (a step that
would leave the basin's bracket, or meets unusable curvature, becomes a
bisection).  A basin stops on the relative rule |lam g'(lam)| <= tol g(lam),
which reads the same at every scale of the eigenvalues, the signal and the
noise.  The exact limits lam = 0 and lam = +inf compete with the interior
candidates, so degenerate rows (zero signal, zero noise) resolve to the
right boundary.  g is not convex in general, which is why every basin is
refined rather than just the best grid point.

Each row's arithmetic depends on that row alone: reductions run over the
contiguous eigen-axis, never through BLAS, and the grid depends only on the
row's spectrum.  A row therefore gets bit-identical results alone, in any
stack, and in any order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_POINTS = 64
DEFAULT_GRAD_TOL = 1e-10  # relative; a basin can end about tol^2 g^2 / (2 d2g/dt2) above its minimum
DEFAULT_MAX_ITER = 100
# widening of the spectrum bracket on each side: an optimum k decades outside it improves
# on the nearer limit lam = 0 or +inf by only about 10^-k relative
BRACKET_DECADES = 10.0
T_LIMIT = 600.0  # |log lam| cap: lam stays a normal double even one grid step past the bracket
T_STEP_TOL = 1e-12  # a step in log lam this small ends a basin's search
SOURCES = ("zero", "limit", "newton", "grid")  # the candidates of a search, in order of precedence
BLOCK_ELEMENTS = 1 << 15  # doubles per temporary (256 KB): cache-sized, and memory stays flat whatever the stack


@dataclass(frozen=True)
class RidgeRiskProfile:
    """Coefficients (g_i, s_i, v, n) of a one-parameter ridge risk curve."""

    n: int
    gamma: np.ndarray
    signal: np.ndarray
    noise: float

    def __post_init__(self):
        gamma = np.asarray(self.gamma, dtype=float)
        signal = np.asarray(self.signal, dtype=float)
        if gamma.ndim != 1 or signal.shape != gamma.shape:
            raise ValueError("gamma and signal must be 1-D arrays of equal length")
        if self.n <= 0:
            raise ValueError("n must be positive")
        if np.any(gamma < 0) or np.any(signal < 0) or self.noise < 0:
            raise ValueError("eigenvalues, signal energies and noise must be nonnegative")
        gamma = gamma.copy()
        signal = signal.copy()
        gamma.flags.writeable = False
        signal.flags.writeable = False
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "signal", signal)

    def parts(self, lam: float) -> tuple[float, float]:
        """Return (bias, variance) at ``lam``; lam may be 0 or +inf.

        At lam = 0 the smoother acts as the orthogonal projector onto the
        range of the kernel: directions with g_i = 0 keep their full signal
        energy as bias and contribute no variance.
        """
        n = self.n
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        if math.isinf(lam):
            return float(self.signal.sum() / n), 0.0
        if lam == 0.0:
            null = self.gamma == 0.0
            bias = float(self.signal[null].sum() / n)
            var = self.noise / n * float(np.count_nonzero(~null))
            return bias, var
        d = self.gamma + n * lam
        bias = n * lam * lam * float(np.sum(self.signal / d**2))
        var = self.noise / n * float(np.sum((self.gamma / d) ** 2))
        return bias, var

    def value(self, lam: float) -> float:
        bias, var = self.parts(lam)
        return bias + var


@dataclass(frozen=True)
class Search:
    """Results of a stack of oracle searches: one array per field, entry k for row k.

    ``lam`` is 0.0 or inf where a boundary beats every interior stationary
    point (a pure-noise profile, say, is minimized in the full-shrinkage
    limit).  ``grad`` is g'(lam), nan at a boundary; ``iterations`` counts the
    Newton evaluations of the winning basin; ``source`` indexes ``SOURCES``.
    """

    lam: np.ndarray
    value: np.ndarray
    grad: np.ndarray
    iterations: np.ndarray
    source: np.ndarray

    @property
    def stationarity(self) -> np.ndarray:
        """|lam g'(lam)| / g(lam), the quantity the stopping rule bounds; nan at a boundary."""
        with np.errstate(all="ignore"):  # boundary rows: nan grad, inf lam, or zero value
            ratio = np.abs(self.lam * self.grad) / self.value
        return np.where(np.isfinite(self.grad) & (self.value > 0), ratio, np.nan)


def _curve(n: int, gamma, signal, noise, spectrum, rows, x):
    """R, dR/dt and d2R/dt2 (t = log lam) of stack rows ``rows`` at x = n lam, one point per row.

    With a = g/(g + x) and b = x/(g + x):  R = (sum s b^2 + v sum a^2)/n,
    dR/dt = (2/n) sum ab (s b - v a), and
    d2R/dt2 = (2/n) sum [ab (a - b)(s b - v a) + (ab)^2 (s + v)].
    R is computed exactly as in the grid scan of ``minimize_profiles``.
    """
    out = np.empty((3, len(rows)))
    block = max(1, BLOCK_ELEMENTS // (4 * gamma.shape[1]))  # the buffer of the four summands is one block
    for lo in range(0, len(rows), block):
        r = rows[lo:lo + block]
        g, s, v = gamma[spectrum[r]], signal[r], noise[r, None]
        xx = x[lo:lo + block, None]
        terms = np.empty((4,) + g.shape)  # the four summands, reduced in one call
        d = g + xx
        a = g / d
        b = np.divide(xx, d, out=d)
        ab = a * b
        np.multiply(s, np.multiply(b, b, out=terms[0]), out=terms[0])  # s b^2
        np.multiply(a, a, out=terms[1])  # a^2
        c = s * b
        c -= v * a
        np.multiply(ab, c, out=terms[2])  # ab (s b - v a)
        np.subtract(a, b, out=a)
        a *= terms[2]  # ab (a - b)(s b - v a)
        ab *= ab
        ab *= s + v  # (ab)^2 (s + v)
        np.add(a, ab, out=terms[3])
        sums = _sum(terms)
        out[0, lo:lo + block] = (sums[0] + v[:, 0] * sums[1]) / n
        out[1:, lo:lo + block] = 2.0 / n * sums[2:]
    return out


def _sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last (contiguous) axis: numpy's pairwise summation, row by row."""
    return np.add.reduce(values, axis=-1)


def _newton(n, gamma, signal, noise, spectrum, rows, a, x, b):
    """Safeguarded Newton on dR/dt for every basin (row, bracket [a, b], start x) at once.

    Returns the final t, R and dR/dt of each basin and its iteration count.
    A basin stops when |dR/dt| <= ``DEFAULT_GRAD_TOL`` R, when its step
    shrinks below ``T_STEP_TOL``, or after ``DEFAULT_MAX_ITER`` evaluations.
    """
    m = len(rows)
    t_end, r_end, g_end = np.empty(m), np.empty(m), np.empty(m)
    iterations = np.full(m, DEFAULT_MAX_ITER)
    live = np.arange(m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for it in range(1, DEFAULT_MAX_ITER + 1):
            risk, g1, g2 = _curve(n, gamma, signal, noise, spectrum, rows[live], n * np.exp(x))
            up = g1 > 0
            a, b = np.where(up, a, x), np.where(up, x, b)
            # x is now an end of [a, b], so a step that is uphill (g2 <= 0) or too long falls outside
            step = x - g1 / g2
            step = np.where((a < step) & (step < b), step, 0.5 * (a + b))
            done = (np.abs(g1) <= DEFAULT_GRAD_TOL * risk) | (np.abs(step - x) <= T_STEP_TOL)
            if it == DEFAULT_MAX_ITER:
                done[:] = True
            if done.any():
                idx = live[done]
                t_end[idx], r_end[idx], g_end[idx], iterations[idx] = x[done], risk[done], g1[done], it
                keep = ~done
                if not keep.any():
                    break
                live, step, a, b = live[keep], step[keep], a[keep], b[keep]
            x = step
    return t_end, r_end, g_end, iterations


def spectrum_bracket(n: int, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The search bracket [t_lo, t_hi] in t = log lam of each spectrum (row of ``gamma``), capped at ``T_LIMIT``."""
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    gmax = gamma.max(axis=1)
    gmin = np.where(gamma > 0, gamma, np.inf).min(axis=1)
    flat = gmax == 0  # no positive eigenvalue: the curve is constant in lam
    gmin[flat] = gmax[flat] = n
    widen = BRACKET_DECADES * math.log(10.0)
    t_lo, t_hi = np.log(gmin / n) - widen, np.log(gmax / n) + widen
    return np.maximum(t_lo, -T_LIMIT), np.minimum(t_hi, T_LIMIT)


def minimize_profiles(
    n: int,
    gamma: np.ndarray,
    signal: np.ndarray,
    noise: np.ndarray,
    spectrum: np.ndarray | None = None,
) -> Search:
    """Minimize a stack of ridge risk curves over lam in [0, +inf]; row k's result is entry k of each column.

    Row k has signal ``signal[k]`` (rows x width), noise ``noise[k]`` and the
    eigenvalues ``gamma[spectrum[k]]``: ``gamma`` holds the distinct spectra
    (k x width, or one 1-D spectrum) and ``spectrum`` maps rows to them
    (default: every row on spectrum 0).  A basin stops when |lam g'| <= ``DEFAULT_GRAD_TOL`` g.
    """
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    signal = np.asarray(signal, dtype=float)
    noise = np.asarray(noise, dtype=float)
    rows = len(signal)
    spectrum = np.zeros(rows, dtype=np.intp) if spectrum is None else np.asarray(spectrum, dtype=np.intp)
    if signal.ndim != 2 or signal.shape[1] != gamma.shape[1] or noise.shape != (rows,) or spectrum.shape != (rows,):
        raise ValueError("need signal rows x width, noise and spectrum of length rows, gamma spectra x width")
    if rows and not 0 <= spectrum.min() <= spectrum.max() < len(gamma):
        raise ValueError(f"spectrum indices must lie in [0, {len(gamma)})")
    if n <= 0:
        raise ValueError("n must be positive")
    if gamma.min() < 0 or signal.min() < 0 or noise.min() < 0:
        raise ValueError("eigenvalues, signal energies and noise must be nonnegative")

    t_lo, t_hi = spectrum_bracket(n, gamma)
    delta = (t_hi - t_lo) / (DEFAULT_GRID_POINTS - 1)
    t_grid = t_lo[:, None] + np.arange(DEFAULT_GRID_POINTS) * delta[:, None]

    # grid scan and boundary values, one spectrum at a time: b^2 and sum a^2 are shared by its
    # rows; grid points and rows go in blocks that keep every temporary cache-sized
    # +inf beyond both grid ends, for the basin search below
    padded = np.full((rows, DEFAULT_GRID_POINTS + 2), np.inf)
    vals = padded[:, 1:-1]
    zero, limit = np.empty(rows), np.empty(rows)
    chunk = max(1, BLOCK_ELEMENTS // gamma.shape[1])
    for j, g in enumerate(gamma):
        mine = np.flatnonzero(spectrum == j) if len(gamma) > 1 else np.arange(rows)
        for c in range(0, DEFAULT_GRID_POINTS, chunk):
            x = n * np.exp(t_grid[j, c:c + chunk])[:, None]
            d = g + x
            a = g / d
            bb = np.divide(x, d, out=d)  # b = x / d, exactly 1 where g = 0
            bb *= bb
            aa = _sum(np.multiply(a, a, out=a))
            block = max(1, BLOCK_ELEMENTS // bb.size)
            for k in range(0, len(mine), block):
                r = mine[k:k + block]
                vals[r, c:c + chunk] = (_sum(signal[r][:, None, :] * bb) + noise[r, None] * aa) / n
        null = g == 0
        rank = float(len(g) - np.count_nonzero(null))
        for k in range(0, len(mine), chunk):
            r = mine[k:k + chunk]
            s = signal[r]
            zero[r] = _sum(s[:, null]) / n + noise[r] / n * rank
            limit[r] = _sum(s) / n
    finite = np.isfinite(vals).all(axis=1) & np.isfinite(zero) & np.isfinite(limit)
    if not finite.all():
        raise FloatingPointError(f"risk evaluation is not finite on row {int(np.flatnonzero(~finite)[0])}")

    # every grid-local minimum marks a basin worth refining; the grid argmin is one of them.
    # Newton starts at the vertex of the parabola through the basin's three grid values.
    left, mid, right = padded[:, :-2], vals, padded[:, 2:]
    basin_row, basin_at = np.nonzero((mid <= left) & (mid <= right))
    f0, f1, f2 = left[basin_row, basin_at], mid[basin_row, basin_at], right[basin_row, basin_at]
    width = delta[spectrum[basin_row]]
    centre = t_grid[spectrum[basin_row], basin_at]
    curvature = f0 - 2.0 * f1 + f2  # +inf at a grid end: that basin starts at the end point
    curved = (curvature > 0) & (curvature < np.inf)
    shift = np.where(curved, 0.5 * (f0 - f2) / np.where(curved, curvature, 1.0), 0.0)
    t_end, r_end, g_end, iters = _newton(n, gamma, signal, noise, spectrum, basin_row,
                                         centre - width, centre + shift * width, centre + width)

    # per row: the first best basin; then zero, limit, newton and grid in that order of precedence
    order = np.lexsort((np.arange(len(basin_row)), r_end, basin_row))
    first = order[np.concatenate(([True], basin_row[order][1:] != basin_row[order][:-1]))]
    candidates = np.array((zero, limit, r_end[first], vals.min(axis=1)))  # in the order of SOURCES
    source = candidates.argmin(axis=0)  # the first of equal candidates wins
    t, g = t_end[first], g_end[first]
    grid = np.flatnonzero(source == 3)
    if grid.size:  # rare, so the common case skips this evaluation
        t[grid] = t_grid[spectrum[grid], np.argmin(vals[grid], axis=1)]
        g[grid] = _curve(n, gamma, signal, noise, spectrum, grid, n * np.exp(t[grid]))[1]
    lam, grad = np.where(source == 0, 0.0, math.inf), np.full(rows, math.nan)
    inner = np.flatnonzero(source >= 2)
    lam[inner] = [math.exp(x) for x in t[inner].tolist()]  # not np.exp, which may differ in the last bit
    grad[inner] = g[inner] / lam[inner]
    return Search(lam, candidates[source, np.arange(rows)], grad, np.where(source == 2, iters[first], 0), source)
