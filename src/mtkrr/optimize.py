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
side, so the search follows the scale of the spectrum.  A 64-point log grid
over the bracket locates every candidate basin of every row, but most of it
lies in the two widenings, far from any minimum, so it is scanned in two
passes.  The coarse pass evaluates every ``COARSE_STEP``-th grid point and
both pairs of end points, keeping the bias sum apart from the variance sum.
The bias does not decrease as lam grows and the variance does not increase
(Hoerl and Kennard, Technometrics 1970), so on a coarse cell [t_a, t_b] the
curve is at least B(t_a) + V(t_b).  A cell is open when that bound reaches
the row's best value so far (the limits and the coarse values, inflated by
``BOUND_MARGIN`` for rounding); the fine pass evaluates the grid only from
the row's first open cell to its last, plus ``HALO`` points on each side.
A grid point is a basin only if it and both its neighbours were evaluated.
A pruned cell can hold neither the winner nor a grid value its basin needs,
and every evaluated value has the arithmetic of the full scan, so winners
are what the full 64-point scan finds, bit for bit.  All basins are then
refined together by a safeguarded Newton iteration on dR/dt (a step that
would leave the basin's bracket, or meets unusable curvature, becomes a
bisection).  A basin stops on the relative rule |lam g'(lam)| <= tol g(lam),
which reads the same at every scale of the eigenvalues, the signal and the
noise.  The exact limits lam = 0 and lam = +inf compete with the interior
candidates, so degenerate rows (zero signal, zero noise) resolve to the
right boundary.  g is not convex in general, which is why every basin is
refined rather than just the best grid point.

Each row's arithmetic depends on that row alone: reductions run over the
contiguous eigen-axis, never through BLAS, the grid depends only on the
row's spectrum, and the points evaluated depend only on the row's own
coarse values.  A row therefore gets bit-identical results alone, in any
stack, and in any order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_GRID_POINTS = 64
COARSE_STEP = 8  # the coarse pass takes every 8th grid point, and points 0, 1, 62 and 63
HALO = 2  # grid points evaluated beyond each end of a row's open cells: a basin's neighbours
BOUND_MARGIN = 1e-9  # relative: far above the rounding of the bias and variance sums in a cell bound
# a row whose bias sum at the right end plus variance sum at the left end exceeds this might overflow
# between its coarse points, so every cell of it stays open and the finiteness check sees the whole grid
HEADROOM = np.finfo(float).max / 2
DEFAULT_GRAD_TOL = 1e-10  # relative; a basin can end about tol^2 g^2 / (2 d2g/dt2) above its minimum
DEFAULT_MAX_ITER = 100
# widening of the spectrum bracket on each side: an optimum k decades outside it improves
# on the nearer limit lam = 0 or +inf by only about 10^-k relative
BRACKET_DECADES = 10.0
T_LIMIT = 600.0  # |log lam| cap: lam stays a normal double even one grid step past the bracket
T_STEP_TOL = 1e-12  # a step in log lam this small ends a basin's search
SOURCES = ("zero", "limit", "newton", "grid")  # the candidates of a search, in order of precedence
BLOCK_ELEMENTS = 1 << 15  # doubles per temporary (256 KB): cache-sized, and memory stays flat whatever the stack
_coarse = {*range(0, DEFAULT_GRID_POINTS, COARSE_STEP), 1, DEFAULT_GRID_POINTS - 2, DEFAULT_GRID_POINTS - 1}
COARSE = np.array(sorted(_coarse))  # the grid points of the coarse pass
FINE = np.array([i for i in range(DEFAULT_GRID_POINTS) if i not in _coarse])  # and of the fine pass


@dataclass(frozen=True)
class Search:
    """Results of a stack of oracle searches: one array per field, entry k for row k.

    ``lam`` is 0.0 or inf where a boundary beats every interior stationary
    point (a pure-noise profile, say, is minimized in the full-shrinkage
    limit).  ``grad`` is g'(lam), nan at a boundary; ``iterations`` counts the
    Newton evaluations of the winning basin; ``source`` indexes ``SOURCES``.
    ``open_cells`` counts the grid cells more than two steps from the winner
    whose bias-variance bound lies below value (1 - ``BOUND_MARGIN``): cells
    where the bound alone cannot rule out a lower value than the one found.
    """

    lam: np.ndarray
    value: np.ndarray
    grad: np.ndarray
    iterations: np.ndarray
    source: np.ndarray
    open_cells: np.ndarray

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


def _squares(gamma: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b^2 and sum a^2 of spectra ``gamma`` (..., width) at the points x = n lam of ``x`` (..., points).

    Returns arrays of shape (..., points, width) and (..., points): b = x / (g + x), exactly 1 where g = 0,
    and a = g / (g + x), summed along the eigen-axis.
    """
    x = x[..., None]
    d = gamma[..., None, :] + x
    a = gamma[..., None, :] / d
    bb = np.divide(x, d, out=d)
    bb *= bb
    return bb, _sum(np.multiply(a, a, out=a))


def _scan(gamma, signal, spectrum, x_grid, points, first, stop, bias, squares) -> None:
    """Fill ``bias`` (sum s b^2 of each row) and ``squares`` (sum a^2 of each spectrum) at the grid points of windows.

    Row k is evaluated at the grid points ``points[first[k]:stop[k]]``.  Rows go in groups of one window
    and one block of spectra, sorted by window start; a block's b^2 is formed once, in chunks of points,
    over the union of its windows, and each group takes its slice: one spectrum's b^2 broadcasts over
    the group's rows, several are gathered row by row.  Every temporary stays within ``BLOCK_ELEMENTS``.
    """
    live = np.flatnonzero(stop > first)
    if not live.size:
        return
    per = max(1, BLOCK_ELEMENTS // (len(points) * gamma.shape[1]))  # spectra per block
    chunk = max(1, BLOCK_ELEMENTS // gamma.shape[1])  # points per chunk: all of them unless a block is one spectrum
    base = len(points) + 1
    key = ((spectrum // per) * base + first) * base + stop  # by block, then window start, then window end
    order = live[np.argsort(key[live], kind="stable")]
    ranked = key[order]
    bounds = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1], [True])))
    groups = zip(ranked[bounds[:-1]].tolist(), bounds[:-1].tolist(), bounds[1:].tolist())
    for block, windows in itertools.groupby(groups, key=lambda group: group[0] // (base * base)):
        windows = [(k // base % base, k % base, k0, k1) for k, k0, k1 in windows]
        lo, hi = block * per, min(block * per + per, len(gamma))
        begin, end = windows[0][0], max(window[1] for window in windows)
        for c in range(begin, end, chunk):
            cols = points[c:min(c + chunk, end)]
            bb, squares[lo:hi, cols] = _squares(gamma[lo:hi], x_grid[lo:hi, cols])
            for a, b, k0, k1 in windows:
                a, b = max(a, c), min(b, c + len(cols))
                if a >= b:
                    continue
                part = bb[:, a - c:b - c]
                step = max(1, BLOCK_ELEMENTS // part[0].size)
                for k in range(k0, k1, step):
                    r = order[k:min(k + step, k1)]
                    table = part[0] if hi - lo == 1 else part[spectrum[r] - lo]
                    bias[r[:, None], points[a:b]] = _sum(signal[r][:, None, :] * table)


def _limits(n, gamma, signal, noise, spectrum) -> tuple[np.ndarray, np.ndarray]:
    """The exact risks at lam = 0 and lam = +inf of every row.

    At lam = 0 directions with g = 0 keep their signal as bias and every other direction
    contributes v / n of variance; at lam = +inf all the signal is bias.  Each row's signal on
    the null directions is gathered contiguously, so its sum is the row's own whatever the stack.
    """
    null = gamma == 0
    rank = (gamma.shape[1] - np.count_nonzero(null, axis=1)).astype(float)
    kept = np.zeros(len(signal))
    for j in np.flatnonzero(null.any(axis=1)):
        mine = np.flatnonzero(spectrum == j)
        kept[mine] = _sum(signal[mine[:, None], np.flatnonzero(null[j])])
    return kept / n + noise / n * rank[spectrum], _sum(signal) / n


def _open_coarse_cells(n, bias, var, zero, limit) -> np.ndarray:
    """Which coarse cells of each row can hold a value at or below the row's best value so far.

    ``bias`` and ``var`` are sum s b^2 and v sum a^2 at the ``COARSE`` points.  On the cell [t_a, t_b]
    the curve is at least (bias(t_a) + var(t_b)) / n, because the bias does not decrease and the
    variance does not increase as lam grows; the cell is open when that bound is at most the smallest
    of ``zero``, ``limit`` and the coarse values, inflated by ``BOUND_MARGIN``.  A row that might
    overflow between its coarse points (see ``HEADROOM``) keeps every cell open.
    """
    best = np.minimum(np.minimum(zero, limit), ((bias + var) / n).min(axis=1))
    open_ = (bias[:, :-1] + var[:, 1:]) / n <= best[:, None] * (1 + BOUND_MARGIN)
    open_[~(bias[:, -1] + var[:, 0] <= HEADROOM)] = True
    return open_


def _check_finite(vals, lo, hi, zero, limit) -> None:
    """Raise ``FloatingPointError`` naming the first row with a value that is not finite where it was evaluated.

    A row is evaluated at the ``COARSE`` points and from ``lo`` to ``hi``.  A nan or infinite input shows
    in a limit or at every point, and a row that might overflow between its coarse points is evaluated
    everywhere, so the check sees every row whose full 64-point scan would not be finite.
    """
    points = np.arange(DEFAULT_GRID_POINTS)
    evaluated = (lo[:, None] <= points) & (points <= hi[:, None])
    evaluated[:, COARSE] = True
    finite = (np.isfinite(vals) | ~evaluated).all(axis=1) & np.isfinite(zero) & np.isfinite(limit)
    if not finite.all():
        raise FloatingPointError(f"risk evaluation is not finite on row {int(np.flatnonzero(~finite)[0])}")


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

    # the grid scan: bias sums sum s b^2 per row and variance sums sum a^2 per spectrum, nan where not evaluated.
    # Every evaluated value is (sum s b^2 + v sum a^2) / n, reduced along the eigen-axis, whatever the pass.
    # The bias sums are held where the values go, with +inf beyond both grid ends for the basin search.
    x_grid = n * np.exp(t_grid)
    padded = np.full((rows, DEFAULT_GRID_POINTS + 2), np.inf)
    bias = vals = padded[:, 1:-1]
    bias[...] = np.nan
    squares = np.full((len(gamma), DEFAULT_GRID_POINTS), np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # a row that is not finite is reported below
        everywhere = np.zeros(rows, dtype=np.intp)
        _scan(gamma, signal, spectrum, x_grid, COARSE, everywhere, everywhere + len(COARSE), bias, squares)
        zero, limit = _limits(n, gamma, signal, noise, spectrum)
        open_ = _open_coarse_cells(n, bias[:, COARSE], noise[:, None] * squares[:, COARSE][spectrum], zero, limit)
        # each row's window: its first open coarse cell to its last, widened by the halo; lo > hi if none is open
        lo = np.maximum(COARSE[open_.argmax(axis=1)] - HALO, 0)
        hi = np.minimum(COARSE[open_.shape[1] - open_[:, ::-1].argmax(axis=1)] + HALO, DEFAULT_GRID_POINTS - 1)
        hi[~open_.any(axis=1)] = -1
        _scan(gamma, signal, spectrum, x_grid, FINE, np.searchsorted(FINE, lo), np.searchsorted(FINE, hi, side="right"),
              bias, squares)
        # in row blocks: each cell's bound B(t_i) + V(t_i+1), nan where an end was not evaluated, then the values
        # over the bias sums.  Only a cell whose bound is below every candidate but Newton's can end up open.
        grid_min, candidates = np.empty(rows), []
        step = BLOCK_ELEMENTS // DEFAULT_GRID_POINTS
        for k in range(0, rows, step):
            r = slice(k, k + step)
            var = noise[r, None] * (squares if len(gamma) == 1 else squares[spectrum[r]])  # v sum a^2
            bound = np.add(bias[r, :-1], var[:, 1:])
            bound /= n
            np.add(bias[r], var, out=vals[r])
            vals[r] /= n
            grid_min[r] = np.fmin.reduce(vals[r], axis=1)
            upper = np.minimum(np.minimum(zero[r], limit[r]), grid_min[r]) * (1 - BOUND_MARGIN)
            row, cell = np.nonzero(bound < upper[:, None])
            candidates.append((row + k, cell, bound[row, cell]))
            del var, bound
    row, cell, row_bound = (np.concatenate(part) for part in zip(*candidates))
    _check_finite(vals, lo, hi, zero, limit)
    del candidates, x_grid, squares, everywhere, open_, lo, hi  # the scan's arrays go before Newton's

    # every grid-local minimum among the evaluated points (nan compares false) marks a basin worth refining;
    # the grid argmin is one of them unless a limit wins the row.  Newton starts at the vertex of the parabola
    # through the basin's three grid values.
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

    # per row: the first best basin; then zero, limit, newton and grid in that order of precedence.  A row
    # without a basin among its evaluated points has no grid value at or below its best coarse candidate
    # outside pruned cells, so one of its limits wins it, as in the full scan.
    t, g, newton, iterations = np.zeros(rows), np.zeros(rows), np.full(rows, math.inf), np.zeros(rows, dtype=np.intp)
    order = np.lexsort((np.arange(len(basin_row)), r_end, basin_row))
    first = np.ones(len(order), dtype=bool)
    first[1:] = basin_row[order][1:] != basin_row[order][:-1]
    head = order[first]
    t[basin_row[head]], g[basin_row[head]], newton[basin_row[head]] = t_end[head], g_end[head], r_end[head]
    iterations[basin_row[head]] = iters[head]
    candidates = np.array((zero, limit, newton, grid_min))  # in the order of SOURCES
    source = candidates.argmin(axis=0)  # the first of equal candidates wins
    grid = np.flatnonzero(source == 3)
    # the winner's position in grid steps: -inf for lam = 0, +inf for lam = +inf
    at = np.where(source == 0, -math.inf, math.inf)
    found = np.flatnonzero(source == 2)
    at[found] = (t[found] - t_lo[spectrum[found]]) / delta[spectrum[found]]
    if grid.size:  # rare, so the common case skips this evaluation
        at[grid] = np.nanargmin(vals[grid], axis=1)
        t[grid] = t_grid[spectrum[grid], at[grid].astype(np.intp)]
        g[grid] = _curve(n, gamma, signal, noise, spectrum, grid, n * np.exp(t[grid]))[1]
    lam, grad = np.where(source == 0, 0.0, math.inf), np.full(rows, math.nan)
    inner = np.flatnonzero(source >= 2)
    lam[inner] = [math.exp(x) for x in t[inner].tolist()]  # not np.exp, which may differ in the last bit
    grad[inner] = g[inner] / lam[inner]
    value = candidates[source, np.arange(rows)]
    # open cells: a cell [t_i, t_i+1] more than two steps from the winner whose bound B(t_i) + V(t_i+1) lies
    # below the value.  A cell with an end not evaluated lies in a pruned coarse cell, above the value: closed.
    open_ = (row_bound < value[row] * (1 - BOUND_MARGIN)) & ((cell + 1 < at[row] - 2) | (cell > at[row] + 2))
    return Search(lam, value, grad, np.where(source == 2, iterations, 0), source, np.bincount(row[open_], minlength=rows))
