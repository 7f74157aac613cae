"""One-dimensional minimization of fixed-design ridge risks.

Every oracle computed in this package reduces to minimizing, over a single
regularization parameter ``lam >= 0``, a function of the form

    g(lam) = (1/n) sum_i s_i b_i^2 + (v/n) sum_i a_i^2          (bias + variance)

with b_i = n lam / (g_i + n lam) and a_i = g_i / (g_i + n lam), where ``g_i``
are the (nonnegative) kernel eigenvalues, ``s_i`` the squared signal
coefficients along the corresponding eigendirections, and ``v`` the effective
noise variance.  The multi-task mean part, the multi-task variance part, each
single-task risk, and the polynomial-decay template risk are all instances
of this family; they differ only in ``s`` and ``v``.

``minimize_profiles`` minimizes a stack of such curves in one pass and
returns one ``Search``: one array per field, entry k for row k.  It works in
t = log lam.  Each spectrum's bracket is [g_min+/n, g_max/n] (smallest
positive and largest eigenvalue) widened by ``BRACKET_DECADES`` on each
side, so the search follows the scale of the spectrum.

A 64-point log grid over the bracket locates every candidate basin of every
row.  Most of it lies in the two widenings, far from any minimum, so it is
scanned in two passes that keep the bias sum apart from the variance sum.
The bias does not decrease as lam grows and the variance does not increase
(Hoerl and Kennard, Technometrics 1970), so on a cell [t_a, t_b] the curve
is at least B(t_a) + V(t_b).  The first pass evaluates only the ``COARSE``
points 8, 16, ..., 56, the ends of eight cells: the first cell starts at
lam = 0 and the last ends at lam = +inf, with the exact limits as their ends
(the bias of the projection at lam = 0, and no variance at +inf).  A cell is
open when its bound reaches the row's best value so far (the limits and
every value evaluated, inflated by ``BOUND_MARGIN`` for rounding).  The
second pass evaluates the rest of the grid (``FINE``) only from the row's
first open cell to its last, plus ``HALO`` points on each side.  A grid point
is a basin only if it and both its neighbours were evaluated.  A pruned cell
can hold neither the winner nor a grid value its basin needs, and every
evaluated value has the arithmetic of the full scan, whichever the pass, so
winners are what the full 64-point scan finds, bit for bit.

All basins are then refined together by a safeguarded Newton iteration on
dR/dt (a step that would leave the basin's bracket, or meets unusable
curvature, becomes a bisection).  Each basin starts at the minimum of its
own bias-variance model (``_model_start``), or where that model fails at the
vertex of the parabola through its three grid values.

On rows at least ``SPLIT_WIDTH`` wide, the grid scan and Newton sum only the
head of each spectrum entry by entry and the rest from moments.  An entry
with g << x = n lam adds power series in u = g/x to R, dR/dt and d2R/dt2.
Past ``HEAD_MIN`` = 64 the eigen-axis is cut at the powers of two into
segments [64, 128), [128, 256), ..., [2^j, width), and one table per search
(``_tails``) holds each segment's moments, scaled by c, its first and
largest entry: sum s (g/c)^k (k <= K + 1) of each (curve, spectrum) pair and
sum (g/c)^k (k <= K + 3) of each spectrum, K = ``TAIL_ORDER`` = 5.  At a
point x the head is the shortest power of two from 64 that holds every entry
g > U_C x (``TAIL_RATIO``, U_C = 1e-4), never padded, so u <= U_C on the
tail, which is whole segments.  The table holds the data alone: ``_runs``
forms each point's head, its factors (c/x)^k and its series where the point
is evaluated, at any x.  The grid scan sums each point's head exactly and
adds the series of its tail segments: sum (-1)^k (k + 1) (c/x)^k
sum s (g/c)^k to the bias sum, and sum (-1)^k (k - 1) (c/x)^k sum (g/c)^k
(k >= 2) to the variance sum.  Newton fixes each basin's head once, at its
bracket's low end x_a, below which it never goes; each round adds one Horner
pass in w = x_a/x over the segments' moments past the head, scaled by
(c/x_a)^k.  Rows narrower than the gate, points and basins with no head
shorter than their row, and spectra not in descending order (``spectral``
sorts its eigenvalues) keep the full-width arithmetic bit for bit.  The gate
is the width alone: a gate that counted the stack's rows or basins would
give a row other bits alone than in a stack.

Every series alternates with terms falling by a factor of at most 6u, so its
remainder is below its first dropped term: 8 u^(K+2), at most 8e-28
relative, of the scan's bias and variance series, and at most
196 u^(K+1), about 2e-22, of Newton's.  What is left is rounding.  A sum of
positive terms in which no term meets more than d additions errs by at most
d u relative, u = eps/2 (Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 4).  A pairwise sum over m entries (``_sum``) thus
errs by about log2(m) u.  Newton's sums and the scan's variance sums on wide
rows err by at most (log2 m + 7) u relative (the head, and the pairwise sum
of the tail's series terms over segments of fewer than m/2 entries) plus the
series' remainder, against (log2 m + 4) u at full width (each term has four
roundings).  The scan's bias sums and the table's signal moments are dot
products (``_dot``): numpy's sum-of-products loop runs each chunk of at most
C = ``DOT_CHUNK`` = 1024 entries in a fixed number of SIMD lanes, each lane
in order, so a term meets at most C - 1 additions there (all of them where
numpy has no SIMD), and the pairwise sum of the ceil(m/C) chunk sums adds at
most log2 ceil(m/C) + 26 more (numpy's pairwise sum keeps eight accumulators
over blocks of 128).  With its product, a dot of positive terms errs by at
most (C + 28 + log2 ceil(m/C)) u relative to the exact sum of its rounded
products, whatever the width.  With the four roundings of each b^2 term, the
tail's series and the assembly of the value, every evaluated value, grid
point or Newton's, errs by at most ``ROUNDING`` = (C + 64) u, about 1.2e-13
relative, at any width below 2^40.  So values on wide rows move from their
full-width ones by up to that, and the grid values of every row move in
their last bits from a pairwise scan's, so basins, starts and open cells may
move where two values lie within rounding of each other.

A basin stops on the relative rule |lam g'(lam)| <= tol g(lam), which reads
the same at every scale of the eigenvalues, the signal and the noise.  With
t = log lam the rule is |dg/dt| <= tol g, so a basin ends at most about
tol^2 g^2 / (2 d2g/dt2) above its minimum: a relative tolerance of
tol^2 g / (2 d2g/dt2), far below rounding (about 1e-20) on a curve of
ordinary curvature, and larger only where the curve is nearly flat in t.
Two starts of one basin end within that tolerance of each other, so a grid
point can win a row from one start and Newton from the other.  The exact
limits lam = 0 and lam = +inf compete with the interior candidates, so
degenerate rows (zero signal, zero noise) resolve to the right boundary.  An
interior candidate, Newton's or the grid's, takes a row from the limits only
if it is lower than the better limit by more than ``ROUNDING`` relative: the
limits are exact, and a basin that ends within rounding of one would
otherwise win or lose its row on its last bits.  g is not convex in general,
which is why every basin is refined rather than just the best grid point.

Each row's arithmetic depends on that row alone: reductions run over the
contiguous eigen-axis, pairwise (``_sum``) or as numpy's own dot loop
(``_dot``), never through BLAS, whose ``ddot`` and ``dgemm`` (behind
``np.dot``, ``matmul``, ``vecdot``, ``tensordot`` and ``einsum`` with
``optimize``) give bits that depend on the BLAS build, its kernel dispatch
and its threads; the grid depends only on the row's spectrum, and the points
evaluated depend only on the row's own values and its width.  A row
therefore gets bit-identical results alone, in any stack, and in any order.
Rows that the caller names with one signal row (``curve``) and one spectrum
differ only in their noise, so their bias sums are formed once, over the
union of their windows; each row then keeps only its own window's values,
and gets the bits and basins it gets alone.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_GRID_POINTS = 64
COARSE_STEP = 8  # the first pass takes the interior grid points 8, 16, ..., 56
HALO = 2  # grid points evaluated beyond each end of a row's open cells: a basin's neighbours
SPLIT_WIDTH = 1024  # rows this wide split the scan and Newton into a head and a tail (``_tails``, module docstring)
BOUND_MARGIN = 1e-9  # relative: far above the rounding of the bias and variance sums in a cell bound
# a row whose signal sum plus lam = 0 variance sum (each at least its sum at every grid point) exceeds this
# might overflow between its evaluated points, so every cell of it stays open and the finiteness check sees
# the whole grid
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
# on rows at least SPLIT_WIDTH wide, the scan at a grid point x and Newton in a basin above x_a sum the tail,
# the entries past a head that holds every g > TAIL_RATIO x (or x_a), from moments
TAIL_RATIO = 1e-4  # U_C: u = g / x stays at most this on the tail at the grid point, and wherever Newton goes
TAIL_ORDER = 5  # K: the moments sum s g^k for k <= K + 1 and sum g^k for k <= K + 3
HEAD_MIN = 64  # the shortest head; every head is a power of two long, or the whole row
DOT_CHUNK = 1024  # entries per sum of numpy's sum-of-products loop in ``_dot``; the chunks' sums are added pairwise
# relative: above the rounding of every evaluated value, grid or Newton, at any width (module docstring)
ROUNDING = (DOT_CHUNK + 64) * np.finfo(float).eps / 2
_GRID = np.arange(DEFAULT_GRID_POINTS)
# the five grid points around each grid point that its basin's start model reads (clipped to the grid), and
# whether all five lie on the grid
_FIVE = np.clip(_GRID + np.arange(-HALO, HALO + 1)[:, None], 0, DEFAULT_GRID_POINTS - 1)
_INSIDE = (_GRID >= HALO) & (_GRID < DEFAULT_GRID_POINTS - HALO)
COARSE = _GRID[COARSE_STEP::COARSE_STEP]  # the grid points of the first pass
FINE = np.array([i for i in _GRID.tolist() if i % COARSE_STEP or not i])  # of the second: the rest


def _series(p: int, m: int) -> np.ndarray:
    """The coefficients of u^k, k = 0 .. K + 3, of the Taylor series of u^p (1 + u)^-m."""
    return np.array([(-1) ** (k - p) * math.comb(k - p + m - 1, m - 1) if k >= p else 0
                     for k in range(TAIL_ORDER + 4)], dtype=float)


# the summands of n R, n/2 dR/dt and n/2 d2R/dt2 as power series in u = g / x: b^2 = (1+u)^-2, a^2 = u^2 (1+u)^-2,
# ab (s b - v a) = (s u - v u^2)(1+u)^-3 and ab (a - b)(s b - v a) + (ab)^2 (s + v) = (s (2u^2 - u) + v (2u^2 - u^3))
# (1+u)^-4.  Column k multiplies s u^k (the signal series, cut after k = K + 1) and v u^k (the noise series).
_SIGNAL_SERIES = np.array([_series(0, 2), _series(1, 3), 2.0 * _series(2, 4) - _series(1, 4)])
_SIGNAL_SERIES[:, TAIL_ORDER + 2:] = 0.0
_NOISE_SERIES = np.array([_series(2, 2), -_series(2, 3), 2.0 * _series(2, 4) - _series(3, 4)])
_POWERS = np.arange(TAIL_ORDER + 4)  # the powers k of u in the series


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


def _curve(n: int, gamma, signal, noise, spectrum, curve, rows, x):
    """R, dR/dt and d2R/dt2 (t = log lam) of stack rows ``rows`` at x = n lam, one point per row.

    With a = g/(g + x) and b = x/(g + x):  R = (sum s b^2 + v sum a^2)/n,
    dR/dt = (2/n) sum ab (s b - v a), and
    d2R/dt2 = (2/n) sum [ab (a - b)(s b - v a) + (ab)^2 (s + v)].
    R has the summands of the grid scan of ``minimize_profiles``, summed
    pairwise over the columns given (Newton on wide rows passes only the head
    of each spectrum, ``_split``).  The scan forms its bias sum as a dot
    product (``_dot``), so over the whole eigen-axis R is the grid scan's to
    ``ROUNDING``, not bit for bit.
    """
    out = np.empty((3, len(rows)))
    block = max(1, BLOCK_ELEMENTS // (4 * gamma.shape[1]))  # the buffer of the four summands is one block
    for lo in range(0, len(rows), block):
        r = rows[lo:lo + block]
        g, s, v = gamma[spectrum[r]], signal[curve[r]], noise[r, None]
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


def _dot(signal: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_j s[r, j] t[p, j] of each row r and point p: rows x points.

    ``table`` is shared by the rows (points x m) or gathered row by row (rows x points x m).  numpy's own C
    sum-of-products loops (``np.einsum``, literal subscripts, no ``optimize``) form each sum over the
    eigen-axis in a fixed order of SIMD lanes, never through BLAS, so its bits depend on that row and
    point alone, whatever the stack, the table's form or the view.  The axis is summed in chunks of at
    most ``DOT_CHUNK`` entries, whose sums ``_sum`` adds pairwise, so the rounding does not grow with the
    width (the module docstring).
    """
    def sums(signal, table):
        return np.einsum("rj,pj->rp", signal, table) if table.ndim == 2 else np.einsum("rj,rpj->rp", signal, table)

    width = signal.shape[-1]
    if width <= DOT_CHUNK:
        return sums(signal, table)
    out = np.empty((len(signal), table.shape[-2], -(-width // DOT_CHUNK)))  # rows x points x chunks
    for c, lo in enumerate(range(0, width, DOT_CHUNK)):
        out[..., c] = sums(signal[:, lo:lo + DOT_CHUNK], table[..., lo:lo + DOT_CHUNK])
    return _sum(out)


class _Tails(NamedTuple):
    """The tail moments of a search on wide rows (``_tails``): what ``_runs`` and ``_split`` read past a head.

    Segment i is [``bounds[i]``, ``bounds[i + 1]``), and c = ``scale[j, i]`` is its first, largest entry on
    spectrum j.  ``signal[e, k, i]`` is sum s (g/c)^k (k <= K + 1) over segment i of entry e, a (curve,
    spectrum) pair of the stack, and ``moments[j, k, i]`` is sum (g/c)^k (k <= K + 3) of spectrum j; stack row
    r reads entry ``entry[r]``.  Spectra not in ``descending`` order have no moments.  The table holds the
    data alone: ``_runs`` forms a point's head and series wherever it is evaluated, on the grid or off it.
    """

    bounds: np.ndarray
    descending: np.ndarray
    scale: np.ndarray
    signal: np.ndarray
    moments: np.ndarray
    entry: np.ndarray


def _tails(gamma, signal, spectrum, curve, entry) -> _Tails | None:
    """The tail-moment table of a search, or None on rows narrower than ``SPLIT_WIDTH``.

    Entry e is the signal row ``curve[e]`` on the spectrum ``spectrum[e]``, and stack row r reads entry
    ``entry[r]``.  The eigen-axis past ``HEAD_MIN`` is cut at the powers of two into segments [64, 128),
    [128, 256), ..., [2^j, width), so that a head a power of two long leaves a tail of whole segments.  Each
    segment's entries are scaled by its first, c, so that g / c <= 1 and no power overflows (a segment of
    zeros keeps its powers 0^k).  Each sum (g/c)^k is summed pairwise by ``_sum`` over its segment, once per
    spectrum, and each sum s (g/c)^k is a dot product (``_dot``) of the signal with those powers, in row
    blocks within ``BLOCK_ELEMENTS``.
    """
    width = gamma.shape[1]
    bounds = np.array([HEAD_MIN << k for k in range(width.bit_length()) if HEAD_MIN << k < width] + [width])
    if width < SPLIT_WIDTH or len(bounds) == 1:
        return None
    segments = list(zip((bounds[:-1] - HEAD_MIN).tolist(), (bounds[1:] - HEAD_MIN).tolist()))
    descending = (gamma[:, 1:] <= gamma[:, :-1]).all(axis=1)
    scale = gamma[:, bounds[:-1]]
    signal_moments = np.zeros((len(curve), TAIL_ORDER + 2, len(segments)))
    moments = np.zeros((len(gamma), TAIL_ORDER + 4, len(segments)))
    used = np.bincount(spectrum, minlength=len(gamma)) > 0  # not np.unique, which loads numpy.ma on its first call
    for j in np.flatnonzero(used & descending).tolist():
        g = gamma[j, HEAD_MIN:] / np.repeat(np.where(scale[j] > 0, scale[j], 1.0), np.diff(bounds))
        power = np.empty((TAIL_ORDER + 4, len(g)))
        power[0] = 1.0
        for k in range(1, TAIL_ORDER + 4):
            np.multiply(power[k - 1], g, out=power[k])
        mine = np.flatnonzero(spectrum == j)
        for i, (lo, hi) in enumerate(segments):
            moments[j, :, i] = _sum(power[:, lo:hi])
            block = max(1, BLOCK_ELEMENTS // (hi - lo))
            for start in range(0, len(mine), block):
                entries = mine[start:start + block]
                signal_moments[entries, :, i] = _dot(signal[curve[entries], HEAD_MIN + lo:HEAD_MIN + hi],
                                                     power[:TAIL_ORDER + 2, lo:hi])
    return _Tails(bounds, descending, scale, signal_moments, moments, entry)


def _first_tail(gamma, bounds, j, x) -> np.ndarray:
    """The first tail segment (of ``bounds``) of the descending spectrum j at each point x: its head is the shortest
    power of two from ``HEAD_MIN`` that holds every entry g > ``TAIL_RATIO`` x, so u = g / x <= U_C on the tail.
    The number of segments, no tail, where no head is shorter than the row."""
    return np.searchsorted(bounds[:-1], np.searchsorted(-gamma[j], -TAIL_RATIO * x))


def _tail_series(moments, weights) -> np.ndarray:
    """A series of the tail at each point: sum over the tail segments of each row, from their moments (rows x k x
    segments) and the points' factors ``weights`` (points x k x segments), summed pairwise over the k x segments
    terms of each row and point, in row blocks within ``BLOCK_ELEMENTS``."""
    out = np.empty((len(moments), len(weights)))
    step = max(1, BLOCK_ELEMENTS // weights.size)
    for k in range(0, len(moments), step):
        out[k:k + step] = _sum((moments[k:k + step, None] * weights).reshape(-1, len(weights), weights[0].size))
    return out


def _runs(gamma, tails, j, x, start, moments) -> list[tuple]:
    """The points x of spectrum j, the first at position ``start`` of its pass, in runs of one head: any points.

    Each point's head is ``_first_tail``'s (the whole row on a spectrum not in descending order), and its
    factors are (c / x)^k of every segment, 0 before its first tail segment (the series' coefficients of u^0
    and u^1 are 0 there).  Each run is (start, stop, head length, the b^2 series (``_tail_series``) at its
    points of each row whose segments' ``moments`` are given, or None where the head is the whole row, and the
    spectrum's a^2 series at its points, 0 there).  The head shortens as x grows.
    """
    last = len(tails.bounds) - 1
    first = _first_tail(gamma, tails.bounds, j, x) if tails.descending[j] else np.full(len(x), last)
    ratio = np.where(np.arange(last) >= first[:, None], tails.scale[j] / x[:, None], 0.0)
    factors = ratio[:, None, :] ** _POWERS[:, None]
    weights = _SIGNAL_SERIES[0, :TAIL_ORDER + 2, None] * factors[:, :TAIL_ORDER + 2]
    squares = _tail_series(tails.moments[j:j + 1], _NOISE_SERIES[0, :, None] * factors)[0]
    cuts, runs = [0, *(np.flatnonzero(first[1:] != first[:-1]) + 1).tolist(), len(x)], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        at = first[a]
        series = None if at == last else _tail_series(moments[:, :, at:], weights[a:b, :, at:])
        runs.append((start + a, start + b, int(tails.bounds[at]), series, squares[a:b]))
    return runs


def _split(n, gamma, signal, noise, spectrum, curve, rows, a, tails):
    """Newton's evaluation of the basins (row ``rows[i]``, bracket low end t = ``a[i]``): a function of (basins, t).

    ``evaluate(live, t)`` returns R, dR/dt and d2R/dt2 (3 x len(live)) of the basins ``live`` at the points
    t = log lam.  Without a tail table (rows narrower than ``SPLIT_WIDTH``) every basin is evaluated
    by ``_curve`` over its whole eigen-axis.  Otherwise each basin is split once, here, at x_a = n e^a: its
    head is ``_first_tail``'s at x_a (a basin with no head shorter than its row, or on a spectrum not in
    descending order, keeps the whole row), and basins of one head length form a group, whose heads
    ``_curve`` sums.  The tail adds its Taylor series in u = g / x, a polynomial in w = x_a / x <= 1 whose
    coefficients are the moments sum s g^k (k <= K + 1) and sum g^k (2 <= k <= K + 3) of the tail scaled
    by x_a^-k: each segment's moments from the table, times (c / x_a)^k <= U_C^k, summed over the segments
    past the head.
    """
    m = len(rows)
    if tails is None:
        return lambda live, t: _curve(n, gamma, signal, noise, spectrum, curve, rows[live], n * np.exp(t))
    x_a = n * np.exp(a)
    last = len(tails.bounds) - 1
    which = np.full(m, last)  # each basin's first tail segment; ``last``: no tail
    for j in np.flatnonzero(np.bincount(spectrum[rows], minlength=len(gamma)) * tails.descending).tolist():
        mine = np.flatnonzero(spectrum[rows] == j)
        which[mine] = _first_tail(gamma, tails.bounds, j, x_a[mine])
    heads, group = [(gamma, signal)], np.zeros(m, dtype=np.intp)  # group 0: the whole row
    tail = np.zeros((3, m, TAIL_ORDER + 4))
    for k, length in enumerate(tails.bounds[:-1].tolist()):
        split = np.flatnonzero(which == k)
        if not split.size:
            continue
        heads.append((gamma[:, :length], signal[:, :length]))
        group[split] = len(heads) - 1
        r = rows[split]
        power = (tails.scale[spectrum[r], k:] / x_a[split, None])[:, None, :] ** _POWERS[:, None]
        signal_moments = _sum(power[:, :TAIL_ORDER + 2] * tails.signal[tails.entry[r], :, k:])
        moments = _sum(power * tails.moments[spectrum[r], :, k:])
        tail[:, split, :TAIL_ORDER + 2] = _SIGNAL_SERIES[:, None, :TAIL_ORDER + 2] * signal_moments
        tail[:, split] += _NOISE_SERIES[:, None] * (noise[r, None] * moments)
    tail[0] /= n
    tail[1:] *= 2.0 / n

    def evaluate(live, t):
        out, x, member = np.empty((3, len(live))), n * np.exp(t), group[live]
        for k, head in enumerate(heads):
            mine = np.flatnonzero(member == k)
            if mine.size:
                out[:, mine] = _curve(n, *head, noise, spectrum, curve, rows[live[mine]], x[mine])
        split = np.flatnonzero(member)
        w, series = np.exp(a[live[split]] - t[split]), tail[:, live[split]]
        poly = series[..., -1]
        for k in range(TAIL_ORDER + 2, -1, -1):  # Horner's scheme
            poly = poly * w + series[..., k]
        out[:, split] += poly
        return out

    return evaluate


def _newton(n, gamma, signal, noise, spectrum, curve, rows, a, x, b, tails):
    """Safeguarded Newton on dR/dt for every basin (row, bracket [a, b], start x) at once.

    Returns the final t, R and dR/dt of each basin and its iteration count.
    A basin stops when |dR/dt| <= ``DEFAULT_GRAD_TOL`` R, when its step
    shrinks below ``T_STEP_TOL``, or after ``DEFAULT_MAX_ITER`` evaluations.
    Each evaluation is ``_split``'s, set up once from the brackets' low ends and
    the tail table ``tails``: no step leaves a bracket, so Newton never goes
    below its low end.
    """
    m = len(rows)
    t_end, r_end, g_end = np.empty(m), np.empty(m), np.empty(m)
    iterations = np.full(m, DEFAULT_MAX_ITER)
    live = np.arange(m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        evaluate = _split(n, gamma, signal, noise, spectrum, curve, rows, a, tails)
        for it in range(1, DEFAULT_MAX_ITER + 1):
            risk, g1, g2 = evaluate(live, x)
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


def _scan(gamma, signal, spectrum, x_grid, points, first, stop, bias, squares, curve, pairs=None, tails=None) -> None:
    """Fill ``bias`` (sum s b^2 of each row) and ``squares`` (sum a^2 of each spectrum) at the grid points of windows.

    Row k is evaluated at the grid points ``points[first[k]:stop[k]]``.  Rows go in groups of one window and one
    block of spectra, sorted by window start.  A block's points, the union of its windows, go in runs of one
    head, and a run's points in chunks of as many points as its head allows; a chunk's b^2 and a^2 are formed
    once, over its head (``_squares``), and each group takes its slice: one spectrum's b^2 broadcasts over the
    group's rows, several are gathered row by row.  Every temporary of terms stays within ``BLOCK_ELEMENTS``; a
    block's tail series hold one value per row and point, as ``bias`` does.  With ``pairs`` (the first row of
    each distinct (curve, spectrum) pair, and each row's pair), each pair's bias sums are formed once, over the
    union of its rows' windows, and each row takes those of its own.  A point's bias sum is a dot product
    (``_dot``) over its head, and its variance sum the pairwise sum of a^2 over its head.  Without the tail
    table ``tails`` (narrow rows) a block is one run whose head is the whole row.  With it (wide rows), a block
    is one spectrum, and ``_runs``, called once over the block's points, gives each point's head and the series
    of its tail segments, which both sums add, for all the block's rows and for the spectrum; the rows here, the
    pairs if given, are the table's entries.
    """
    live = np.flatnonzero(stop > first)
    if pairs is not None:  # from here on, the rows are the pairs, each at the first row of its pair
        head, pair = pairs
        own, target = (first, stop), bias
        first, stop = np.full(len(head), len(points)), np.zeros(len(head), dtype=np.intp)
        np.minimum.at(first, pair[live], own[0][live])
        np.maximum.at(stop, pair[live], own[1][live])
        spectrum, curve, bias = spectrum[head], curve[head], np.full((len(head), DEFAULT_GRID_POINTS), np.nan)
        live = np.flatnonzero(stop > first)
    if not live.size:
        return
    width = gamma.shape[1]
    per = 1 if tails is not None else max(1, BLOCK_ELEMENTS // (len(points) * width))  # spectra per block
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
        held = windows[0][2], windows[-1][3]  # the block's rows: order[held[0]:held[1]]
        # the window's points in runs of one head; narrow rows have one run, whose head is the whole row
        runs = [(begin, end, width, None, None)] if tails is None else \
            _runs(gamma, tails, lo, x_grid[lo, points[begin:end]], begin, tails.signal[order[held[0]:held[1]]])
        for start, stop, length, series, tail_squares in runs:
            chunk = max(1, BLOCK_ELEMENTS // ((hi - lo) * length))  # points per chunk
            for c in range(start, stop, chunk):
                d = min(c + chunk, stop)
                cols = points[c:d]
                bb, head_squares = _squares(gamma[lo:hi, :length], x_grid[lo:hi, cols])
                squares[lo:hi, cols] = head_squares if tail_squares is None else \
                    head_squares + tail_squares[c - start:d - start]
                for a, b, k0, k1 in windows:
                    u, v = max(a, c), min(b, d)
                    if u >= v:
                        continue
                    part, shared = bb[:, u - c:v - c], hi - lo == 1
                    step = max(1, BLOCK_ELEMENTS // (length if shared else part[0].size))
                    for k in range(k0, k1, step):
                        r = order[k:min(k + step, k1)]
                        sums = _dot(signal[curve[r], :length], part[0] if shared else part[spectrum[r] - lo])
                        if series is not None:  # the tail's series beside the head's terms
                            sums += series[k - held[0]:k - held[0] + len(r), u - start:v - start]
                        bias[r[:, None], points[u:v]] = sums
    if pairs is not None:  # each row takes its pair's sums over its own window
        at = np.arange(len(points))
        row, at = np.nonzero((own[0][:, None] <= at) & (at < own[1][:, None]))
        target[row, points[at]] = bias[pair[row], points[at]]


def _projector(n, gamma, signal, noise, spectrum, curve) -> tuple[np.ndarray, np.ndarray]:
    """The bias and variance at lam = 0 of every row, where the smoother projects onto the range of the kernel.

    Directions with g = 0 keep their signal as bias and every other direction contributes v / n of
    variance.  Each row's signal on the null directions is gathered contiguously, so its sum is the
    row's own whatever the stack.
    """
    null = gamma == 0
    rank = (gamma.shape[1] - np.count_nonzero(null, axis=1)).astype(float)
    kept = np.zeros(len(noise))
    for j in np.flatnonzero(null.any(axis=1)):
        mine = np.flatnonzero(spectrum == j)
        kept[mine] = _sum(signal[curve[mine][:, None], np.flatnonzero(null[j])])
    return kept / n, noise / n * rank[spectrum]


def _open_cells(bias, var, bias0, best) -> np.ndarray:
    """Which of the eight coarse cells can hold a value at or below ``best``, each row's best value so far.

    ``bias`` and ``var`` are B = sum s b^2 / n and V = v sum a^2 / n at the ``COARSE`` points t_8, t_16, ...,
    t_56.  Cell c is [t_8c, t_8(c+1)], where t_0 stands for lam = 0 and t_64 for lam = +inf.  The bias does
    not decrease and the variance does not increase as lam grows, so on a cell the curve is at least
    B(t_a) + V(t_b), with the exact limits at the ends: ``bias0``, the bias at lam = 0, and no variance at
    lam = +inf.  A cell is open when that bound is at most ``best`` inflated by ``BOUND_MARGIN``.
    """
    bound = np.empty((len(bias), bias.shape[1] + 1))
    bound[:, 0] = bias0 + var[:, 0]
    np.add(bias[:, :-1], var[:, 1:], out=bound[:, 1:-1])
    bound[:, -1] = bias[:, -1]
    return bound <= best[:, None] * (1 + BOUND_MARGIN)


def _model_start(n, noise, spectrum, vals, squares, row, at, shift) -> np.ndarray:
    """Newton's start in each basin (row, grid point at), in grid steps from ``at``; ``shift`` where the model fails.

    At the five grid points at-2 .. at+2 the variance is V = noise / n * squares and the bias B is the
    value less V.  log B and log V are each the quartic through their five points (u in grid steps), and
    the start is the minimizer of B + V under that model: the closed form of the log-linear model
    B0 e^(b1 u) + V0 e^(v1 u), u0 = (ln(-v1 / b1) + ln V0 - ln B0) / (b1 - v1), then one Newton step on the
    quartic model from u0.  The basin keeps ``shift`` (the parabola vertex) when it lies within two points
    of a grid end, when one of its five points was not evaluated (nan), when B or V is not positive, or
    when the start is not finite or not strictly inside the basin's bracket (-1, 1).  Every operation is
    elementwise on the basin's own values, so a row gets the same start alone and in any stack.
    """
    m = len(at)
    cols = _FIVE[:, at]  # the five grid points of each basin (columns), clipped to the grid
    var = squares[spectrum[row], cols] * (noise[row] / n)
    logs = np.concatenate((vals[row, cols] - var, var), axis=1)  # B, then V: one row per point
    usable = (logs > 0).all(axis=0)  # nan compares false
    usable = usable[:m] & usable[m:] & _INSIDE[at]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        l0, l1, c0, l3, l4 = np.log(logs)
        # the quartic c0 + c1 u + c2 u^2 + c3 u^3 + c4 u^4 through each log's values at u = -2 .. 2
        near, far = (l3 - l1) / 6.0, (l4 - l0) / 12.0
        c1, c3 = 4.0 * near - far, far - near
        twice = c0 + c0
        near, far = (l1 + l3 - twice) / 6.0, (l0 + l4 - twice) / 24.0
        c2, c4 = 4.0 * near - far, far - near
        b1, v1 = c1[:m], c1[m:]
        u = (np.log(v1 / -b1) + c0[m:] - c0[:m]) / (b1 - v1)
        # one Newton step on B + V = e^P_B + e^P_V from u: P, P' and P''/2 of each quartic at u by Horner's
        # scheme, its first two rounds written out
        uu = np.concatenate((u, u))
        slope, p = c4, c4 * uu + c3
        half_bend, slope, p = slope, slope * uu + p, p * uu + c2
        for c in (c1, c0):
            half_bend, slope, p = half_bend * uu + slope, slope * uu + p, p * uu + c
        size = np.exp(p)
        gain, bend = slope * size, (half_bend + half_bend + slope * slope) * size
        u -= (gain[:m] + gain[m:]) / (bend[:m] + bend[m:])
    return np.where(usable & (np.abs(u) < 1.0), u, shift)  # nan fails the comparison


def _check_finite(vals, zero, limit) -> None:
    """Raise ``FloatingPointError`` naming the first row with a value that is not finite where it was evaluated.

    ``vals`` is nan where a point was not evaluated.  A nan or infinite input shows in a limit or at every
    point, the ``COARSE`` points included, which every row evaluates; finite inputs make nonnegative sums,
    which overflow to +inf, never to nan; and a row that might overflow between its evaluated points is
    evaluated everywhere.  So the check sees every row whose full 64-point scan would not be finite.
    """
    finite = ~(np.isinf(vals).any(axis=1) | np.isnan(vals[:, COARSE]).any(axis=1))
    finite &= np.isfinite(zero) & np.isfinite(limit)
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
    curve: np.ndarray | None = None,
    times: dict[str, float] | None = None,
) -> Search:
    """Minimize a stack of ridge risk curves over lam in [0, +inf]; row k's result is entry k of each column.

    Row k has noise ``noise[k]``, the eigenvalues ``gamma[spectrum[k]]`` and
    the signal ``signal[curve[k]]``: ``gamma`` holds the distinct spectra (k x
    width, or one 1-D spectrum) and ``spectrum`` maps rows to them (default:
    every row on spectrum 0); ``signal`` holds signal rows (curves x width)
    and ``curve`` maps rows to them (default: row k on signal row k).  Rows
    named with one curve and one spectrum share their grid scan.  A basin
    stops when |lam g'| <= ``DEFAULT_GRAD_TOL`` g.  With ``times``, the wall
    time in seconds of the call goes in as three consecutive stages: ``scan``
    (the checks and the grid scan), ``model`` (the basins and their starts)
    and ``newton`` (Newton and the winners).
    """
    start = time.perf_counter()
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    signal = np.asarray(signal, dtype=float)
    noise = np.asarray(noise, dtype=float)
    named = curve is not None
    curve = np.asarray(curve, dtype=np.intp) if named else np.arange(len(signal))
    rows = len(curve)
    spectrum = np.zeros(rows, dtype=np.intp) if spectrum is None else np.asarray(spectrum, dtype=np.intp)
    if (signal.ndim != 2 or signal.shape[1] != gamma.shape[1]
            or not noise.shape == spectrum.shape == curve.shape == (rows,)):
        raise ValueError("need signal curves x width, gamma spectra x width, and noise, spectrum and curve per row")
    if not rows:
        raise ValueError("need at least one row to minimize")
    if not gamma.shape[1]:
        raise ValueError("need spectra at least one eigenvalue wide")
    for index, count, name in ((spectrum, len(gamma), "spectrum"), (curve, len(signal), "curve")):
        if not 0 <= index.min() <= index.max() < count:
            raise ValueError(f"{name} indices must lie in [0, {count})")
    if n <= 0:
        raise ValueError("n must be positive")
    if gamma.min() < 0 or signal.min() < 0 or noise.min() < 0:
        raise ValueError("eigenvalues, signal energies and noise must be nonnegative")

    t_lo, t_hi = spectrum_bracket(n, gamma)
    delta = (t_hi - t_lo) / (DEFAULT_GRID_POINTS - 1)
    t_grid = t_lo[:, None] + np.arange(DEFAULT_GRID_POINTS) * delta[:, None]

    # the grid scan: bias sums sum s b^2 per row and variance sums sum a^2 per spectrum, nan where not evaluated.
    # Every evaluated value is (sum s b^2 + v sum a^2) / n, reduced along the eigen-axis, whichever the pass.
    # The bias sums are held where the values go, with +inf beyond both grid ends for the basin search.
    x_grid = n * np.exp(t_grid)
    padded = np.full((rows, DEFAULT_GRID_POINTS + 2), np.inf)
    bias = vals = padded[:, 1:-1]
    bias[...] = np.nan
    squares = np.full((len(gamma), DEFAULT_GRID_POINTS), np.nan)
    # named rows of one (curve, spectrum) pair share a scan: the first row of each pair, and each row's pair
    pairs = np.unique(curve * len(gamma) + spectrum, return_index=True, return_inverse=True)[1:] if named else None
    # one tail-moment table per search, one entry per (curve, spectrum) pair, read by the scan and by Newton
    leads, entry = pairs if named else (np.arange(rows),) * 2
    tails = _tails(gamma, signal, spectrum[leads], curve[leads], entry)
    with np.errstate(over="ignore", invalid="ignore"):  # a row that is not finite is reported below
        # the exact risks at lam = 0 and at lam = +inf, where all the signal is bias; a row that might overflow
        # (see HEADROOM) has no best value, so every cell of it stays open
        bias0, var0 = _projector(n, gamma, signal, noise, spectrum, curve)
        zero, limit = bias0 + var0, _sum(signal)[curve] / n
        best_limit, may_overflow = np.minimum(zero, limit), ~(limit + var0 <= HEADROOM / n)
        # the first pass: every row at the coarse points, then each row's best value so far and its open cells
        _scan(gamma, signal, spectrum, x_grid, COARSE, np.zeros(rows, dtype=np.intp), np.full(rows, len(COARSE)),
              bias, squares, curve, pairs, tails)
        b, v = bias[:, COARSE] / n, noise[:, None] * squares[:, COARSE][spectrum] / n
        best = np.minimum(best_limit, np.fmin.reduce(b + v, axis=1))
        best[may_overflow] = np.inf
        open_ = _open_cells(b, v, bias0, best)
        del b, v
        # the second pass: the rest of the grid from the first open cell to the last and the halo; none if none is open
        lo = COARSE_STEP * open_.argmax(axis=1) - HALO
        lo[~open_.any(axis=1)] = DEFAULT_GRID_POINTS
        hi = COARSE_STEP * (open_.shape[1] - open_[:, ::-1].argmax(axis=1)) + HALO
        _scan(gamma, signal, spectrum, x_grid, FINE, np.searchsorted(FINE, lo), np.searchsorted(FINE, hi, side="right"),
              bias, squares, curve, pairs, tails)
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
            upper = np.minimum(best_limit[r], grid_min[r]) * (1 - BOUND_MARGIN)
            row, cell = np.nonzero(bound < upper[:, None])
            candidates.append((row + k, cell, bound[row, cell]))
            del var, bound
    row, cell, row_bound = (np.concatenate(part) for part in zip(*candidates))
    _check_finite(vals, zero, limit)
    del candidates, x_grid, open_, best, lo, hi  # the scan's arrays go before Newton's
    scanned = time.perf_counter()

    # every grid-local minimum among the evaluated points (nan compares false) marks a basin worth refining;
    # the grid argmin is one of them unless a limit wins the row.  Newton starts at the minimum of the basin's
    # bias-variance model, or else at the vertex of the parabola through its three grid values.
    left, mid, right = padded[:, :-2], vals, padded[:, 2:]
    basin_row, basin_at = np.nonzero((mid <= left) & (mid <= right))
    f0, f1, f2 = left[basin_row, basin_at], mid[basin_row, basin_at], right[basin_row, basin_at]
    width = delta[spectrum[basin_row]]
    centre = t_grid[spectrum[basin_row], basin_at]
    curvature = f0 - 2.0 * f1 + f2  # +inf at a grid end: that basin starts at the end point
    curved = (curvature > 0) & (curvature < np.inf)
    shift = np.where(curved, 0.5 * (f0 - f2) / np.where(curved, curvature, 1.0), 0.0)
    shift = _model_start(n, noise, spectrum, vals, squares, basin_row, basin_at, shift)
    del squares
    modelled = time.perf_counter()
    t_end, r_end, g_end, iters = _newton(n, gamma, signal, noise, spectrum, curve, basin_row,
                                         centre - width, centre + shift * width, centre + width, tails)

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
    # but an interior candidate takes a row from the exact limits only if lower by more than the rounding
    tie = (source >= 2) & ~(candidates[source, np.arange(rows)] < best_limit * (1 - ROUNDING))
    source[tie] = candidates[:2].argmin(axis=0)[tie]
    grid = np.flatnonzero(source == 3)
    # the winner's position in grid steps: -inf for lam = 0, +inf for lam = +inf
    at = np.where(source == 0, -math.inf, math.inf)
    found = np.flatnonzero(source == 2)
    at[found] = (t[found] - t_lo[spectrum[found]]) / delta[spectrum[found]]
    if grid.size:  # rare, so the common case skips this evaluation
        at[grid] = np.nanargmin(vals[grid], axis=1)
        t[grid] = t_grid[spectrum[grid], at[grid].astype(np.intp)]
        g[grid] = _curve(n, gamma, signal, noise, spectrum, curve, grid, n * np.exp(t[grid]))[1]
    lam, grad = np.where(source == 0, 0.0, math.inf), np.full(rows, math.nan)
    inner = np.flatnonzero(source >= 2)
    lam[inner] = [math.exp(x) for x in t[inner].tolist()]  # not np.exp, which may differ in the last bit
    grad[inner] = g[inner] / lam[inner]
    value = candidates[source, np.arange(rows)]
    # open cells: a cell [t_i, t_i+1] more than two steps from the winner whose bound B(t_i) + V(t_i+1) lies
    # below the value.  A cell with an end not evaluated lies in a pruned coarse cell, above the value: closed.
    open_ = (row_bound < value[row] * (1 - BOUND_MARGIN)) & ((cell + 1 < at[row] - 2) | (cell > at[row] + 2))
    if times is not None:
        times.update(scan=scanned - start, model=modelled - scanned, newton=time.perf_counter() - modelled)
    return Search(lam, value, grad, np.where(source == 2, iterations, 0), source, np.bincount(row[open_], minlength=rows))
