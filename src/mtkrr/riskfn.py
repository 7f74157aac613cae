"""The scalar risk template under polynomial spectral decay, and its bounds.

With kernel eigenvalues n i^(-2 beta) and squared signal coefficients
C n i^(-2 delta), the exact risk of a ridge smoother with parameter lam is

    R(n, p, sigma2, lam, beta, delta, C)
        = C lam^2 S1(n, lam) + sigma2 / (n p) * S2(n, lam)

    S1(n, lam) = sum_{i<=n} i^(4 beta - 2 delta) / (1 + lam i^(2 beta))^2
    S2(n, lam) = sum_{i<=n} 1 / (1 + lam i^(2 beta))^2

Its minimum over lam obeys two-sided bounds built from the improper integrals

    I1(beta, delta) = int_0^inf u^((1-2 delta)/(2 beta) + 1) / (1+u)^2 du
    I2(beta)        = int_0^inf u^(1/(2 beta) - 1) / (1+u)^2 du

through the rate constant kappa(beta, delta).  Both integrals are instances
of int_0^inf u^(a-1)/(1+u)^2 du = B(a, 2-a) with a in (0, 2) (DLMF 5.12.3),
and by the reflection formula (DLMF 5.5.3) B(a, 2-a) = pi w / sin(pi w) with
w = 1 - a.  The lower-bound constant alpha uses the mass fraction of u in
[0, 1], which the substitution v = u/(1+u) turns into the regularized
incomplete beta function I_(1/2)(a, 2-a) (DLMF 8.17.1): J(a) / B(a, 2-a),
with J(a) = int_0^1 u^(a-1)/(1+u)^2 du = 1/2 + (1-a) beta(a) (integrate
d/du[u^a/(1+u)] over [0, 1]) and beta(a) = [psi((a+1)/2) - psi(a/2)] / 2
(Gradshteyn and Ryzhik 8.37).  Production evaluates these closed forms; the
test suite checks them against mpmath and against adaptive numerical
integration of v^(a-1) (1-v)^(1-a) over (0, 1) and (0, 1/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .optimize import BLOCK_ELEMENTS, Search, _dot, _projector, _squares, minimize_profiles


class DivergentIntegralError(ValueError):
    """Integral parameters outside the convergence domain a in (0, 2)."""


class Regime(enum.Enum):
    REGULARIZE = "REGULARIZE"
    TRIVIAL_NOISE = "TRIVIAL_NOISE"
    UNDETERMINED = "UNDETERMINED"


@dataclass(frozen=True)
class RiskParams:
    """Parameters (n, p, sigma2, beta, delta, C) of the template risk."""

    n: int
    p: int
    sigma2: float
    beta: float
    delta: float
    c: float

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive integers")
        for key in ("sigma2", "beta", "delta"):
            if not 0 < getattr(self, key) < math.inf:
                raise ValueError(f"{key} must be positive and finite")
        if not 0 <= self.c < math.inf:
            raise ValueError("c must be nonnegative and finite")


def minimax_window(beta, delta):
    """Whether 1 < 2 delta < 4 beta + 1, with 4 beta > 1 so that I2 converges: scalars, or columns cell by cell."""
    return (1 < 2 * delta) & (2 * delta < 4 * beta + 1) & (4 * beta > 1)


def lower_bound_window(beta, delta):
    """Whether 1 < 2 delta < 4 beta, the stricter window of the lower bound: scalars, or columns cell by cell."""
    return (1 < 2 * delta) & (2 * delta < 4 * beta)


REGIMES = tuple(Regime)  # the regime of each code in ``Bounds.regime``


@dataclass(frozen=True)
class Bounds:
    """The theoretical envelope of optimized template risks, one array per field, entry k for cell k.

    The minimum itself, risk and lambda, is the ``Search`` of the same cells.  ``regime`` holds codes into
    ``REGIMES``.
    """

    upper: np.ndarray
    lower: np.ndarray
    epsilon_cap: np.ndarray
    regime: np.ndarray
    kappa: np.ndarray
    alpha: np.ndarray


def template_parts(n, lam, beta, delta, c, noise) -> tuple[np.ndarray, np.ndarray]:
    """Bias sum s b^2 / n and variance noise / n sum a^2 of the template at every lam of the 1-D ``lam``.

    The eigenvalues are gamma_i = n i^(-2 beta), the squared signal coefficients s_i = (c n) i^(-2 delta), and
    noise is sigma2 / p; the other arguments are scalars or arrays of the length of ``lam``, one template per
    row, each row 0 past its own n.  b^2 and sum a^2 come from the grid scan's ``optimize._squares`` and the bias
    sum s b^2 from its dot product ``optimize._dot`` (numpy's own loop, never BLAS), so every value is the engine's,
    in blocks of ``BLOCK_ELEMENTS`` doubles.  A row at lam = 0 is ``optimize._projector``:
    directions whose eigenvalue underflows to 0 keep their signal as bias and add no variance.
    """
    lam = np.asarray(lam, dtype=float)
    n, beta, delta, c, noise = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (n, beta, delta, c, noise))
    i = np.arange(1.0, n.max() + 1)
    inside = i <= n
    gamma = np.broadcast_to(np.where(inside, n * i ** (-2.0 * beta), 0.0), (len(lam), len(i)))
    signal = np.broadcast_to(np.where(inside, c * n * i ** (-2.0 * delta), 0.0), gamma.shape)
    n, noise = np.broadcast_to(n[:, 0], lam.shape), np.broadcast_to(noise[:, 0], lam.shape)
    bias, var = np.empty(len(lam)), np.empty(len(lam))
    step = max(1, BLOCK_ELEMENTS // len(i))
    with np.errstate(invalid="ignore"):  # 0 / 0 in a lam = 0 row, which the projector replaces below
        for lo in range(0, len(lam), step):
            r = slice(lo, lo + step)
            bb, squares = _squares(gamma[r], n[r, None] * lam[r, None])
            bias[r] = _dot(signal[r], bb)[:, 0] / n[r]
            var[r] = noise[r] / n[r] * squares[:, 0]
    zero = np.flatnonzero(lam == 0)
    rows = np.arange(len(zero))
    bias[zero], var[zero] = _projector(n[zero], gamma[zero], signal[zero], noise[zero], rows, rows)
    return bias, var


def _template_rows(size, exponent, scale, width) -> np.ndarray:
    """Row k is scale[k] i^(-2 exponent[k]) for i = 1 .. size[k], then zeros up to ``width``.

    Each power i^(-2 exponent) is formed once per distinct (size, exponent), over i = 1 .. size, as
    ``scenarios.power_law`` forms it, and each row is written over its own size alone.
    """
    out, powers = np.zeros((len(size), width)), {}
    for row, m, e, a in zip(out, size, exponent, scale):
        if (m, e) not in powers:
            powers[m, e] = np.arange(1, m + 1, dtype=float) ** (-2.0 * e)
        np.multiply(a, powers[m, e], out=row[:m])
    return out


def _tail_integral(a: float) -> float:
    """int_0^inf u^(a-1)/(1+u)^2 du = B(a, 2-a) = pi w / sin(pi w) with w = 1 - a.

    Written in w rather than as (1-a) pi / sin(pi a) on [1/2, 3/2]: near a = 1,
    sin(pi a) carries the rounding of pi a relative to a value close to zero,
    while 1 - a is exact there.  Near the ends of (0, 2) it is the other way
    round, so there b = min(a, 2-a) (B is symmetric) gives pi (1-b) / sin(pi b).
    """
    if not 0 < a < 2:
        raise DivergentIntegralError(f"exponent a={a!r} outside (0, 2); integral diverges")
    b = min(a, 2.0 - a)
    if b < 0.5:
        return math.pi * (1.0 - b) / math.sin(math.pi * b)
    x = math.pi * (1.0 - a)
    return x / math.sin(x) if x else 1.0


def _unit_fraction(a: float) -> float:
    """Share of the tail integral carried by u in [0, 1]: I_(1/2)(a, 2-a) = J(a) / B(a, 2-a).

    The psi difference d = psi(y + 1/2) - psi(y) at y = a/2 is summed as one quantity, never as two psi values
    that cancel: the recurrence psi(y+1) = psi(y) + 1/y (DLMF 5.5.2) adds the positive terms 1/(2 y (y+1/2))
    until y >= 16, then d ~ 1/(2y) + sum_k (2 - 2^(1-2k)) B_2k / (2k y^2k), the difference of DLMF 5.11.2 and
    of 5.11.8 at h = 1/2 (B_2k(1/2) by 24.4.27).  The first term left out is below 1e-17.
    """
    whole = _tail_integral(a)
    y, d = a / 2, 0.0
    while y < 16:
        d += 1 / (2 * y * (y + 0.5))
        y += 1.0
    x = 1 / (y * y)
    d += 0.5 / y + x * (1 / 8 + x * (-1 / 64 + x * (1 / 128 + x * (-17 / 2048 + x * (31 / 2048 - x * 691 / 16384)))))
    return (0.5 + (1.0 - a) * d / 2) / whole


def _i1_exponent(beta: float, delta: float) -> float:
    return (1 - 2 * delta) / (2 * beta) + 2


def integral_i1(beta: float, delta: float) -> float:
    """Signal tail integral I1(beta, delta).

    delta = 0 is accepted as an alias for the noise integral I2(beta): the
    literal exponent would diverge there, and every identity in which the
    delta = 0 case appears means the noise integral.
    """
    if delta == 0:
        return integral_i2(beta)
    return _tail_integral(_i1_exponent(beta, delta))


def integral_i2(beta: float) -> float:
    """Noise tail integral I2(beta); converges for beta > 1/4, where a = 1/(2 beta) lies in (0, 2)."""
    return _tail_integral(1 / (2 * beta))


def kappa(beta: float, delta: float) -> float:
    """Rate constant combining the two tail integrals.

    kappa = I1^(1/2d) I2^(1-1/2d) (2d-1)^(1/2d) d / (b (2d-1)), defined on the
    minimax window.
    """
    i1, i2 = integral_i1(beta, delta), integral_i2(beta)
    e = 1 / (2 * delta)
    return i1**e * i2 ** (1 - e) * (2 * delta - 1) ** e * delta / (beta * (2 * delta - 1))


def alpha_constant(beta: float, delta: float) -> float:
    """Lower-bound constant: smaller of the two unit-interval mass fractions.

    Each fraction is int_0^1 / int_0^inf of the respective tail integrand.
    """
    if not lower_bound_window(beta, delta):
        raise ValueError("alpha constant requires 1 < 2 delta < 4 beta")
    return min(_unit_fraction(1 / (2 * beta)), _unit_fraction(_i1_exponent(beta, delta)))


def _template_search(n, noise, beta, delta, c, times) -> Search:
    """The template oracle of every cell, in one ``minimize_profiles`` call (none for no cell).

    The spectra are the distinct (n, beta), n i^(-2 beta), and the signal rows the distinct curves
    (n, beta, delta, c), (c n) i^(-2 delta), which the cells name; each is n wide and padded with zeros to the
    largest n, and the engine takes each spectrum's n.
    """
    if not len(n):
        return Search(*np.empty((3, 0)), *np.empty((3, 0), dtype=np.intp))
    sizes, betas = n.astype(int).tolist(), beta.tolist()
    spectra = sorted(set(zip(sizes, betas)))  # in ascending n, the engine's order of width classes
    index = {key: j for j, key in enumerate(spectra)}
    spectrum = np.array([index[key] for key in zip(sizes, betas)])
    # the curves by their bytes, so that c = -0.0 and c = 0.0 stay apart
    _, head, curve = np.unique(np.stack((n, beta, delta, c), axis=1).view("V32").ravel(), return_index=True,
                               return_inverse=True)
    width, (spectrum_n, spectrum_beta) = max(sizes), zip(*spectra)
    gamma = _template_rows(spectrum_n, spectrum_beta, spectrum_n, width)
    with np.errstate(over="ignore"):  # a signal that overflows is the search's to name: its row is not finite
        signal = _template_rows(n[head].astype(int).tolist(), delta[head].tolist(), (c[head] * n[head]).tolist(),
                                width)
    stages = None if times is None else {}
    search = minimize_profiles(spectrum_n, gamma, signal, noise, spectrum=spectrum, curve=curve, times=stages)
    for stage, seconds in (stages or {}).items():
        times[stage] = times.get(stage, 0.0) + seconds
    return search


def minimize_risks(n, p, sigma2, beta, delta, c, times: dict[str, float] | None = None) -> tuple[Bounds, Search]:
    """Optimize the template risk of every cell, and give its envelope and regime: the bounds, then the search.

    Cell k is (n[k], p[k], sigma2[k], beta[k], delta[k], c[k]), from equal-length columns of valid
    ``RiskParams`` values.  Every cell is searched in one ``minimize_profiles`` call (``_template_search``);
    the returned ``Search`` is the template oracle: every cell's minimum (``value`` at ``lam``) in grid
    order, each row bit-identical to the cell's search alone.  kappa and alpha run once per distinct
    (beta, delta).  The bounds are the bits of the scalar formulas: their powers are Python's ``**``, cell
    by cell (numpy's may differ in the last bit), and the rest is correctly rounded in both, so it runs on
    the columns.  Bounds that require the minimax (resp.
    lower-bound) window are nan outside it instead of being extrapolated.
    With ``times``, the stages of the ``minimize_profiles`` call (``scan``,
    ``model`` and ``newton``, in seconds) are added to its entries.
    """
    # n and p as floats: every product and quotient of them is then the scalar formula's, rounded once
    n, p, sigma2, beta, delta, c = (np.asarray(v, dtype=float) for v in (n, p, sigma2, beta, delta, c))
    if not (np.all((n >= 1) & (p >= 1) & (c >= 0)) and np.all(np.isfinite([sigma2, beta, delta, c]))
            and np.all(np.minimum(np.minimum(sigma2, beta), delta) > 0)):
        raise ValueError("each cell needs n, p >= 1, positive finite sigma2, beta and delta, and a finite c >= 0")
    search = _template_search(n, sigma2 / p, beta, delta, c, times)
    hm, lb = minimax_window(beta, delta), lower_bound_window(beta, delta)
    pairs = list(zip(beta.tolist(), delta.tolist()))
    constants = {pair: (kappa(*pair) if inside_hm else math.nan, alpha_constant(*pair) if inside_lb else math.nan)
                 for pair, (inside_hm, inside_lb) in dict(zip(pairs, zip(hm.tolist(), lb.tolist()))).items()}
    kap, alpha = np.array([constants[pair] for pair in pairs]).reshape(-1, 2).T
    e = 1 / (2 * delta)
    # the minimax rate (n p / sigma2)^(1/2d - 1) C^(1/2d) kappa, nan outside its window, where its power may overflow;
    # n p / sigma2 may overflow to inf, where the rate is 0
    with np.errstate(over="ignore"):
        rate = np.array([x ** (f - 1) * amplitude ** f * k if inside else math.nan for x, f, amplitude, k, inside
                         in zip((n * p / sigma2).tolist(), e.tolist(), c.tolist(), kap.tolist(), hm.tolist())])
    coefficient = np.array([2 ** f if inside else math.nan for f, inside in zip(e.tolist(), hm.tolist())])  # 2^(1/2d)
    threshold = np.array([float(size) ** (-2.0 * b) for size, b in zip(n.tolist(), beta.tolist())])  # n^(-2 beta)
    with np.errstate(divide="ignore", invalid="ignore"):  # c = 0 and cells outside the window give nan
        s = np.sqrt(coefficient * rate / c)
        cap = np.where(s < 1, s / (1 - s), math.nan)  # the cap solves C eps^2 / (1 + eps)^2 = 2^(1/2d) rate
    lam, value = search.lam, search.value
    regularize = (lam >= threshold) & np.isfinite(rate) & (rate > 0) & (rate / 4 <= value) & (value <= 4 * rate)
    trivial = (lam <= threshold) & (sigma2 / (4 * p) <= value) & (value <= sigma2 / p)
    return Bounds(upper=np.where(hm, np.minimum(coefficient * rate, sigma2 / p), math.nan),
                  lower=np.where(lb, np.minimum(alpha * rate, sigma2 / (4 * p)), math.nan),
                  epsilon_cap=cap, regime=np.select((regularize, trivial), (0, 1), 2),  # codes into REGIMES
                  kappa=kap, alpha=alpha), search
