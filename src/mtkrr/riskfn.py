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
incomplete beta function I_(1/2)(a, 2-a) (DLMF 8.17.1).  Production
evaluates these closed forms; the test suite checks them against adaptive
numerical integration of v^(a-1) (1-v)^(1-a) over (0, 1) and (0, 1/2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .optimize import BLOCK_ELEMENTS, Search, minimize_profiles
from .scenarios import power_law


class DivergentIntegralError(ValueError):
    """Integral parameters outside the convergence domain a in (0, 2)."""


class NoEpsilonCapError(RuntimeError):
    """The localization cap is undefined because n p / sigma2 is too small."""


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

    @property
    def satisfies_hm(self) -> bool:
        """Minimax window 1 < 2 delta < 4 beta + 1, with 4 beta > 1 so that I2 converges."""
        return 1 < 2 * self.delta < 4 * self.beta + 1 and 4 * self.beta > 1

    @property
    def satisfies_lb(self) -> bool:
        """Stricter window 1 < 2 delta < 4 beta required by the lower bound."""
        return 1 < 2 * self.delta < 4 * self.beta


@dataclass(frozen=True)
class BoundReport:
    """Optimized template risk with its theoretical envelope."""

    r_star: float
    lambda_star: float
    upper: float
    lower: float
    epsilon_cap: float
    regime: Regime
    kappa: float
    alpha: float


def template_parts(n, lam, beta, delta, c, noise) -> tuple[np.ndarray, np.ndarray]:
    """Bias n lam^2 S1 and variance noise / n S2 of the template at every lam of the 1-D ``lam``: the one evaluator of its sums.

    S1 = sum_i s_i / d_i^2 and S2 = sum_i (gamma_i / d_i)^2, with d_i = gamma_i + n lam, gamma_i = n i^(-2 beta)
    and s_i = (c n) i^(-2 delta); noise is sigma2 / p.  The other arguments are scalars or arrays of the
    length of ``lam``, one template per row, and each row is 0 past its own n, so the padding adds exact
    zeros.  A row at lam = 0 is the projector onto the range of the kernel: directions whose eigenvalue
    underflows to 0 keep their signal as bias and add no variance.  An unpadded row is the scalar formula
    at its lam, operation for operation and so bit for bit; temporaries stay within ``BLOCK_ELEMENTS`` doubles.
    """
    lam = np.asarray(lam, dtype=float)
    n, beta, delta, c, noise = (np.asarray(v, dtype=float).reshape(-1, 1) for v in (n, beta, delta, c, noise))
    i = np.arange(1.0, n.max() + 1)
    inside = i <= n
    gamma = np.broadcast_to(np.where(inside, n * i ** (-2.0 * beta), 0.0), (len(lam), len(i)))
    signal = np.broadcast_to(np.where(inside, c * n * i ** (-2.0 * delta), 0.0), gamma.shape)
    n, noise = np.broadcast_to(n[:, 0], lam.shape), np.broadcast_to(noise[:, 0], lam.shape)
    zero = np.flatnonzero(lam == 0)
    x = n * lam
    x[zero] = math.inf  # every term of a lam = 0 row is then 0, without a warning; the projector replaces it below
    bias, var = np.empty(len(lam)), np.empty(len(lam))
    step = max(1, BLOCK_ELEMENTS // len(i))
    for lo in range(0, len(lam), step):
        r = slice(lo, lo + step)
        d = gamma[r] + x[r, None]
        terms = np.square(d)  # then every step in place: two temporaries per block
        bias[r] = n[r] * lam[r] * lam[r] * np.sum(np.divide(signal[r], terms, out=terms), axis=1)
        var[r] = noise[r] / n[r] * np.sum(np.square(np.divide(gamma[r], d, out=d), out=d), axis=1)
    for k in zero.tolist():
        g, s = gamma[k, :int(n[k])], signal[k, :int(n[k])]
        bias[k], var[k] = s[g == 0].sum() / n[k], noise[k] / n[k] * np.count_nonzero(g)
    return bias, var


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
    """Share of the tail integral carried by u in [0, 1]: I_(1/2)(a, 2-a)."""
    from scipy.special import betainc  # imported here: the rest of the package needs numpy only

    return float(betainc(a, 2.0 - a, 0.5))


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
    if not 1 < 2 * delta < 4 * beta:
        raise ValueError("alpha constant requires 1 < 2 delta < 4 beta")
    return min(_unit_fraction(1 / (2 * beta)), _unit_fraction(_i1_exponent(beta, delta)))


def minimax_rate(params: RiskParams, kap: float) -> float:
    """(np/sigma2)^(1/2d - 1) C^(1/2d) kappa: the rate shared by the bounds, the cap and the regime test."""
    e = 1 / (2 * params.delta)
    return (params.n * params.p / params.sigma2) ** (e - 1) * params.c ** e * kap


def epsilon_cap(params: RiskParams, rate: float) -> float:
    """Exact localization cap: the optimizer of the template risk lies in [0, cap].

    Solves C eps^2/(1+eps)^2 = 2^(1/2d) rate for eps, which needs
    s = sqrt(2^(1/2d) rate / C) < 1.
    """
    if not params.satisfies_hm:
        raise NoEpsilonCapError("cap is defined only on the minimax window")
    if params.c == 0:
        raise NoEpsilonCapError("cap is undefined for a zero signal amplitude")
    s = math.sqrt(2 ** (1 / (2 * params.delta)) * rate / params.c)
    if s >= 1:
        x = params.n * params.p / params.sigma2
        raise NoEpsilonCapError(f"np/sigma2 = {x!r} too small for the cap (coefficient {s!r} >= 1)")
    return s / (1 - s)


def upper_bound(params: RiskParams, rate: float) -> float:
    """min of the rate-form upper bound and the zero-regularization value sigma2/p."""
    return min(2 ** (1 / (2 * params.delta)) * rate, params.sigma2 / params.p)


def lower_bound(params: RiskParams, rate: float, alpha: float) -> float:
    return min(alpha * rate, params.sigma2 / (4 * params.p))


def _classify(params: RiskParams, rate: float, lambda_star: float, r_star: float) -> Regime:
    threshold = float(params.n) ** (-2.0 * params.beta)
    if lambda_star >= threshold and math.isfinite(rate) and rate > 0 and rate / 4 <= r_star <= 4 * rate:
        return Regime.REGULARIZE
    if lambda_star <= threshold and params.sigma2 / (4 * params.p) <= r_star <= params.sigma2 / params.p:
        return Regime.TRIVIAL_NOISE
    return Regime.UNDETERMINED


def minimize_risks(grid: list[RiskParams]) -> tuple[list[BoundReport], Search]:
    """Optimize the template risk of every cell and attach its envelope and regime; return the reports and the search.

    Cells of one n are searched in one ``minimize_profiles`` call, one
    spectrum per distinct beta; the returned ``Search`` holds every cell's
    row in grid order, each bit-identical to the cell's search alone.
    kappa and alpha run once per distinct (beta, delta).  Bounds that
    require the minimax (resp. lower-bound) window are reported as nan
    outside it instead of being extrapolated.
    """
    lam, value, grad = np.empty((3, len(grid)))
    iterations, source, open_cells = np.empty((3, len(grid)), dtype=np.intp)
    for n in dict.fromkeys(params.n for params in grid):
        cells = [k for k, params in enumerate(grid) if params.n == n]
        i = np.arange(1, n + 1, dtype=float)
        betas = list(dict.fromkeys(grid[k].beta for k in cells))
        deltas = list(dict.fromkeys(grid[k].delta for k in cells))
        powers = np.array([i ** (-2.0 * delta) for delta in deltas])
        signal = (np.array([grid[k].c * n for k in cells])[:, None]  # (c n) i^(-2 delta), as in template_parts
                  * powers[[deltas.index(grid[k].delta) for k in cells]])
        found = minimize_profiles(n, np.array([power_law(n, beta) for beta in betas]), signal,
                                  np.array([grid[k].sigma2 / grid[k].p for k in cells]),
                                  spectrum=np.array([betas.index(grid[k].beta) for k in cells]))
        lam[cells], value[cells], grad[cells] = found.lam, found.value, found.grad
        iterations[cells], source[cells], open_cells[cells] = found.iterations, found.source, found.open_cells
    constants: dict[tuple[float, float], tuple[float, float]] = {}
    reports = []
    for params, r_star, lambda_star in zip(grid, value.tolist(), lam.tolist()):
        pair = (params.beta, params.delta)
        if pair not in constants:
            constants[pair] = (kappa(*pair) if params.satisfies_hm else math.nan,
                               alpha_constant(*pair) if params.satisfies_lb else math.nan)
        kap, alpha = constants[pair]
        rate = minimax_rate(params, kap) if params.satisfies_hm else math.nan  # outside, its power may overflow
        try:
            cap = epsilon_cap(params, rate)
        except NoEpsilonCapError:
            cap = math.nan
        reports.append(BoundReport(
            r_star=r_star,
            lambda_star=lambda_star,
            upper=upper_bound(params, rate) if params.satisfies_hm else math.nan,
            lower=lower_bound(params, rate, alpha) if params.satisfies_lb else math.nan,
            epsilon_cap=cap,
            regime=_classify(params, rate, lambda_star, r_star),
            kappa=kap,
            alpha=alpha,
        ))
    return reports, Search(lam, value, grad, iterations, source, open_cells)


def minimize_risk(params: RiskParams) -> BoundReport:
    """One cell of ``minimize_risks``: the template minimum with its envelope and regime."""
    return minimize_risks([params])[0][0]
