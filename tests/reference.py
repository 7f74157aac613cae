"""Reference implementations that only the tests use.

The dense Kronecker route to the multi-task risk lives here, beside the
tests it validates.  The multi-task smoother is A = T (T + np I)^{-1} with
T = (M^{-1} x K) (Kronecker product), M being a p x p coupling matrix that
penalizes the task mean with weight ``lam`` and the between-task variance
with weight ``mu``.  ``risk_direct`` materializes the np x np operator and
evaluates the bias-variance decomposition by brute force; ``risk_spectral``
evaluates the same risk from the kernel eigenvalues and the mean/variance
profiles in O(n).  The two must agree to floating-point accuracy, which is
the central correctness check of the package (criterion 1).

The spectral route is canonical: it is defined for lam = 0 and mu = 0 where
the Kronecker-inverse formula is not, and it has no size cap.

Also here: a certifier of the engine's global minima
(``certified_lower_bound``), the oracle search with the unpruned 64-point
grid scan (``full_scan_minimize_profiles``), the grid scan's dot product
with its chunks cut by ``np.split`` (``split_dot``), the one-spec form of
``mtkrr.experiments.run_experiments`` and the chunks of ``scenarios.draw``
joined into one block (``draw_block``), the degrees-of-freedom diagnostic
``df_and_bias``, numpy's own per-replicate streams (``rng_for``, ``rademacher``
and the setting-B ensemble ``numpy_setting_b``), the one-matrix eigendecomposition
and projection with the per-replicate setting-B draw (``eigendecompose_kernel``,
``project_tasks``, ``per_replicate_setting_b``), the per-draw sum-vs-integral
envelope of ``verify-bounds`` (``envelope_per_draw``), the envelope and regime
of one template cell in Python floats (``scalar_report``, with the rate
``minimax_rate`` and the cap ``epsilon_cap``), the template oracle cell by
cell (``BoundReport``: ``bound_reports`` of a grid, ``minimize_risk`` of one
cell, and the record of one cell ``RiskParams``), the scalar evaluator of a
ridge risk curve (``RidgeRiskProfile``, whose ``parts`` gives the bias and
variance at one lambda, 0 and +inf included), the template as such a curve
(``template_profile``, on the spectrum ``synth_spectrum``) and the ``risk-curve``
table one lambda at a time (``risk_curve_rows``), and the paper formulas no
command evaluates (the template risk at one lambda, the maximizer ``t_star``
and the data-driven estimator's bound ``hm_bound_rhs``), each kept with its
checks.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from mtkrr.experiments import ExperimentReport, run_experiments
from mtkrr import optimize
from mtkrr.optimize import Search
from mtkrr.riskfn import (REGIMES, Bounds, Regime, alpha_constant, cell_errors, integral_i1, integral_i2, kappa,
                          lower_bound_window, minimax_window, minimize_risks)
from mtkrr.scenarios import ScenarioSpec, _uniform, draw, periodic_kernel_value, power_law
from mtkrr.spectral import (
    EIGENVALUE_CLAMP,
    SYMMETRY_TOL,
    KernelSpectrum,
    NotPSDError,
    TaskEnsemble,
)

DENSE_SIZE_CAP = 512  # the O((np)^3) route exists only for cross-validation


# ---------------------------------------------------------------------------
# spectra and profiles


@dataclass(frozen=True)
class RiskParams:
    """Parameters (n, p, sigma2, beta, delta, C) of one template cell; an invalid cell raises its first
    ``riskfn.cell_errors`` message."""

    n: int
    p: int
    sigma2: float
    beta: float
    delta: float
    c: float

    def __post_init__(self):
        errors = cell_errors(self.n, self.p, self.sigma2, self.beta, self.delta, self.c)
        if errors:
            raise ValueError(errors[0])


def synth_spectrum(n: int, beta: float) -> KernelSpectrum:
    """Polynomial-decay spectrum gamma_i = n i^(-2 beta) in the (implicit) identity basis."""
    return KernelSpectrum(n=n, gamma=power_law(n, beta))


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


def template_profile(params: RiskParams) -> RidgeRiskProfile:
    """The template risk as a ridge risk curve: ``parts(lam)`` is (C lam^2 S1, sigma2 / (n p) S2)."""
    i = np.arange(1, params.n + 1, dtype=float)
    signal = params.c * params.n * i ** (-2.0 * params.delta)
    return RidgeRiskProfile(n=params.n, gamma=synth_spectrum(params.n, params.beta).gamma, signal=signal,
                            noise=params.sigma2 / params.p)


def kernel_matrix(spectrum: KernelSpectrum) -> np.ndarray:
    """Reassemble K from the stored eigendecomposition."""
    if spectrum.basis is None:
        return np.diag(spectrum.gamma)
    return spectrum.basis.T @ (spectrum.gamma[:, None] * spectrum.basis)


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
    """Diagonalize one symmetric PSD kernel matrix: the per-matrix oracle of ``spectral.eigendecompose_kernels``.

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


def periodic_kernel_matrix(x: np.ndarray, m: int) -> np.ndarray:
    """The periodic-spline kernel matrix of inputs x, one matrix at a time."""
    x = np.asarray(x, dtype=float)
    return periodic_kernel_value(x[:, None] - x[None, :], m)


def reconstruct_tasks(spectrum: KernelSpectrum, tasks: TaskEnsemble) -> np.ndarray:
    """Inverse of project_tasks: recover the task values F from coefficients."""
    if tasks.n != spectrum.n:
        raise ValueError("spectrum and ensemble sample sizes differ")
    if spectrum.basis is None:
        return tasks.h.copy()
    return spectrum.basis.T @ tasks.h


def mean_variance_profile(tasks: TaskEnsemble) -> MeanVarianceProfile:
    """Split an ensemble into its mean profile mu_i = sqrt(p) hbar_i and between-task variance profile.

    Plain numpy formulas, independent of the package's ``estimators.comparison_rows``: its rows 0 and 1
    (mu^2 / p and varsigma2) agree with these to rounding, not bit for bit.
    """
    return MeanVarianceProfile(tasks.h.mean(axis=1) * math.sqrt(tasks.p), tasks.h.var(axis=1))


# ---------------------------------------------------------------------------
# coupling matrices and the two routes to the multi-task risk


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
    K = kernel_matrix(spectrum)
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
    n, gamma = spectrum.n, spectrum.gamma
    b1, v1 = RidgeRiskProfile(n=n, gamma=gamma, signal=profile.mu**2 / p, noise=sigma2 / p).parts(lam)  # mean part
    b2, v2 = RidgeRiskProfile(n=n, gamma=gamma, signal=profile.varsigma2,  # between-task part
                              noise=(p - 1) * sigma2 / p).parts(mu)
    return RiskBreakdown.of(b1 + b2, v1 + v2)


def risk_single_task(spectrum: KernelSpectrum, h_j: np.ndarray, lam: float, sigma2: float) -> RiskBreakdown:
    """Per-task ridge risk, normalized by n (the comparison harness averages over tasks)."""
    if sigma2 <= 0:
        raise ValueError("noise variance must be positive")
    profile = RidgeRiskProfile(n=spectrum.n, gamma=spectrum.gamma, signal=np.asarray(h_j, dtype=float) ** 2, noise=sigma2)
    return RiskBreakdown.of(*profile.parts(lam))


def df_and_bias(spectrum: KernelSpectrum, h_j: np.ndarray, lam: float) -> tuple[float, float]:
    """Effective degrees of freedom tr(A_lam) and squared bias of one task.

    df(lam) = sum gamma_i / (gamma_i + n lam); the bias, normalized by n, is
    the bias part of the task's ridge risk curve.  At lam = 0 the smoother is
    the projector onto the kernel range, so df counts the positive
    eigenvalues and the bias keeps only null-space energy.
    """
    gamma = spectrum.gamma
    bias = RidgeRiskProfile(spectrum.n, gamma, np.asarray(h_j, dtype=float) ** 2, 0.0).parts(lam)[0]
    df = np.divide(gamma, gamma + spectrum.n * lam, out=np.zeros_like(gamma), where=gamma > 0)
    return float(np.sum(df)), bias


# ---------------------------------------------------------------------------
# certified global minimum of a risk curve

CERTIFY_DECADES = 20.0  # the bisected range: the spectrum's scale widened by this many decades on each side


def _bias_variance(profile: RidgeRiskProfile, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bias and variance of ``profile`` at every lam > 0 of ``lam``, as ``RidgeRiskProfile.parts`` forms them."""
    x = profile.n * lam[:, None]
    d = profile.gamma + x
    b, a = x / d, profile.gamma / d
    return np.sum(profile.signal * b * b, axis=1) / profile.n, profile.noise / profile.n * np.sum(a * a, axis=1)


def certified_lower_bound(profile: RidgeRiskProfile, value: float, gap: float = 1e-6,
                          max_evaluations: int = 200_000) -> tuple[float, int]:
    """A lower bound on the minimum of the curve over lam in [0, +inf], refined until it reaches value / (1 + gap).

    Branch and bound in t = log lam on the bias-variance monotonicity of
    ridge shrinkage (Hoerl and Kennard, Technometrics 1970): the bias B does
    not decrease as lam grows and the variance V does not increase, so
    R >= B(lam_a) + V(lam_b) on every cell [lam_a, lam_b].  The two end
    cells are bounded by B(0) + V(lam_0) on [0, lam_0] and by B(lam_last)
    on [lam_last, +inf].  Every cell whose bound is below the target is
    bisected, all at once, until none is or ``max_evaluations`` points are
    spent.  The bound is rigorous up to rounding; with it the engine's
    ``value`` is within a factor 1 + gap of the global minimum.  Returns the
    bound and the number of points evaluated.
    """
    positive = profile.gamma[profile.gamma > 0]
    widen = CERTIFY_DECADES * math.log(10.0)
    t = np.linspace(math.log(positive.min() / profile.n) - widen, math.log(positive.max() / profile.n) + widen, 65)
    bias, var = _bias_variance(profile, np.exp(t))
    ends = min(profile.parts(0.0)[0] + var[0], bias[-1])
    target = value / (1 + gap)
    lo, hi, bias_lo, var_hi = t[:-1], t[1:], bias[:-1], var[1:]
    closed, evaluations = math.inf, len(t)
    while True:
        bound = bias_lo + var_hi
        open_ = bound < target
        closed = min(closed, bound[~open_].min(initial=math.inf))
        lo, hi, bias_lo, var_hi = lo[open_], hi[open_], bias_lo[open_], var_hi[open_]
        if not lo.size or evaluations >= max_evaluations:
            break
        mid = 0.5 * (lo + hi)
        bias_mid, var_mid = _bias_variance(profile, np.exp(mid))
        evaluations += len(mid)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        bias_lo, var_hi = np.concatenate((bias_lo, bias_mid)), np.concatenate((var_mid, var_hi))
    return min(ends, closed, float((bias_lo + var_hi).min(initial=math.inf))), evaluations


# ---------------------------------------------------------------------------
# the grid scan's dot product as it was first written


def split_dot(signal: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``optimize._dot`` with its chunks cut by ``np.split`` and their sums joined by ``np.stack``.

    The chunks of ``optimize.DOT_CHUNK`` entries and their pairwise sum are the engine's; only the way the
    chunks are cut and gathered differs, so the two must agree bit for bit.
    """
    def sums(signal, table):
        return np.einsum("rj,pj->rp", signal, table) if table.ndim == 2 else np.einsum("rj,rpj->rp", signal, table)

    width = signal.shape[-1]
    if width <= optimize.DOT_CHUNK:
        return sums(signal, table)
    cuts = range(optimize.DOT_CHUNK, width, optimize.DOT_CHUNK)
    chunks = zip(np.split(signal, cuts, axis=-1), np.split(table, cuts, axis=-1))
    return optimize._sum(np.stack([sums(*chunk) for chunk in chunks], axis=-1))


# ---------------------------------------------------------------------------
# the oracle search with the full grid scan


def full_scan_minimize_profiles(n: int, gamma: np.ndarray, signal: np.ndarray, noise: np.ndarray,
                                spectrum: np.ndarray | None = None) -> Search:
    """``optimize.minimize_profiles`` with every one of the 64 grid points of every row evaluated.

    This is the search as it was before the grid scan was pruned by the
    bias-variance bound: one spectrum at a time, in blocks of grid points and
    rows, and every grid-local minimum refined by the engine's own Newton
    iteration.  (That search summed the signal of null directions over a
    column-major gather, so with null eigenvalues its lam = 0 risk depended
    on the stack; here, as in the engine, each row's sum is its own.)  ``open_cells`` is counted over the whole grid: a cell is open
    when it lies more than two steps from the winner and its bound
    B(t_i) + V(t_i+1) is below the value.  The pruned engine must agree with
    it bit for bit, column by column.  On rows at least
    ``optimize.SPLIT_WIDTH`` wide each point's bias sum has the engine's
    own per-point arithmetic: the terms of the head that ``optimize._first_tail``
    rules for that point, summed exactly, plus the b^2 series of its tail
    segments (``optimize._tail_series`` of the tail table's moments,
    ``optimize._tails``, and the point's factors (c / x)^k), and each variance
    sum the pairwise sum of a^2 over that head plus the a^2 series of the
    tail; Newton reads the same table.

    Newton starts where the engine starts it (``optimize._model_start``), from
    the same bits: the per-spectrum sums of a^2 are kept as ``squares`` and the
    model forms V = noise / n * squares from them.  The engine may fall back to
    the parabola vertex where this scan does not: in a basin one of whose five
    points at-2 .. at+2 the engine pruned.  Such a basin lies in a pruned cell,
    whose bound is above the row's best value, so it always loses to the row's
    winner and no column can tell the two starts apart.
    """
    points = optimize.DEFAULT_GRID_POINTS
    gamma = np.atleast_2d(np.asarray(gamma, dtype=float))
    signal, noise = np.asarray(signal, dtype=float), np.asarray(noise, dtype=float)
    rows = len(signal)
    spectrum = np.zeros(rows, dtype=np.intp) if spectrum is None else np.asarray(spectrum, dtype=np.intp)
    t_lo, t_hi = optimize.spectrum_bracket(n, gamma)
    delta = (t_hi - t_lo) / (points - 1)
    t_grid = t_lo[:, None] + np.arange(points) * delta[:, None]

    padded = np.full((rows, points + 2), np.inf)
    vals = padded[:, 1:-1]
    bias, var, zero, limit = np.empty((rows, points)), np.empty((rows, points)), np.empty(rows), np.empty(rows)
    squares = np.empty((len(gamma), points))  # sum a^2 of each spectrum, as the engine keeps it for the start model
    tails = optimize._tails(gamma, signal, spectrum, np.arange(rows), np.arange(rows))
    chunk = max(1, optimize.BLOCK_ELEMENTS // gamma.shape[1])
    for j, g in enumerate(gamma):
        mine = np.flatnonzero(spectrum == j)
        for c in range(0, points, chunk):
            x = n * np.exp(t_grid[j, c:c + chunk])[:, None]
            d = g + x
            a = g / d
            bb = np.divide(x, d, out=d)
            bb *= bb
            aa = np.multiply(a, a, out=a)
            squares[j, c:c + chunk] = optimize._sum(aa)
            # on wide rows, the engine's arithmetic at each point with a tail: its first tail segment, the factors
            # (c / x)^k of every segment (0 before that one), and from them and the table's moments its head's a^2
            # plus its tail's a^2 series, and its head's b^2 terms plus the b^2 series of each row
            heads = []
            if tails is not None and tails.descending[j]:
                last = len(tails.bounds) - 1
                first = optimize._first_tail(gamma, tails.bounds, j, x[:, 0])
                ratio = np.where(np.arange(last) >= first[:, None], tails.scale[j] / x, 0.0)
                factors = ratio[:, None, :] ** optimize._POWERS[:, None]
                signal_terms = optimize.TAIL_ORDER + 2
                weights = optimize._SIGNAL_SERIES[0, :signal_terms, None] * factors[:, :signal_terms]
                a2 = optimize._tail_series(tails.moments[j:j + 1], optimize._NOISE_SERIES[0, :, None] * factors)[0]
                heads = [(i, at, int(tails.bounds[at])) for i, at in enumerate(first.tolist()) if at < last]
                for i, at, length in heads:
                    squares[j, c + i] = optimize._sum(aa[i, :length]) + a2[i]
            block = max(1, optimize.BLOCK_ELEMENTS // bb.size)
            for k in range(0, len(mine), block):
                r = mine[k:k + block]
                var[r, c:c + chunk] = noise[r, None] * squares[j, c:c + chunk]
                bias[r, c:c + chunk] = optimize._dot(signal[r], bb)
                for i, at, length in heads:
                    bias[r, c + i] = optimize._dot(signal[r, :length], bb[i:i + 1, :length])[:, 0]
                    bias[r, c + i] += optimize._tail_series(tails.signal[r, :, at:], weights[i:i + 1, :, at:])[:, 0]
        null = g == 0
        kept = optimize._sum(np.ascontiguousarray(signal[mine][:, null]))  # row by row, pairwise, whatever the stack
        zero[mine] = kept / n + noise[mine] / n * float(len(g) - np.count_nonzero(null))
        limit[mine] = optimize._sum(signal[mine]) / n
    vals[...] = (bias + var) / n
    finite = np.isfinite(vals).all(axis=1) & np.isfinite(zero) & np.isfinite(limit)
    if not finite.all():
        raise FloatingPointError(f"risk evaluation is not finite on row {int(np.flatnonzero(~finite)[0])}")

    left, mid, right = padded[:, :-2], vals, padded[:, 2:]
    basin_row, basin_at = np.nonzero((mid <= left) & (mid <= right))
    f0, f1, f2 = left[basin_row, basin_at], mid[basin_row, basin_at], right[basin_row, basin_at]
    width = delta[spectrum[basin_row]]
    centre = t_grid[spectrum[basin_row], basin_at]
    curvature = f0 - 2.0 * f1 + f2
    curved = (curvature > 0) & (curvature < np.inf)
    shift = np.where(curved, 0.5 * (f0 - f2) / np.where(curved, curvature, 1.0), 0.0)
    shift = optimize._model_start(n, noise, spectrum, vals, squares, basin_row, basin_at, shift)
    t_end, r_end, g_end, iters = optimize._newton(n, gamma, signal, noise, spectrum, np.arange(rows), basin_row,
                                                  centre - width, centre + shift * width, centre + width, tails)

    order = np.lexsort((np.arange(len(basin_row)), r_end, basin_row))
    first = order[np.concatenate(([True], basin_row[order][1:] != basin_row[order][:-1]))]
    candidates = np.array((zero, limit, r_end[first], vals.min(axis=1)))
    source = candidates.argmin(axis=0)
    # an interior candidate takes a row from the exact limits only if lower by more than the rounding
    tie = (source >= 2) & ~(candidates[source, np.arange(rows)] < np.minimum(zero, limit) * (1 - optimize.ROUNDING))
    source[tie] = candidates[:2].argmin(axis=0)[tie]
    t, g = t_end[first], g_end[first]
    at = np.where(source == 0, -math.inf, math.inf)  # the winner's position in grid steps
    at[source == 2] = ((t - t_lo[spectrum]) / delta[spectrum])[source == 2]
    grid = np.flatnonzero(source == 3)
    if grid.size:
        at[grid] = np.argmin(vals[grid], axis=1)
        t[grid] = t_grid[spectrum[grid], np.argmin(vals[grid], axis=1)]
        g[grid] = optimize._curve(n, gamma, signal, noise, spectrum, np.arange(rows), grid, n * np.exp(t[grid]))[1]
    lam, grad = np.where(source == 0, 0.0, math.inf), np.full(rows, math.nan)
    inner = np.flatnonzero(source >= 2)
    lam[inner] = [math.exp(x) for x in t[inner].tolist()]
    grad[inner] = g[inner] / lam[inner]
    value = candidates[source, np.arange(rows)]
    cell = np.arange(points - 1)
    far = (cell + 1 < at[:, None] - 2) | (cell > at[:, None] + 2)
    below = (bias[:, :-1] + var[:, 1:]) / n < value[:, None] * (1 - optimize.BOUND_MARGIN)
    return Search(lam, value, grad, np.where(source == 2, iters[first], 0), source,
                  np.count_nonzero(far & below, axis=1))


# ---------------------------------------------------------------------------
# one experiment


def run_experiment(spec: ScenarioSpec, sigma2: float, n_rep: int, pi2_scale: str = "N") -> ExperimentReport:
    """Replicate the oracle comparison n_rep times and aggregate the statistics: ``run_experiments`` of one spec."""
    return run_experiments([spec], sigma2, n_rep, pi2_scale)[0][0]


def draw_block(specs: list[ScenarioSpec], seeds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``scenarios.draw`` with its chunks joined: the spectra, the owners and the (S R, n, p) task block.

    Checks on the way that the chunks cover the replicates in order, none of them empty.
    """
    gamma, owner, chunks = draw(specs, seeds)
    parts, start = [], 0
    for rows, h in chunks:
        assert rows.start == start < rows.stop and h.shape[0] == rows.stop - start
        parts.append(h)
        start = rows.stop
    assert start == len(owner)
    return gamma, owner, np.concatenate(parts)


# ---------------------------------------------------------------------------
# numpy's own streams: the oracle of scenarios._stream


def rng_for(seed: int) -> np.random.Generator:
    """numpy's Philox stream keyed by the seed, the stream ``scenarios.draw`` reads for a replicate of that seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed))))


def rademacher(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    """An n x p field of signs +-1.0 drawn as ``integers(0, 2)``."""
    return rng.integers(0, 2, size=(n, p)).astype(float) * 2.0 - 1.0


def numpy_setting_b(spec: ScenarioSpec, seed: int) -> tuple[KernelSpectrum, np.ndarray]:
    """The periodic-spline setting's spectrum and coefficients for one seed, drawn from numpy's ``Generator``.

    n inputs uniform on [-pi, pi] first, then the sign field; the task values (sqrt(C1) + eps sqrt(C2)) |X|
    are projected onto the kernel eigenbasis.
    """
    rng = rng_for(seed)
    x = rng.uniform(-np.pi, np.pi, spec.n)
    eps = rademacher(rng, spec.n, spec.p)
    spectrum = eigendecompose_kernel(periodic_kernel_matrix(x, int(spec.beta_or_m)))
    return spectrum, project_tasks(spectrum, (math.sqrt(spec.c1) + eps * math.sqrt(spec.c2)) * np.abs(x)[:, None]).h


def per_replicate_setting_b(specs: list[ScenarioSpec], words: np.ndarray, eps: np.ndarray) -> list[KernelSpectrum]:
    """The periodic-spline setting one replicate at a time: the oracle of the block draw ``scenarios._setting_b``.

    Replicate r (spec r // R) reads its inputs from ``words[r]``, builds its kernel matrix, eigendecomposes
    it alone and overwrites ``eps[r]`` with its task values projected onto the basis; returns the spectra.
    """
    reps, spectra = len(words) // len(specs), []
    for r, row in enumerate(words):
        spec = specs[r // reps]
        x = _uniform(row, -np.pi, np.pi)
        spectra.append(eigendecompose_kernel(periodic_kernel_matrix(x, int(spec.beta_or_m))))
        eps[r] = project_tasks(spectra[-1], (math.sqrt(spec.c1) + eps[r] * math.sqrt(spec.c2)) * np.abs(x)[:, None]).h
    return spectra


# ---------------------------------------------------------------------------
# the sum-vs-integral envelope one draw at a time: the oracle of the block ``cli._envelope``


def envelope_sample(rng: np.random.Generator, draws: int = 40) -> list[tuple[float, float, int, float]]:
    """(beta, delta, n, lam) of ``draws`` envelope draws from ``rng``, in order: how ``cli.ENVELOPE_SAMPLE`` was drawn."""
    sample = []
    for _ in range(draws):
        beta = float(rng.uniform(0.8, 4.0))
        delta = float(rng.uniform(0.6, min(2 * beta - 0.05, 3.0)))
        n = int(rng.integers(5, 400))
        lam = float(10 ** rng.uniform(-8, 2))
        sample.append((beta, delta, n, lam))
    return sample


def envelope_per_draw(sample) -> tuple[tuple[bool, bool], np.ndarray]:
    """The two envelope checks of ``verify-bounds`` (S2, then S1) and the sums (n var, bias / lam^2) of each draw.

    Each (beta, delta, n, lam) draw of ``sample`` builds the template profile at C = sigma2 = p = 1, so
    bias = lam^2 S1 and variance = S2 / n; ``sums`` has one column per draw.
    """
    s1_ok = s2_ok = True
    sums = np.empty((2, len(sample)))
    for k, (beta, delta, n, lam) in enumerate(sample):
        i2 = integral_i2(beta)
        i1 = integral_i1(beta, delta)
        bias, var = template_profile(RiskParams(n, 1, 1.0, beta, delta, 1.0)).parts(lam)
        sums[:, k] = n * var, bias / lam**2
        s2_ok &= n * var <= lam ** (-1 / (2 * beta)) / (2 * beta) * i2 * (1 + 1e-12)
        s1_ok &= bias / lam**2 <= lam ** ((2 * delta - 1) / (2 * beta)) / (beta * lam**2) * i1 * (1 + 1e-12)
    return (s2_ok, s1_ok), sums


# ---------------------------------------------------------------------------
# the risk curve one lambda at a time: the oracle of ``riskfn.template_parts`` behind ``risk-curve``


def risk_curve_rows(params: RiskParams, points: int, lambda_min: float | None = None,
                    lambda_max: float | None = None) -> list[tuple]:
    """The rows of the ``risk-curve`` CSV, header first: lambda = 0, then ``points`` log-spaced lambdas.

    A bound not given is that end of the oracle's search bracket.  Each row is (lambda, risk, bias,
    variance) of ``template_profile(params)``, one lambda at a time, in the arithmetic of the engine's grid
    scan: with x = n lam, b = x / (g + x) and a = g / (g + x), the bias is sum s b^2 / n, its sum the scan's
    dot product ``optimize._dot``, and the variance v / n sum a^2.  At lam = 0 it is ``RidgeRiskProfile.parts``' projector rule.
    """
    profile = template_profile(params)
    t_lo, t_hi = optimize.spectrum_bracket(profile.n, profile.gamma)
    lam_min = math.exp(t_lo[0]) if lambda_min is None else lambda_min
    lam_max = math.exp(t_hi[0]) if lambda_max is None else lambda_max
    rows = [("lambda", "risk", "bias", "variance")]
    for lam in [0.0] + [float(v) for v in np.geomspace(lam_min, lam_max, points)]:
        if lam == 0:
            bias, var = profile.parts(lam)
        else:
            x = profile.n * lam
            d = profile.gamma + x
            bias = float(optimize._dot(profile.signal[None], (x / d)[None, None] ** 2)[0, 0] / profile.n)
            var = profile.noise / profile.n * float(np.sum((profile.gamma / d) ** 2))
        rows.append((lam, bias + var, bias, var))
    return rows


# ---------------------------------------------------------------------------
# the envelope of one template cell in scalar arithmetic: the oracle of ``riskfn.minimize_risks``' columns


@dataclass(frozen=True)
class BoundReport:
    """One template cell: its minimum (r_star at lambda_star) with its theoretical envelope and regime."""

    r_star: float
    lambda_star: float
    upper: float
    lower: float
    epsilon_cap: float
    regime: Regime
    kappa: float
    alpha: float


def bound_reports(bounds: Bounds, search: Search) -> list[BoundReport]:
    """The cells of ``minimize_risks``' bounds and search, one ``BoundReport`` each."""
    return [BoundReport(r_star, lambda_star, upper, lower, cap, REGIMES[regime], kap, alpha)
            for r_star, lambda_star, upper, lower, cap, regime, kap, alpha in zip(
                search.value.tolist(), search.lam.tolist(), bounds.upper.tolist(), bounds.lower.tolist(),
                bounds.epsilon_cap.tolist(), bounds.regime.tolist(), bounds.kappa.tolist(), bounds.alpha.tolist())]


def minimize_risk(params: RiskParams) -> BoundReport:
    """One cell of ``minimize_risks``: the template minimum with its envelope and regime."""
    return bound_reports(*minimize_risks(*([value] for value in astuple(params))))[0]


class NoEpsilonCapError(RuntimeError):
    """The localization cap is undefined because n p / sigma2 is too small."""


def minimax_rate(params: RiskParams, kap: float) -> float:
    """(np/sigma2)^(1/2d - 1) C^(1/2d) kappa: the rate shared by the bounds, the cap and the regime test."""
    e = 1 / (2 * params.delta)
    return (params.n * params.p / params.sigma2) ** (e - 1) * params.c ** e * kap


def epsilon_cap(params: RiskParams, rate: float) -> float:
    """Exact localization cap: the optimizer of the template risk lies in [0, cap].

    Solves C eps^2/(1+eps)^2 = 2^(1/2d) rate for eps, which needs
    s = sqrt(2^(1/2d) rate / C) < 1.
    """
    if not minimax_window(params.beta, params.delta):
        raise NoEpsilonCapError("cap is defined only on the minimax window")
    if params.c == 0:
        raise NoEpsilonCapError("cap is undefined for a zero signal amplitude")
    s = math.sqrt(2 ** (1 / (2 * params.delta)) * rate / params.c)
    if s >= 1:
        x = params.n * params.p / params.sigma2
        raise NoEpsilonCapError(f"np/sigma2 = {x!r} too small for the cap (coefficient {s!r} >= 1)")
    return s / (1 - s)


def scalar_report(params: RiskParams, r_star: float, lambda_star: float) -> BoundReport:
    """The envelope and regime of one cell with the minimum (r_star, lambda_star), one Python float at a time.

    Bounds that require the minimax (resp. lower-bound) window are nan outside it; so is the cap where
    ``epsilon_cap`` raises.
    """
    hm, lb = minimax_window(params.beta, params.delta), lower_bound_window(params.beta, params.delta)
    kap = kappa(params.beta, params.delta) if hm else math.nan
    alpha = alpha_constant(params.beta, params.delta) if lb else math.nan
    rate = minimax_rate(params, kap) if hm else math.nan  # outside, its power may overflow
    try:
        cap = epsilon_cap(params, rate)
    except NoEpsilonCapError:
        cap = math.nan
    threshold = float(params.n) ** (-2.0 * params.beta)
    if lambda_star >= threshold and math.isfinite(rate) and rate > 0 and rate / 4 <= r_star <= 4 * rate:
        regime = Regime.REGULARIZE
    elif lambda_star <= threshold and params.sigma2 / (4 * params.p) <= r_star <= params.sigma2 / params.p:
        regime = Regime.TRIVIAL_NOISE
    else:
        regime = Regime.UNDETERMINED
    return BoundReport(r_star=r_star, lambda_star=lambda_star,
                       upper=min(2 ** (1 / (2 * params.delta)) * rate, params.sigma2 / params.p) if hm else math.nan,
                       lower=min(alpha * rate, params.sigma2 / (4 * params.p)) if lb else math.nan,
                       epsilon_cap=cap, regime=regime, kappa=kap, alpha=alpha)


# ---------------------------------------------------------------------------
# paper formulas no command evaluates


def risk_r(params: RiskParams, lam: float) -> float:
    """Template risk at a single regularization value (lam may be 0 or inf)."""
    return template_profile(params).value(lam)


def t_star(beta: float, delta: float, lam: float) -> float:
    """Maximizer of t -> t^(4b-2d) / (1 + lam t^(2b))^2 on the positive axis."""
    if 4 * beta <= 2 * delta:
        raise ValueError("need 4 beta > 2 delta for an interior maximum")
    if lam <= 0:
        raise ValueError("lam must be positive")
    return ((4 * beta - 2 * delta) / (2 * delta * lam)) ** (1 / (2 * beta))


def hm_bound_rhs(
    n: int,
    p: int,
    sigma2: float,
    theta: float,
    mt_oracle_risk: float,
    f_sqnorm: float,
    big_l: float = 1.0,
) -> float:
    """Right-hand side of the data-driven estimator's oracle inequality.

    (1 + 1/ln n)^2 * mt_oracle_risk + L sigma2 (2+theta)^2 p ln(n)^3 / n
    + p / n^(theta/2) * f_sqnorm / (n p).  The absolute constant L is not
    specified by the theory; it is exposed as a knob with default 1.
    """
    if n < 3:
        raise ValueError("need n >= 3 for the logarithmic terms")
    if theta < 2:
        raise ValueError("theta must be at least 2")
    log_n = math.log(n)
    return (
        (1 + 1 / log_n) ** 2 * mt_oracle_risk
        + big_l * sigma2 * (2 + theta) ** 2 * p * log_n**3 / n
        + p / n ** (theta / 2) * f_sqnorm / (n * p)
    )
