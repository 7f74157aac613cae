"""Task-ensemble generators: deterministic cluster configurations and the
seeded simulation settings.

All random settings draw from a counter-based Philox generator keyed by the
scenario seed, so streams are reproducible across runs and platforms.
Replicate sub-streams are derived by spawn-key hashing of (seed, replicate
index), never by jumping a shared stream.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .spectral import KernelSpectrum, TaskEnsemble, eigendecompose_kernel, project_tasks


class ScenarioKind(enum.Enum):
    H2POINTS = "h2points"
    H1OUT = "h1out"
    SETTING_A = "setting_a"
    SETTING_B = "setting_b"
    SETTING_C = "setting_c"
    SETTING_D = "setting_d"


_NEEDS_DELTA2 = {ScenarioKind.SETTING_C, ScenarioKind.SETTING_D}


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one task configuration.

    ``beta_or_m`` is the spectral decay exponent beta for synthetic spectra
    and the integer smoothness order m for the periodic-spline setting.
    """

    kind: ScenarioKind
    n: int
    p: int
    c1: float
    c2: float
    delta1: float
    delta2: float | None = None
    beta_or_m: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.p < 1:
            raise ValueError("n and p must be positive integers")
        if self.c1 < 0 or self.c2 < 0:
            raise ValueError("amplitudes must be nonnegative")
        if self.delta1 <= 0:
            raise ValueError("delta1 must be positive")
        if self.kind is ScenarioKind.H2POINTS and self.p % 2:
            raise ValueError("the two-cluster configuration needs an even p")
        if self.kind is ScenarioKind.H1OUT and self.p < 2:
            raise ValueError("the outlier configuration needs p >= 2")
        if self.kind is ScenarioKind.SETTING_B and not (self.beta_or_m >= 1 and float(self.beta_or_m).is_integer()):
            raise ValueError("setting B needs an integer smoothness order m >= 1")
        if self.kind in _NEEDS_DELTA2:
            if self.delta2 is None or self.delta2 <= 0:
                raise ValueError(f"{self.kind.value} requires a positive delta2")
        elif self.delta2 is not None:
            raise ValueError(f"delta2 is only meaningful for settings C and D, not {self.kind.value}")
        nonfinite = [name for name in ("c1", "c2", "delta1", "delta2", "beta_or_m")
                     if getattr(self, name) is not None and not math.isfinite(getattr(self, name))]
        if nonfinite:
            raise ValueError(f"{', '.join(nonfinite)} must be finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def to_dict(self) -> dict:
        """The fields for a report, ``kind`` by its value and ``delta2`` last, only when set."""
        ordered = sorted(fields(self), key=lambda field: field.name == "delta2")
        values = {field.name: getattr(self, field.name) for field in ordered}
        return {k: v for k, v in values.items() if v is not None} | {"kind": self.kind.value}


def rng_for(seed: int) -> np.random.Generator:
    """Philox stream keyed by the seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=int(seed))))


def derive_seed(seed: int, *path: int) -> int:
    """64-bit sub-seed addressed by (seed, path): the seed of a replicate or a sweep cell."""
    key = tuple(int(k) for k in path)
    return int(np.random.SeedSequence(entropy=int(seed), spawn_key=key).generate_state(1, np.uint64)[0])


def synth_spectrum(n: int, beta: float) -> KernelSpectrum:
    """Polynomial-decay spectrum gamma_i = n i^(-2 beta) in the (implicit) identity basis."""
    i = np.arange(1, n + 1, dtype=float)
    return KernelSpectrum(n=n, gamma=n * i ** (-2.0 * beta))


def _decay(n: int, delta: float) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    return math.sqrt(n) * i ** (-delta)


def _h2points(spec: ScenarioSpec, seeds) -> np.ndarray:
    """Two equal clusters: first half amplitude sqrt(C1)+sqrt(C2), second half sqrt(C1)-sqrt(C2)."""
    plus, minus = math.sqrt(spec.c1) + math.sqrt(spec.c2), math.sqrt(spec.c1) - math.sqrt(spec.c2)
    return (_decay(spec.n, spec.delta1)[:, None] * np.repeat([plus, minus], spec.p // 2))[None]


def _h1out(spec: ScenarioSpec, seeds) -> np.ndarray:
    """p-1 identical tasks plus one outlier, balanced so the mean profile is exact."""
    amplitudes = [math.sqrt(spec.c1) + math.sqrt(spec.c2 / (spec.p - 1))] * (spec.p - 1)
    amplitudes.append(math.sqrt(spec.c1) - math.sqrt((spec.p - 1) * spec.c2))
    return (_decay(spec.n, spec.delta1)[:, None] * np.array(amplitudes))[None]


def _rademacher(rng: np.random.Generator, n: int, p: int) -> np.ndarray:
    return rng.integers(0, 2, size=(n, p)).astype(float) * 2.0 - 1.0


def _signs(spec: ScenarioSpec, seeds) -> np.ndarray:
    """(R, n, p) block of Rademacher signs: replicate r draws from its own stream rng_for(seeds[r])."""
    return np.stack([_rademacher(rng_for(seed), spec.n, spec.p) for seed in seeds])


def _setting_a(spec: ScenarioSpec, seeds) -> np.ndarray:
    """One diffuse cluster: h_i^j = sqrt(n) i^(-delta) (sqrt(C1) + eps_i^j sqrt(C2))."""
    eps = _signs(spec, seeds)
    return _decay(spec.n, spec.delta1)[:, None] * (math.sqrt(spec.c1) + eps * math.sqrt(spec.c2))


def _setting_c(spec: ScenarioSpec, seeds) -> np.ndarray:
    """Cluster whose dispersion has its own decay: sqrt(n)(sqrt(C1) i^-d1 + eps sqrt(C2) i^-d2)."""
    eps = _signs(spec, seeds)
    i = np.arange(1, spec.n + 1, dtype=float)
    return math.sqrt(spec.n) * (
        math.sqrt(spec.c1) * (i ** -spec.delta1)[:, None]
        + eps * math.sqrt(spec.c2) * (i ** -spec.delta2)[:, None]
    )


def _setting_d(spec: ScenarioSpec, seeds) -> np.ndarray:
    """Cluster of p-1 sign-noise tasks around zero plus one outlier.

    Cluster columns use exponent 2 and unit amplitude; the outlier column has
    amplitude sqrt(n C2) and exponent delta2.
    """
    eps = _signs(spec, seeds)
    i = np.arange(1, spec.n + 1, dtype=float)
    h = np.empty(eps.shape)
    h[..., : spec.p - 1] = math.sqrt(spec.n) * eps[..., : spec.p - 1] * (i**-2.0)[:, None]
    h[..., spec.p - 1] = math.sqrt(spec.n * spec.c2) * eps[..., spec.p - 1] * i ** -spec.delta2
    return h


def periodic_kernel_value(theta: np.ndarray, m: int) -> np.ndarray:
    """Translation-invariant periodic-spline kernel 2 sum_k cos(k theta)/k^(2m).

    For theta in [-2 pi, 2 pi] this is the Bernoulli-polynomial closed form
    (-1)^(m-1) (2 pi)^(2m) B_2m(|theta|/2 pi) / (2m)! (DLMF 24.8.1; Wahba 1990,
    Spline Models for Observational Data, sec. 2.1).  In u = |theta| - pi it
    reads -sum_{j=0..m} (-u^2)^j 2 eta(2m - 2j) / (2j)!, with the Dirichlet eta
    function eta(s) = (1 - 2^(1-s)) zeta(s) and eta(0) = 1/2, and is evaluated
    by Horner's rule in u^2.  Every integer m >= 1 is supported: for large m
    the high-order coefficients underflow to zero and the kernel tends to
    2 cos(theta).
    """
    from scipy.special import zeta  # imported here: only setting B needs scipy

    if not float(m).is_integer() or m < 1:
        raise ValueError("smoothness order m must be an integer >= 1")
    m = int(m)
    t = np.abs(np.asarray(theta, dtype=float))
    if np.any(t > 2 * np.pi + 1e-12):
        raise ValueError("angles must lie in [-2 pi, 2 pi]")
    j = np.arange(m + 1)
    s = 2.0 * (m - j)
    with np.errstate(under="ignore"):  # for large m, 1/(2j)! and the high-order terms fall below the smallest double
        inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / ((2.0 * j[1:]) * (2.0 * j[1:] - 1.0)))))
        coef = (-1.0) ** (j + 1) * (2.0 - np.exp2(2.0 - s)) * zeta(s) * inv_fact
        return np.polynomial.polynomial.polyval((t - np.pi) ** 2, coef)


def periodic_kernel_matrix(x: np.ndarray, m: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return periodic_kernel_value(x[:, None] - x[None, :], m)


def _setting_b(spec: ScenarioSpec, seeds) -> tuple[list[KernelSpectrum], np.ndarray]:
    """Random-design periodic-spline setting: each replicate draws its own spectrum.

    Replicate r draws n inputs uniformly on [-pi, pi] (first), then the
    Rademacher sign field, from ``rng_for(seeds[r])``; builds the kernel
    matrix, eigendecomposes it, and projects the task values
    (sqrt(C1) + eps_i^j sqrt(C2)) |X_i| onto the kernel eigenbasis.
    """
    spectra, h = [], []
    for seed in seeds:
        rng = rng_for(seed)
        x = rng.uniform(-np.pi, np.pi, spec.n)
        eps = _rademacher(rng, spec.n, spec.p)
        spectra.append(eigendecompose_kernel(periodic_kernel_matrix(x, int(spec.beta_or_m))))
        h.append(project_tasks(spectra[-1], (math.sqrt(spec.c1) + eps * math.sqrt(spec.c2)) * np.abs(x)[:, None]).h)
    return spectra, np.stack(h)


_TASK_BLOCKS = {ScenarioKind.H2POINTS: _h2points, ScenarioKind.H1OUT: _h1out, ScenarioKind.SETTING_A: _setting_a,
                ScenarioKind.SETTING_C: _setting_c, ScenarioKind.SETTING_D: _setting_d}


def draw(spec: ScenarioSpec, seeds: list[int]) -> tuple[list[KernelSpectrum], np.ndarray]:
    """Spectra and task coefficients of one replicate per seed, the coefficients as an (R, n, p) block.

    Replicate r draws from its own stream ``rng_for(seeds[r])``: its slice is the ensemble of ``spec``
    with that seed, bit for bit, on spectrum ``r % len(spectra)``.  The synthetic kinds share one
    polynomial-decay spectrum with beta = beta_or_m (the deterministic configurations give a read-only
    broadcast); the periodic-spline setting draws one spectrum per replicate.
    """
    if spec.kind is ScenarioKind.SETTING_B:
        return _setting_b(spec, seeds)
    h = np.broadcast_to(_TASK_BLOCKS[spec.kind](spec, seeds), (len(seeds), spec.n, spec.p))
    return [synth_spectrum(spec.n, spec.beta_or_m)], h


def build_ensemble(spec: ScenarioSpec) -> tuple[KernelSpectrum, TaskEnsemble]:
    """Generate (spectrum, ensemble) for any scenario kind: the one-replicate case of ``draw``."""
    spectra, h = draw(spec, [spec.seed])
    return spectra[0], TaskEnsemble(n=spec.n, p=spec.p, h=h[0])
