"""Task-ensemble generators: deterministic cluster configurations and the
seeded simulation settings.

All random settings draw from a counter-based Philox generator keyed by the
scenario seed, so streams are reproducible across runs and platforms.
Replicate sub-streams are derived by spawn-key hashing of (seed, replicate
index), never by jumping a shared stream.  The hash is numpy's
``SeedSequence`` written as array code, so every sub-seed and Philox key of
a work list comes from one pass, bit for bit numpy's, and every replicate's
stream is one block of raw Philox words: the same numbers numpy's
``Generator`` would draw from that key.  A replicate's words depend on its
key alone, so ``draw`` gives a work list in chunks of replicates.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .optimize import BLOCK_ELEMENTS
from .spectral import KernelSpectrum, TaskEnsemble, eigendecompose_kernels


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
        if self.beta_or_m < 0:
            raise ValueError("beta_or_m must be nonnegative")
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


# numpy's SeedSequence hash (NEP 19, after O'Neill's seed_seq_fe): 32-bit words mixed into a pool of four
_POOL, _MASK, _MAX_PATH = 4, 0xFFFFFFFF, 8
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_OTHERS = [np.array([dst for dst in range(_POOL) if dst != src]) for src in range(_POOL)]


def _constants(init: int, mult: int, steps: int) -> np.ndarray:
    """The hash constant before each step k = 0..steps, init mult^k mod 2^32, as a column."""
    return np.array([init * pow(mult, k, 2**32) & _MASK for k in range(steps + 1)], dtype=np.uint64)[:, None]


_ENTROPY_CONSTANTS = _constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL + _POOL * _MAX_PATH)
_OUTPUT_CONSTANTS = _constants(0x8B51F9DD, 0x58F38DED, 4)


def _hashmix(value: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One hash step per row of ``constants`` but the last: xor a constant, multiply by the next, xor-shift.

    Words are held in uint64 arrays: a 32-bit word times a 32-bit constant cannot wrap, and is masked.
    """
    value = (value ^ constants[:-1]) * constants[1:] & _MASK
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = (_MIX_L * x - _MIX_R * y) & _MASK  # an array difference wraps modulo 2^64, silently and harmlessly
    return value ^ value >> 16


def _seed_hash(seeds: np.ndarray, path: np.ndarray, words: int) -> np.ndarray:
    """``SeedSequence(entropy=seeds[r], spawn_key=path[:, r]).generate_state(words, np.uint64)`` of every r: (words, R).

    ``path`` is a (K, R) array of 32-bit words, K = 0 for no spawn key; ``words`` is 1 or 2.  A seed is its
    low and high 32-bit words, zero-padded to the pool: numpy pads the entropy to the pool before a spawn
    key and hashes a missing pool word as a zero word, so one-word and two-word seeds take the same path.
    Each step numpy runs word by word is vectorized over the pool words it updates and over the columns.
    """
    pool = np.zeros((_POOL, seeds.size), dtype=np.uint64)
    pool[0], pool[1] = seeds & _MASK, seeds >> 32
    pool = _hashmix(pool, _ENTROPY_CONSTANTS[:_POOL + 1])
    step = _POOL
    for src, others in enumerate(_OTHERS):  # every pool word into every other, source by source
        pool[others] = _mix(pool[others], _hashmix(pool[src], _ENTROPY_CONSTANTS[step:step + _POOL]))
        step += _POOL - 1
    for word in path:  # then each spawn-key word into every pool word
        pool = _mix(pool, _hashmix(word, _ENTROPY_CONSTANTS[step:step + _POOL + 1]))
        step += _POOL
    out = _hashmix(pool[:2 * words], _OUTPUT_CONSTANTS[:2 * words + 1])
    return out[0::2] | out[1::2] << 32  # two 32-bit words per uint64, low first


def derive_seeds(seeds, path) -> np.ndarray:
    """The 64-bit sub-seed of every column (seeds[r], path[:, r]) of a work list, as one array pass.

    ``path`` holds K rows of 32-bit indices (replicate, table row, or heatmap row and column), K <= 8.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    path = np.asarray(path, dtype=np.uint64).reshape(-1, seeds.size)
    if len(path) > _MAX_PATH or (path >> 32).any():
        raise ValueError(f"a seed path holds at most {_MAX_PATH} indices of 32 unsigned bits")
    return _seed_hash(seeds, path, 1)[0]


def derive_seed(seed: int, *path: int) -> int:
    """64-bit sub-seed addressed by (seed, path): the seed of a replicate or a sweep cell; ``derive_seeds`` of one."""
    return int(derive_seeds([seed], [[k] for k in path])[0])


def power_law(n: int, beta: float) -> np.ndarray:
    """gamma_i = n i^(-2 beta) for i = 1..n: the synthetic kinds' and the risk template's spectrum."""
    i = np.arange(1, n + 1, dtype=float)
    return n * i ** (-2.0 * beta)


def _decay(n: int, delta: float) -> np.ndarray:
    i = np.arange(1, n + 1, dtype=float)
    return math.sqrt(n) * i ** (-delta)


def _h2points(spec: ScenarioSpec, h: np.ndarray) -> None:
    """Two equal clusters: first half amplitude sqrt(C1)+sqrt(C2), second half sqrt(C1)-sqrt(C2)."""
    plus, minus = math.sqrt(spec.c1) + math.sqrt(spec.c2), math.sqrt(spec.c1) - math.sqrt(spec.c2)
    h[...] = _decay(spec.n, spec.delta1)[:, None] * np.repeat([plus, minus], spec.p // 2)


def _h1out(spec: ScenarioSpec, h: np.ndarray) -> None:
    """p-1 identical tasks plus one outlier, balanced so the mean profile is exact."""
    amplitudes = [math.sqrt(spec.c1) + math.sqrt(spec.c2 / (spec.p - 1))] * (spec.p - 1)
    amplitudes.append(math.sqrt(spec.c1) - math.sqrt((spec.p - 1) * spec.c2))
    h[...] = _decay(spec.n, spec.delta1)[:, None] * np.array(amplitudes)


def _keys(seeds: np.ndarray) -> np.ndarray:
    """The Philox key of every seed, (R, 2): the key ``Philox(SeedSequence(seed))`` takes, all from one hash pass."""
    return _seed_hash(seeds, np.empty((0, seeds.size), dtype=np.uint64), 2).T


def _stream(keys: np.ndarray, lead: int, n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each replicate's first ``lead`` 64-bit words, (R, lead), then its (R, n, p) block of Rademacher signs.

    Replicate r draws from Philox (Salmon et al., SC 2011) keyed by ``keys[r]`` (``_keys``), at counter 0
    with an empty buffer: one ``random_raw`` call per replicate.  Its words depend on its key alone, so a
    work list can be drawn in chunks of replicates.  The words are what ``next_double`` reads, one each.
    The signs are numpy's ``integers(0, 2)`` after them: its 32-bit Lemire path never rejects for two
    values, so each sign is the top bit of the next 32-bit output, the low half and then the high half
    of each 64-bit word from word ``lead`` on.
    """
    raw = np.empty((len(keys), lead + -(-n * p // 2)), dtype=np.uint64)
    bitgen = np.random.Philox(key=0)
    state = bitgen.state  # counter 0, empty buffer
    for r, key in enumerate(keys):
        state["state"]["key"] = key
        bitgen.state = state
        raw[r] = bitgen.random_raw(raw.shape[1])
    words = raw[:, :lead].copy()
    signs = np.empty((len(keys), n, p))
    np.right_shift(raw.astype("<u8", copy=False).view("<u4")[:, 2 * lead:2 * lead + n * p], 31,
                   out=signs.reshape(len(keys), -1), casting="unsafe")
    del raw
    signs *= 2.0
    signs -= 1.0
    return words, signs


def _setting_a(spec: ScenarioSpec, eps: np.ndarray) -> None:
    """One diffuse cluster: h_i^j = sqrt(n) i^(-delta) (sqrt(C1) + eps_i^j sqrt(C2)), scaled from the signs in place."""
    eps *= math.sqrt(spec.c2)
    eps += math.sqrt(spec.c1)
    eps *= _decay(spec.n, spec.delta1)[:, None]


def _setting_c(spec: ScenarioSpec, eps: np.ndarray) -> None:
    """Cluster whose dispersion has its own decay: sqrt(n)(sqrt(C1) i^-d1 + eps sqrt(C2) i^-d2), in place."""
    i = np.arange(1, spec.n + 1, dtype=float)
    eps *= math.sqrt(spec.c2)
    eps *= (i ** -spec.delta2)[:, None]
    eps += math.sqrt(spec.c1) * (i ** -spec.delta1)[:, None]
    eps *= math.sqrt(spec.n)


def _setting_d(spec: ScenarioSpec, eps: np.ndarray) -> None:
    """Cluster of p-1 sign-noise tasks around zero plus one outlier, in place.

    Cluster columns use exponent 2 and unit amplitude; the outlier column has
    amplitude sqrt(n C2) and exponent delta2.
    """
    i = np.arange(1, spec.n + 1, dtype=float)
    cluster, outlier = eps[..., : spec.p - 1], eps[..., spec.p - 1]
    cluster *= math.sqrt(spec.n)
    cluster *= (i**-2.0)[:, None]
    outlier *= math.sqrt(spec.n * spec.c2)
    outlier *= i ** -spec.delta2


# pi to 110 digits: the rational arithmetic of zeta(2k) below stays far inside a double's rounding
_PI_DIGITS = ("3.14159265358979323846264338327950288419716939937510"
              "58209749445923078164062862089986280348253421170679821480865")
_ZETA_ONE = 54  # from this even s on, zeta(s) - 1 < 2^-53 and zeta(s) rounds to 1.0


@functools.cache
def _spline_coefficients(m: int) -> np.ndarray:
    """Horner coefficients of the order-m kernel in (|theta| - pi)^2, constant first: -(-1)^j 2 eta(2m - 2j) / (2j)!.

    zeta(2k) = (-1)^(k+1) B_2k (2 pi)^(2k) / (2 (2k)!) (DLMF 25.6.2; zeta(0) = -1/2), from the Bernoulli
    numbers in rational arithmetic, rounded once: the doubles ``scipy.special.zeta`` gives.  Read-only.
    """
    from fractions import Fraction  # imported here: only setting B needs it, and it costs start-up time

    bernoulli = [Fraction(1)]
    for k in range(1, min(2 * m, _ZETA_ONE - 2) + 1):
        bernoulli.append(-sum(math.comb(k + 1, i) * b for i, b in enumerate(bernoulli)) / (k + 1))
    two_pi = 2 * Fraction(_PI_DIGITS)
    zeta = [float((-1) ** (k + 1) * bernoulli[2 * k] * two_pi ** (2 * k) / (2 * math.factorial(2 * k)))
            if 2 * k < _ZETA_ONE else 1.0 for k in range(m, -1, -1)]
    j = np.arange(m + 1)
    s = 2.0 * (m - j)
    with np.errstate(under="ignore"):  # for large m, 1/(2j)! and the high-order terms fall below the smallest double
        inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / ((2.0 * j[1:]) * (2.0 * j[1:] - 1.0)))))
        coef = (-1.0) ** (j + 1) * (2.0 - np.exp2(2.0 - s)) * np.array(zeta) * inv_fact
    coef.flags.writeable = False
    return coef


def periodic_kernel_value(theta: np.ndarray, m: int) -> np.ndarray:
    """Translation-invariant periodic-spline kernel 2 sum_k cos(k theta)/k^(2m).

    For theta in [-2 pi, 2 pi] this is the Bernoulli-polynomial closed form
    (-1)^(m-1) (2 pi)^(2m) B_2m(|theta|/2 pi) / (2m)! (DLMF 24.8.1; Wahba 1990,
    Spline Models for Observational Data, sec. 2.1).  In u = |theta| - pi it
    reads -sum_{j=0..m} (-u^2)^j 2 eta(2m - 2j) / (2j)!, with the Dirichlet eta
    function eta(s) = (1 - 2^(1-s)) zeta(s) and eta(0) = 1/2, and is evaluated
    by Horner's rule in u^2 on coefficients computed once per m, in place and
    step for step as numpy's ``polyval``.  Every integer m >= 1 is supported:
    for large m the high-order coefficients underflow to zero and the kernel
    tends to 2 cos(theta).
    """
    if not float(m).is_integer() or m < 1:
        raise ValueError("smoothness order m must be an integer >= 1")
    u = np.abs(np.asarray(theta, dtype=float))
    if np.any(u > 2 * np.pi + 1e-12):
        raise ValueError("angles must lie in [-2 pi, 2 pi]")
    u -= np.pi
    u *= u  # the bits of (|theta| - pi) ** 2
    coef = _spline_coefficients(int(m))
    value = u * 0.0
    with np.errstate(under="ignore"):  # for large m the high-order terms fall below the smallest double
        value += coef[-1]
        for c in coef[-2::-1]:  # polyval's c + value u
            value *= u
            value += c
    return value


def _uniform(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """numpy's ``uniform(low, high)`` of each word: ``low + (high - low) next_double``, 53 bits per double."""
    return low + (high - low) * ((words >> 11) * 2.0**-53)


def _setting_b(segments: Iterable[tuple[ScenarioSpec, slice]], words: np.ndarray,
               eps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random-design periodic-spline setting of one block of replicates: its spectra, bases and coefficients.

    ``segments`` gives each spec the block its replicates take (``_segments``).  Replicate r reads n inputs
    uniformly on [-pi, pi] from ``words[r]``, turns its sign field ``eps[r]`` in place into the task values
    (sqrt(C1) + eps_i^j sqrt(C2)) |X_i| and projects them onto the eigenbasis of its kernel matrix.  The
    block takes one ``eigh`` and one ``matmul``, and each replicate gets the bits of its own decomposition.
    """
    n = eps.shape[1]
    x = _uniform(words, -np.pi, np.pi)
    kernels = np.empty((len(x), n, n))
    for spec, part in segments:
        kernels[part] = periodic_kernel_value(x[part, :, None] - x[part, None, :], int(spec.beta_or_m))
        values = eps[part]
        values *= math.sqrt(spec.c2)
        values += math.sqrt(spec.c1)
        values *= np.abs(x[part])[:, :, None]
    gamma, basis = eigendecompose_kernels(kernels)
    del kernels
    return gamma, basis, np.matmul(basis, eps)


def _segments(specs: list[ScenarioSpec], reps: int, start: int, stop: int) -> Iterator[tuple[ScenarioSpec, slice]]:
    """(spec, slice) of every spec that replicates start..stop of a work list meet, the slice local to them."""
    for k in range(start // reps, -(-stop // reps)):
        yield specs[k], slice(max(start, k * reps) - start, min(stop, (k + 1) * reps) - start)


# the kinds drawn from their seeds; every replicate of another kind's spec has the same tasks
RANDOM_KINDS = {ScenarioKind.SETTING_A, ScenarioKind.SETTING_B, ScenarioKind.SETTING_C, ScenarioKind.SETTING_D}
_TASK_BLOCKS = {ScenarioKind.H2POINTS: _h2points, ScenarioKind.H1OUT: _h1out, ScenarioKind.SETTING_A: _setting_a,
                ScenarioKind.SETTING_C: _setting_c, ScenarioKind.SETTING_D: _setting_d}


def draw(specs: list[ScenarioSpec], seeds) -> tuple[np.ndarray, np.ndarray, Iterator[tuple[slice, np.ndarray]]]:
    """Distinct spectra (k, n), each replicate's index into them, and a work list's task coefficients in chunks.

    ``seeds`` is an (S, R) array: replicate r of ``specs[k]`` is replicate k R + r of the work list, drawn
    from its own stream keyed by ``seeds[k, r]``, and its coefficients are the ensemble of that spec with
    that seed, bit for bit.  The specs share one kind, n and p, and every Philox key is hashed in one pass.
    The chunks come in order, each a slice of replicates and their (len, n, p) coefficients, and a chunk
    may span specs: about ``BLOCK_ELEMENTS`` task values (at least one replicate) for the synthetic kinds,
    whose sign block each spec scales in place on its own segment, and the blocks of ``BLOCK_ELEMENTS``
    // n^2 replicates of the periodic-spline setting, which reads n input words first and projects.  A
    chunk is dropped by the draw once the next is asked for.  The synthetic kinds get one spectrum
    ``power_law(n, beta_or_m)`` per distinct ``beta_or_m``, in order of first use; the periodic-spline
    setting draws one per replicate and writes it into its row of the spectra as its chunk is drawn,
    dropping the basis (``build_ensemble`` keeps the basis of one replicate).
    """
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(len(specs), -1)
    kind, n, p = specs[0].kind, specs[0].n, specs[0].p
    if kind is ScenarioKind.SETTING_B:
        gamma, owner, per = np.empty((seeds.size, n)), np.arange(seeds.size), max(1, BLOCK_ELEMENTS // (n * n))
    else:
        first: dict[float, int] = {}  # each distinct beta_or_m and its index, in order of first use
        owner = np.repeat([first.setdefault(spec.beta_or_m, len(first)) for spec in specs], seeds.shape[1])
        gamma, per = np.array([power_law(n, beta) for beta in first]), max(1, BLOCK_ELEMENTS // (n * p))
    keys = _keys(seeds.ravel()) if kind in RANDOM_KINDS else None
    return gamma, owner, _chunks(specs, seeds.shape[1], keys, per, gamma)


def _chunks(specs: list[ScenarioSpec], reps: int, keys: np.ndarray | None, per: int, gamma: np.ndarray):
    """The chunks of ``draw``, ``per`` replicates each; setting B writes its spectra into ``gamma``."""
    kind, n, p = specs[0].kind, specs[0].n, specs[0].p
    for start in range(0, len(specs) * reps, per):
        stop = min(start + per, len(specs) * reps)
        segments = _segments(specs, reps, start, stop)
        if kind is ScenarioKind.SETTING_B:
            gamma[start:stop], basis, h = _setting_b(segments, *_stream(keys[start:stop], n, n, p))
            del basis  # only build_ensemble keeps a basis
        else:  # the sign block of a random kind becomes the task block
            h = _stream(keys[start:stop], 0, n, p)[1] if keys is not None else np.empty((stop - start, n, p))
            for spec, part in segments:
                _TASK_BLOCKS[kind](spec, h[part])
        yield slice(start, stop), h
        del h


def build_ensemble(spec: ScenarioSpec) -> tuple[KernelSpectrum, TaskEnsemble]:
    """Generate (spectrum, ensemble) for any scenario kind: the one-replicate case of ``draw``, with its basis."""
    if spec.kind is ScenarioKind.SETTING_B:
        keys = _keys(np.array([spec.seed], dtype=np.uint64))
        gamma, basis, h = _setting_b([(spec, slice(0, 1))], *_stream(keys, spec.n, spec.n, spec.p))
    else:
        gamma, _, chunks = draw([spec], [[spec.seed]])
        [(_, h)], basis = chunks, [None]
    return KernelSpectrum(n=spec.n, gamma=gamma[0], basis=basis[0]), TaskEnsemble(n=spec.n, p=spec.p, h=h[0])
