import contextlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import bits, full_width, minimize_profile, parabola_start, rows, search_one, value_grid
from reference import RidgeRiskProfile, certified_lower_bound, full_scan_minimize_profiles, split_dot

from mtkrr import optimize
from mtkrr.optimize import (BRACKET_DECADES, DEFAULT_GRID_POINTS, SOURCES, TAIL_ORDER, TAIL_RATIO, _curve,
                             minimize_profiles)
from mtkrr.estimators import comparison_rows
from mtkrr.scenarios import ScenarioKind, ScenarioSpec, build_ensemble


# the head and tail split of the grid scan and Newton forced on at every width past ``HEAD_MIN``, and off at every
# width (most stacks here are narrow)
SPLIT_ON_OFF = pytest.mark.parametrize("split_width", [0, sys.maxsize], ids=["split on", "split off"])


@contextlib.contextmanager
def split_gate(width):
    """``optimize.SPLIT_WIDTH`` set to ``width`` inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "SPLIT_WIDTH", width)
        yield


def sample_profile(seed: int, n: int = 30) -> RidgeRiskProfile:
    rng = np.random.default_rng(seed)
    i = np.arange(1, n + 1, dtype=float)
    gamma = n * i ** (-2 * rng.uniform(1.0, 3.0))
    signal = rng.uniform(0.1, 2.0) * n * i ** (-2 * rng.uniform(0.8, 2.5))
    return RidgeRiskProfile(n=n, gamma=gamma, signal=signal, noise=rng.uniform(0.2, 2.0))


def log_derivatives(prof: RidgeRiskProfile, lam: float) -> tuple[float, float]:
    """dg/dt and d2g/dt2 at t = log lam > -inf, from the search's own derivative code."""
    row = np.zeros(1, dtype=np.intp)
    out = _curve(prof.n, prof.gamma[None, :], prof.signal[None, :], np.array([prof.noise]), row, row, row,
                 np.array([prof.n * lam]))
    return float(out[1, 0]), float(out[2, 0])


def grad(prof: RidgeRiskProfile, lam: float) -> float:
    """g'(lam) = (dg/dt) / lam."""
    return log_derivatives(prof, lam)[0] / lam


def hess(prof: RidgeRiskProfile, lam: float) -> float:
    """g''(lam) = (d2g/dt2 - dg/dt) / lam^2."""
    first, second = log_derivatives(prof, lam)
    return (second - first) / lam**2


@pytest.mark.parametrize("seed", range(5))
def test_grad_and_hess_match_finite_differences(seed):
    prof = sample_profile(seed)
    lam = 10 ** np.random.default_rng(seed + 100).uniform(-5, 0)
    eps = lam * 1e-6
    fd_grad = (prof.value(lam + eps) - prof.value(lam - eps)) / (2 * eps)
    fd_hess = (grad(prof, lam + eps) - grad(prof, lam - eps)) / (2 * eps)
    assert abs(grad(prof, lam) - fd_grad) < 1e-6 * max(1.0, abs(fd_grad))
    assert abs(hess(prof, lam) - fd_hess) < 1e-5 * max(1.0, abs(fd_hess))


@pytest.mark.parametrize("seed", range(8))
def test_minimum_beats_dense_grid(seed):
    prof = sample_profile(seed)
    best = minimize_profile(prof)
    grid = np.geomspace(1e-12, 1e3, 4000)
    grid_min = float(value_grid(prof, grid).min())
    grid_min = min(grid_min, prof.value(0.0), prof.value(math.inf))
    assert best.value <= grid_min * (1 + 1e-9)


def test_zero_signal_resolves_to_full_shrinkage():
    n = 20
    gamma = n * np.arange(1, n + 1, dtype=float) ** -4.0
    prof = RidgeRiskProfile(n=n, gamma=gamma, signal=np.zeros(n), noise=1.0)
    best = minimize_profile(prof)
    assert math.isinf(best.lam)
    assert best.value == 0.0


def test_zero_noise_resolves_to_interpolation():
    n = 10
    gamma = np.linspace(5.0, 1.0, n)
    signal = np.ones(n)
    prof = RidgeRiskProfile(n=n, gamma=gamma, signal=signal, noise=0.0)
    best = minimize_profile(prof)
    assert best.lam == 0.0
    assert best.value == 0.0


def test_null_direction_conventions():
    # gamma = 0 directions: full signal bias at every lam, no variance at lam = 0
    prof = RidgeRiskProfile(n=4, gamma=np.array([2.0, 0.0, 0.0, 0.0]), signal=np.array([0.0, 1.0, 2.0, 3.0]), noise=1.0)
    bias0, var0 = prof.parts(0.0)
    assert bias0 == pytest.approx(6.0 / 4)
    assert var0 == pytest.approx(1.0 / 4)
    bias_small, _ = prof.parts(1e-9)
    assert bias_small == pytest.approx(6.0 / 4, rel=1e-6)


def test_value_grid_matches_scalar_path():
    prof = sample_profile(3)
    lams = np.geomspace(1e-8, 10, 17)
    grid_vals = value_grid(prof, lams)
    for lam, v in zip(lams, grid_vals):
        assert abs(prof.value(float(lam)) - v) < 1e-14 * max(1.0, v)


def test_gradient_tolerance_is_respected(monkeypatch):
    prof = sample_profile(9)
    monkeypatch.setattr(optimize, "DEFAULT_GRAD_TOL", 1e-5)
    best = minimize_profile(prof)
    if best.source == "newton":
        assert abs(best.grad) < 1e-5


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        RidgeRiskProfile(n=3, gamma=np.array([1.0, -1.0, 0.5]), signal=np.zeros(3), noise=1.0)
    with pytest.raises(ValueError):
        RidgeRiskProfile(n=0, gamma=np.zeros(0), signal=np.zeros(0), noise=1.0)
    prof = sample_profile(1)
    with pytest.raises(ValueError):
        prof.value(-0.5)


def test_relative_stopping_rule_is_respected(monkeypatch):
    for seed in range(10):
        prof = sample_profile(seed)
        for tol in (1e-5, 1e-8):
            monkeypatch.setattr(optimize, "DEFAULT_GRAD_TOL", tol)
            best = minimize_profile(prof)
            assert best.source == "newton"
            assert abs(best.lam * best.grad) <= tol * best.value
            assert best.stationarity <= tol


def test_bracket_follows_the_spectrum_scale():
    # eigenvalues scaled up by 1e4 put the optimum above 1e3, outside a fixed unit-scale bracket
    prof = sample_profile(4)
    scaled = RidgeRiskProfile(n=prof.n, gamma=1e4 * prof.gamma, signal=prof.signal, noise=1e4 * prof.noise)
    best = minimize_profile(scaled)
    assert best.lam > 1e3
    assert best.value <= brute_force_minimum(scaled) * (1 + 1e-9)


# ---------------------------------------------------------------------------
# properties of the stacked engine

decades = st.floats(min_value=-6.0, max_value=6.0)


@st.composite
def profiles(draw, n=None):
    """A polynomial-decay spectrum and a random signal, each scale drawn over 1e-6..1e6."""
    n = n or draw(st.integers(min_value=2, max_value=40))
    i = np.arange(1, n + 1, dtype=float)
    gamma = 10.0 ** draw(decades) * i ** (-2.0 * draw(st.floats(min_value=0.5, max_value=3.0)))
    weights = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))
    signal = 10.0 ** draw(decades) * i ** (-2.0 * draw(st.floats(min_value=0.3, max_value=3.0))) * weights
    return RidgeRiskProfile(n=n, gamma=gamma, signal=signal, noise=10.0 ** draw(decades))


@st.composite
def wide_stacks(draw, min_rows=1):
    """(n, spectra, signal, noise, spectrum): rows at least ``SPLIT_WIDTH`` wide, drawn from a seed.

    Each of one to three spectra is a power law over 1e-6..1e6, shuffled, or with a tail of null eigenvalues;
    each row's signal is a power law with random weights, or zero, and its noise is drawn over 1e-6..1e6, or
    zero.  The arrays come from a numpy generator on a drawn seed: hypothesis draws only their shape.
    """
    width = draw(st.integers(min_value=optimize.SPLIT_WIDTH, max_value=optimize.SPLIT_WIDTH + 200))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    i = np.arange(1, width + 1, dtype=float)
    gamma = []
    for kind in draw(st.lists(st.sampled_from(("decay", "shuffled", "null tail")), min_size=1, max_size=3)):
        g = 10.0 ** draw(decades) * i ** (-2.0 * draw(st.floats(min_value=0.5, max_value=3.5)))
        if kind == "shuffled":
            g = rng.permutation(g)
        elif kind == "null tail":
            g[draw(st.integers(min_value=1, max_value=width - 1)):] = 0.0
        gamma.append(g)
    kinds = draw(st.lists(st.sampled_from(("decay", "decay", "zero signal", "zero noise")), min_size=min_rows,
                          max_size=6))
    signal = np.array([(kind != "zero signal") * 10.0 ** draw(decades) * rng.uniform(0.0, 1.0, width)
                       * i ** (-2.0 * draw(st.floats(min_value=0.3, max_value=3.0))) for kind in kinds])
    noise = np.array([(kind != "zero noise") * 10.0 ** draw(decades) for kind in kinds])
    return width, np.array(gamma), signal, noise, rng.integers(0, len(gamma), len(kinds))


def brute_force_minimum(prof: RidgeRiskProfile) -> float:
    """Dense log grid over the engine's bracket widened by 3 more decades, plus both limits."""
    positive = prof.gamma[prof.gamma > 0]
    widen = 10.0 ** (BRACKET_DECADES + 3)
    lams = np.geomspace(positive.min() / prof.n / widen, positive.max() / prof.n * widen, 20_000)
    return min(float(value_grid(prof, lams).min()), prof.value(0.0), prof.value(math.inf))


@given(profiles())
def test_value_is_at_or_below_the_brute_force_minimum(prof):
    best = minimize_profile(prof)
    assert best.value <= brute_force_minimum(prof) * (1 + 1e-9)
    assert best.value == pytest.approx(prof.value(best.lam), rel=1e-12)


@given(profiles(), decades)
def test_scaling_gamma_and_lambda_together_leaves_the_oracle_unchanged(prof, log_c):
    # R(c gamma, c lam) = R(gamma, lam): same oracle value, lam* scaled by c
    c = 10.0**log_c
    best = minimize_profile(prof)
    scaled = minimize_profile(RidgeRiskProfile(n=prof.n, gamma=c * prof.gamma, signal=prof.signal, noise=prof.noise))
    assert scaled.value == pytest.approx(best.value, rel=1e-9)
    assert prof.value(scaled.lam / c) <= best.value * (1 + 1e-9)
    if best.source == scaled.source == "newton" and best.stationarity < 1e-12:
        assert scaled.lam == pytest.approx(c * best.lam, rel=1e-4)


def assert_each_row_alone(profs: list[RidgeRiskProfile], rnd):
    """Each row of ``profs`` gets the same bits alone, stacked, shuffled, and on the first row's spectrum."""
    n = profs[0].n
    gammas = np.vstack([prof.gamma for prof in profs])
    signal = np.vstack([prof.signal for prof in profs])
    noise = np.array([prof.noise for prof in profs])
    # the raw bytes of every column: bit for bit, -0.0 apart from 0.0, and every nan alike
    alone = [bits(search_one(prof)) for prof in profs]
    stacked = minimize_profiles(n, gammas, signal, noise, spectrum=np.arange(len(profs)))
    order = list(range(len(profs)))
    rnd.shuffle(order)
    shuffled = minimize_profiles(n, gammas, signal[order], noise[order], spectrum=np.array(order))
    assert [bits(stacked, [k]) for k in range(len(profs))] == alone
    assert [bits(shuffled, [k]) for k in range(len(profs))] == [alone[k] for k in order]
    # every row on one shared spectrum
    shared = minimize_profiles(n, gammas[0], signal, noise)
    assert [bits(shared, [k]) for k in range(len(profs))] == [
        bits(search_one(RidgeRiskProfile(n=n, gamma=gammas[0], signal=prof.signal, noise=prof.noise)))
        for prof in profs]


@given(st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(profiles(n=n), min_size=2, max_size=6)), st.randoms(use_true_random=False))
def test_each_row_is_bit_identical_alone_in_any_stack_and_order(profs, rnd):
    assert_each_row_alone(profs, rnd)


@settings(max_examples=15)
@given(st.data(), st.randoms(use_true_random=False))
def test_each_wide_row_is_bit_identical_alone_in_any_stack_and_order(data, rnd):
    # rows at least the gate wide: Newton sums each basin's head and its tail's series (``optimize._split``)
    n, gamma, signal, noise, spectrum = data.draw(wide_stacks(min_rows=2))
    assert_each_row_alone([RidgeRiskProfile(n=n, gamma=gamma[j], signal=row, noise=v)
                           for j, row, v in zip(spectrum.tolist(), signal, noise.tolist())], rnd)


# ---------------------------------------------------------------------------
# certified global minima

CERTIFY_GAP = 1e-6  # relative: open cells near the optimum grow like gap^(-1/2)


@st.composite
def two_cluster_profiles(draw, n):
    """Two-basin curves: signal on the leading direction and on a pair far down a steep spectrum, little noise."""
    i = np.arange(1, n + 1, dtype=float)
    gamma = 10.0 ** draw(decades) * i ** (-2.0 * draw(st.floats(min_value=2.5, max_value=3.5)))
    scale = 10.0 ** draw(decades)
    signal = np.zeros(n)
    signal[0] = scale * 10.0 ** draw(st.floats(min_value=-2.0, max_value=0.0))
    at = draw(st.integers(min_value=n // 2, max_value=n - 3))
    signal[at:at + 2] = scale
    return RidgeRiskProfile(n=n, gamma=gamma, signal=signal,
                            noise=scale * 10.0 ** draw(st.floats(min_value=-3.0, max_value=-2.0)))


def grid_minima(prof: RidgeRiskProfile) -> np.ndarray:
    """The values of the curve's local minima on a dense log grid over the spectrum's scale, both limits included."""
    positive = prof.gamma[prof.gamma > 0]
    lams = np.geomspace(positive.min() / prof.n * 1e-6, positive.max() / prof.n * 1e6, 20_000)
    v = np.concatenate(([prof.value(0.0)], value_grid(prof, lams), [prof.value(math.inf)]))
    return v[1:-1][(v[1:-1] < v[:-2]) & (v[1:-1] <= v[2:])]


def assert_certified(profs: list[RidgeRiskProfile]):
    """Every value of one stacked search of ``profs`` is within 1 + ``CERTIFY_GAP`` of its curve's global minimum."""
    search = minimize_profiles(profs[0].n, np.vstack([prof.gamma for prof in profs]),
                               np.vstack([prof.signal for prof in profs]), np.array([prof.noise for prof in profs]),
                               spectrum=np.arange(len(profs)))
    for prof, value in zip(profs, search.value.tolist()):
        lower, evaluations = certified_lower_bound(prof, value, CERTIFY_GAP)
        assert value <= (1 + CERTIFY_GAP) * lower, (value, lower, evaluations)


@given(st.integers(min_value=2, max_value=40).flatmap(lambda n: st.lists(profiles(n=n), min_size=1, max_size=4)))
def test_every_value_of_a_stack_is_certified_globally_minimal(profs):
    assert_certified(profs)


@given(st.integers(min_value=20, max_value=40).flatmap(
    lambda n: st.lists(two_cluster_profiles(n), min_size=1, max_size=4)))
def test_every_value_of_a_multi_basin_stack_is_certified_globally_minimal(profs):
    assume(all(len(grid_minima(prof)) >= 2 for prof in profs))
    assert_certified(profs)


def test_the_certifier_refutes_the_minimum_of_the_other_basin():
    # two basins, near lam = 1e-11 (risk 0.0029) and 2e-3 (risk 0.067): the engine's value is certified, and the
    # higher basin's minimum is not, because the cell holding the global minimizer never closes under it
    n = 30
    signal = np.zeros(n)
    signal[0], signal[20:22] = 0.1, 1.0
    prof = RidgeRiskProfile(n=n, gamma=np.arange(1, n + 1, dtype=float) ** -6.0, signal=signal, noise=3e-3)
    local = grid_minima(prof)
    assert len(local) == 2
    found = minimize_profile(prof).value
    assert found <= (1 + CERTIFY_GAP) * certified_lower_bound(prof, found, CERTIFY_GAP)[0]
    lower, evaluations = certified_lower_bound(prof, float(local.max()), CERTIFY_GAP, max_evaluations=20_000)
    assert local.max() > 20 * (1 + CERTIFY_GAP) * lower and evaluations >= 20_000


def test_degenerate_rows_resolve_to_their_limits():
    n = 12
    gamma = n * np.arange(1, n + 1, dtype=float) ** -3.0
    signal = np.vstack([np.zeros(n), np.ones(n), np.ones(n)])
    zero_signal, zero_noise, flat = rows(minimize_profiles(
        n, np.vstack([gamma, gamma, np.zeros(n)]), signal, np.array([1.0, 0.0, 1.0]), spectrum=np.arange(3)))
    assert (zero_signal.lam, zero_signal.value, zero_signal.source) == (math.inf, 0.0, "limit")
    assert (zero_noise.lam, zero_noise.value, zero_noise.source) == (0.0, 0.0, "zero")
    # a boundary row has no stationarity: nan grad, inf lam and zero value raise no warning
    assert math.isnan(zero_signal.stationarity) and math.isnan(zero_noise.stationarity)
    # no positive eigenvalue: the curve is flat at sum(s)/n and a boundary wins
    assert flat.source in ("zero", "limit") and flat.value == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_risk_is_an_arithmetic_error(bad):
    n = 5
    signal = np.ones((2, n))
    signal[1, 2] = bad
    with pytest.raises(ArithmeticError, match="not finite on row 1"):
        minimize_profiles(n, np.linspace(2.0, 1.0, n), signal, np.ones(2))


@SPLIT_ON_OFF
def test_a_signal_near_the_largest_double_that_overflows_is_an_arithmetic_error(split_width, monkeypatch):
    monkeypatch.setattr(optimize, "SPLIT_WIDTH", split_width)
    n = 5
    signal = np.ones((2, n))
    signal[1] = 1e308  # finite, but the bias sums overflow
    with pytest.raises(ArithmeticError, match="not finite on row 1"):
        minimize_profiles(n, np.linspace(2.0, 1.0, n), signal, np.ones(2))


@SPLIT_ON_OFF
def test_an_overflow_between_the_coarse_points_is_an_arithmetic_error(split_width, monkeypatch):
    # bias and variance sums are finite at both grid ends and at every point of the first pass, and so
    # are both limits; only grid points 36 to 39, inside cells the bound prunes, overflow.  Such a row
    # keeps its whole grid, so the check sees what the full scan sees.
    monkeypatch.setattr(optimize, "SPLIT_WIDTH", split_width)
    big = np.finfo(float).max
    gamma = np.array([1.0, 1e-10, 1e-16])
    signal = np.array([[1.0, 1.0, 1.0], [0.05 * big, 0.9 * big, 0.0]])
    noise = np.array([1.0, 0.1001 * big])
    for search in (minimize_profiles, full_scan_minimize_profiles):
        with pytest.raises(ArithmeticError, match="not finite on row 1"), np.errstate(over="ignore"):
            search(3, gamma, signal, noise)


def test_stack_shape_and_sign_errors():
    with pytest.raises(ValueError):
        minimize_profiles(3, np.ones(3), np.ones((2, 4)), np.ones(2))
    with pytest.raises(ValueError):
        minimize_profiles(3, np.ones(3), np.ones((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="spectrum indices"):
        minimize_profiles(3, np.ones((2, 3)), np.ones((2, 3)), np.ones(2), spectrum=np.array([0, -1]))


def test_a_stack_of_no_rows_is_a_value_error():
    with pytest.raises(ValueError, match="need at least one row to minimize"):
        minimize_profiles(10, np.ones(10), np.empty((0, 10)), np.empty(0))


def test_a_spectrum_of_no_eigenvalues_is_a_value_error():
    with pytest.raises(ValueError, match="need spectra at least one eigenvalue wide"):
        minimize_profiles(10, np.empty(0), np.empty((1, 0)), np.ones(1))


# ---------------------------------------------------------------------------
# the pruned grid scan against the full 64-point scan


@st.composite
def spectra(draw, n):
    """A polynomial-decay spectrum over 1e-6..1e6, the same with a tail of null eigenvalues, or no positive one."""
    i = np.arange(1, n + 1, dtype=float)
    gamma = 10.0 ** draw(decades) * i ** (-2.0 * draw(st.floats(min_value=0.5, max_value=3.5)))
    kind = draw(st.sampled_from(("decay", "null tail", "flat")))
    if kind == "null tail":
        gamma[draw(st.integers(min_value=1, max_value=n - 1)):] = 0.0
    return gamma if kind != "flat" else np.zeros(n)


@st.composite
def signals(draw, n):
    """A row's signal and noise: random decay, two separated clusters, zero signal or zero noise."""
    i = np.arange(1, n + 1, dtype=float)
    scale = 10.0 ** draw(decades)
    kind = draw(st.sampled_from(("decay", "two clusters", "zero signal", "zero noise")))
    if kind == "two clusters":
        signal = np.zeros(n)
        signal[0] = scale * 10.0 ** draw(st.floats(min_value=-2.0, max_value=0.0))
        at = draw(st.integers(min_value=n // 2, max_value=n - 1))
        signal[at:at + 2] = scale
        return signal, scale * 10.0 ** draw(st.floats(min_value=-3.0, max_value=-2.0))
    weights = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)))
    signal = scale * i ** (-2.0 * draw(st.floats(min_value=0.3, max_value=3.0))) * weights
    noise = 10.0 ** draw(decades)
    return signal * (kind != "zero signal"), noise * (kind != "zero noise")


@st.composite
def stacks(draw):
    """(n, spectra, signal, noise, spectrum): rows of every kind of ``signals`` on one to four ``spectra``."""
    n = draw(st.integers(min_value=2, max_value=40))
    gamma = np.array(draw(st.lists(spectra(n), min_size=1, max_size=4)))
    drawn = draw(st.lists(signals(n), min_size=1, max_size=8))
    spectrum = np.array(draw(st.lists(st.integers(min_value=0, max_value=len(gamma) - 1),
                                      min_size=len(drawn), max_size=len(drawn))))
    return n, gamma, np.array([signal for signal, _ in drawn]), np.array([noise for _, noise in drawn]), spectrum


@st.composite
def multi_basin_stacks(draw):
    """Stacks of ``two_cluster_profiles`` whose curves each have at least two local minima."""
    n = draw(st.integers(min_value=20, max_value=40))
    profs = draw(st.lists(two_cluster_profiles(n), min_size=1, max_size=4))
    assume(all(len(grid_minima(prof)) >= 2 for prof in profs))
    return (n, np.array([prof.gamma for prof in profs]), np.array([prof.signal for prof in profs]),
            np.array([prof.noise for prof in profs]), np.arange(len(profs)))


def assert_as_the_full_scan(n, gamma, signal, noise, spectrum):
    """Every column of the search, the open-cell count included, is bit for bit the full scan's."""
    pruned = minimize_profiles(n, gamma, signal, noise, spectrum=spectrum)
    full = full_scan_minimize_profiles(n, gamma, signal, noise, spectrum=spectrum)
    for field in ("lam", "value", "grad", "iterations", "source", "open_cells"):
        assert getattr(pruned, field).tobytes() == getattr(full, field).tobytes(), field


@SPLIT_ON_OFF
@given(stacks())
def test_the_pruned_scan_finds_what_the_full_scan_finds(split_width, stack):
    with split_gate(split_width):
        assert_as_the_full_scan(*stack)


@SPLIT_ON_OFF
@given(multi_basin_stacks())
def test_the_pruned_scan_finds_what_the_full_scan_finds_on_multi_basin_curves(split_width, stack):
    with split_gate(split_width):
        assert_as_the_full_scan(*stack)


@SPLIT_ON_OFF
@pytest.mark.parametrize("width, spectra_count", [(300, 12), (3000, 2)])
def test_the_pruned_scan_finds_what_the_full_scan_finds_in_blocks(split_width, width, spectra_count):
    # wide rows split the first pass into blocks of spectra and rows, and the later passes into chunks of points
    rng = np.random.default_rng(width)
    i = np.arange(1, width + 1, dtype=float)
    gamma = np.array([10.0 ** rng.uniform(-3, 3) * i ** -rng.uniform(1.0, 6.0) for _ in range(spectra_count)])
    rows = 3 * spectra_count
    signal = 10.0 ** rng.uniform(-3, 3, (rows, 1)) * i ** -rng.uniform(0.6, 6.0, (rows, 1))
    signal[::5, width // 2:width // 2 + 2] = 1e3 * signal[::5, :1]  # a second cluster: two basins
    spectrum = rng.integers(0, spectra_count, rows)
    with split_gate(split_width):
        assert_as_the_full_scan(width, gamma, signal, 10.0 ** rng.uniform(-4, 1, rows), spectrum)


@pytest.mark.parametrize("m", [2.0, 3.0])
def test_open_cells_count_the_cells_a_periodic_spline_search_leaves_open(m):
    # the smooth periodic-spline spectra leave cells far from the winner whose bound lies below the value
    spec = ScenarioSpec(kind=ScenarioKind.SETTING_B, n=40, p=5, c1=1.0, c2=0.25, delta1=2.0, beta_or_m=m, seed=0)
    spectrum, tasks = build_ensemble(spec)
    signal, noise = comparison_rows(tasks.h[None], 1.0)
    assert_as_the_full_scan(40, spectrum.gamma, signal.reshape(-1, 40), noise, np.zeros(len(noise), dtype=np.intp))
    assert minimize_profiles(40, spectrum.gamma, signal.reshape(-1, 40), noise).open_cells.max() > 1


@SPLIT_ON_OFF
def test_a_row_with_null_eigenvalues_is_bit_identical_alone_and_stacked(split_width, monkeypatch):
    # the lam = 0 risk sums the signal of the null directions row by row, however many rows share the spectrum
    monkeypatch.setattr(optimize, "SPLIT_WIDTH", split_width)
    n = 25
    gamma = np.zeros(n)
    gamma[0] = 1.0
    signal = np.zeros((6, n))
    signal[:, 0] = 1.0
    signal[:, -3:] = [0.005977840567426049, 0.00549006538223677, 0.002529822128134704]
    noise = np.array([0.01, 1.0, 1.0, 0.01, 0.01, 0.0])
    stacked = minimize_profiles(n, gamma, signal, noise)
    assert [bits(stacked, [k]) for k in range(6)] == [
        bits(search_one(RidgeRiskProfile(n=n, gamma=gamma, signal=signal[k], noise=noise[k]))) for k in range(6)]


@SPLIT_ON_OFF
@given(stacks())
def test_pruned_cells_hold_nothing_below_the_winner_and_open_cells_keep_their_basins(split_width, stack):
    """What the pruning drops: cells the bound keeps above the value, and basins whose brackets lie in them.

    The first pass tests the eight cells between its ends, the first cell from lam = 0 and the last to
    lam = +inf, and the second pass tests none.  The bound B(t_a) + V(t_b) of every cell the first pass
    prunes, evaluated afresh with the exact limits at the outer ends, is at or above the value found.  Around
    every open cell [a, b], each grid point from a - 1 to b + 1 is evaluated with both its neighbours, so a
    basin whose Newton bracket meets the cell is refined.
    """
    n, gamma, signal, noise, spectrum = stack
    tested, scanned = [], []
    open_cells, scan = optimize._open_cells, optimize._scan

    def spy_open(*args):
        tested.append(open_cells(*args))
        return tested[-1]

    def spy_scan(gamma, signal, spectrum, x_grid, points, first, stop, *out):
        scanned.append((points, first.copy(), stop.copy()))
        scan(gamma, signal, spectrum, x_grid, points, first, stop, *out)

    with split_gate(split_width), pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_open_cells", spy_open)
        patch.setattr(optimize, "_scan", spy_scan)
        found = minimize_profiles(n, gamma, signal, noise, spectrum=spectrum)
    assert len(tested) == len(scanned) - 1 == 1
    t_lo, t_hi = optimize.spectrum_bracket(n, gamma)
    t_grid = t_lo[:, None] + np.arange(DEFAULT_GRID_POINTS) * ((t_hi - t_lo) / (DEFAULT_GRID_POINTS - 1))[:, None]
    for k, value in enumerate(found.value.tolist()):
        g = gamma[spectrum[k]]
        x = n * np.exp(t_grid[spectrum[k]])[:, None]
        # B and V at lam = 0, at the 64 grid points and at lam = +inf: entry i + 1 is grid point i
        bias = np.concatenate(([signal[k, g == 0].sum()], np.sum(signal[k] * (x / (g + x)) ** 2, axis=1),
                               [signal[k].sum()])) / n
        var = noise[k] * np.concatenate(([np.count_nonzero(g)], np.sum((g / (g + x)) ** 2, axis=1), [0.0])) / n
        evaluated = np.ones(DEFAULT_GRID_POINTS + 2, dtype=bool)  # the padding beyond both grid ends counts
        evaluated[1:-1] = False
        for points, first, stop in scanned:
            evaluated[1 + points[first[k]:stop[k]]] = True
        [open_] = tested
        step = DEFAULT_GRID_POINTS // open_.shape[1]
        for cell, is_open in enumerate(open_[k].tolist()):
            a, b = cell * step, (cell + 1) * step  # grid points; 0 also stands for lam = 0, 64 for lam = +inf
            if not is_open:
                assert bias[a + 1 if cell else 0] + var[b + 1] >= value, (k, cell)
            else:
                i = np.arange(max(a - 1, 0), min(b + 2, DEFAULT_GRID_POINTS))
                assert (evaluated[i] & evaluated[i + 1] & evaluated[i + 2]).all(), (k, cell)


@st.composite
def shared_curve_stacks(draw):
    """(n, spectra, signal, noise, spectrum, curve): rows on a few (signal, spectrum) pairs, each with its own noise.

    The signals and spectra are those of ``profiles`` and of the two-basin ``two_cluster_profiles``.  A row's
    noise is 0 or 1e-5 to 10 times its signal's largest entry, so the rows of one pair have windows of many
    widths, and a basin that one row's window holds may lie in cells that another row's bound prunes.
    """
    n = draw(st.integers(min_value=20, max_value=40))
    profs = draw(st.lists(st.one_of(profiles(n=n), two_cluster_profiles(n)), min_size=1, max_size=3))
    gamma, signal = np.array([prof.gamma for prof in profs]), np.array([prof.signal for prof in profs])
    cell = st.tuples(st.integers(0, len(profs) - 1), st.integers(0, len(profs) - 1),
                     st.one_of(st.none(), st.floats(min_value=-5.0, max_value=1.0)))
    curve, spectrum, level = zip(*draw(st.lists(cell, min_size=2, max_size=10)))
    noise = [0.0 if u is None else signal[k].max() * 10.0**u for k, u in zip(curve, level)]
    return n, gamma, signal, np.array(noise), np.array(spectrum), np.array(curve)


def search_and_basins(search) -> tuple[optimize.Search, list[bytes]]:
    """The ``Search`` that calling ``search`` returns, and the bytes of each row's Newton basins (bracket, start)."""
    calls, newton = [], optimize._newton

    def spy(n, gamma, signal, noise, spectrum, curve, rows, a, x, b, tails):
        calls.append((rows.copy(), np.array((a, x, b)).T.copy()))
        return newton(n, gamma, signal, noise, spectrum, curve, rows, a, x, b, tails)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_newton", spy)
        found = search()
    [(rows, basins)] = calls
    return found, [basins[rows == k].tobytes() for k in range(len(found.value))]


@SPLIT_ON_OFF
@given(shared_curve_stacks())
def test_rows_sharing_a_curve_and_a_spectrum_get_what_each_gets_alone(split_width, stack):
    """Named rows of one (curve, spectrum) pair share one grid scan over the union of their windows; each row
    still gets the bits of its search alone, and the same Newton basins: its values outside its own window
    are never seen."""
    n, gamma, signal, noise, spectrum, curve = stack
    with split_gate(split_width):
        named, named_basins = search_and_basins(
            lambda: minimize_profiles(n, gamma, signal, noise, spectrum=spectrum, curve=curve))
        repeated, repeated_basins = search_and_basins(
            lambda: minimize_profiles(n, gamma, signal[curve], noise, spectrum=spectrum))
        alone = [search_and_basins(lambda k=k: minimize_profiles(n, gamma[spectrum[k]], signal[curve[k]][None],
                                                                   noise[k:k + 1]))
                 for k in range(len(noise))]
    assert bits(named) == bits(repeated)
    assert [bits(named, [k]) for k in range(len(noise))] == [bits(search) for search, _ in alone]
    assert named_basins == repeated_basins == [basins for _, [basins] in alone]


def test_the_grid_scan_is_pruned(monkeypatch):
    """A smooth curve's search evaluates the risk at fewer than two thirds of the grid points, and a smooth
    width-2000 power-law curve 25 of them: the 7 coarse points, then 18 of the rest around its open cells."""
    evaluated = []
    squares = optimize._squares

    def count(gamma, x):
        evaluated.append(x.size)
        return squares(gamma, x)

    monkeypatch.setattr(optimize, "_squares", count)
    prof = sample_profile(0)
    assert minimize_profile(prof).source == "newton"
    assert sum(evaluated) < DEFAULT_GRID_POINTS * 2 / 3
    evaluated.clear()
    n = 2000
    i = np.arange(1, n + 1, dtype=float)
    assert n >= optimize.SPLIT_WIDTH
    wide = RidgeRiskProfile(n=n, gamma=n * i ** -3.0, signal=n * i ** -5.0, noise=1.0)
    assert minimize_profile(wide).source == "newton"
    assert sum(evaluated) == 25


# ---------------------------------------------------------------------------
# Newton's start: the minimum of the bias-variance model of the basin's five grid values


def newton_basins(search) -> tuple[optimize.Search, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What calling ``search`` returns, each basin's grid point, whether it starts at the parabola vertex (the
    model's fallback), and each basin's Newton result: its final (t, R, dR/dt) and its evaluation count."""
    model, newton, seen = optimize._model_start, optimize._newton, {}

    def spy_model(*args):
        seen["at"], start = args[6].copy(), model(*args)
        seen["fallback"] = start == args[-1]
        return start

    def spy_newton(*args):
        seen["newton"] = newton(*args)
        return seen["newton"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_model_start", spy_model)
        patch.setattr(optimize, "_newton", spy_newton)
        found = search()
    return found, seen["at"], seen["fallback"], np.array(seen["newton"][:3]).T, seen["newton"][3]


def smooth_row():
    """One row's values and sums of a^2 on the 64-point grid at n = noise = 1, as the scan leaves them:
    B = e^(t/4) and V = 4 e^(-t/4) in grid steps t from point 30, so the minimum lies at point 30 + 4 ln 2."""
    t = np.arange(DEFAULT_GRID_POINTS) - 30.0
    bias, var = np.exp(t / 4), 4.0 * np.exp(-t / 4)
    return (bias + var)[None, :], var[None, :]


def model_start(vals, squares, at, noise=1.0):
    """``optimize._model_start`` of one basin of one row at grid point ``at``, with the fallback 0.25."""
    zero = np.zeros(1, dtype=np.intp)
    return float(optimize._model_start(1.0, np.array([noise]), zero, vals, squares, zero, np.array([at]),
                                       np.array([0.25]))[0])


def test_the_start_model_finds_the_minimum_of_a_log_linear_bias_and_variance():
    vals, squares = smooth_row()
    # log B and log V are linear in t here, so the model is exact: its minimum is at 30 + 4 ln 2 = 32.77
    assert model_start(vals, squares, 33) == pytest.approx(4 * math.log(2) - 3, abs=1e-12)
    assert model_start(vals, squares, 32) == pytest.approx(4 * math.log(2) - 2, abs=1e-12)


def test_the_newton_step_on_the_model_follows_a_curved_log_bias():
    # B = e^(t/4 + t^2/64), V = 4 e^(-t/4): the log-linear closed form alone lands 0.027 steps past the minimum,
    # and one Newton step on the quartic model brings the start within 1e-4 steps of it
    t = np.arange(DEFAULT_GRID_POINTS) - 30.0
    bias, var = np.exp(t / 4 + t**2 / 64), 4.0 * np.exp(-t / 4)
    lo, hi = 1.0, 3.0  # the minimum solves (1/4 + t/32) e^(t/4 + t^2/64) = e^(-t/4)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (0.25 + mid / 32) * math.exp(mid / 4 + mid**2 / 64) < math.exp(-mid / 4) else (lo, mid)
    assert abs(model_start((bias + var)[None, :], var[None, :], 32) - (lo - 2.0)) < 1e-4


@pytest.mark.parametrize("case", ["grid point 0", "grid point 1", "grid point 62", "grid point 63",
                                  "a point not evaluated", "zero variance", "bias not positive",
                                  "start outside the bracket"])
def test_the_start_model_falls_back_to_the_parabola_vertex(case):
    vals, squares = smooth_row()
    at, noise = 33, 1.0
    if case.startswith("grid point"):
        at = int(case.split()[-1])
    elif case == "a point not evaluated":
        vals[0, 35] = np.nan
    elif case == "zero variance":
        noise = 0.0
    elif case == "bias not positive":
        squares[0, 31] = vals[0, 31]  # V = value: B = 0, whose log is -inf
    else:
        at = 36  # the model's minimum lies 3.2 steps below: outside the basin's bracket (-1, 1)
    with np.errstate(divide="raise", over="raise", invalid="raise"):  # the model's logs of zero and nans stay quiet
        assert model_start(vals, squares, at, noise) == 0.25


def single_direction(k: int) -> tuple:
    """A one-eigenvalue row whose minimum lies on grid point ``k``: lam* = noise / signal at g = n."""
    n, step = 10, 2 * BRACKET_DECADES * math.log(10) / (DEFAULT_GRID_POINTS - 1)
    ratio = math.exp(-BRACKET_DECADES * math.log(10) + k * step)
    return n, np.array([float(n)]), np.array([[1.0]]), np.array([ratio])


def degenerate_rows() -> tuple:
    """A zero-signal row (its bias is 0) and a zero-noise row (its variance is 0) on one spectrum."""
    n = 12
    gamma = n * np.arange(1, n + 1, dtype=float) ** -3.0
    return n, gamma, np.vstack([np.zeros(n), np.ones(n)]), np.array([1.0, 0.0])


@pytest.mark.parametrize("case", ["zero signal and zero noise", "basin at grid point 0", "basin at grid point 1",
                                  "basin at grid point 62", "basin at grid point 63"])
def test_a_search_whose_basins_fall_back_is_the_parabola_start_search(case):
    stack = degenerate_rows() if case.startswith("zero") else single_direction(int(case.split()[-1]))
    found, at, fallback, _, _ = newton_basins(lambda: minimize_profiles(*stack))
    if not case.startswith("zero"):
        assert at.tolist() == [int(case.split()[-1])]
    assert fallback.all()
    with parabola_start():
        assert bits(minimize_profiles(*stack)) == bits(found)


def test_the_basins_that_start_model_reaches_take_it():
    # grid points 2 and 61 are the first and last whose five points lie on the grid
    for k in (2, 61):
        _, at, fallback, _, _ = newton_basins(lambda: minimize_profiles(*single_direction(k)))
        assert at.tolist() == [k] and not fallback.any()


def test_a_basin_with_a_pruned_point_starts_at_the_parabola_vertex():
    # two basins: the winner at grid point 29, and one at 41 whose point 43 lies in a pruned cell, beyond the row's
    # window.  That basin starts where the parabola start puts it and ends with the same bits; the winner does not.
    n = 17
    signal = np.zeros(n)
    signal[4], signal[12] = 7.0, 0.6
    stack = (n, np.arange(1, n + 1, dtype=float) ** -3.8, signal[None, :], np.array([0.45]))
    found, at, fallback, ends, counts = newton_basins(lambda: minimize_profiles(*stack))
    with parabola_start():
        vertex, vertex_at, _, vertex_ends, vertex_counts = newton_basins(lambda: minimize_profiles(*stack))
    assert at.tolist() == vertex_at.tolist() == [29, 41] and fallback.tolist() == [False, True]
    assert ends[1].tobytes() == vertex_ends[1].tobytes() and counts[1] == vertex_counts[1]
    assert ends[0].tobytes() != vertex_ends[0].tobytes()
    assert found.source.tolist() == vertex.source.tolist() == [SOURCES.index("newton")]
    assert found.value[0] == pytest.approx(vertex.value[0], rel=1e-15)


def stop_rule_slack(n, gamma, signal, noise, spectrum, search) -> np.ndarray:
    """How far above its basin's minimum each row's value may end under the stop rule, plus rounding.

    A basin stops once |dg/dt| <= tol g, which holds up to about tol^2 g^2 / (2 d2g/dt2) above the minimum;
    twice that, plus 1e-15 g, bounds how far two searches of one basin from two starts can end apart.  Rows
    won by a limit are exact: no slack.
    """
    inner = np.flatnonzero(search.source >= SOURCES.index("newton"))
    bend = _curve(n, np.atleast_2d(gamma), signal, noise, spectrum, np.arange(len(noise)), inner,
                  n * search.lam[inner])[2]
    slack = np.zeros(len(noise))
    slack[inner] = optimize.DEFAULT_GRAD_TOL**2 * search.value[inner] ** 2 / np.abs(bend) + 1e-15 * search.value[inner]
    return slack


def assert_as_the_parabola_start(stack):
    """Each row keeps its open-cell count and, but for what the stop rule leaves open, its source and value.

    A row may trade a grid win for a Newton win or back only where the two values lie within the stop
    rule's slack of each other; every value stays within that slack of the parabola start's.
    """
    found = minimize_profiles(*stack)
    with parabola_start():
        vertex = minimize_profiles(*stack)
    assert found.open_cells.tolist() == vertex.open_cells.tolist()
    slack = stop_rule_slack(*stack, vertex)
    assert (np.abs(found.value - vertex.value) <= slack).all(), (found.value - vertex.value, slack)
    moved = found.source != vertex.source
    assert set(found.source[moved].tolist()) | set(vertex.source[moved].tolist()) <= {2, 3}


@given(stacks())
def test_the_start_model_moves_no_source_and_no_value_beyond_rounding(stack):
    assert_as_the_parabola_start(stack)


@given(multi_basin_stacks())
def test_the_start_model_moves_no_source_and_no_value_beyond_rounding_on_multi_basin_curves(stack):
    assert_as_the_parabola_start(stack)


def test_the_start_model_saves_newton_evaluations_on_a_wide_stack():
    """A width-2000 power-law stack of 22 rows takes at most 3.3 Newton evaluations per basin (2.6 here; 4.2
    from the parabola vertex), and every basin reaches the model."""
    n = 2000
    i = np.arange(1, n + 1, dtype=float)
    signal = np.array([n * i ** (-2.0 * delta) for delta in np.linspace(1.0, 3.0, 22)])
    stack = (n, n * i ** -3.0, signal, np.geomspace(0.01, 10.0, 22))
    _, _, fallback, _, counts = newton_basins(lambda: minimize_profiles(*stack))
    assert len(counts) == 22 and not fallback.any()
    assert counts.mean() <= 3.3
    with parabola_start():
        _, _, _, _, vertex_counts = newton_basins(lambda: minimize_profiles(*stack))
    assert vertex_counts.mean() >= 4.0


# ---------------------------------------------------------------------------
# Newton on wide rows: the head of each spectrum, and the series of its tail


def assert_as_full_width(n, gamma, signal, noise, spectrum):
    """Each row keeps its source, Newton evaluations and open cells, and its value within rounding of the full width.

    Each side's value errs by at most ``optimize.ROUNDING`` relative (the ``optimize`` docstring), and two
    searches of one basin from two starts end within the stop rule's slack of each other
    (``stop_rule_slack``).  A source may move only where two candidates lie within that rounding of each
    other.
    """
    split = minimize_profiles(n, gamma, signal, noise, spectrum=spectrum)
    with full_width():
        full = minimize_profiles(n, gamma, signal, noise, spectrum=spectrum)
    assert split.open_cells.tolist() == full.open_cells.tolist()
    slack = 2 * optimize.ROUNDING * full.value + stop_rule_slack(n, gamma, signal, noise, spectrum, full)
    assert (np.abs(split.value - full.value) <= slack).all(), (split.value - full.value, slack)
    kept = split.source == full.source
    assert split.iterations[kept].tolist() == full.iterations[kept].tolist()
    return split, kept


@given(wide_stacks())
def test_the_split_keeps_every_source_and_iteration_count_and_every_value_to_rounding(stack):
    assert_as_full_width(*stack)


def power_law_stack(width: int, rows: int = 22):
    """Comparison-like rows on the spectrum n i^-4: signal decays from 1.5 to 3 and noise from 0.1 to 10."""
    i = np.arange(1, width + 1, dtype=float)
    signal = np.array([width * i ** (-2.0 * delta) for delta in np.linspace(1.5, 3.0, rows)])
    return width, width * i ** -4.0, signal, np.geomspace(0.1, 10.0, rows), np.zeros(rows, dtype=np.intp)


def curve_widths(stack) -> list[int]:
    """The widths ``_curve`` evaluates in a search of ``stack``, one entry per call."""
    widths, curve = [], optimize._curve

    def spy(n, gamma, *args):
        widths.append(gamma.shape[1])
        return curve(n, gamma, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_curve", spy)
        minimize_profiles(*stack)
    return widths


def test_newton_on_a_wide_stack_evaluates_only_heads():
    # every basin of a width-2000 power-law stack has a head of a power of two from 64 entries, far below the width
    stack = power_law_stack(2000)
    widths = curve_widths(stack)
    assert widths and set(widths) <= {64, 128, 256, 512}
    assert assert_as_full_width(*stack)[1].all()


@pytest.mark.parametrize("width", [optimize.HEAD_MIN + 1, optimize.SPLIT_WIDTH - 1])
def test_rows_narrower_than_the_gate_keep_the_full_width_bits(width):
    stack = power_law_stack(width)
    assert set(curve_widths(stack)) <= {width}
    found = minimize_profiles(*stack)
    with full_width():
        assert bits(minimize_profiles(*stack)) == bits(found)


def test_a_basin_with_no_head_shorter_than_its_row_keeps_the_full_width_bits():
    # a flat spectrum: every entry lies above the cutoff wherever the basin is, so no head is shorter than the row
    width = optimize.SPLIT_WIDTH
    stack = (width, np.ones(width), np.ones((2, width)), np.array([0.5, 2.0]))
    assert set(curve_widths(stack)) == {width}
    found = minimize_profiles(*stack)
    with full_width():
        assert bits(minimize_profiles(*stack)) == bits(found)


@pytest.mark.parametrize("seed", range(3))
def test_a_shuffled_wide_spectrum_gives_the_sorted_values(seed):
    # a spectrum not in descending order keeps its whole row in Newton: shuffled eigen-entries, with their signal,
    # give the sorted search's values, which the split evaluates from heads
    n, gamma, signal, noise, spectrum = power_law_stack(1500, rows=8)
    perm = np.random.default_rng(seed).permutation(n)
    assert set(curve_widths((n, gamma[perm], signal[:, perm], noise, spectrum))) == {n}
    ordered, kept = assert_as_full_width(n, gamma, signal, noise, spectrum)
    shuffled, kept_shuffled = assert_as_full_width(n, gamma[perm], signal[:, perm], noise, spectrum)
    assert kept.all() and kept_shuffled.all()
    assert shuffled.source.tolist() == ordered.source.tolist()
    assert shuffled.iterations.tolist() == ordered.iterations.tolist()
    assert (np.abs(shuffled.value - ordered.value) <= 1e-15 * ordered.value).all()


def test_newton_splits_each_basin_at_its_bracket_low_end():
    """``_split`` takes the low ends of the brackets that Newton gets, below which no Newton step goes."""
    seen, split, newton = {}, optimize._split, optimize._newton

    def spy_split(*args):
        seen["split"] = args[7].copy()
        return split(*args)

    def spy_newton(*args):
        seen["newton"] = args[7].copy()
        return newton(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_split", spy_split)
        patch.setattr(optimize, "_newton", spy_newton)
        minimize_profiles(*power_law_stack(1200))
    assert seen["split"].tobytes() == seen["newton"].tobytes()


# the rounding of a sum over a row of 1024 entries: pairwise summation errs by at most about log2(1024) eps of the
# sum of the absolute values of its summands (Higham, Accuracy and Stability of Numerical Algorithms, 2002, ch. 4),
# and the scaling by n and back adds a few eps more
ROUNDING = (math.log2(1024) + 6) * np.finfo(float).eps / 2

SUMMANDS = {  # n R, n/2 dR/dt and n/2 d2R/dt2 of one entry, as functions of a = u/(1+u) and b = 1/(1+u)
    "R": lambda a, b, s, v: s * b**2 + v * a**2,
    "dR/dt": lambda a, b, s, v: a * b * (s * b - v * a),
    "d2R/dt2": lambda a, b, s, v: a * b * (a - b) * (s * b - v * a) + (a * b) ** 2 * (s + v),
}


def exact_and_truncated(mpmath, gamma, signal, noise, x, head):
    """The three summand sums over the whole row, exactly, and with every entry from ``head`` on replaced by the
    Taylor polynomial in u = g/x of its summand: signal terms through u^(K+1), noise terms through u^(K+3).
    Each comes with the sum of the absolute values of its summands, the scale of its rounding."""
    def summand(name, u, s, v):
        return SUMMANDS[name](u / (1 + u), 1 / (1 + u), s, v)

    out = {}
    for name in SUMMANDS:
        taylor = [mpmath.taylor(lambda u: summand(name, u, s, v), 0, TAIL_ORDER + 3) for s, v in ((1, 0), (0, 1))]
        exact = truncated = scale = mpmath.mpf(0)
        for i, (g, s) in enumerate(zip(gamma.tolist(), signal.tolist())):
            u = mpmath.mpf(g) / mpmath.mpf(x)
            term = summand(name, u, mpmath.mpf(s), mpmath.mpf(noise))
            exact, scale = exact + term, scale + abs(term)
            if i < head:
                truncated += term
            else:
                truncated += s * mpmath.polyval(taylor[0][TAIL_ORDER + 1::-1], u)
                truncated += noise * mpmath.polyval(taylor[1][::-1], u)
        out[name] = (exact, truncated, scale)
    return out


def split_evaluation(n, gamma, signal, noise, t_a):
    """R, dR/dt and d2R/dt2 of one basin (bracket low end ``t_a``) of a one-row stack at t = t_a, through ``_split``,
    scaled as ``SUMMANDS`` (n R, n/2 dR/dt, n/2 d2R/dt2)."""
    zero = np.zeros(1, dtype=np.intp)
    t = np.array([t_a])
    tails = optimize._tails(gamma[None], signal[None], zero, zero, zero)
    out = optimize._split(n, gamma[None], signal[None], np.array([noise]), zero, zero, zero, t, tails)(zero, t)[:, 0]
    return dict(zip(SUMMANDS, (n * out[0], n / 2 * out[1], n / 2 * out[2])))


def test_head_plus_tail_is_the_exact_sum_where_the_tail_starts_at_the_cutoff():
    """At x = x_a, the tail's largest entry lies exactly at u = U_C: the split sums agree with the exact sums
    (mpmath, 40 digits) to rounding: ``ROUNDING`` of the sum of the absolute values of the summands."""
    mpmath = pytest.importorskip("mpmath")
    width, head = optimize.SPLIT_WIDTH, 128
    i = np.arange(1, width + 1, dtype=float)
    gamma, signal, noise = width * i ** -2.5, width * i ** -1.5, 0.7
    x_a = gamma[head] / TAIL_RATIO  # 128 entries above the cutoff: the head is 128 long, and the tail's first at U_C
    assert x_a * TAIL_RATIO == gamma[head]
    found = split_evaluation(width, gamma, signal, noise, math.log(x_a / width))
    with mpmath.workdps(40):
        sums = exact_and_truncated(mpmath, gamma, signal, noise, x_a, head)
        for name, (exact, _, scale) in sums.items():
            assert abs(found[name] - exact) <= ROUNDING * scale, (name, float((found[name] - exact) / scale))


@pytest.mark.parametrize("count", [70, 128, 300])
def test_the_tail_is_the_taylor_polynomial_of_its_summands(count, monkeypatch):
    """With the cutoff raised to U_C = 0.2, each term of the series shows: the split sums are the exact head plus the
    Taylor polynomial of every tail summand to rounding, with the head the shortest power of two from 64 that
    holds the ``count`` entries above the cutoff.  A dropped term, or a cutoff moved by one grid step, fails."""
    mpmath = pytest.importorskip("mpmath")
    monkeypatch.setattr(optimize, "TAIL_RATIO", 0.2)
    width = optimize.SPLIT_WIDTH
    i = np.arange(1, width + 1, dtype=float)
    gamma, signal, noise = i**-2.0, i**-1.5, 0.3
    x_a = 1.0 / (0.2 * (count + 0.5) ** 2)  # g = i^-2 > 0.2 x_a for the first ``count`` entries
    head = max(optimize.HEAD_MIN, 1 << (count - 1).bit_length())
    t_a = math.log(x_a / width)
    found = split_evaluation(width, gamma, signal, noise, t_a)
    # Newton's first evaluation, at the bracket's low end, is the same; its bracket is two grid steps wide
    t_lo, t_hi = optimize.spectrum_bracket(width, gamma)
    step = float((t_hi - t_lo)[0]) / (DEFAULT_GRID_POINTS - 1)
    monkeypatch.setattr(optimize, "DEFAULT_MAX_ITER", 1)
    zero = np.zeros(1, dtype=np.intp)
    _, risk, slope, _ = optimize._newton(width, gamma[None], signal[None], np.array([noise]), zero, zero, zero,
                                         np.array([t_a]), np.array([t_a]), np.array([t_a + 2 * step]),
                                         optimize._tails(gamma[None], signal[None], zero, zero, zero))
    assert (width * risk[0], width / 2 * slope[0]) == (found["R"], found["dR/dt"])
    with mpmath.workdps(40):
        sums = exact_and_truncated(mpmath, gamma, signal, noise, x_a, head)
        for name, (exact, truncated, scale) in sums.items():
            assert abs(found[name] - truncated) <= ROUNDING * scale, (name, float((found[name] - truncated) / scale))
            assert abs(exact - truncated) > 1e-12 * scale  # the series' remainder shows at this cutoff


# ---------------------------------------------------------------------------
# the grid scan on wide rows: each point's head, and the b^2 series of its tail's segments


def grid_x(n, gamma):
    """x = n lam at the 64 grid points of each spectrum, as the search forms them."""
    t_lo, t_hi = optimize.spectrum_bracket(n, gamma)
    delta = (t_hi - t_lo) / (DEFAULT_GRID_POINTS - 1)
    return n * np.exp(t_lo[:, None] + np.arange(DEFAULT_GRID_POINTS) * delta[:, None])


def scanned_sums(n, gamma, signal, noise, spectrum) -> tuple[optimize.Search, np.ndarray, np.ndarray]:
    """The search of a stack and its grid scan's bias sums sum s b^2 of each row and variance sums sum a^2 of each
    spectrum, nan where the scan evaluated no point."""
    seen, scan = {}, optimize._scan

    def spy(gamma, signal, spectrum, x_grid, points, first, stop, bias, squares, *rest):
        scan(gamma, signal, spectrum, x_grid, points, first, stop, bias, squares, *rest)
        seen["bias"], seen["squares"] = bias.copy(), squares.copy()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_scan", spy)
        found = minimize_profiles(n, gamma, signal, noise, spectrum=spectrum)
    return found, seen["bias"], seen["squares"]


def scan_tolerance(width: int) -> float:
    """The relative distance the ``optimize`` docstring allows between a split grid value and the pairwise full-width
    sum: ``optimize.ROUNDING`` for the scan's sum (its head through ``_dot``, its tail's series) and (log2 m + 4)
    eps/2 for the pairwise one."""
    return optimize.ROUNDING + (math.log2(width) + 4) * np.finfo(float).eps / 2


def variance_tolerance(width: int) -> float:
    """The relative distance the ``optimize`` docstring allows between a split variance sum and the pairwise
    full-width sum: (log2 m + 7) eps/2 and the series' remainder 8 U_C^(K+2) for the split sum (its head pairwise,
    its tail's a^2 series), and (log2 m + 4) eps/2 for the full-width one."""
    return (2 * math.log2(width) + 11) * np.finfo(float).eps / 2 + 8 * TAIL_RATIO ** (TAIL_ORDER + 2)


@given(wide_stacks())
def test_every_split_grid_value_is_the_full_width_value_to_rounding(stack):
    """Every bias sum the scan evaluates on a wide row lies within ``scan_tolerance`` of the full-width sum at that
    point (``_squares`` and ``_sum`` over the whole eigen-axis), every variance sum within ``variance_tolerance`` of
    its full-width sum, and the whole search keeps its sources, open cells and iteration counts against the search
    at full width (``assert_as_full_width``)."""
    n, gamma, signal, noise, spectrum = stack
    found, bias, squares = scanned_sums(n, gamma, signal, noise, spectrum)
    bb, full_squares = optimize._squares(gamma, grid_x(n, gamma))
    full = np.array([optimize._sum(row * bb[j]) for row, j in zip(signal, spectrum.tolist())])
    seen = ~np.isnan(bias)
    assert seen.any(axis=1).all()
    assert (np.abs(bias - full)[seen] <= scan_tolerance(n) * full[seen]).all()
    seen = ~np.isnan(squares)
    assert seen[spectrum].any(axis=1).all()
    assert (np.abs(squares - full_squares)[seen] <= variance_tolerance(n) * full_squares[seen]).all()
    split, kept = assert_as_full_width(*stack)
    assert bits(split) == bits(found)


@given(wide_stacks())
def test_the_tail_tables_moments_lie_within_the_dot_products_rounding(stack):
    """Each moment of the tail table lies within ``optimize.ROUNDING``, the bound of ``_dot``, of the exact sum
    (``math.fsum``) of its rounded terms over its segment: sum s (g/c)^k (k <= K + 1) of each row, a dot product of
    the signal with the powers of g/c, and sum (g/c)^k (k <= K + 3) of each spectrum, summed pairwise; the powers
    are formed as the table forms them, each from the one below."""
    n, gamma, signal, noise, spectrum = stack
    rows = np.arange(len(noise))
    tails = optimize._tails(gamma, signal, spectrum, rows, rows)
    used = np.flatnonzero(tails.descending & (np.bincount(spectrum, minlength=len(gamma)) > 0))
    for i, (lo, hi) in enumerate(zip(tails.bounds[:-1].tolist(), tails.bounds[1:].tolist())):
        for j in used.tolist():
            power = np.ones((TAIL_ORDER + 4, hi - lo))
            for k in range(1, TAIL_ORDER + 4):
                power[k] = power[k - 1] * (gamma[j, lo:hi] / (gamma[j, lo] if gamma[j, lo] > 0 else 1.0))
            exact = np.array([math.fsum(p.tolist()) for p in power])
            assert (np.abs(tails.moments[j, :, i] - exact) <= optimize.ROUNDING * exact).all(), (i, j)
            for r in np.flatnonzero(spectrum == j).tolist():
                exact = np.array([math.fsum((signal[r, lo:hi] * p).tolist()) for p in power[:TAIL_ORDER + 2]])
                assert (np.abs(tails.signal[r, :, i] - exact) <= optimize.ROUNDING * exact).all(), (i, r)


def test_a_grid_point_whose_tail_starts_at_the_cutoff_is_the_exact_sum():
    """At a grid point x whose first tail entry lies exactly at u = g / x = U_C, the scan's bias sum (a head of 128
    entries through ``_dot``, and the series of its five tail segments) agrees with the exact sum (mpmath, 40
    digits) within (log2 m + 7) eps/2: the bound of a pairwise head, far inside the ``ROUNDING`` that the
    ``optimize`` docstring states for ``_dot``'s, which this sum keeps."""
    mpmath = pytest.importorskip("mpmath")
    width, head = 2000, 128
    i = np.arange(1, width + 1, dtype=float)
    gamma, signal = width * i ** -3.0, width * i ** -1.2
    x = grid_x(width, gamma[None])[0]
    count = np.searchsorted(-gamma, -TAIL_RATIO * x)
    [p] = np.flatnonzero((count > head // 2) & (count <= head))[:1]
    gamma[count[p]:head + 1] = TAIL_RATIO * x[p]  # the tail's first entry at the cutoff; the count and bracket stay
    assert (np.diff(gamma) <= 0).all() and np.searchsorted(-gamma, -TAIL_RATIO * x[p]) == count[p]
    assert (grid_x(width, gamma[None])[0] == x).all() and gamma[head] / x[p] == TAIL_RATIO
    zero, points = np.zeros(1, dtype=np.intp), np.array([p])
    tails = optimize._tails(gamma[None], signal[None], zero, zero, zero)
    bias, squares = np.full((1, DEFAULT_GRID_POINTS), np.nan), np.full((1, DEFAULT_GRID_POINTS), np.nan)
    optimize._scan(gamma[None], signal[None], zero, x[None], points, zero, zero + 1, bias, squares, zero, None, tails)
    assert np.flatnonzero(~np.isnan(bias)).tolist() == [p]
    with mpmath.workdps(40):
        xp = mpmath.mpf(x[p])
        exact = mpmath.fsum(mpmath.mpf(s) * (xp / (mpmath.mpf(g) + xp)) ** 2
                            for g, s in zip(gamma.tolist(), signal.tolist()))
        error = abs(mpmath.mpf(bias[0, p]) - exact) / exact
    assert error <= (math.log2(width) + 7) * np.finfo(float).eps / 2, float(error)


@pytest.mark.parametrize("signal_power", [1.2, 1.5])
def test_each_grid_value_is_its_head_plus_the_taylor_polynomial_of_its_tail(signal_power, monkeypatch):
    """With the cutoff raised to U_C = 0.2 every series term shows: each bias sum the scan evaluates is the exact sum
    over the head that ``_first_tail`` rules for its point (the shortest power of two from 64 that holds every entry
    g > 0.2 x) plus, over every later entry, s times the b^2 polynomial sum_(k <= K + 1) (-1)^k (k + 1) u^k, and
    each variance sum the exact sum of a^2 over that head plus the a^2 polynomial
    sum_(2 <= k <= K + 3) (-1)^k (k - 1) u^k over every later entry.  A dropped moment, a segment scaled by
    another entry, a series read from another segment, a boundary moved by one, or a head taken from a
    neighbouring point fails."""
    monkeypatch.setattr(optimize, "TAIL_RATIO", 0.2)
    width = optimize.SPLIT_WIDTH
    i = np.arange(1, width + 1, dtype=float)
    gamma, signal = i**-2.0, i**-signal_power
    found, bias, squares = scanned_sums(width, gamma[None], signal[None], np.array([0.05]),
                                        np.zeros(1, dtype=np.intp))
    x = grid_x(width, gamma[None])[0]
    points = np.flatnonzero(~np.isnan(bias[0]))
    exact_gap, split_points = 0.0, 0
    for p in points.tolist():
        u = gamma / x[p]
        count = int(np.count_nonzero(gamma > 0.2 * x[p]))
        head = max(optimize.HEAD_MIN, 1 << max(count - 1, 0).bit_length())
        exact, exact_squares = signal / (1 + u) ** 2, (u / (1 + u)) ** 2
        if head >= width:
            assert bias[0, p] == pytest.approx(exact.sum(), rel=1e-13)
            assert squares[0, p] == pytest.approx(exact_squares.sum(), rel=1e-13)
            continue
        split_points += 1
        polynomial = sum((-1) ** k * (k + 1) * u[head:] ** k for k in range(TAIL_ORDER + 2))
        expected = exact[:head].sum() + (signal[head:] * polynomial).sum()
        assert bias[0, p] == pytest.approx(expected, rel=1e-13), p
        exact_gap = max(exact_gap, abs(expected - exact.sum()) / exact.sum())
        polynomial = sum((-1) ** k * (k - 1) * u[head:] ** k for k in range(2, TAIL_ORDER + 4))
        expected = exact_squares[:head].sum() + polynomial.sum()
        assert squares[0, p] == pytest.approx(expected, rel=1e-13), p
        exact_gap = max(exact_gap, abs(expected - exact_squares.sum()) / exact_squares.sum())
    assert split_points >= 3 and exact_gap > 1e-9  # the series' remainder shows at this cutoff


# ---------------------------------------------------------------------------
# the grid scan's bias sums: per-row dot products (``optimize._dot``)


@pytest.mark.parametrize("width", [1, 2, 3, 50, 64, 127, 128, 129, 1023, 1024, 1025, 2000, 2047, 2048, 3000, 4097,
                                   12800])
def test_a_dot_product_has_the_bits_of_its_row_and_point_alone(width):
    """Each row and point of ``_dot`` gets the same bits alone, in any stack and order, from a shared table or one
    gathered row by row, and from the scan's views of its b^2 block (``bb[0, u - c:v - c, :length]``: a run of
    points and a head of a wider row) or a contiguous copy; and the bits of ``reference.split_dot``, which cuts the
    chunks with ``np.split`` and joins their sums with ``np.stack``."""
    rng = np.random.default_rng(width)
    signal = rng.random((7, width)) * 10.0 ** rng.uniform(-6.0, 6.0, (7, 1))
    bb = rng.random((2, 9, width + 5))  # a block of b^2: spectra x points x a row wider than the head
    table, other = bb[0, 2:7, :width], bb[1, 2:7, :width]
    found = optimize._dot(signal, table)
    assert found.shape == (7, 5)
    assert found.tobytes() == split_dot(signal, table).tobytes()
    for r in range(7):
        assert optimize._dot(signal[r:r + 1], table).tobytes() == found[r:r + 1].tobytes()
        for p in range(5):
            assert optimize._dot(signal[r:r + 1], table[p:p + 1]).tobytes() == found[r:r + 1, p:p + 1].tobytes()
    perm = rng.permutation(7)
    assert optimize._dot(signal[perm], table).tobytes() == found[perm].tobytes()
    assert optimize._dot(signal, np.ascontiguousarray(table)).tobytes() == found.tobytes()
    # the gathered form: odd rows read this spectrum's table and even rows another's
    odd = np.arange(7) % 2 == 1
    gathered = np.where(odd[:, None, None], table, other)
    expected = np.where(odd[:, None], found, optimize._dot(signal, other))
    assert optimize._dot(signal, gathered).tobytes() == expected.tobytes() == split_dot(signal, gathered).tobytes()
    assert optimize._dot(signal[perm], gathered[perm]).tobytes() == expected[perm].tobytes()


def dot_error(signal: np.ndarray, table: np.ndarray) -> float:
    """|``_dot`` - math.fsum of the same rounded products| of one row and one point, relative to the fsum."""
    exact = math.fsum((signal * table).tolist())
    return abs(float(optimize._dot(signal[None], table[None])[0, 0]) - exact) / exact


@st.composite
def dot_rows(draw):
    """(signal, table): one positive row of width up to 4096 and one point, random, decaying like a spectrum, or
    adversarial: one large term first or last, the others below half an ulp of it."""
    width = draw(st.integers(min_value=1, max_value=4096))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(("random", "decay", "large first", "large last")))
    signal, table = rng.uniform(0.0, 1.0, width), rng.uniform(0.0, 1.0, width)
    if kind == "decay":
        i = np.arange(1, width + 1, dtype=float)
        signal, table = i ** -draw(st.floats(min_value=0.5, max_value=4.0)), 1.0 / (1.0 + 1e-3 * i) ** 2
    elif kind != "random":
        signal *= 0.4 * np.finfo(float).eps
        signal[0 if kind == "large first" else -1], table[:] = 1.0, 1.0
    return signal + np.finfo(float).tiny, table


@given(dot_rows())
def test_a_dot_product_errs_by_at_most_the_stated_rounding(row):
    """``_dot`` lies within ``optimize.ROUNDING`` (the ``optimize`` docstring: (C + 64) eps/2, above the (C + 28 +
    log2 ceil(m/C)) eps/2 of an ordered sum in chunks of C = ``DOT_CHUNK``) of the exact sum of the same rounded
    products."""
    assert dot_error(*row) <= optimize.ROUNDING


def test_an_unchunked_dot_product_fails_the_stated_rounding_past_the_chunk(monkeypatch):
    """One term of 1 and then 32767 terms of 0.4 eps: every SIMD lane of numpy's loop adds its terms in order, so the
    lane that holds the 1 drops each of its small terms (thousands of them, whatever the lanes).  In chunks of
    ``DOT_CHUNK`` it drops at most a chunk's share and the sum keeps the stated rounding; summed in one chunk it
    does not."""
    width = 1 << 15
    signal, table = np.full(width, 0.4 * np.finfo(float).eps), np.ones(width)
    signal[0] = 1.0
    assert dot_error(signal, table) <= optimize.ROUNDING
    monkeypatch.setattr(optimize, "DOT_CHUNK", sys.maxsize)
    assert dot_error(signal, table) > optimize.ROUNDING


# ---------------------------------------------------------------------------
# the engine's fixed cost: C-level calls (numpy functions and builtins) per search, a budget pinned to the numpy
# build that ``golden.json`` records, since numpy's Python wrappers move the count between versions

CALL_BUDGET = {"6 rows, width 50": 277, "6 rows, width 2000": 715, "6 spectra x 7 rows, width 40": 336,
               "verify-bounds default grid, 121 rows at n = 50, 200 and 800": 880}


def verify_bounds_stack() -> tuple:
    """The one stack that ``verify-bounds`` on its default grid searches: (n per spectrum, gamma, signal, noise,
    spectrum, curve)."""
    from mtkrr import riskfn
    from mtkrr.cli import main

    found = []

    def capture(n, gamma, signal, noise, spectrum=None, curve=None, times=None):
        found.append((n, gamma, signal, noise, spectrum, curve))
        return minimize_profiles(n, gamma, signal, noise, spectrum, curve, times)

    with tempfile.TemporaryDirectory() as out, pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        patch.setattr(riskfn, "minimize_profiles", capture)
        assert main(["verify-bounds", "--out", str(Path(out) / "bounds.txt")]) == 0
    [stack] = found
    return stack


def budget_stacks() -> dict:
    """The stacks of ``CALL_BUDGET``, as (n, gamma, signal, noise, spectrum, curve): an ``oracle``-like stack of
    p + 2 = 6 rows on one spectrum, narrow and wide, a ``table_spline``-like stack of 7 rows on each of 6 spectra,
    and the default ``verify-bounds`` grid, whose spectra have three n and whose rows name their curves."""
    i = np.arange(1, 41, dtype=float)
    rng = np.random.default_rng(40)
    gamma = np.array([40.0 * i ** -(2.0 * m) for m in (1.0, 1.0, 2.0, 2.0, 3.0, 3.0)]) * rng.uniform(0.5, 2.0, (6, 1))
    signal = rng.uniform(0.0, 1.0, (42, 40)) * i ** -rng.uniform(1.0, 4.0, (42, 1))
    return {"6 rows, width 50": (*power_law_stack(50, rows=6), None),
            "6 rows, width 2000": (*power_law_stack(2000, rows=6), None),
            "6 spectra x 7 rows, width 40": (40, gamma, signal, 10.0 ** rng.uniform(-2, 1, 42), np.arange(42) // 7,
                                             None),
            "verify-bounds default grid, 121 rows at n = 50, 200 and 800": verify_bounds_stack()}


def c_calls(n, gamma, signal, noise, spectrum, curve) -> int:
    """The C-level calls that one ``minimize_profiles`` call makes, counted with ``sys.setprofile``."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event == "c_call"

    sys.setprofile(profile)
    try:
        minimize_profiles(n, gamma, signal, noise, spectrum=spectrum, curve=curve)
    finally:
        sys.setprofile(None)
    return count


def test_a_search_makes_the_budgeted_number_of_c_level_calls():
    """A search's C-level calls are a budget: a change that adds calls to a small stack's search says so and moves
    ``CALL_BUDGET``.  The counts hold on the numpy build that ``golden.json`` records."""
    import golden

    recorded = json.loads(golden.GOLDEN.read_text())
    platform = {key: recorded[key] for key in golden.platform_key()}
    if platform != golden.platform_key():
        pytest.skip(f"budget counted with {platform}, not {golden.platform_key()}: numpy's wrappers move the count")
    found = {}
    for name, stack in budget_stacks().items():
        minimize_profiles(*stack[:4], spectrum=stack[4], curve=stack[5])  # a first call may load numpy submodules
        found[name] = c_calls(*stack)
    assert found == CALL_BUDGET


# ---------------------------------------------------------------------------
# one n per spectrum: the search in width classes


def mixed_width_stack(seed: int = 0) -> tuple:
    """(n per spectrum, gamma, signal, noise, spectrum, curve): two power-law spectra and three named curves at each
    of n = 3200, 50 and 200 (in that order, so the search sorts them), padded with zeros to 3200, and two rows of
    random noise on each (curve, spectrum) pair of one n, shuffled.  The n = 3200 class is at least
    ``SPLIT_WIDTH`` wide."""
    rng = np.random.default_rng(seed)
    sizes, width = (3200, 50, 200), 3200
    assert width >= optimize.SPLIT_WIDTH
    n, gamma, signal = [], np.zeros((2 * len(sizes), width)), np.zeros((3 * len(sizes), width))
    for k, size in enumerate(sizes):
        i = np.arange(1, size + 1, dtype=float)
        n += [size, size]
        gamma[2 * k:2 * k + 2, :size] = [size * i ** (-2.0 * beta) for beta in (1.0, 2.0)]
        signal[3 * k:3 * k + 3, :size] = [rng.uniform(0.5, 2.0) * size * i ** (-2.0 * delta)
                                          for delta in (1.5, 2.5, 3.5)]
    cells = [(c, j, noise) for c in range(len(signal)) for j in range(len(gamma)) if c // 3 == j // 2
             for noise in 10.0 ** rng.uniform(-3.0, 1.0, 2)]
    curve, spectrum, noise = zip(*[cells[k] for k in rng.permutation(len(cells))])
    return np.array(n), gamma, signal, np.array(noise), np.array(spectrum), np.array(curve)


def test_each_row_of_a_mixed_width_stack_gets_the_bits_of_its_class_alone():
    """With one n per spectrum, every row gets what the search of its width class alone gives it, column for column;
    each class gets its own tail table (only the one at least ``SPLIT_WIDTH`` wide builds one); the signal past a
    curve's n is never read; and rows that name no curve get the same bits."""
    n, gamma, signal, noise, spectrum, curve = mixed_width_stack()
    tables, tails = [], optimize._tails

    def spy(gamma, *args):
        table = tails(gamma, *args)
        tables.append((gamma.shape[1], table is not None))
        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimize, "_tails", spy)
        found = minimize_profiles(n, gamma, signal, noise, spectrum=spectrum, curve=curve)
    assert tables == [(50, False), (200, False), (3200, True)]
    assert set(found.source.tolist()) >= {SOURCES.index("newton")}
    for size in (50, 200, 3200):
        mine = np.flatnonzero(n[spectrum] == size)
        spectra, own_spectrum = np.unique(spectrum[mine], return_inverse=True)
        curves, own_curve = np.unique(curve[mine], return_inverse=True)
        alone = minimize_profiles(size, gamma[spectra, :size], signal[curves, :size], noise[mine],
                                  spectrum=own_spectrum, curve=own_curve)
        assert bits(found, mine) == bits(alone), size
    garbage = signal.copy()
    for c, size in enumerate(np.repeat((3200, 50, 200), 3).tolist()):
        garbage[c, size:] = 7.0
    assert bits(minimize_profiles(n, gamma, garbage, noise, spectrum=spectrum, curve=curve)) == bits(found)
    assert bits(minimize_profiles(n, gamma, signal[curve], noise, spectrum=spectrum)) == bits(found)


@pytest.mark.parametrize("n, curve, message", [
    ([50, 60], [0, 1], "at most the width 50"),
    ([50.5, 40], [0, 1], "one positive integer per spectrum"),
    ([0, 40], [0, 1], "one positive integer per spectrum"),
    ([-40, 40], [0, 1], "one positive integer per spectrum"),
    ([math.nan, 40], [0, 1], "one positive integer per spectrum"),
    ([40, 40, 40], [0, 1], "one positive integer per spectrum"),  # one n too many
    ([30, 50], [0, 0], "a curve is named on spectra of two widths"),
])
def test_an_invalid_n_per_spectrum_is_a_value_error(n, curve, message):
    gamma, signal = np.array([np.linspace(2.0, 1.0, 50)] * 2), np.ones((2, 50))
    with pytest.raises(ValueError, match=message):
        minimize_profiles(np.array(n), gamma, signal, np.ones(2), spectrum=np.array([0, 1]), curve=np.array(curve))
