import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import bits, minimize_profile, rows, search_one, value_grid
from reference import certified_lower_bound

from mtkrr import optimize
from mtkrr.optimize import BRACKET_DECADES, RidgeRiskProfile, _curve, minimize_profiles


def sample_profile(seed: int, n: int = 30) -> RidgeRiskProfile:
    rng = np.random.default_rng(seed)
    i = np.arange(1, n + 1, dtype=float)
    gamma = n * i ** (-2 * rng.uniform(1.0, 3.0))
    signal = rng.uniform(0.1, 2.0) * n * i ** (-2 * rng.uniform(0.8, 2.5))
    return RidgeRiskProfile(n=n, gamma=gamma, signal=signal, noise=rng.uniform(0.2, 2.0))


def log_derivatives(prof: RidgeRiskProfile, lam: float) -> tuple[float, float]:
    """dg/dt and d2g/dt2 at t = log lam > -inf, from the search's own derivative code."""
    row = np.zeros(1, dtype=np.intp)
    out = _curve(prof.n, prof.gamma[None, :], prof.signal[None, :], np.array([prof.noise]), row, row,
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


@given(st.integers(min_value=2, max_value=30).flatmap(
    lambda n: st.lists(profiles(n=n), min_size=2, max_size=6)), st.randoms(use_true_random=False))
def test_each_row_is_bit_identical_alone_in_any_stack_and_order(profs, rnd):
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


def test_stack_shape_and_sign_errors():
    with pytest.raises(ValueError):
        minimize_profiles(3, np.ones(3), np.ones((2, 4)), np.ones(2))
    with pytest.raises(ValueError):
        minimize_profiles(3, np.ones(3), np.ones((2, 3)), np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="spectrum indices"):
        minimize_profiles(3, np.ones((2, 3)), np.ones((2, 3)), np.ones(2), spectrum=np.array([0, -1]))
