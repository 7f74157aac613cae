import math
import time

import numpy as np
import pytest
from conftest import (bits, columns, minimize_profile, quad_kappa, quad_tail_integral, rows, s1, s2,
                      search_one, stack, value_grid)
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from mtkrr.optimize import minimize_profiles, spectrum_bracket
from mtkrr.riskfn import (
    DivergentIntegralError,
    Regime,
    _i1_exponent,
    _tail_integral,
    _unit_fraction,
    alpha_constant,
    cell_errors,
    integral_i1,
    integral_i2,
    kappa,
    lower_bound_window,
    minimax_window,
    minimize_risks,
    template_parts,
)
from mtkrr.scenarios import power_law
from reference import (NoEpsilonCapError, RidgeRiskProfile, RiskParams, bound_reports, epsilon_cap, minimax_rate,
                       minimize_risk, risk_r, scalar_report, template_profile)


def cap_of(params: RiskParams) -> float:
    """The localization cap from the rate as ``minimize_risks`` forms it."""
    return epsilon_cap(params, minimax_rate(params, kappa(params.beta, params.delta)))


def gamma_oracle(a: float) -> float:
    """Independent route: int_0^inf u^(a-1)/(1+u)^2 du = Gamma(a) Gamma(2-a)."""
    return math.gamma(a) * math.gamma(2.0 - a)


class TestRiskR:
    def test_zero_lambda_is_noise_over_p(self):
        params = RiskParams(n=37, p=5, sigma2=1.3, beta=2, delta=2, c=1.0)
        assert risk_r(params, 0.0) == pytest.approx(1.3 / 5, rel=1e-12)

    def test_hand_evaluated_two_term_sum(self):
        # n=2, beta=delta=C=lam=1, p=1: S1 = 1/4 + 4/25, S2 = 1/4 + 1/25
        params = RiskParams(n=2, p=1, sigma2=1.0, beta=1, delta=1, c=1.0)
        expected = (0.25 + 4 / 25) + 0.5 * (0.25 + 1 / 25)
        assert risk_r(params, 1.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.555, abs=1e-12)

    def test_zero_signal_is_nonincreasing(self):
        params = RiskParams(n=30, p=2, sigma2=1.0, beta=2, delta=2, c=0.0)
        grid = np.geomspace(1e-8, 1e2, 50)
        vals = [risk_r(params, float(l)) for l in grid]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestIntegrals:
    @pytest.mark.parametrize("beta", [0.75, 1.0, 1.5, 2.0, 4.0])
    def test_i2_matches_gamma_oracle(self, beta):
        assert integral_i2(beta) == pytest.approx(gamma_oracle(1 / (2 * beta)), rel=1e-9)

    def test_i2_reference_value(self):
        assert integral_i2(2.0) == pytest.approx(3.3322, abs=5e-5)

    @pytest.mark.parametrize("beta", [1.0, 2.0, 4.0])
    def test_i1_at_zero_decay_aliases_i2(self, beta):
        assert integral_i1(beta, 0.0) == integral_i2(beta)

    def test_i1_reference_value(self):
        assert integral_i1(2.0, 2.0) == pytest.approx(gamma_oracle(5 / 4), rel=1e-9)
        assert integral_i1(2.0, 2.0) == pytest.approx(1.1107, abs=5e-5)

    def test_divergent_parameters_rejected(self):
        with pytest.raises(DivergentIntegralError):
            integral_i1(1.0, 3.0)  # exponent (1-6)/2 + 2 = -0.5 <= 0
        with pytest.raises(DivergentIntegralError):
            integral_i2(0.2)  # exponent 1/(2 beta) = 2.5 >= 2
        with pytest.raises(DivergentIntegralError):
            integral_i1(1.0, 0.4)  # exponent (1-0.8)/2 + 2 = 2.1 >= 2

    def test_closed_forms_match_quadrature(self):
        for beta, delta in ((1.0, 1.0), (2.0, 2.0), (4.0, 2.0), (2.0, 1.5)):
            assert integral_i1(beta, delta) == pytest.approx(quad_tail_integral(_i1_exponent(beta, delta)), rel=1e-9)
            assert integral_i2(beta) == pytest.approx(quad_tail_integral(1 / (2 * beta)), rel=1e-9)

    def test_closed_forms_match_quadrature_over_the_domain(self):
        # 400 seeded exponents across the convergence domain, both the whole
        # integral and the unit-interval fraction that alpha is built from
        for a in np.random.default_rng(20261018).uniform(0.02, 1.98, 400):
            a = float(a)
            whole = quad_tail_integral(a)
            assert _tail_integral(a) == pytest.approx(whole, rel=1e-8)
            assert _unit_fraction(a) == pytest.approx(quad_tail_integral(a, 0.5) / whole, rel=1e-8)

    @pytest.mark.parametrize("offset", [1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])
    def test_no_cancellation_next_to_unit_exponent(self, offset):
        # pi (1-a) / sin(pi (1-a)) = 1 + x^2/6 + 7 x^4/360 + O(x^6), x = pi (1-a);
        # the reflection form (1-a) pi / sin(pi a) misses this by up to 2e-5 at 1e-12
        a = 1.0 + offset
        x = math.pi * (1.0 - a)
        assert _tail_integral(a) == pytest.approx(1 + x**2 / 6 + 7 * x**4 / 360, rel=1e-15, abs=0)
        assert _tail_integral(1.0) == 1.0

    @pytest.mark.parametrize("a", [1e-9, 1e-6, 2 - 1e-6, 1.9])
    def test_full_accuracy_next_to_the_ends_of_the_domain(self, a):
        # the w-form pi w / sin(pi w) loses about 1e-16 / min(a, 2 - a) relative here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            exact = float(mpmath.beta(mpmath.mpf(a), 2 - mpmath.mpf(a)))
        assert _tail_integral(a) == pytest.approx(exact, rel=1e-15, abs=0)


class TestUnitFraction:
    """alpha's closed form J(a) / B(a, 2-a), with J(a) = 1/2 + (1-a) beta(a), against independent routes."""

    POINTS = [*np.random.default_rng(20261019).uniform(0.001, 1.999, 200).tolist(), 1e-6, 0.5, 1.0, 1.5, 1.999999]

    def test_matches_mpmath(self):
        # measured worst 9.8e-16 over 3000 seeded exponents in (0.001, 1.999); scipy's betainc reached 1.6e-15
        mpmath = pytest.importorskip("mpmath")
        for a in self.POINTS:
            with mpmath.workdps(40):
                exact = float(mpmath.betainc(mpmath.mpf(a), 2 - mpmath.mpf(a), 0, 0.5, regularized=True))
            assert _unit_fraction(a) == pytest.approx(exact, rel=2e-15, abs=0), a

    def test_matches_scipys_betainc(self):
        from scipy.special import betainc

        for a in self.POINTS:
            assert _unit_fraction(a) == pytest.approx(float(betainc(a, 2 - a, 0.5)), rel=4e-15, abs=0), a

    def test_half_at_unit_exponent(self):
        assert _unit_fraction(1.0) == 0.5

    def test_the_two_halves_make_the_whole(self):
        # u -> 1/u maps int_1^inf u^(a-1)/(1+u)^2 du onto J(2-a), so J(a) + J(2-a) = B(a, 2-a)
        for a in self.POINTS:
            b = 2 - a
            halves = _unit_fraction(a) * _tail_integral(a) + _unit_fraction(b) * _tail_integral(b)
            assert halves == pytest.approx(_tail_integral(a), rel=4e-15, abs=0), a

    def test_domain_error(self):
        with pytest.raises(DivergentIntegralError):
            _unit_fraction(2.0)


class TestKappa:
    def test_both_routes_agree(self):
        assert kappa(2, 2) == pytest.approx(quad_kappa(2, 2), rel=1e-6)

    def test_reference_value(self):
        assert kappa(2, 2) == pytest.approx(1.111, abs=1.5e-3)

    def test_continuity(self):
        assert abs(kappa(2, 2) - kappa(2, 2 + 1e-6)) < 1e-4

    def test_positive_on_grid(self):
        for beta in (1.0, 2.0, 3.0, 4.0):
            for delta in np.linspace(0.55, 2 * beta - 0.05, 7):
                if 2 * delta < 4 * beta + 1:
                    assert kappa(beta, float(delta)) > 0


class TestTStar:
    def test_unit_value(self):
        from reference import t_star

        assert t_star(2, 2, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_scaling_law(self):
        from reference import t_star

        assert t_star(1, 0.8, 4 * 0.37) == pytest.approx(t_star(1, 0.8, 0.37) / 2, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_is_local_maximum(self, seed):
        from reference import t_star

        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(1, 3))
        delta = float(rng.uniform(0.6, 2 * beta - 0.1))
        lam = float(10 ** rng.uniform(-3, 1))

        def integrand(t):
            return t ** (4 * beta - 2 * delta) / (1 + lam * t ** (2 * beta)) ** 2

        ts = t_star(beta, delta, lam)
        assert integrand(ts) > integrand(ts * 1.01)
        assert integrand(ts) > integrand(ts * 0.99)

    def test_domain_error(self):
        from reference import t_star

        with pytest.raises(ValueError):
            t_star(1.0, 2.5, 0.1)


class TestEpsilonCap:
    def test_matching_condition(self):
        params = RiskParams(n=50, p=5, sigma2=1.0, beta=2, delta=2, c=1.0)
        eps = cap_of(params)
        d = params.delta
        x = params.n * params.p / params.sigma2
        lhs = params.c * eps**2 / (1 + eps) ** 2
        rhs = 2 ** (1 / (2 * d)) * x ** (1 / (2 * d) - 1) * params.c ** (1 / (2 * d)) * kappa(2, 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_decreasing_in_sample_size(self):
        small = cap_of(RiskParams(n=100, p=2, sigma2=1.0, beta=2, delta=2, c=1.0))
        large = cap_of(RiskParams(n=200, p=2, sigma2=1.0, beta=2, delta=2, c=1.0))
        assert large < small

    def test_optimizer_lives_under_the_cap(self):
        params = RiskParams(n=50, p=5, sigma2=1.0, beta=2, delta=2, c=1.0)
        report = minimize_risk(params)
        assert report.lambda_star <= report.epsilon_cap
        assert math.isfinite(report.epsilon_cap) and report.epsilon_cap > 0

    def test_no_cap_for_tiny_problems(self):
        with pytest.raises(NoEpsilonCapError):
            cap_of(RiskParams(n=1, p=1, sigma2=100.0, beta=2, delta=2, c=1.0))


class TestMinimizeRisk:
    def test_zero_signal_risk_vanishes(self):
        report = minimize_risk(RiskParams(n=40, p=2, sigma2=1.0, beta=2, delta=2, c=0.0))
        assert math.isinf(report.lambda_star)
        assert report.r_star == 0.0

    def test_upper_bound_single_task_example(self):
        params = RiskParams(n=50, p=1, sigma2=1.0, beta=2, delta=2, c=1.0)
        report = minimize_risk(params)
        assert report.r_star <= 2 ** 0.25 * 50 ** -0.75 * kappa(2, 2) * (1 + 1e-12)

    @pytest.mark.parametrize("beta, delta", [(2.0, 2.0), (1.0, 2.4), (0.3, 2.0)])  # lb window, hm only, neither
    def test_kappa_runs_at_most_once(self, monkeypatch, beta, delta):
        import mtkrr.riskfn as riskfn

        calls = []
        monkeypatch.setattr(riskfn, "kappa", lambda *args: calls.append(args) or kappa(*args))
        params = RiskParams(n=50, p=5, sigma2=1.0, beta=beta, delta=delta, c=1.0)
        report = minimize_risk(params)
        assert len(calls) == (1 if minimax_window(beta, delta) else 0)
        assert report.kappa == kappa(beta, delta) if minimax_window(beta, delta) else math.isnan(report.kappa)

    def test_constants_run_once_per_pair_of_a_grid(self, monkeypatch):
        import mtkrr.riskfn as riskfn

        calls = {"kappa": [], "alpha_constant": []}
        for name, original in (("kappa", kappa), ("alpha_constant", alpha_constant)):
            monkeypatch.setattr(riskfn, name, lambda *args, log=calls[name], f=original: log.append(args) or f(*args))
        pairs = [(2.0, 2.0), (1.0, 2.4), (0.3, 2.0)]  # lb window, hm only, neither
        grid = [RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=c)
                for n in (20, 50) for p in (1, 5) for beta, delta in pairs for c in (0.5, 2.0)]
        bounds, search = riskfn.minimize_risks(*columns(grid))
        assert sorted(calls["kappa"]) == [(1.0, 2.4), (2.0, 2.0)]
        assert calls["alpha_constant"] == [(2.0, 2.0)]
        for params, report in zip(grid, bound_reports(bounds, search), strict=True):
            inside = minimax_window(params.beta, params.delta)
            assert report.kappa == kappa(params.beta, params.delta) if inside else math.isnan(report.kappa)

    @pytest.mark.parametrize("pairs, n_values", [
        ([(2, 2), (4, 2), (2, 1.5)], (50, 200, 800)),  # verify-bounds' default grid
        ([(3, 5.5)], (50, 200)),
        ([(2, 2), (4, 2), (2, 1.5)], (200, 800)),  # no n = 50 cell
    ])
    def test_grid_and_sweep_in_one_call_are_the_two_calls(self, pairs, n_values):
        # verify-bounds' grid and its p-sweep at n = 50, searched together and apart
        grid = [RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=c)
                for beta, delta in pairs for n in n_values for p in (1, 2, 5, 10) for c in (0.5, 1, 2)]
        sweep = [RiskParams(n=50, p=int(round(p)), sigma2=1.0, beta=2, delta=2, c=1.0) for p in np.geomspace(1, 1e7, 13)]
        (grid_bounds, grid_search), (sweep_bounds, sweep_search) = (minimize_risks(*columns(grid)),
                                                                    minimize_risks(*columns(sweep)))
        bounds, search = minimize_risks(*columns(grid + sweep))
        assert bits(search) == bits(stack([grid_search, sweep_search]))
        # every column's bytes: the regime codes, and each float field bit for bit
        assert bits(bounds) == bits(stack([grid_bounds, sweep_bounds]))

    def test_divergent_noise_integral_leaves_the_envelope_nan(self):
        # 1 < 2 delta < 4 beta + 1 holds, but I2 diverges for beta <= 1/4
        report = minimize_risk(RiskParams(n=50, p=1, sigma2=1.0, beta=0.2, delta=0.7, c=1.0))
        assert math.isnan(report.kappa) and math.isnan(report.upper) and math.isnan(report.epsilon_cap)
        assert math.isfinite(report.r_star)

    @pytest.mark.parametrize("seed", range(20))
    def test_newton_result_beats_reference_grid(self, seed):
        rng = np.random.default_rng(seed + 500)
        beta = float(rng.uniform(1.0, 4.0))
        delta = float(rng.uniform(0.75, min(2 * beta + 0.3, 3.0)))
        params = RiskParams(
            n=int(rng.integers(10, 300)),
            p=int(rng.integers(1, 8)),
            sigma2=float(rng.uniform(0.3, 3.0)),
            beta=beta,
            delta=delta,
            c=float(10 ** rng.uniform(-1, 1)),
        )
        report = minimize_risk(params)
        profile = template_profile(params)
        try:
            hi = max(10.0, 2 * cap_of(params))
        except NoEpsilonCapError:
            hi = 1e3
        grid = np.geomspace(1e-12, hi, 2000)
        oracle = min(float(value_grid(profile, grid).min()), profile.value(0.0))
        assert report.r_star <= oracle * (1 + 1e-8)


class TestRegimes:
    def test_moderate_problem_regularizes(self):
        assert minimize_risk(RiskParams(n=200, p=2, sigma2=1.0, beta=2, delta=2, c=1.0)).regime is Regime.REGULARIZE

    def test_huge_task_count_is_noise_trivial(self):
        report = minimize_risk(RiskParams(n=50, p=10**6, sigma2=1.0, beta=2, delta=2, c=1.0))
        assert report.regime is Regime.TRIVIAL_NOISE

    def test_single_flip_along_task_sweep(self):
        labels = [
            minimize_risk(RiskParams(n=50, p=int(round(p)), sigma2=1.0, beta=2, delta=2, c=1.0)).regime
            for p in np.geomspace(1, 1e7, 15)
        ]
        informative = [lab for lab in labels if lab is not Regime.UNDETERMINED]
        collapsed = [lab for k, lab in enumerate(informative) if k == 0 or lab is not informative[k - 1]]
        assert collapsed == [Regime.REGULARIZE, Regime.TRIVIAL_NOISE]


class TestAlphaConstant:
    def test_reference_point_exceeds_published_floor(self):
        assert alpha_constant(2, 2) > 0.33

    def test_in_unit_interval_on_grid(self):
        for beta in (1.0, 2.0, 4.0):
            for delta in (0.75, 1.5, 1.9):
                if 2 * delta < 4 * beta:
                    assert 0 < alpha_constant(beta, float(delta)) < 1

    def test_stable_under_quadrature_refinement(self):
        # recompute both mass fractions with a much finer adaptive tolerance
        def fraction(a):
            f = lambda v: v ** (a - 1) * (1 - v) ** (1 - a)
            num, _ = quad(f, 0, 0.5, epsabs=0, epsrel=1e-13, limit=500)
            den, _ = quad(f, 0, 1, epsabs=0, epsrel=1e-13, limit=500)
            return num / den

        refined = min(fraction(1 / 4), fraction(5 / 4))
        assert alpha_constant(2, 2) == pytest.approx(refined, abs=1e-6)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            alpha_constant(1.0, 2.5)


class TestSumIntegralBounds:
    @pytest.mark.parametrize("seed", range(10))
    def test_s2_below_integral_envelope(self, seed):
        rng = np.random.default_rng(seed)
        beta = float(rng.uniform(0.8, 4.0))
        n = int(rng.integers(5, 500))
        lam = float(10 ** rng.uniform(-8, 2))
        assert s2(n, lam, beta) <= lam ** (-1 / (2 * beta)) / (2 * beta) * integral_i2(beta) * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_s1_below_integral_envelope(self, seed):
        rng = np.random.default_rng(seed + 50)
        beta = float(rng.uniform(0.8, 4.0))
        delta = float(rng.uniform(0.6, min(2 * beta - 0.05, 3.0)))
        n = int(rng.integers(5, 500))
        lam = float(10 ** rng.uniform(-8, 2))
        bound = lam ** ((2 * delta - 1) / (2 * beta)) / (beta * lam**2) * integral_i1(beta, delta)
        assert s1(n, lam, beta, delta) <= bound * (1 + 1e-12)


    @pytest.mark.parametrize("seed", range(10))
    def test_template_profile_parts_are_the_sums(self, seed):
        # the envelope's per-draw oracle, reference.envelope_per_draw, reads S1 and S2 from the template profile
        # at C = sigma2 = p = 1
        rng = np.random.default_rng(seed + 100)
        beta = float(rng.uniform(0.8, 4.0))
        delta = float(rng.uniform(0.6, min(2 * beta - 0.05, 3.0)))
        n = int(rng.integers(5, 500))
        lam = float(10 ** rng.uniform(-8, 2))
        bias, var = template_profile(RiskParams(n, 1, 1.0, beta, delta, 1.0)).parts(lam)
        assert bias / lam**2 == pytest.approx(s1(n, lam, beta, delta), rel=1e-13)
        assert n * var == pytest.approx(s2(n, lam, beta), rel=1e-13)


class TestTemplatePartsAgainstMpmath:
    """``template_parts`` against the same sums at 50 digits, from the same double eigenvalues and signal.

    The bias sum s b^2 / n and the variance noise / n sum a^2 are each within ``RTOL`` relative, over the
    default ``risk-curve`` bracket, where lam reaches down to exp(-600) at beta = 100 (there the form
    n lam^2 sum s / (g + n lam)^2 underflows and gives an infinite bias).  Measured: at most 4.4e-16 for
    the bias and 5.4e-16 for the variance; the summation error grows with log2(n).
    """

    RTOL = 4e-15

    @pytest.mark.parametrize("n, p, sigma2, beta, delta, c", [
        (40, 5, 2.0, 2.0, 2.0, 1.0),
        (50, 3, 1.0, 100.0, 2.0, 1.0),  # from i = 42 on the eigenvalues underflow to 0
        (60, 2, 1.0, 0.5, 0.5, 1e3),
        (300, 1, 1.0, 1.5, 1.2, 3.0),
    ])
    def test_bias_and_variance_to_the_last_bits(self, n, p, sigma2, beta, delta, c):
        mpmath = pytest.importorskip("mpmath")
        t_lo, t_hi = spectrum_bracket(n, power_law(n, beta))
        lams = np.geomspace(math.exp(t_lo[0]), math.exp(t_hi[0]), 25)
        bias, var = template_parts(n, lams, beta, delta, c, sigma2 / p)
        i = np.arange(1.0, n + 1)
        with mpmath.workdps(50):
            gamma = [mpmath.mpf(g) for g in (n * i ** (-2.0 * beta)).tolist()]
            signal = [mpmath.mpf(s) for s in (c * n * i ** (-2.0 * delta)).tolist()]
            for lam, got_bias, got_var in zip(lams.tolist(), bias.tolist(), var.tolist()):
                x = n * mpmath.mpf(lam)
                exact_bias = mpmath.fsum(s * (x / (g + x)) ** 2 for g, s in zip(gamma, signal)) / n
                exact_var = mpmath.mpf(sigma2 / p) / n * mpmath.fsum((g / (g + x)) ** 2 for g in gamma)
                assert abs(got_bias - exact_bias) <= self.RTOL * exact_bias
                assert abs(got_var - exact_var) <= self.RTOL * exact_var


class TestSandwich:
    @pytest.mark.parametrize("n,p", [(100, 1), (100, 4), (400, 2), (800, 1)])
    @pytest.mark.parametrize("beta,delta", [(2.0, 2.0), (4.0, 2.0), (2.0, 1.5)])
    def test_bounds_bracket_the_optimum(self, n, p, beta, delta):
        params = RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=1.0)
        assert minimax_window(beta, delta) and lower_bound_window(beta, delta) and n * p >= 100
        report = minimize_risk(params)
        assert report.lower <= report.r_star <= report.upper * (1 + 1e-8)

    def test_rate_law_single_task(self):
        k = kappa(2, 2)
        for n in (50, 100, 200, 400):
            report = minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=2, delta=2, c=1.0))
            scaled = report.r_star * n**0.75
            assert 0.33 * k <= scaled <= 2**0.25 * k


def test_minimize_template_handles_missing_cap():
    params = RiskParams(n=2, p=1, sigma2=50.0, beta=2, delta=2, c=1.0)
    best = minimize_profile(template_profile(params))
    assert best.value <= min(risk_r(params, 0.0), risk_r(params, math.inf)) * (1 + 1e-12)


def brute_force_minimum(params: RiskParams, points: int = 3000, chunk: int = 100) -> float:
    """Smallest template risk over {0, +inf} and a log grid from 1e-6 n^(-2 beta) to 1e6.

    The lower end lies six decades below the smallest eigenvalue scale n^(-2 beta),
    wherever beta puts it; the grid is evaluated in chunks to keep memory small.
    """
    profile = template_profile(params)
    grid = np.geomspace(1e-6 * float(params.n) ** (-2 * params.beta), 1e6, points)
    best = min(profile.value(0.0), profile.value(math.inf))
    for k in range(0, points, chunk):
        best = min(best, float(value_grid(profile, grid[k:k + chunk]).min()))
    return best


class TestSpectrumBracket:
    def test_optimum_below_the_old_fixed_bracket_is_found(self):
        # the optimum sits near lam = 7.4e-14, under a fixed search floor of 1e-12
        params = RiskParams(n=50, p=100, sigma2=1.0, beta=4, delta=2, c=1000.0)
        report = minimize_risk(params)
        assert report.r_star <= brute_force_minimum(params) * (1 + 1e-9)
        assert report.regime is Regime.REGULARIZE
        assert 0 < report.lambda_star < 1e-12

    @given(n=st.integers(2, 3000), p=st.integers(1, 10**4), beta=st.floats(0.5, 4.0),
           share=st.floats(0.01, 0.99), log_c=st.floats(-3.0, 3.0), log_sigma2=st.floats(-2.0, 2.0))
    def test_never_above_brute_force_in_the_minimax_window(self, n, p, beta, share, log_c, log_sigma2):
        # delta = 1/2 + share * 2 beta spans the window 1 < 2 delta < 4 beta + 1
        params = RiskParams(n=n, p=p, sigma2=10.0**log_sigma2, beta=beta, delta=0.5 + share * 2 * beta,
                            c=10.0**log_c)
        assert minimax_window(params.beta, params.delta)
        assert minimize_risk(params).r_star <= brute_force_minimum(params) * (1 + 1e-9)


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


# (beta, delta) inside both windows, the minimax window only, and neither (the last three)
WINDOW_PAIRS = [(2.0, 2.0), (1.0, 2.4), (0.3, 2.0), (0.2, 0.7), (4.0, 0.4)]


@st.composite
def template_grids(draw):
    """Lists of template cells: n from a small set, the rest over several decades, (beta, delta) from a few pairs.

    A pair is one of ``WINDOW_PAIRS`` or drawn over decades; c = 0 and c = 1 are among the amplitudes.
    """
    # beta >= 10^-0.5 keeps I2 convergent (beta > 1/4) wherever the minimax window asks for kappa
    pairs = draw(st.lists(st.one_of(st.sampled_from(WINDOW_PAIRS), st.tuples(_decades(-0.5, 1.0), _decades(-1.0, 1.0))),
                          min_size=1, max_size=3))
    cell = st.builds(lambda n, pair, p, sigma2, c: RiskParams(n, p, sigma2, *pair, c),
                     st.sampled_from([1, 2, 7, 50, 120]), st.sampled_from(pairs), st.integers(1, 10**6),
                     _decades(-3.0, 3.0), st.one_of(st.just(0.0), st.just(1.0), _decades(-3.0, 3.0)))
    return draw(st.lists(cell, min_size=1, max_size=8))


class TestMinimizeRisks:
    @given(grid=template_grids(), data=st.data())
    def test_each_cell_as_alone_in_any_order(self, grid, data):
        bounds, search = minimize_risks(*columns(grid))
        reports = bound_reports(bounds, search)
        alone = [minimize_risks(*columns([params])) for params in grid]
        # repr is exact for floats and equal for every nan: bit-equal, NaN-aware; so are a search's column bytes
        assert repr(reports) == repr([bound_reports(*cell)[0] for cell in alone])
        cells = [bits(search, [k]) for k in range(len(grid))]
        assert cells == [bits(cell_search) for _, cell_search in alone]
        # and the curve is the one risk-curve tabulates
        assert cells == [bits(search_one(template_profile(params))) for params in grid]
        assert repr(minimize_risk(grid[0])) == repr(reports[0])
        order = data.draw(st.permutations(range(len(grid))))
        shuffled_bounds, shuffled = minimize_risks(*columns([grid[k] for k in order]))
        assert repr(bound_reports(shuffled_bounds, shuffled)) == repr([reports[k] for k in order])
        assert bits(shuffled) == bits(search, order)
        for params, report in zip(grid, reports):
            assert report.r_star <= brute_force_minimum(params) * (1 + 1e-9)

    @given(grid=template_grids())
    def test_every_column_is_the_scalar_arithmetic_of_its_cell(self, grid):
        # the powers cell by cell with Python's **, the rest on the columns: each bound is the scalar formula's bits
        bounds, search = minimize_risks(*columns(grid))
        assert repr(bound_reports(bounds, search)) == repr([
            scalar_report(params, r_star, lambda_star)
            for params, r_star, lambda_star in zip(grid, search.value.tolist(), search.lam.tolist())])

    def test_an_overflow_raises_no_warning(self):
        # n p / sigma2 overflows to inf, where the rate is 0; pytest turns any RuntimeWarning into an error
        bounds, search = minimize_risks([50], [10**7], [1e-300], [2.0], [2.0], [1.0])
        assert bounds.upper[0] == 0.0 and np.isfinite(search.value[0])
        # c n overflows: the search names the row, as it does every row that is not finite
        with pytest.raises(FloatingPointError, match="not finite on row 0"):
            minimize_risks([5], [1], [1.0], [2.0], [2.0], [1e308])

    @pytest.mark.parametrize("column, bad, message", [
        (0, 0, "n and p must be positive integers"), (1, 0, "n and p must be positive integers"),
        (2, 0.0, "sigma2 must be positive and finite"), (2, math.inf, "sigma2 must be positive and finite"),
        (3, -1.0, "beta must be positive and finite"), (4, math.nan, "delta must be positive and finite"),
        (5, -1.0, "c must be nonnegative and finite"), (5, math.inf, "c must be nonnegative and finite"),
        # counts that are no integers: n = 50.9 would build the spectrum at n = 50 but scale the rest at 50.9
        (0, 50.9, "n and p must be positive integers"), (1, 1.5, "n and p must be positive integers")])
    def test_a_cell_that_is_no_risk_params_is_an_error(self, column, bad, message):
        cells = [[50, 50], [1, 2], [1.0, 1.0], [2.0, 2.0], [2.0, 2.0], [1.0, 1.0]]
        cells[column][1] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            minimize_risks(*cells)

    def test_empty_grid(self):
        bounds, search = minimize_risks(*columns([]))
        assert bound_reports(bounds, search) == [] and rows(search) == []

    def test_the_search_stages_of_every_n_add_up_to_no_more_than_the_call(self):
        # every cell is in one engine call, whose three stages follow one another: they take no longer than the
        # whole call, and the stages do not change the result
        cells = [[50, 200, 800, 50], [1, 4, 1, 2], [1.0, 1.0, 1.0, 0.5], [2.0, 2.0, 3.0, 2.0], [2.0, 2.5, 2.0, 2.0],
                 [1.0, 1.0, 1.0, 2.0]]
        times = {}
        start = time.perf_counter()
        bounds, search = minimize_risks(*cells, times=times)
        elapsed = time.perf_counter() - start
        assert list(times) == ["scan", "model", "newton"]
        assert 0 < sum(times.values()) <= elapsed
        assert repr(bound_reports(bounds, search)) == repr(bound_reports(*minimize_risks(*cells)))


# values that break a template rule somewhere: zero, negative, fractional, not finite, and the smallest double
BAD_VALUES = [0.0, -0.0, -1.0, 0.5, 2.5, 5e-324, math.nan, math.inf, -math.inf]


def first_broken_rule(n, p, sigma2, beta, delta, c) -> str | None:
    """The template's rules for one cell, written out in Python floats, in the order they are checked."""
    if not all(float(count).is_integer() and count >= 1 for count in (n, p)):  # nan and inf are not integers
        return "n and p must be positive integers"
    for key, value in (("sigma2", sigma2), ("beta", beta), ("delta", delta)):
        if not 0 < value < math.inf:
            return f"{key} must be positive and finite"
    return None if 0 <= c < math.inf else "c must be nonnegative and finite"


class TestCellErrors:
    @given(cells=st.lists(st.tuples(*(st.one_of(st.sampled_from(good), st.sampled_from(BAD_VALUES))
                                      for good in ([1, 7, 50], [1, 3], [0.5, 1.0], [2.0, 0.3], [2.0, 0.7], [0.0, 1.0]))),
                          max_size=8))
    def test_each_cells_first_message_once_in_cell_order(self, cells):
        def raised(cell):
            try:
                RiskParams(*cell)
            except ValueError as exc:
                return str(exc)
            return None

        alone = [raised(cell) for cell in cells]
        assert alone == [first_broken_rule(*cell) for cell in cells]
        assert cell_errors(*np.array(cells, dtype=float).reshape(-1, 6).T) == list(dict.fromkeys(filter(None, alone)))


class TestEngineInputs:
    @given(grid=template_grids())
    def test_rows_spectra_and_noise_are_each_cells_template_profile(self, grid):
        import mtkrr.riskfn as riskfn

        calls = []

        def capture(n, gamma, signal, noise, spectrum=None, curve=None, times=None):
            calls.append((np.array(n), gamma.copy(), signal.copy(), noise.copy(), spectrum.copy(), curve.copy()))
            return minimize_profiles(n, gamma, signal, noise, spectrum, curve, times)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(riskfn, "minimize_profiles", capture)
            minimize_risks(*columns(grid))
        # one call for every cell: one spectrum per distinct (n, beta), each with its own n, and one signal row per
        # distinct curve (n, beta, delta, c), which its cells name; both padded with zeros to the largest n
        [(n, gamma, signal, noise, spectrum, curve)] = calls
        width = max(params.n for params in grid)
        assert gamma.shape == (len({(params.n, params.beta) for params in grid}), width)
        assert signal.shape == (len({(params.n, params.beta, params.delta, params.c) for params in grid}), width)
        assert noise.shape == spectrum.shape == curve.shape == (len(grid),)
        for row, params in enumerate(grid):
            profile = template_profile(params)
            assert n[spectrum[row]] == params.n
            assert signal[curve[row], :params.n].tobytes() == profile.signal.tobytes()
            assert gamma[spectrum[row], :params.n].tobytes() == profile.gamma.tobytes()
            assert not signal[curve[row], params.n:].any() and not gamma[spectrum[row], params.n:].any()
            assert noise[row] == params.sigma2 / params.p

    def test_verify_bounds_builds_no_spectrum_and_no_profile(self, monkeypatch, tmp_path):
        from mtkrr.cli import main
        from mtkrr.spectral import KernelSpectrum

        built = []
        for cls in (KernelSpectrum, RidgeRiskProfile, RiskParams):
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, f=cls.__post_init__: built.append(type(self).__name__) or f(self))
        template_profile(RiskParams(n=5, p=1, sigma2=1.0, beta=2.0, delta=2.0, c=1.0))  # the counter sees them
        assert built == ["RiskParams", "KernelSpectrum", "RidgeRiskProfile"]
        built.clear()
        assert main(["verify-bounds", "--out", str(tmp_path / "v.txt")]) == 0
        # the template's parameters are checked on columns (riskfn.cell_errors): no object per curve, cell or draw
        assert built == []


def test_params_flags():
    assert minimax_window(2, 2)
    assert not minimax_window(0.6, 2)
    assert not minimax_window(0.2, 0.7)
    assert not lower_bound_window(1, 2)
    # on columns, cell by cell
    assert minimax_window(np.array([2, 0.6, 0.2, 1]), np.array([2, 2, 0.7, 2])).tolist() == [True, False, False, True]
    assert lower_bound_window(np.array([2, 1]), np.array([2, 2])).tolist() == [True, False]
