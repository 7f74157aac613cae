import math
from dataclasses import fields

import numpy as np
import pytest
from conftest import (bits, minimize_profile, quad_kappa, quad_tail_integral, rows, s1, s2, search_one, stack,
                      value_grid)
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from mtkrr.riskfn import (
    BoundReport,
    DivergentIntegralError,
    NoEpsilonCapError,
    Regime,
    RiskParams,
    _i1_exponent,
    _tail_integral,
    _unit_fraction,
    alpha_constant,
    epsilon_cap,
    integral_i1,
    integral_i2,
    kappa,
    minimax_rate,
    minimize_risk,
    minimize_risks,
    template_profile,
)
from reference import risk_r


FLOAT_FIELDS = [field.name for field in fields(BoundReport) if field.name != "regime"]


def cap_of(params: RiskParams) -> float:
    """The localization cap from the rate as ``minimize_risk`` forms it."""
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
        assert len(calls) == (1 if params.satisfies_hm else 0)
        assert report.kappa == kappa(beta, delta) if params.satisfies_hm else math.isnan(report.kappa)

    def test_constants_run_once_per_pair_of_a_grid(self, monkeypatch):
        import mtkrr.riskfn as riskfn

        calls = {"kappa": [], "alpha_constant": []}
        for name, original in (("kappa", kappa), ("alpha_constant", alpha_constant)):
            monkeypatch.setattr(riskfn, name, lambda *args, log=calls[name], f=original: log.append(args) or f(*args))
        pairs = [(2.0, 2.0), (1.0, 2.4), (0.3, 2.0)]  # lb window, hm only, neither
        grid = [RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=c)
                for n in (20, 50) for p in (1, 5) for beta, delta in pairs for c in (0.5, 2.0)]
        reports, _ = riskfn.minimize_risks(grid)
        assert sorted(calls["kappa"]) == [(1.0, 2.4), (2.0, 2.0)]
        assert calls["alpha_constant"] == [(2.0, 2.0)]
        for params, report in zip(grid, reports):
            assert report.kappa == kappa(params.beta, params.delta) if params.satisfies_hm else math.isnan(report.kappa)

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
        (grid_reports, grid_search), (sweep_reports, sweep_search) = minimize_risks(grid), minimize_risks(sweep)
        reports, search = minimize_risks(grid + sweep)
        assert bits(search) == bits(stack([grid_search, sweep_search]))
        for merged, apart in zip(reports, grid_reports + sweep_reports, strict=True):
            assert merged.regime is apart.regime
            assert [np.float64(getattr(merged, key)).tobytes() for key in FLOAT_FIELDS] == \
                [np.float64(getattr(apart, key)).tobytes() for key in FLOAT_FIELDS]

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
        # verify-bounds reads S1 and S2 from the template profile at C = sigma2 = p = 1
        rng = np.random.default_rng(seed + 100)
        beta = float(rng.uniform(0.8, 4.0))
        delta = float(rng.uniform(0.6, min(2 * beta - 0.05, 3.0)))
        n = int(rng.integers(5, 500))
        lam = float(10 ** rng.uniform(-8, 2))
        bias, var = template_profile(RiskParams(n, 1, 1.0, beta, delta, 1.0)).parts(lam)
        assert bias / lam**2 == pytest.approx(s1(n, lam, beta, delta), rel=1e-13)
        assert n * var == pytest.approx(s2(n, lam, beta), rel=1e-13)


class TestSandwich:
    @pytest.mark.parametrize("n,p", [(100, 1), (100, 4), (400, 2), (800, 1)])
    @pytest.mark.parametrize("beta,delta", [(2.0, 2.0), (4.0, 2.0), (2.0, 1.5)])
    def test_bounds_bracket_the_optimum(self, n, p, beta, delta):
        params = RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=1.0)
        assert params.satisfies_hm and params.satisfies_lb and n * p >= 100
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
        assert params.satisfies_hm
        assert minimize_risk(params).r_star <= brute_force_minimum(params) * (1 + 1e-9)


def _decades(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def template_grids(draw):
    """Lists of template cells: n from a small set, the rest over several decades, (beta, delta) from a few pairs."""
    # beta >= 10^-0.5 keeps I2 convergent (beta > 1/4) wherever the minimax window asks for kappa
    pairs = draw(st.lists(st.tuples(_decades(-0.5, 1.0), _decades(-1.0, 1.0)), min_size=1, max_size=3))
    cell = st.builds(lambda n, pair, p, sigma2, c: RiskParams(n, p, sigma2, *pair, c),
                     st.sampled_from([1, 2, 7, 50, 120]), st.sampled_from(pairs), st.integers(1, 10**6),
                     _decades(-3.0, 3.0), st.one_of(st.just(0.0), _decades(-3.0, 3.0)))
    return draw(st.lists(cell, min_size=1, max_size=8))


class TestMinimizeRisks:
    @given(grid=template_grids(), data=st.data())
    def test_each_cell_as_alone_in_any_order(self, grid, data):
        reports, search = minimize_risks(grid)
        alone = [minimize_risks([params]) for params in grid]
        # repr is exact for floats and equal for every nan: bit-equal, NaN-aware; so are a search's column bytes
        assert repr(reports) == repr([cell_reports[0] for cell_reports, _ in alone])
        cells = [bits(search, [k]) for k in range(len(grid))]
        assert cells == [bits(cell_search) for _, cell_search in alone]
        # and the curve is the one risk-curve tabulates
        assert cells == [bits(search_one(template_profile(params))) for params in grid]
        assert repr(minimize_risk(grid[0])) == repr(reports[0])
        order = data.draw(st.permutations(range(len(grid))))
        shuffled_reports, shuffled = minimize_risks([grid[k] for k in order])
        assert repr(shuffled_reports) == repr([reports[k] for k in order])
        assert bits(shuffled) == bits(search, order)
        for params, report in zip(grid, reports):
            assert report.r_star <= brute_force_minimum(params) * (1 + 1e-9)

    def test_empty_grid(self):
        reports, search = minimize_risks([])
        assert reports == [] and rows(search) == []


def test_params_flags():
    assert RiskParams(n=10, p=1, sigma2=1.0, beta=2, delta=2, c=1.0).satisfies_hm
    assert not RiskParams(n=10, p=1, sigma2=1.0, beta=0.6, delta=2, c=1.0).satisfies_hm
    assert not RiskParams(n=10, p=1, sigma2=1.0, beta=0.2, delta=0.7, c=1.0).satisfies_hm
    assert not RiskParams(n=10, p=1, sigma2=1.0, beta=1, delta=2, c=1.0).satisfies_lb
