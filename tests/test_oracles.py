import math

import numpy as np
import pytest
from hypothesis import assume, given
from conftest import oracle_multitask, oracle_singletask, value_grid
from hypothesis import strategies as st

from mtkrr.optimize import RidgeRiskProfile
from mtkrr.oracles import (
    compare_oracles,
    df_and_bias,
    hm_bound_rhs,
    rho_formula_1out,
    rho_formula_2points,
)
from mtkrr.riskfn import RiskParams, alpha_constant, kappa, minimize_risk
from mtkrr.scenarios import ScenarioKind, ScenarioSpec, build_ensemble, synth_spectrum
from mtkrr.spectral import KernelSpectrum, MeanVarianceProfile, TaskEnsemble, mean_variance_profile


def two_cluster_spec(n, p, c1, c2, delta, beta):
    return ScenarioSpec(kind=ScenarioKind.H2POINTS, n=n, p=p, c1=c1, c2=c2, delta1=delta, beta_or_m=beta)


class TestOracleMultitask:
    def test_identical_tasks_shrink_the_variance_part_away(self):
        spec = two_cluster_spec(30, 4, 1.0, 0.0, 2.0, 2.0)
        spectrum = synth_spectrum(30, 2.0)
        profile = mean_variance_profile(build_ensemble(spec)[1])
        mt = oracle_multitask(spectrum, profile, 1.0, 4)
        assert math.isinf(mt.mu_star)
        assert mt.var_part == 0.0
        assert mt.risk == mt.mean_part

    def test_risk_between_theorem_envelopes(self):
        # equal mean/variance amplitudes, exact decaying profiles
        n, p, c, beta, delta = 200, 2, 1.0, 2.0, 2.0
        spec = two_cluster_spec(n, p, c, c, delta, beta)
        spectrum = synth_spectrum(n, beta)
        profile = mean_variance_profile(build_ensemble(spec)[1])
        mt = oracle_multitask(spectrum, profile, 1.0, p)
        kap = kappa(beta, delta)
        alpha = alpha_constant(beta, delta)
        bracket = c ** (1 / (2 * delta)) + (p - 1) ** (1 - 1 / (2 * delta)) * c ** (1 / (2 * delta))
        rate = (n * p) ** (1 / (2 * delta) - 1) * kap * bracket
        assert alpha * rate <= mt.risk <= 2 ** (1 / (2 * delta)) * rate

    @pytest.mark.parametrize("seed", range(5))
    def test_beats_two_dimensional_grid(self, seed):
        rng = np.random.default_rng(seed)
        n, p = 40, 4
        spec = two_cluster_spec(n, p, float(10 ** rng.uniform(-1, 1)), float(10 ** rng.uniform(-2, 2)), 2.0, 2.0)
        spectrum = synth_spectrum(n, 2.0)
        profile = mean_variance_profile(build_ensemble(spec)[1])
        mt = oracle_multitask(spectrum, profile, 1.0, p)
        from conftest import mean_part_profile, variance_part_profile

        grid = np.geomspace(1e-9, 1e3, 200)
        g1 = value_grid(mean_part_profile(spectrum, profile, 1.0, p), grid)
        g2 = value_grid(variance_part_profile(spectrum, profile, 1.0, p), grid)
        grid_min = float((g1[:, None] + g2[None, :]).min())
        assert mt.risk <= grid_min * (1 + 1e-7)

    def test_mean_search_ignores_variance_profile(self):
        n, p = 25, 3
        spectrum = synth_spectrum(n, 2.0)
        i = np.arange(1, n + 1, dtype=float)
        mu = np.sqrt(n * p) * i**-2.0
        base = MeanVarianceProfile(mu=mu, varsigma2=n * i**-3.0)
        bumped = MeanVarianceProfile(mu=mu, varsigma2=2.5 * n * i**-1.5)
        a = oracle_multitask(spectrum, base, 1.0, p)
        b = oracle_multitask(spectrum, bumped, 1.0, p)
        assert a.lambda_star == b.lambda_star
        assert a.mean_part == b.mean_part


class TestOracleSingletask:
    def test_degenerate_single_task_matches_template_minimum(self):
        n, c, beta, delta = 60, 1.3, 2.0, 2.0
        spectrum = synth_spectrum(n, beta)
        i = np.arange(1, n + 1, dtype=float)
        h = (math.sqrt(c * n) * i**-delta)[:, None]
        from mtkrr.spectral import TaskEnsemble

        st = oracle_singletask(spectrum, TaskEnsemble(n=n, p=1, h=h), 1.0)
        report = minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=beta, delta=delta, c=c))
        assert st.risk == pytest.approx(report.r_star, rel=1e-9)

    def test_identical_tasks_get_identical_lambdas(self):
        spec = two_cluster_spec(20, 4, 1.0, 0.0, 2.0, 2.0)
        spectrum = synth_spectrum(20, 2.0)
        st = oracle_singletask(spectrum, build_ensemble(spec)[1], 1.0)
        assert len(set(st.lambdas)) == 1
        assert st.risk == pytest.approx(st.per_task[0], rel=1e-12)

    def test_two_cluster_tasks_split_into_two_template_risks(self):
        n, p, c1, c2, beta, delta = 50, 4, 1.0, 0.25, 2.0, 2.0
        spec = two_cluster_spec(n, p, c1, c2, delta, beta)
        spectrum = synth_spectrum(n, beta)
        st = oracle_singletask(spectrum, build_ensemble(spec)[1], 1.0)
        plus = minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=beta, delta=delta,
                                        c=(math.sqrt(c1) + math.sqrt(c2)) ** 2)).r_star
        minus = minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=beta, delta=delta,
                                         c=(math.sqrt(c1) - math.sqrt(c2)) ** 2)).r_star
        for j in range(p // 2):
            assert st.per_task[j] == pytest.approx(plus, rel=1e-9)
        for j in range(p // 2, p):
            assert st.per_task[j] == pytest.approx(minus, rel=1e-9)
        assert st.risk == pytest.approx((plus + minus) / 2, rel=1e-9)


class TestCompareOracles:
    def test_result_is_internally_consistent(self):
        spec = two_cluster_spec(30, 4, 1.0, 0.5, 2.0, 2.0)
        spectrum = synth_spectrum(30, 2.0)
        tasks = build_ensemble(spec)[1]
        res = compare_oracles(spectrum, tasks, 1.0)
        from mtkrr.estimators import risk_spectral

        risk = risk_spectral(spectrum, mean_variance_profile(tasks), res.lambda_star, res.mu_star, 1.0, 4)
        assert res.mt_risk == pytest.approx(risk.total, rel=1e-10)
        assert res.st_risk == pytest.approx(sum(res.diagnostics) / 4, rel=1e-10)
        assert res.rho == pytest.approx(res.mt_risk / res.st_risk, rel=1e-12)

    @pytest.mark.parametrize("r", [0.01, 0.1, 1.0, 10.0])
    def test_measured_ratio_tracks_the_formula_within_rate_constants(self, r):
        n, p = 50, 4
        spec = two_cluster_spec(n, p, 1.0, r, 2.0, 2.0)
        spectrum = synth_spectrum(n, 2.0)
        res = compare_oracles(spectrum, build_ensemble(spec)[1], 1.0)
        formula = rho_formula_2points(p, 2.0, r)
        assert formula / 3 <= res.rho <= 3 * formula


    def test_every_search_is_carried_through(self):
        spec = two_cluster_spec(30, 4, 1.0, 0.5, 2.0, 2.0)
        spectrum, tasks = synth_spectrum(30, 2.0), build_ensemble(spec)[1]
        res = compare_oracles(spectrum, tasks, 1.0)
        assert len(res.search) == 6
        assert [best.lam for best in res.search] == [res.lambda_star, res.mu_star, *res.st_lambdas]
        assert [best.value for best in res.search[2:]] == list(res.diagnostics)
        mt = oracle_multitask(spectrum, mean_variance_profile(tasks), 1.0, 4)
        st_oracle = oracle_singletask(spectrum, tasks, 1.0)
        assert mt.search == res.search[:2] and st_oracle.search == res.search[2:]
        for best in res.search:
            assert best.source == "newton" and 1 <= best.iterations and best.stationarity <= 1e-10

    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(min_value=-3.0, max_value=3.0), st.permutations(range(6)))
    def test_permuting_the_tasks_changes_nothing(self, p, seed, log_sigma2, perm):
        rng = np.random.default_rng(seed)
        n = 25
        i = np.arange(1, n + 1, dtype=float)
        spectrum = KernelSpectrum(n=n, gamma=n * i ** -rng.uniform(1.0, 6.0))
        h = np.sqrt(n) * i[:, None] ** -rng.uniform(0.5, 3.0, p) * rng.standard_normal((n, p))
        order = [k for k in perm if k < p]
        sigma2 = 10.0**log_sigma2
        base = compare_oracles(spectrum, TaskEnsemble(n=n, p=p, h=h), sigma2)
        permuted = compare_oracles(spectrum, TaskEnsemble(n=n, p=p, h=h[:, order]), sigma2)
        assert permuted.mt_risk == pytest.approx(base.mt_risk, rel=1e-12)
        assert permuted.rho == pytest.approx(base.rho, rel=1e-12)
        # the single-task searches are the same rows in another order: bit-identical
        assert permuted.diagnostics == tuple(base.diagnostics[k] for k in order)
        assert permuted.st_lambdas == tuple(base.st_lambdas[k] for k in order)


@st.composite
def seeded_specs(draw, p):
    """Small random-sign scenarios (settings A, C and D) with p tasks, and a noise level."""
    kind = draw(st.sampled_from([ScenarioKind.SETTING_A, ScenarioKind.SETTING_C, ScenarioKind.SETTING_D]))
    spec = ScenarioSpec(
        kind=kind,
        n=draw(st.integers(min_value=2, max_value=30)),
        p=draw(p),
        c1=draw(st.floats(min_value=0.01, max_value=4.0)),
        c2=draw(st.floats(min_value=0.01, max_value=4.0)),
        delta1=draw(st.floats(min_value=0.6, max_value=3.0)),
        delta2=draw(st.floats(min_value=0.6, max_value=3.0)) if kind is not ScenarioKind.SETTING_A else None,
        beta_or_m=draw(st.floats(min_value=0.6, max_value=4.0)),
        seed=draw(st.integers(min_value=0, max_value=2**64 - 1)),
    )
    return spec, 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))


class TestOracleProperties:
    @given(seeded_specs(st.just(1)))
    def test_one_task_gives_ratio_one(self, case):
        # at p = 1 the mean part is the task's own curve and the variance part is empty
        spec, sigma2 = case
        spectrum, tasks = build_ensemble(spec)
        assume(np.any(tasks.h != 0))
        res = compare_oracles(spectrum, tasks, sigma2)
        assert res.mt_risk == res.st_risk
        assert res.rho == 1.0

    @given(seeded_specs(st.integers(min_value=2, max_value=6)))
    def test_multitask_oracle_beats_every_shared_lambda(self, case):
        # lam = mu is one single-task ridge with a common lambda, so the joint
        # optimum is at most the best shared lambda; a grid minimum bounds that from above
        spec, sigma2 = case
        spectrum, tasks = build_ensemble(spec)
        assume(np.any(tasks.h != 0))
        res = compare_oracles(spectrum, tasks, sigma2)
        n, gamma = spectrum.n, spectrum.gamma
        grid = np.geomspace(gamma.min() / n * 1e-6, gamma.max() / n * 1e6, 4000)
        shared = sum(value_grid(RidgeRiskProfile(n=n, gamma=gamma, signal=h_j**2, noise=sigma2), grid)
                     for h_j in tasks.h.T) / tasks.p
        assert res.mt_risk <= float(shared.min()) * (1 + 1e-12)

    @given(st.integers(min_value=2, max_value=40), st.floats(min_value=0.01, max_value=4.0),
           st.floats(min_value=0.0, max_value=4.0), st.floats(min_value=0.6, max_value=3.0),
           st.floats(min_value=0.6, max_value=4.0), st.floats(min_value=-2.0, max_value=2.0))
    def test_two_task_configurations_coincide(self, n, c1, c2, delta, beta, log_sigma2):
        # at p = 2 the two-cluster and the one-outlier configurations build the same two tasks
        fields = dict(n=n, p=2, c1=c1, c2=c2, delta1=delta, beta_or_m=beta)
        spectrum, sigma2 = synth_spectrum(n, beta), 10.0**log_sigma2
        two = compare_oracles(spectrum, build_ensemble(ScenarioSpec(kind=ScenarioKind.H2POINTS, **fields))[1], sigma2)
        out = compare_oracles(spectrum, build_ensemble(ScenarioSpec(kind=ScenarioKind.H1OUT, **fields))[1], sigma2)
        assert (out.mt_risk, out.st_risk, out.rho, out.diagnostics) == (two.mt_risk, two.st_risk, two.rho,
                                                                         two.diagnostics)


class TestRhoFormulas:
    def test_two_cluster_zero_dispersion_anchor(self):
        assert rho_formula_2points(4, 2.0, 0.0) == 4 ** (1 / 4 - 1)

    def test_two_cluster_odd_p_rejected(self):
        with pytest.raises(ValueError):
            rho_formula_2points(5, 2.0, 0.0)

    def test_two_cluster_continuous_at_unit_ratio(self):
        near = rho_formula_2points(4, 2.0, 1.0 - 1e-9)
        at = rho_formula_2points(4, 2.0, 1.0)
        assert abs(near - at) < 1e-4
        assert math.isfinite(at)

    def test_outlier_zero_dispersion_anchor(self):
        for p in (2, 4, 5, 10):
            assert rho_formula_1out(p, 2.0, 0.0) == p ** (1 / 4 - 1)

    def test_outlier_divergence_for_rough_outliers(self):
        assert rho_formula_1out(50, 2.0, 1e6) > 1.0

    def test_outlier_term_vanishes_at_balanced_dispersion(self):
        # r = 1/(p-1) kills the |1 - sqrt(r (p-1))| term
        p, delta, r = 5, 2.0, 1.0 / 4.0
        e = 1 / (2 * delta)
        num = p ** (e - 1) + ((p - 1) / p) ** (1 - e) * r**e
        den = (p - 1) / p * (1 + math.sqrt(r / (p - 1))) ** (1 / delta)
        assert rho_formula_1out(p, delta, r) == pytest.approx(num / den, rel=1e-12)


class TestDfAndBias:
    def test_interpolation_limit(self):
        spectrum = synth_spectrum(12, 2.0)
        df, b = df_and_bias(spectrum, np.ones(12), 0.0)
        assert df == 12.0
        assert b == 0.0

    def test_full_shrinkage_limit(self):
        spectrum = synth_spectrum(12, 2.0)
        h = np.arange(12.0)
        df, b = df_and_bias(spectrum, h, math.inf)
        assert df == 0.0
        assert b == pytest.approx(float(np.sum(h**2)) / 12, rel=1e-12)
        df_large, b_large = df_and_bias(spectrum, h, 1e14)
        assert df_large < 1e-10
        assert b_large == pytest.approx(b, rel=1e-6)

    @pytest.mark.parametrize("n", [100, 400])
    def test_low_df_low_bias_witness_exists(self, n):
        # polynomial decay with smooth signal: some lam reaches df <= sqrt(n)
        # while keeping the squared bias below sigma2 sqrt(ln n / n)
        spectrum = synth_spectrum(n, 2.0)
        i = np.arange(1, n + 1, dtype=float)
        h = np.sqrt(n) * i**-2.0
        found = False
        for lam in np.geomspace(1e-8, 1.0, 200):
            df, b = df_and_bias(spectrum, h, float(lam))
            if df <= math.sqrt(n) and b <= math.sqrt(math.log(n) / n):
                found = True
                break
        assert found


class TestHmBound:
    def test_pure_constant_term(self):
        n, p, theta = 100, 2, 2.0
        val = hm_bound_rhs(n, p, 1.0, theta, 0.0, 0.0, big_l=1.0)
        assert val == pytest.approx(16 * p * math.log(n) ** 3 / n, rel=1e-12)

    def test_monotone_in_theta(self):
        vals = [hm_bound_rhs(100, 2, 1.0, th, 1e-3, 5.0) for th in (2.0, 3.0, 4.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_formula_assembly(self):
        n, p, sigma2, theta, mt, fsq, L = 50, 3, 1.4, 2.5, 0.02, 7.0, 0.8
        expected = (
            (1 + 1 / math.log(n)) ** 2 * mt
            + L * sigma2 * (2 + theta) ** 2 * p * math.log(n) ** 3 / n
            + p / n ** (theta / 2) * fsq / (n * p)
        )
        assert hm_bound_rhs(n, p, sigma2, theta, mt, fsq, big_l=L) == pytest.approx(expected, rel=1e-14)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            hm_bound_rhs(2, 1, 1.0, 2.0, 0.0, 0.0)

    def test_data_driven_vs_single_task_oracle_regime(self):
        # Two equal clusters, r = 0.01, n = 10^4: the oracle-inequality leading
        # factor keeps the data-driven bound below the single-task oracle, but
        # the additive L sigma2 (2+theta)^2 p ln(n)^3 / n remainder (= 2.50 here,
        # vs oracle risks ~1e-3) dominates until n ~ 1e28, so the assembled
        # bound exceeds 1 at any practical sample size when L = 1.
        n, p, c1, c2, beta, delta, theta = 10_000, 2, 1.0, 0.01, 2.0, 2.0, 2.0
        mt = (
            minimize_risk(RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=c1)).r_star
            + minimize_risk(RiskParams(n=n, p=p, sigma2=float(p - 1), beta=beta, delta=delta, c=c2)).r_star
        )
        st = 0.5 * (
            minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=beta, delta=delta,
                                     c=(math.sqrt(c1) + math.sqrt(c2)) ** 2)).r_star
            + minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=beta, delta=delta,
                                       c=(math.sqrt(c1) - math.sqrt(c2)) ** 2)).r_star
        )
        i = np.arange(1, n + 1, dtype=float)
        fsq = n * ((math.sqrt(c1) + math.sqrt(c2)) ** 2 + (math.sqrt(c1) - math.sqrt(c2)) ** 2) * float(
            np.sum(i**-4.0)
        )
        leading = (1 + 1 / math.log(n)) ** 2 * mt / st
        assert leading < 1.0
        full = hm_bound_rhs(n, p, 1.0, theta, mt, fsq, big_l=1.0) / st
        assert full > 1.0
        # with the absolute-constant term off and theta large enough to kill
        # the n^(-theta/2) remainder, the bound certifies the multi-task win
        assert hm_bound_rhs(n, p, 1.0, 3.0, mt, fsq, big_l=0.0) / st < 1.0
