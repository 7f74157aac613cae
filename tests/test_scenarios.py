import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from mtkrr.scenarios import (
    ScenarioKind,
    ScenarioSpec,
    build_ensemble,
    derive_seed,
    periodic_kernel_matrix,
    periodic_kernel_value,
    rng_for,
    synth_spectrum,
)
from mtkrr.estimators import RegularizerAV, risk_direct, risk_spectral
from mtkrr.spectral import mean_variance_profile, project_tasks, reconstruct_tasks


def spec_of(kind, **kw):
    base = dict(n=8, p=4, c1=1.0, c2=0.25, delta1=2.0, beta_or_m=2.0, seed=99)
    base.update(kw)
    return ScenarioSpec(kind=kind, **base)


class TestSynthSpectrum:
    def test_values(self):
        spec = synth_spectrum(4, 1.0)
        assert np.allclose(spec.gamma, [4.0, 1.0, 4 / 9, 0.25], atol=1e-15)
        assert spec.basis is None and np.array_equal(spec.kernel_matrix(), np.diag(spec.gamma))

    def test_flat_when_beta_zero(self):
        assert np.allclose(synth_spectrum(5, 0.0).gamma, 5.0)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.7])
    def test_descending(self, beta):
        assert np.all(np.diff(synth_spectrum(9, beta).gamma) < 0)

    def test_projection_roundtrip_is_exact(self):
        s = synth_spectrum(6, 1.5)
        F = np.random.default_rng(3).normal(size=(6, 4))
        assert np.array_equal(reconstruct_tasks(s, project_tasks(s, F)), F)

    def test_dense_route_runs_through_the_implicit_basis(self):
        spectrum, tasks = build_ensemble(spec_of(ScenarioKind.SETTING_A, n=7, p=3))
        reg = RegularizerAV(p=3, lam=0.02, mu=0.3)
        direct = risk_direct(spectrum, tasks, reg, 0.5)
        spectral = risk_spectral(spectrum, mean_variance_profile(tasks), 0.02, 0.3, 0.5, 3)
        assert direct.bias == pytest.approx(spectral.bias, rel=1e-10)
        assert direct.variance == pytest.approx(spectral.variance, rel=1e-10)

    def test_large_n_allocates_no_square_array(self):
        tracemalloc.start()
        try:
            s = synth_spectrum(50_000, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.basis is None
        assert peak < 100 * 50_000 * 8  # a few length-n vectors, far below n^2 doubles


class TestTwoClusters:
    def test_zero_dispersion_means_identical_tasks(self):
        h = build_ensemble(spec_of(ScenarioKind.H2POINTS, c2=0.0))[1].h
        assert np.ptp(h, axis=1).max() == 0.0

    def test_hand_substitution(self):
        spec = spec_of(ScenarioKind.H2POINTS, n=3, p=2, c1=1.0, c2=1.0, delta1=1.0)
        h = build_ensemble(spec)[1].h
        i = np.arange(1.0, 4.0)
        assert np.allclose(h[:, 0], 2 * math.sqrt(3) / i, atol=1e-14)
        assert np.allclose(h[:, 1], 0.0, atol=1e-14)

    def test_profile_identity(self):
        spec = spec_of(ScenarioKind.H2POINTS, n=6, p=4, c1=1.0, c2=0.25, delta1=2.0)
        prof = mean_variance_profile(build_ensemble(spec)[1])
        i = np.arange(1.0, 7.0)
        assert np.max(np.abs(prof.mu**2 / 4 - 6 * i**-4.0)) < 1e-12 * 6
        assert np.max(np.abs(prof.varsigma2 - 0.25 * 6 * i**-4.0)) < 1e-12 * 6

    def test_odd_p_rejected(self):
        with pytest.raises(ValueError, match="even"):
            spec_of(ScenarioKind.H2POINTS, p=3)


class TestOneOutlier:
    def test_zero_dispersion_means_identical_tasks(self):
        h = build_ensemble(spec_of(ScenarioKind.H1OUT, c2=0.0))[1].h
        assert np.ptp(h, axis=1).max() == 0.0

    def test_two_tasks_reduce_to_the_two_cluster_form(self):
        a = build_ensemble(spec_of(ScenarioKind.H1OUT, p=2))[1].h
        b = build_ensemble(spec_of(ScenarioKind.H2POINTS, p=2))[1].h
        assert np.max(np.abs(a - b)) < 1e-14

    def test_profile_identity(self):
        spec = spec_of(ScenarioKind.H1OUT, n=6, p=5)
        prof = mean_variance_profile(build_ensemble(spec)[1])
        i = np.arange(1.0, 7.0)
        assert np.max(np.abs(prof.mu**2 / 5 - 1.0 * 6 * i**-4.0)) < 1e-11 * 6
        assert np.max(np.abs(prof.varsigma2 - 0.25 * 6 * i**-4.0)) < 1e-11 * 6


class TestSettingA:
    def test_zero_dispersion_is_deterministic(self):
        h = build_ensemble(spec_of(ScenarioKind.SETTING_A, c2=0.0))[1].h
        i = np.arange(1.0, 9.0)
        assert np.allclose(h, (math.sqrt(8) * i**-2.0)[:, None], atol=1e-14)

    def test_same_seed_reproduces(self):
        spec = spec_of(ScenarioKind.SETTING_A)
        assert np.array_equal(build_ensemble(spec)[1].h, build_ensemble(spec)[1].h)

    def test_different_seeds_differ(self):
        a = build_ensemble(spec_of(ScenarioKind.SETTING_A, seed=1))[1].h
        b = build_ensemble(spec_of(ScenarioKind.SETTING_A, seed=2))[1].h
        assert not np.array_equal(a, b)

    def test_signs_are_rademacher(self):
        spec = spec_of(ScenarioKind.SETTING_A, n=10, p=6, c1=1.0, c2=0.49, delta1=1.5)
        h = build_ensemble(spec)[1].h
        i = np.arange(1.0, 11.0)
        eps = (h / (math.sqrt(10) * i**-1.5)[:, None] - 1.0) / 0.7
        assert np.allclose(np.abs(eps), 1.0, atol=1e-10)

    def test_sign_field_is_balanced_in_the_long_run(self):
        draws = rng_for(123).integers(0, 2, size=100_000) * 2 - 1
        assert abs(draws.mean()) < 0.02

    def test_mean_profile_recomputes_from_recovered_signs(self):
        spec = spec_of(ScenarioKind.SETTING_A, n=12, p=5, c1=1.0, c2=0.25, delta1=2.0, seed=3)
        tasks = build_ensemble(spec)[1]
        prof = mean_variance_profile(tasks)
        i = np.arange(1.0, 13.0)
        eps = (tasks.h / (math.sqrt(12) * i**-2.0)[:, None] - 1.0) / 0.5
        expected = 12 * i**-4.0 * (1.0 + eps.mean(axis=1) * 0.5) ** 2
        assert np.max(np.abs(prof.mu**2 / 5 - expected)) < 1e-10


def _series_kernel(theta, m, terms=10_000):
    """The defining series 2 sum_{k <= terms} cos(k theta)/k^(2m); its tail is below 2 terms^(1-2m)/(2m-1)."""
    t = np.asarray(theta, dtype=float)
    acc = np.zeros_like(t)
    for start in range(1, terms + 1, 512):
        ks = np.arange(start, min(start + 512, terms + 1), dtype=float)
        acc += np.tensordot(ks ** (-2.0 * m), np.cos(np.multiply.outer(ks, t)), axes=(0, 0))
    return 2.0 * acc


class TestSettingB:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_closed_form_matches_the_series(self, m):
        theta = np.linspace(-2 * np.pi, 2 * np.pi, 2001)
        terms = 10_000
        tail = 2 * terms ** (1.0 - 2 * m) / (2 * m - 1)  # 2e-4 at m=1, below 1e-12 from m=2
        assert np.max(np.abs(periodic_kernel_value(theta, m) - _series_kernel(theta, m, terms))) <= 1e-12 + tail

    def test_closed_form_matches_the_low_order_polynomials(self):
        # the m=1 and m=2 Bernoulli polynomials written out by hand
        t = np.abs(np.linspace(-2 * np.pi, 2 * np.pi, 2001))
        k1 = 2.0 * (np.pi**2 / 6 - np.pi * t / 2 + t**2 / 4)
        k2 = 2.0 * (np.pi**4 / 90 - np.pi**2 * t**2 / 12 + np.pi * t**3 / 12 - t**4 / 48)
        assert np.max(np.abs(periodic_kernel_value(t, 1) - k1)) < 1e-13
        assert np.max(np.abs(periodic_kernel_value(t, 2) - k2)) < 1e-13

    @pytest.mark.parametrize("m", [50, 1000])
    def test_high_orders_tend_to_the_first_harmonics(self, m):
        # the terms past k=2 sum to less than 2 * 3^(-2m) (2m)/(2m-1), far below a double's resolution
        theta = np.linspace(-2 * np.pi, 2 * np.pi, 2001)
        with np.errstate(all="raise"):
            value = periodic_kernel_value(theta, m)
            expected = 2 * np.cos(theta) + 2 * np.cos(2 * theta) * 0.25**m
        assert np.max(np.abs(value - expected)) < 1e-14

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            periodic_kernel_value(np.array(0.0), 2.5)
        with pytest.raises(ValueError, match="integer"):
            periodic_kernel_value(np.array(0.0), 0)
        with pytest.raises(ValueError, match="angles"):
            periodic_kernel_value(np.array([7.0]), 2)

    def test_kernel_diagonal_is_twice_zeta(self):
        assert periodic_kernel_value(np.array(0.0), 1) == pytest.approx(math.pi**2 / 3, rel=1e-14)
        assert periodic_kernel_value(np.array(0.0), 2) == pytest.approx(2 * math.pi**4 / 90, rel=1e-14)

    def test_truncated_series_matches_bernoulli_closed_form(self):
        # independent closed form for 2 sum cos(k t)/k^6 via the degree-6
        # Bernoulli polynomial; the package path sums eta-weighted powers of (t - pi)
        t = np.linspace(0.0, 2 * np.pi, 9)
        x = t / (2 * np.pi)
        b6 = x**6 - 3 * x**5 + 2.5 * x**4 - 0.5 * x**2 + 1 / 42
        closed = 2 * (2 * np.pi) ** 6 / (2 * math.factorial(6)) * b6
        assert np.max(np.abs(periodic_kernel_value(t, 3) - closed)) < 1e-9

    def test_kernel_matrix_is_psd(self):
        x = rng_for(5).uniform(-np.pi, np.pi, 20)
        K = periodic_kernel_matrix(x, 2)
        assert np.max(np.abs(K - K.T)) < 1e-12
        assert np.linalg.eigvalsh(K).min() > -1e-8

    def test_zero_dispersion_gives_identical_columns(self):
        spec = spec_of(ScenarioKind.SETTING_B, c2=0.0, n=12)
        _, tasks = build_ensemble(spec)
        assert np.ptp(tasks.h, axis=1).max() < 1e-12

    def test_projection_preserves_task_energy(self):
        spec = spec_of(ScenarioKind.SETTING_B, n=15)
        spectrum, tasks = build_ensemble(spec)
        rng = rng_for(spec.seed)
        x = rng.uniform(-np.pi, np.pi, 15)
        eps = rng.integers(0, 2, size=(15, 4)) * 2 - 1
        F = (1.0 + eps * 0.5) * np.abs(x)[:, None]
        assert np.allclose(np.sum(tasks.h**2, axis=0), np.sum(F**2, axis=0), rtol=1e-10)

    def test_non_integer_order_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            build_ensemble(spec_of(ScenarioKind.SETTING_B, beta_or_m=1.5))


class TestSettingC:
    def test_reduces_to_single_decay_when_exponents_match(self):
        a = build_ensemble(spec_of(ScenarioKind.SETTING_A, seed=7))[1].h
        c = build_ensemble(spec_of(ScenarioKind.SETTING_C, seed=7, delta2=2.0))[1].h
        assert np.max(np.abs(a - c)) < 1e-14

    def test_zero_dispersion_is_deterministic(self):
        h = build_ensemble(spec_of(ScenarioKind.SETTING_C, c2=0.0, delta2=3.0))[1].h
        assert np.ptp(h, axis=1).max() == 0.0

    def test_hand_evaluation(self):
        spec = spec_of(ScenarioKind.SETTING_C, n=4, p=2, c1=1.0, c2=0.25, delta1=2.0, delta2=3.0, seed=11)
        h = build_ensemble(spec)[1].h
        eps = rng_for(11).integers(0, 2, size=(4, 2)) * 2 - 1
        i = np.arange(1.0, 5.0)
        expected = 2.0 * (i**-2.0)[:, None] + eps * (2.0 * 0.5) * (i**-3.0)[:, None]
        assert np.max(np.abs(h - expected)) < 1e-14


class TestSettingD:
    def test_zero_amplitude_silences_the_outlier(self):
        h = build_ensemble(spec_of(ScenarioKind.SETTING_D, c2=0.0, delta2=3.0))[1].h
        assert np.all(h[:, -1] == 0.0)
        assert np.any(h[:, 0] != 0.0)

    def test_minimal_pair(self):
        h = build_ensemble(spec_of(ScenarioKind.SETTING_D, p=2, delta2=2.5))[1].h
        assert h.shape == (8, 2)

    def test_outlier_energy_identity(self):
        spec = spec_of(ScenarioKind.SETTING_D, n=10, c2=0.49, delta2=2.5)
        h = build_ensemble(spec)[1].h
        i = np.arange(1.0, 11.0)
        assert np.sum(h[:, -1] ** 2) == pytest.approx(10 * 0.49 * np.sum(i**-5.0), rel=1e-12)


class TestSpecValidation:
    def test_delta2_required_for_varying_regularity(self):
        with pytest.raises(ValueError, match="delta2"):
            spec_of(ScenarioKind.SETTING_C)

    def test_delta2_rejected_elsewhere(self):
        with pytest.raises(ValueError, match="delta2"):
            spec_of(ScenarioKind.SETTING_A, delta2=2.0)

    @pytest.mark.parametrize("m", [0.0, 2.5, -1.0, math.nan, math.inf])
    def test_spline_order_checked_by_the_spec(self, m):
        with pytest.raises(ValueError, match="integer smoothness order"):
            spec_of(ScenarioKind.SETTING_B, beta_or_m=m)

    def test_build_ensemble_dispatch(self):
        spectrum, tasks = build_ensemble(spec_of(ScenarioKind.SETTING_A))
        assert spectrum.n == tasks.n == 8
        assert spectrum.basis is None and np.array_equal(spectrum.kernel_matrix(), np.diag(spectrum.gamma))
        spectrum_b, tasks_b = build_ensemble(spec_of(ScenarioKind.SETTING_B, n=10))
        assert spectrum_b.n == tasks_b.n == 10
        assert not np.array_equal(spectrum_b.basis, np.eye(10))


class TestReplicateDerivation:
    def test_deterministic_and_distinct(self):
        spec = spec_of(ScenarioKind.SETTING_A, seed=31337)
        s0a, s0b = replace(spec, seed=derive_seed(spec.seed, 0)), replace(spec, seed=derive_seed(spec.seed, 0))
        s1 = replace(spec, seed=derive_seed(spec.seed, 1))
        assert s0a == s0b
        assert s0a.seed != s1.seed
        assert s0a.seed != spec.seed

    def test_replicates_change_the_draw(self):
        spec = spec_of(ScenarioKind.SETTING_A, seed=31337)
        h0 = build_ensemble(replace(spec, seed=derive_seed(spec.seed, 0)))[1].h
        h1 = build_ensemble(replace(spec, seed=derive_seed(spec.seed, 1)))[1].h
        assert not np.array_equal(h0, h1)
