import numpy as np
import pytest
from conftest import mean_part_profile, random_psd, variance_part_profile
from hypothesis import assume, given
from hypothesis import strategies as st

from mtkrr.spectral import TaskEnsemble
from reference import (
    RegularizerAV,
    RegularizerSD,
    SingularRegularizerError,
    build_operator,
    eigendecompose_kernel,
    kernel_matrix,
    mean_variance_profile,
    penalty_value,
    project_tasks,
    risk_direct,
    risk_single_task,
    risk_spectral,
)


def penalty_av_oracle(lam, mu, gram):
    """Term-by-term mean/variance penalty: lam ||gbar||^2 + mu (avg ||g||^2 - ||gbar||^2)."""
    p = gram.shape[0]
    mean_sq = gram.sum() / p**2
    avg_norm_sq = np.trace(gram) / p
    return lam * mean_sq + mu * (avg_norm_sq - mean_sq)


def penalty_sd_oracle(alpha, beta_pen, gram):
    """Term-by-term norm/difference penalty: (a/p) sum ||g||^2 + (b/2p) sum ||g^j - g^k||^2."""
    p = gram.shape[0]
    norms = np.diag(gram)
    diff_sq = norms[:, None] - 2 * gram + norms[None, :]
    return alpha / p * norms.sum() + beta_pen / (2 * p) * diff_sq.sum()


def random_instance(seed, n=None, p=None):
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(2, 9))
    p = p or int(rng.integers(1, 5))
    spectrum = eigendecompose_kernel(random_psd(rng, n, scale=float(rng.uniform(0.5, 4.0))))
    F = rng.standard_normal((n, p)) * 2
    return spectrum, project_tasks(spectrum, F)


class TestRegularizers:
    def test_av_matrix_structure(self):
        m = RegularizerAV(p=3, lam=0.6, mu=1.5).matrix()
        ones = np.full((3, 3), 1 / 3)
        assert np.allclose(m, 0.6 / 3 * ones + 1.5 / 3 * (np.eye(3) - ones), atol=1e-15)
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m).min() >= 0

    @pytest.mark.parametrize("alpha,beta_pen", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.7), (1.2, 0.4), (5.0, 2.5)])
    @pytest.mark.parametrize("p", [1, 2, 5])
    def test_sd_equals_av_reparameterization(self, alpha, beta_pen, p):
        sd = RegularizerSD(p=p, alpha=alpha, beta_pen=beta_pen).matrix()
        av = RegularizerAV(p=p, lam=alpha, mu=alpha + p * beta_pen).matrix()
        assert np.max(np.abs(sd - av)) < 1e-12

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            RegularizerAV(p=2, lam=-0.1, mu=1.0)


class TestPenaltyValue:
    def test_equal_tasks_av(self):
        g = np.random.default_rng(0).standard_normal(6)
        gram = np.full((3, 3), g @ g)
        val = penalty_value(RegularizerAV(p=3, lam=0.8, mu=2.0), gram)
        assert val == pytest.approx(0.8 * (g @ g), rel=1e-12)

    def test_equal_tasks_sd_zero_alpha(self):
        gram = np.full((4, 4), 2.7)
        assert penalty_value(RegularizerSD(p=4, alpha=0.0, beta_pen=1.3), gram) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_term_by_term_oracles(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.standard_normal((3, 5))
        gram = G @ G.T
        assert penalty_value(RegularizerSD(p=3, alpha=0.7, beta_pen=0.3), gram) == pytest.approx(
            penalty_sd_oracle(0.7, 0.3, gram), rel=1e-10
        )
        assert penalty_value(RegularizerAV(p=3, lam=0.9, mu=0.2), gram) == pytest.approx(
            penalty_av_oracle(0.9, 0.2, gram), rel=1e-10
        )

    def test_non_psd_gram_rejected(self):
        gram = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="semidefinite"):
            penalty_value(RegularizerAV(p=2, lam=1.0, mu=1.0), gram)


class TestBuildOperator:
    def test_single_task_reduces_to_scalar_ridge(self):
        spectrum = eigendecompose_kernel(np.diag([4.0, 1.0, 0.25]))
        A = build_operator(spectrum, RegularizerAV(p=1, lam=0.5, mu=1.0))
        n = 3
        expected = spectrum.gamma / (spectrum.gamma + n * 0.5)
        assert np.allclose(np.sort(np.linalg.eigvalsh(A))[::-1], expected, atol=1e-12)

    def test_equal_penalties_decouple_tasks(self):
        rng = np.random.default_rng(5)
        spectrum = eigendecompose_kernel(random_psd(rng, 3))
        mu = 0.8
        A = build_operator(spectrum, RegularizerAV(p=2, lam=mu, mu=mu))
        K = kernel_matrix(spectrum)
        A_single = K @ np.linalg.inv(K + 3 * mu * np.eye(3))
        assert np.max(np.abs(A - np.kron(np.eye(2), A_single))) < 1e-10

    def test_spectrum_of_operator(self):
        rng = np.random.default_rng(6)
        spectrum = eigendecompose_kernel(random_psd(rng, 3))
        lam, mu = 0.5, 2.0
        A = build_operator(spectrum, RegularizerAV(p=2, lam=lam, mu=mu))
        got = np.sort(np.linalg.eigvalsh(A))
        expected = np.sort(np.concatenate([
            spectrum.gamma / (spectrum.gamma + 3 * lam),
            spectrum.gamma / (spectrum.gamma + 3 * mu),
        ]))
        assert np.max(np.abs(got - expected)) < 1e-10
        assert got.min() >= 0 and got.max() < 1

    def test_zero_penalty_rejected(self):
        spectrum = eigendecompose_kernel(np.eye(2))
        with pytest.raises(SingularRegularizerError):
            build_operator(spectrum, RegularizerAV(p=2, lam=0.0, mu=1.0))

    def test_size_cap(self):
        spectrum = eigendecompose_kernel(np.eye(300))
        with pytest.raises(ValueError, match="cap"):
            build_operator(spectrum, RegularizerAV(p=2, lam=1.0, mu=1.0))


class TestRiskDirect:
    def test_zero_signal_has_zero_bias(self):
        spectrum, _ = random_instance(1, n=4, p=2)
        tasks = TaskEnsemble(n=4, p=2, h=np.zeros((4, 2)))
        bk = risk_direct(spectrum, tasks, RegularizerAV(p=2, lam=0.3, mu=0.7), sigma2=1.0)
        assert bk.bias < 1e-20

    def test_full_shrinkage_limit(self):
        spectrum, tasks = random_instance(2, n=4, p=2)
        bk = risk_direct(spectrum, tasks, RegularizerAV(p=2, lam=1e12, mu=1e12), sigma2=1.0)
        f_sq = float(np.sum(tasks.h**2))
        assert bk.variance < 1e-12
        assert bk.bias == pytest.approx(f_sq / 8, rel=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_spectral_route(self, seed):
        rng = np.random.default_rng(seed + 1000)
        spectrum, tasks = random_instance(seed)
        lam, mu = 10 ** rng.uniform(-4, 1), 10 ** rng.uniform(-4, 1)
        sigma2 = float(rng.uniform(0.5, 2.0))
        direct = risk_direct(spectrum, tasks, RegularizerAV(p=tasks.p, lam=lam, mu=mu), sigma2)
        spectral = risk_spectral(spectrum, mean_variance_profile(tasks), lam, mu, sigma2, tasks.p)
        assert direct.total == pytest.approx(spectral.total, rel=1e-9)
        assert direct.bias == pytest.approx(spectral.bias, rel=1e-8, abs=1e-12)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**32 - 1), st.floats(min_value=-4.0, max_value=2.0),
           st.floats(min_value=-4.0, max_value=2.0), st.floats(min_value=-1.0, max_value=1.0))
    def test_agrees_with_spectral_route_on_random_instances(self, n, p, seed, log_lam, log_mu, log_sigma2):
        assume(n * p <= 512)  # the dense operator's size cap
        spectrum, tasks = random_instance(seed, n=n, p=p)
        lam, mu, sigma2 = 10**log_lam, 10**log_mu, 10**log_sigma2
        direct = risk_direct(spectrum, tasks, RegularizerAV(p=p, lam=lam, mu=mu), sigma2)
        spectral = risk_spectral(spectrum, mean_variance_profile(tasks), lam, mu, sigma2, p)
        assert direct.total == pytest.approx(spectral.total, rel=1e-9)
        assert direct.bias == pytest.approx(spectral.bias, rel=1e-8, abs=1e-12)
        assert direct.variance == pytest.approx(spectral.variance, rel=1e-9)


class TestRiskSpectral:
    def test_interpolation_risk_is_noise_level(self):
        spectrum, tasks = random_instance(3, n=5, p=3)
        assert spectrum.gamma.min() > 0
        bk = risk_spectral(spectrum, mean_variance_profile(tasks), 0.0, 0.0, 1.7, 3)
        assert bk.bias == 0.0
        assert bk.total == pytest.approx(1.7, rel=1e-12)

    def test_interpolation_risk_counts_only_the_kernel_range(self):
        # rank-deficient kernel: the smoother at 0 is the range projector, so the
        # variance counts positive eigenvalues and the null-space energy is bias
        rng = np.random.default_rng(12)
        from conftest import random_orthogonal
        from mtkrr.spectral import KernelSpectrum

        spectrum = KernelSpectrum(n=5, gamma=np.array([3.0, 2.0, 1.0, 0.0, 0.0]),
                                  basis=random_orthogonal(rng, 5))
        tasks = project_tasks(spectrum, rng.standard_normal((5, 2)))
        prof = mean_variance_profile(tasks)
        bk = risk_spectral(spectrum, prof, 0.0, 0.0, 2.0, 2)
        null_energy = float(np.sum(prof.mu[3:] ** 2 / 2 + prof.varsigma2[3:]))
        assert bk.variance == pytest.approx(2.0 * 3 * 2 / (5 * 2), rel=1e-12)
        assert bk.bias == pytest.approx(null_energy / 5, rel=1e-12)

    def test_single_task_reduction(self):
        rng = np.random.default_rng(4)
        spectrum, _ = random_instance(4, n=5, p=1)
        h = rng.standard_normal(5)
        from reference import MeanVarianceProfile

        prof = MeanVarianceProfile(mu=h, varsigma2=np.zeros(5))
        a = risk_spectral(spectrum, prof, 0.3, 123.4, 1.0, 1)
        b = risk_single_task(spectrum, h, 0.3, 1.0)
        assert a.total == pytest.approx(b.total, rel=1e-12)

    def test_separability(self):
        spectrum, tasks = random_instance(5, n=6, p=3)
        prof = mean_variance_profile(tasks)
        for lam in (1e-3, 0.1, 5.0):
            r1 = risk_spectral(spectrum, prof, lam, 0.01, 1.0, 3)
            r2 = risk_spectral(spectrum, prof, lam, 10.0, 1.0, 3)
            mean_bias, mean_var = mean_part_profile(spectrum, tasks, 1.0).parts(lam)
            v1 = variance_part_profile(spectrum, tasks, 1.0).parts(0.01)
            v2 = variance_part_profile(spectrum, tasks, 1.0).parts(10.0)
            assert r1.total == pytest.approx(mean_bias + mean_var + v1[0] + v1[1], rel=1e-12)
            assert r2.total == pytest.approx(mean_bias + mean_var + v2[0] + v2[1], rel=1e-12)

    def test_monotone_bias_and_variance(self):
        spectrum, tasks = random_instance(6, n=6, p=2)
        grid = np.geomspace(1e-6, 1e2, 40)
        mean = mean_part_profile(spectrum, tasks, 1.0)
        biases = np.array([mean.parts(l)[0] for l in grid])
        variances = np.array([mean.parts(l)[1] for l in grid])
        assert np.all(np.diff(biases) >= -1e-15)
        assert np.all(np.diff(variances) <= 1e-15)
        # variance is convex in lam: second differences on a linear grid
        lin = np.linspace(0.01, 2.0, 30)
        var_lin = np.array([mean.parts(float(l))[1] for l in lin])
        assert np.all(np.diff(var_lin, 2) >= -1e-12)


class TestRiskSingleTask:
    def test_interpolation(self):
        spectrum, _ = random_instance(7, n=5, p=1)
        h = np.ones(5)
        bk = risk_single_task(spectrum, h, 0.0, 2.0)
        assert bk.bias == 0.0
        assert bk.variance == pytest.approx(2.0, rel=1e-12)

    def test_zero_signal_vanishing_risk_at_heavy_shrinkage(self):
        spectrum, _ = random_instance(8, n=5, p=1)
        bk = risk_single_task(spectrum, np.zeros(5), 1e12, 1.0)
        assert bk.total < 1e-12

    def test_matches_spectral_with_p_one(self):
        rng = np.random.default_rng(9)
        spectrum, _ = random_instance(9, n=5, p=1)
        h = rng.standard_normal(5)
        from reference import MeanVarianceProfile

        direct = risk_single_task(spectrum, h, 0.3, 1.0)
        via_spectral = risk_spectral(spectrum, MeanVarianceProfile(mu=h, varsigma2=np.zeros(5)), 0.3, 7.0, 1.0, 1)
        assert direct.total == pytest.approx(via_spectral.total, rel=1e-12)

