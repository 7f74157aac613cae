import math

import numpy as np
import pytest
from conftest import random_orthogonal, random_psd

from mtkrr.estimators import comparison_rows
from mtkrr.spectral import KernelSpectrum, NotPSDError, TaskEnsemble, eigendecompose_kernels
from reference import eigendecompose_kernel, kernel_matrix, mean_variance_profile, project_tasks, reconstruct_tasks


def charpoly_eigenvalues(K: np.ndarray) -> np.ndarray:
    """Independent eigensolver: Faddeev-LeVerrier characteristic polynomial
    coefficients (pure matrix arithmetic), then companion-matrix roots."""
    n = K.shape[0]
    coeffs = [1.0]
    M = np.zeros_like(K)
    for k in range(1, n + 1):
        M = K @ M + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(K @ M) / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestEigendecompose:
    def test_identity(self):
        spec = eigendecompose_kernel(np.eye(3))
        assert np.allclose(spec.gamma, [1.0, 1.0, 1.0])
        assert np.allclose(spec.basis @ spec.basis.T, np.eye(3), atol=1e-12)

    def test_already_diagonal(self):
        spec = eigendecompose_kernel(np.diag([4.0, 1.0]))
        assert np.allclose(spec.gamma, [4.0, 1.0])
        # basis rows must be signed unit vectors picking out the right entries
        assert np.allclose(np.abs(spec.basis), np.eye(2), atol=1e-12)

    def test_brownian_kernel_matches_charpoly_oracle(self):
        n = 4
        K = np.array([[min(i, l) / n for l in range(1, n + 1)] for i in range(1, n + 1)])
        spec = eigendecompose_kernel(K)
        expected = charpoly_eigenvalues(K)
        assert np.max(np.abs(spec.gamma - expected)) < 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        K = random_psd(rng, 6)
        spec = eigendecompose_kernel(K)
        assert np.max(np.abs(kernel_matrix(spec) - K)) < 1e-9

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            eigendecompose_kernel(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        K = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose_kernel(K)

    def test_small_negative_eigenvalue_clamped(self):
        K = np.diag([1.0, -5e-9])
        spec = eigendecompose_kernel(K)
        assert spec.gamma[-1] == 0.0

    def test_large_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPSDError):
            eigendecompose_kernel(np.diag([1.0, -1e-6]))

    def test_descending_order_with_stable_ties(self):
        spec = eigendecompose_kernel(np.diag([2.0, 5.0, 2.0]))
        assert np.all(np.diff(spec.gamma) <= 0)


class TestEigendecomposeStack:
    """``eigendecompose_kernels``: one ``eigh`` call for a stack, each matrix checked and decomposed on its own."""

    def test_each_matrix_gets_the_bits_of_its_own_decomposition(self):
        rng = np.random.default_rng(11)
        K = np.stack([random_psd(rng, 7, scale=scale) for scale in (0.5, 1.0, 4.0, 1e3)])
        gamma, basis = eigendecompose_kernels(K)
        assert basis.flags.c_contiguous and gamma.shape == (4, 7) and basis.shape == (4, 7, 7)
        for r in range(4):
            alone = eigendecompose_kernel(K[r])
            assert np.array_equal(gamma[r], alone.gamma)
            assert np.array_equal(basis[r], alone.basis)

    def test_symmetry_is_checked_against_each_matrix_scale(self):
        # an asymmetry of 1e-7 passes beside entries of 1e6 but not beside entries of 1
        big = np.diag([1e6, 1e6]) + np.array([[0.0, 1e-7], [0.0, 0.0]])
        small = np.diag([1.0, 1.0]) + np.array([[0.0, 1e-7], [0.0, 0.0]])
        assert eigendecompose_kernels(big[None])[0].shape == (1, 2)
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose_kernels(np.stack([big, small]))

    def test_clamp_and_rejection_per_matrix(self):
        gamma, _ = eigendecompose_kernels(np.stack([np.diag([1.0, -5e-9]), np.diag([3.0, 2.0])]))
        assert gamma[0, -1] == 0.0 and np.array_equal(gamma[1], [3.0, 2.0])
        with pytest.raises(NotPSDError):
            eigendecompose_kernels(np.stack([np.eye(2), np.diag([1.0, -1e-6])]))

    def test_descending_order_with_stable_ties(self):
        gamma, basis = eigendecompose_kernels(np.stack([np.diag([2.0, 5.0, 2.0]), np.diag([1.0, 1.0, 3.0])]))
        assert np.allclose(gamma, [[5.0, 2.0, 2.0], [3.0, 1.0, 1.0]], rtol=0, atol=1e-12)
        assert np.allclose(np.abs(basis[:, 0]), np.eye(3)[[1, 2]], rtol=0, atol=1e-12)  # the top eigenvectors


class TestProjectTasks:
    def test_identity_basis(self):
        spec = KernelSpectrum(n=3, gamma=np.array([3.0, 2.0, 1.0]), basis=np.eye(3))
        F = np.arange(6.0).reshape(3, 2)
        tasks = project_tasks(spec, F)
        assert np.array_equal(tasks.h, F)

    def test_zero_signal(self):
        spec = eigendecompose_kernel(np.eye(4))
        tasks = project_tasks(spec, np.zeros((4, 2)))
        assert np.all(tasks.h == 0)

    def test_norm_preservation(self):
        rng = np.random.default_rng(11)
        Q = random_orthogonal(rng, 5)
        spec = KernelSpectrum(n=5, gamma=np.ones(5), basis=Q)
        F = rng.standard_normal((5, 2))
        tasks = project_tasks(spec, F)
        assert abs(np.linalg.norm(tasks.h) - np.linalg.norm(F)) < 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        spec = eigendecompose_kernel(random_psd(rng, 7))
        F = rng.standard_normal((7, 3))
        tasks = project_tasks(spec, F)
        assert np.max(np.abs(reconstruct_tasks(spec, tasks) - F)) < 1e-10

    def test_dimension_mismatch(self):
        spec = eigendecompose_kernel(np.eye(4))
        with pytest.raises(ValueError, match="rows"):
            project_tasks(spec, np.zeros((5, 2)))


class TestMeanVarianceProfile:
    def test_equal_tasks_have_zero_variance(self):
        c = 2.5
        tasks = TaskEnsemble(n=4, p=3, h=np.full((4, 3), c))
        prof = mean_variance_profile(tasks)
        assert np.allclose(prof.mu, math.sqrt(3) * c, atol=1e-12)
        assert np.allclose(prof.varsigma2, 0.0, atol=1e-12)

    def test_symmetric_two_task_split(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        tasks = TaskEnsemble(n=5, p=2, h=np.column_stack([a + b, a - b]))
        prof = mean_variance_profile(tasks)
        assert np.allclose(prof.mu, math.sqrt(2) * a, atol=1e-12)
        assert np.allclose(prof.varsigma2, b**2, atol=1e-12)

    def test_two_cluster_profile_is_exact(self):
        # amplitudes sqrt(C1) +- sqrt(C2) with C1=1, C2=0.25 give the decaying
        # profiles C1 n i^(-2 delta) and C2 n i^(-2 delta) index by index
        n, p, c1, c2, delta = 6, 4, 1.0, 0.25, 1.5
        i = np.arange(1, n + 1, dtype=float)
        base = np.sqrt(n) * i**-delta
        h = np.empty((n, p))
        h[:, : p // 2] = (base * (math.sqrt(c1) + math.sqrt(c2)))[:, None]
        h[:, p // 2 :] = (base * (math.sqrt(c1) - math.sqrt(c2)))[:, None]
        prof = mean_variance_profile(TaskEnsemble(n=n, p=p, h=h))
        assert np.max(np.abs(prof.mu**2 / p - c1 * n * i ** (-2 * delta))) < 1e-10
        assert np.max(np.abs(prof.varsigma2 - c2 * n * i ** (-2 * delta))) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        h = rng.standard_normal((6, 5))
        prof = mean_variance_profile(TaskEnsemble(n=6, p=5, h=h))
        perm = mean_variance_profile(TaskEnsemble(n=6, p=5, h=h[:, rng.permutation(5)]))
        assert np.allclose(prof.mu, perm.mu, atol=1e-12)
        assert np.allclose(prof.varsigma2, perm.varsigma2, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parseval_identity(self, seed):
        rng = np.random.default_rng(seed)
        n, p = rng.integers(2, 9), rng.integers(1, 6)
        h = rng.standard_normal((n, p)) * 3
        prof = mean_variance_profile(TaskEnsemble(n=int(n), p=int(p), h=h))
        lhs = np.sum(prof.mu**2 + p * prof.varsigma2)
        assert abs(lhs - np.sum(h**2)) < 1e-9 * max(1.0, np.sum(h**2))

    @pytest.mark.parametrize("shape", [(6, 1), (9, 5), (3, 40, 20), (2, 7, 33)])
    def test_the_profiles_have_the_bits_of_a_row_sum_and_np_var(self, shape):
        # comparison_rows forms the task sum once and the variance takes np.var's steps from it: at every
        # scale, rows 0 and 1 have the bits of (h.sum / sqrt(p))^2 / p and np.var, rows 2.. those of h^2,
        # and each replicate of a block gets the rows of its own n x p slice
        rng = np.random.default_rng(len(shape) * shape[-1])
        h = rng.standard_normal(shape) * np.exp(rng.uniform(-30, 30, shape))
        signal, _ = comparison_rows(h, 1.0)
        assert signal[..., 0, :].tobytes() == (np.square(h.sum(axis=-1) / math.sqrt(shape[-1])) / shape[-1]).tobytes()
        assert signal[..., 1, :].tobytes() == np.var(h, axis=-1).tobytes()
        assert signal[..., 2:, :].tobytes() == np.square(np.swapaxes(h, -1, -2)).tobytes()
        if h.ndim == 3:
            assert all(comparison_rows(h[r], 1.0)[0].tobytes() == signal[r].tobytes() for r in range(len(h)))

    @pytest.mark.parametrize("seed", range(6))
    def test_the_rows_agree_with_the_plain_profiles(self, seed):
        # the package's rows against the reference's own formulas (h.mean * sqrt(p), h.var), to rounding
        rng = np.random.default_rng(seed)
        n, p = int(rng.integers(1, 30)), int(rng.integers(1, 8))
        h = rng.standard_normal((n, p)) * np.exp(rng.uniform(-20, 20)) + rng.uniform(-3, 3) * (seed % 2)
        prof = mean_variance_profile(TaskEnsemble(n=n, p=p, h=h))
        signal, noise = comparison_rows(h, 0.7)
        atol = 1e-14 * float(np.max(np.sum(h**2, axis=1)))
        np.testing.assert_allclose(signal[0], prof.mu**2 / p, rtol=1e-13, atol=atol)
        np.testing.assert_allclose(signal[1], prof.varsigma2, rtol=1e-13, atol=atol)
        np.testing.assert_array_equal(signal[2:], h.T**2)
        np.testing.assert_allclose(noise, [0.7 / p, 0.7 * (p - 1) / p] + [0.7] * p, rtol=1e-15)

    def test_variance_matches_rotated_coordinates(self):
        # nu = P h_row with P a Householder reflection sending e1 to 1/sqrt(p):
        # the profile must satisfy p varsigma2_i = sum_{j>=2} nu_j^2
        rng = np.random.default_rng(23)
        n, p = 5, 4
        h = rng.standard_normal((n, p))
        u = np.full(p, 1 / math.sqrt(p))
        v = np.eye(p)[0] - u
        P = np.eye(p) - 2 * np.outer(v, v) / (v @ v)
        prof = mean_variance_profile(TaskEnsemble(n=n, p=p, h=h))
        for i in range(n):
            nu = P @ h[i]
            assert abs(nu[0] - prof.mu[i]) < 1e-10
            assert abs(np.sum(nu[1:] ** 2) - p * prof.varsigma2[i]) < 1e-10


class TestValidation:
    def test_gamma_must_descend(self):
        with pytest.raises(ValueError, match="descending"):
            KernelSpectrum(n=2, gamma=np.array([1.0, 2.0]), basis=np.eye(2))

    def test_basis_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthonormal"):
            KernelSpectrum(n=2, gamma=np.array([2.0, 1.0]), basis=np.array([[1.0, 0.1], [0.0, 1.0]]))

    def test_ensemble_requires_finite_entries(self):
        with pytest.raises(ValueError, match="finite"):
            TaskEnsemble(n=2, p=1, h=np.array([[np.nan], [0.0]]))

    def test_immutable_arrays(self):
        spec = eigendecompose_kernel(np.eye(3))
        with pytest.raises(ValueError):
            spec.gamma[0] = 5.0
