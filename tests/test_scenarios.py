import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mtkrr import scenarios
from mtkrr.scenarios import (
    ScenarioKind,
    ScenarioSpec,
    _keys,
    _seed_hash,
    _segments,
    _setting_b,
    _spline_coefficients,
    _stream,
    _uniform,
    build_ensemble,
    derive_seeds,
    draw,
    periodic_kernel_value,
)
from reference import (
    RegularizerAV,
    draw_block,
    kernel_matrix,
    mean_variance_profile,
    numpy_setting_b,
    per_replicate_setting_b,
    periodic_kernel_matrix,
    project_tasks,
    rademacher,
    reconstruct_tasks,
    risk_direct,
    risk_spectral,
    rng_for,
    synth_spectrum,
)


def spec_of(kind, **kw):
    base = dict(n=8, p=4, c1=1.0, c2=0.25, delta1=2.0, beta_or_m=2.0, seed=99)
    base.update(kw)
    return ScenarioSpec(kind=kind, **base)


class TestSynthSpectrum:
    def test_values(self):
        spec = synth_spectrum(4, 1.0)
        assert np.allclose(spec.gamma, [4.0, 1.0, 4 / 9, 0.25], atol=1e-15)
        assert spec.basis is None and np.array_equal(kernel_matrix(spec), np.diag(spec.gamma))

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
        # 400 replicates of 50 x 5 signs; with c1 = 0 and c2 = 1 each coefficient carries its sign
        spec = spec_of(ScenarioKind.SETTING_A, n=50, p=5, c1=0.0, c2=1.0, seed=123)
        _, _, h = draw_block([spec], derive_seeds([spec.seed] * 400, np.arange(400))[None])
        draws = np.sign(h)
        assert draws.size == 100_000 and np.all(np.abs(draws) == 1.0)
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


class TestSettingBBlocks:
    """The block draw of setting B gives every replicate the bits of the per-replicate path, in any block size."""

    @staticmethod
    def work_list(n, p, orders, reps):
        cell_seeds = derive_seeds([11] * len(orders), np.arange(len(orders))).tolist()
        specs = [spec_of(ScenarioKind.SETTING_B, n=n, p=p, beta_or_m=float(m), c2=0.1 + 0.3 * k, seed=seed)
                 for k, (m, seed) in enumerate(zip(orders, cell_seeds))]
        seeds = derive_seeds(np.repeat([spec.seed for spec in specs], reps), np.tile(np.arange(reps), len(specs)))
        return specs, seeds

    def assert_blocks_match_each_replicate(self, n, p, orders, reps):
        specs, seeds = self.work_list(n, p, orders, reps)
        words, expected_h = _stream(_keys(seeds), n, n, p)
        expected = per_replicate_setting_b(specs, words, expected_h)
        per = max(1, scenarios.BLOCK_ELEMENTS // (n * n))
        gamma, owner, chunks = draw(specs, seeds.reshape(len(specs), reps))
        start = 0
        for rows, block in chunks:  # in order: each block starts where the one before ended
            assert rows == slice(start, min(start + per, len(seeds)))
            # the block again, with the bases the draw drops
            spectra, basis, projected = _setting_b(list(_segments(specs, reps, rows.start, rows.stop)),
                                                   *_stream(_keys(seeds[rows]), n, n, p))
            assert basis.flags.c_contiguous and spectra.shape == (rows.stop - start, n)
            for k, r in enumerate(range(rows.start, rows.stop)):
                assert np.array_equal(spectra[k], expected[r].gamma)
                assert np.array_equal(basis[k], expected[r].basis)
                assert np.array_equal(gamma[r], expected[r].gamma)  # written before the block is given
            assert np.array_equal(block, expected_h[rows]) and np.array_equal(projected, block)
            start = rows.stop
        assert start == len(seeds)
        assert np.array_equal(gamma[owner], np.array([spectrum.gamma for spectrum in expected]))

    @pytest.mark.parametrize("n, p, orders, reps", [
        (1, 1, (1, 2), 3),
        (2, 2, (1, 2, 3, 4, 5, 6), 2),
        (12, 3, (1, 3), 2),
        (12, 4, (6, 5, 4, 3, 2, 1), 17),
        (40, 5, (1, 2, 3), 2),
        (40, 5, (1,), 100),  # five blocks of 20 inside one spec
        (40, 2, (3, 1, 2), 9),  # a block boundary inside the third spec
        (50, 3, (2, 3), 4),
        (200, 5, (2,), 6),  # one replicate per block
        (400, 2, (2,), 3),
    ])
    def test_block_draw_is_the_per_replicate_path(self, n, p, orders, reps):
        self.assert_blocks_match_each_replicate(n, p, orders, reps)

    @given(n=st.integers(min_value=1, max_value=24), p=st.integers(min_value=1, max_value=4),
           orders=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4),
           reps=st.integers(min_value=1, max_value=7), per=st.integers(min_value=1, max_value=9))
    def test_any_block_size_gives_the_same_bits(self, n, p, orders, reps, per):
        saved = scenarios.BLOCK_ELEMENTS
        scenarios.BLOCK_ELEMENTS = per * n * n  # blocks of ``per`` replicates, whatever the specs
        try:
            self.assert_blocks_match_each_replicate(n, p, orders, reps)
        finally:
            scenarios.BLOCK_ELEMENTS = saved

    def test_draw_holds_about_one_block(self):
        n, reps = 200, 24  # one replicate per block; every basis kept would be 24 n^2 doubles
        specs, seeds = self.work_list(n, 5, (2,), reps)
        draw_block(specs[:1], seeds[:1].reshape(1, 1))  # the coefficients of m = 2 are cached outside the measure
        tracemalloc.start()
        try:
            gamma, _, chunks = draw(specs, seeds.reshape(1, reps))
            shapes = [h.shape for _, h in chunks]  # each chunk dropped before the next is drawn
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gamma.shape == (reps, n) and shapes == [(1, n, 5)] * reps
        assert peak < 8 * n * n * 8

    def test_zeta_coefficients_are_scipys_bits(self):
        # scipy's zeta is correctly rounded at the even integers; the Bernoulli route must give the same doubles
        from scipy.special import zeta

        for m in range(1, 100):  # every even s from 0 to 198
            j = np.arange(m + 1)
            s = 2.0 * (m - j)
            with np.errstate(under="ignore"):
                inv_fact = np.cumprod(np.concatenate(([1.0], 1.0 / ((2.0 * j[1:]) * (2.0 * j[1:] - 1.0)))))
                expected = (-1.0) ** (j + 1) * (2.0 - np.exp2(2.0 - s)) * zeta(s) * inv_fact
            coef = _spline_coefficients(m)  # past j = 88 every coefficient is 0 and is left out
            assert np.array_equal(coef, expected[:len(coef)]) and not expected[len(coef):].any(), m
        assert not _spline_coefficients(3).flags.writeable

    def test_coefficients_stop_where_the_factorial_underflows(self):
        """Every coefficient past j = 88 is 0, so a high order costs what order 200 costs, with the same bits."""
        coef = _spline_coefficients(10**6)
        assert len(coef) < 100 and np.array_equal(coef, _spline_coefficients(200))
        theta = np.linspace(-2 * np.pi, 2 * np.pi, 501)
        assert np.array_equal(periodic_kernel_value(theta, 10**6).view(np.int64),
                              periodic_kernel_value(theta, 200).view(np.int64))

    def test_kernel_is_numpys_polyval_of_the_coefficients(self):
        theta = np.linspace(-2 * np.pi, 2 * np.pi, 4001)
        for m in (1, 2, 3, 7, 30):
            with np.errstate(under="ignore"):
                expected = np.polynomial.polynomial.polyval((np.abs(theta) - np.pi) ** 2, _spline_coefficients(m))
            assert np.array_equal(periodic_kernel_value(theta, m), expected)


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

    @pytest.mark.parametrize("kind", [kind for kind in ScenarioKind if kind is not ScenarioKind.SETTING_B])
    def test_negative_decay_rejected_and_a_flat_spectrum_kept(self, kind):
        extra = dict(delta2=2.0) if kind in (ScenarioKind.SETTING_C, ScenarioKind.SETTING_D) else {}
        with pytest.raises(ValueError, match="beta_or_m must be nonnegative"):
            spec_of(kind, beta_or_m=-1.0, **extra)
        spectrum, _ = build_ensemble(spec_of(kind, beta_or_m=0.0, **extra))
        assert np.all(spectrum.gamma == 8.0)

    def test_build_ensemble_dispatch(self):
        spectrum, tasks = build_ensemble(spec_of(ScenarioKind.SETTING_A))
        assert spectrum.n == tasks.n == 8
        assert spectrum.basis is None and np.array_equal(kernel_matrix(spectrum), np.diag(spectrum.gamma))
        spectrum_b, tasks_b = build_ensemble(spec_of(ScenarioKind.SETTING_B, n=10))
        assert spectrum_b.n == tasks_b.n == 10
        assert not np.array_equal(spectrum_b.basis, np.eye(10))


def numpy_seed(seed, *path):
    """Sub-seed of (seed, path) computed by numpy's own SeedSequence."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(1, np.uint64)[0])


# one-word and two-word seeds at both ends of each word count, then any 64-bit seed
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]
seeds_64 = st.sampled_from(EDGE_SEEDS) | st.integers(min_value=0, max_value=2**64 - 1)


class TestSeedHashAgainstNumpy:
    """The array hash, the Philox keys, the sign block and setting B's inputs are numpy's, bit for bit.

    numpy's ``SeedSequence``, ``Philox``, ``Generator.integers`` and ``Generator.uniform`` are the oracle.
    """

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("path", [(), (0,), (7,), (2**32 - 1,), (3, 4), (0, 2**32 - 1), tuple(range(8))])
    def test_edge_seeds_and_paths(self, seed, path):
        assert derive_seeds([seed], [[k] for k in path]).tolist() == [numpy_seed(seed, *path)]

    @given(columns=st.lists(st.tuples(seeds_64, st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                                                         min_size=3, max_size=3)), min_size=1, max_size=8),
           length=st.integers(min_value=0, max_value=3))
    def test_sub_seeds_of_a_work_list_in_one_pass(self, columns, length):
        seeds = [seed for seed, _ in columns]
        paths = [tuple(path[:length]) for _, path in columns]
        block = derive_seeds(seeds, np.array(paths, dtype=np.uint64).reshape(len(seeds), length).T)
        assert block.dtype == np.uint64
        assert block.tolist() == [numpy_seed(seed, *path) for seed, path in zip(seeds, paths)]

    @given(seeds=st.lists(seeds_64, min_size=1, max_size=8))
    @example(seeds=EDGE_SEEDS)
    def test_keys_are_the_philox_keys_numpy_derives(self, seeds):
        keys = _seed_hash(np.array(seeds, dtype=np.uint64), np.empty((0, len(seeds)), dtype=np.uint64), 2)
        for r, seed in enumerate(seeds):
            sequence = np.random.SeedSequence(entropy=seed)
            assert np.array_equal(keys[:, r], sequence.generate_state(2, np.uint64))
            assert np.array_equal(keys[:, r], np.random.Philox(sequence).state["state"]["key"])

    @given(seed=seeds_64, length=st.sampled_from([1, 2]), cells=st.integers(min_value=1, max_value=3),
           reps=st.integers(min_value=1, max_value=4), n=st.integers(min_value=1, max_value=9),
           p=st.integers(min_value=1, max_value=5))
    @example(seed=2**63 + 12345, length=2, cells=1, reps=1, n=3, p=3)  # odd n p: the last high half goes unused
    @example(seed=2**32 - 1, length=1, cells=2, reps=1, n=1, p=1)
    def test_sign_block_is_each_replicates_numpy_draw(self, seed, length, cells, reps, n, p):
        # a work list as the sweep makes it: cells on paths of one length (table rows 1, heatmap cells 2),
        # then the replicates of every cell
        paths = [(k,) if length == 1 else divmod(k, 2) for k in range(cells)]
        cell_seeds = derive_seeds(np.full(cells, seed, dtype=np.uint64), np.array(paths, dtype=np.uint64).T)
        assert cell_seeds.tolist() == [numpy_seed(seed, *path) for path in paths]
        replicate_seeds = derive_seeds(np.repeat(cell_seeds, reps), np.tile(np.arange(reps), cells))
        words, block = _stream(_keys(replicate_seeds), 0, n, p)
        expected = np.stack([rademacher(rng_for(numpy_seed(cell, r)), n, p)
                             for cell in cell_seeds.tolist() for r in range(reps)])
        assert words.shape == (cells * reps, 0) and block.shape == (cells * reps, n, p)
        assert np.array_equal(block, expected)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    @pytest.mark.parametrize("n, p", [(1, 1), (1, 4), (3, 3), (12, 4), (7, 5)])  # odd n p leaves a high half unused
    def test_setting_b_stream_at_edge_seeds(self, seed, n, p):
        self.assert_setting_b_stream([seed], n, p)

    @given(seeds=st.lists(seeds_64, min_size=1, max_size=6), n=st.integers(min_value=1, max_value=12),
           p=st.integers(min_value=1, max_value=5))
    @example(seeds=EDGE_SEEDS, n=1, p=1)
    def test_setting_b_stream_is_numpys_uniform_then_integers(self, seeds, n, p):
        self.assert_setting_b_stream(seeds, n, p)

    @staticmethod
    def assert_setting_b_stream(seeds, n, p):
        """n words read as ``uniform(-pi, pi, n)``, then the signs of ``integers(0, 2, (n, p))``, per replicate."""
        words, signs = _stream(_keys(np.array(seeds, dtype=np.uint64)), n, n, p)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), n) and signs.shape == (len(seeds), n, p)
        for r, seed in enumerate(seeds):
            rng = rng_for(seed)
            assert np.array_equal(_uniform(words[r], -np.pi, np.pi), rng.uniform(-np.pi, np.pi, n))
            assert np.array_equal(signs[r], rademacher(rng, n, p))

    @pytest.mark.parametrize("n, p, m", [(1, 1, 1), (5, 3, 2), (12, 4, 3)])
    def test_setting_b_work_list_is_each_replicates_numpy_ensemble(self, n, p, m):
        specs = [spec_of(ScenarioKind.SETTING_B, n=n, p=p, beta_or_m=float(m), c2=c2, seed=seed)
                 for seed, c2 in zip(derive_seeds([4] * 2, np.arange(2)).tolist(), (0.25, 1.0))]
        seeds = derive_seeds(np.repeat([spec.seed for spec in specs], 3), np.tile(np.arange(3), 2)).reshape(2, 3)
        gamma, owner, h = draw_block(specs, seeds)
        assert owner.tolist() == list(range(6)) and gamma.shape == (6, n) and h.shape == (6, n, p)
        for k, spec in enumerate(specs):
            for r, seed in enumerate(seeds[k].tolist()):
                spectrum, expected = numpy_setting_b(spec, seed)
                assert np.array_equal(gamma[3 * k + r], spectrum.gamma)
                assert np.array_equal(build_ensemble(replace(spec, seed=seed))[0].basis, spectrum.basis)
                assert np.array_equal(h[3 * k + r], expected)

    def test_a_path_entry_past_32_bits_is_rejected(self):
        with pytest.raises(ValueError, match="32 unsigned bits"):
            derive_seeds([5], [[2**32]])
        with pytest.raises(ValueError, match="at most 8"):
            derive_seeds([5], np.arange(9)[:, None])


class TestReplicateDerivation:
    def test_deterministic_and_distinct(self):
        spec = spec_of(ScenarioKind.SETTING_A, seed=31337)
        s0a, s0b, s1 = (replace(spec, seed=seed) for seed in derive_seeds([spec.seed] * 3, [0, 0, 1]).tolist())
        assert s0a == s0b
        assert s0a.seed != s1.seed
        assert s0a.seed != spec.seed

    def test_replicates_change_the_draw(self):
        spec = spec_of(ScenarioKind.SETTING_A, seed=31337)
        h0, h1 = (build_ensemble(replace(spec, seed=seed))[1].h
                  for seed in derive_seeds([spec.seed] * 2, [0, 1]).tolist())
        assert not np.array_equal(h0, h1)
