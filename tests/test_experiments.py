import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from mtkrr import oracles, scenarios
from mtkrr.estimators import comparison_rows
from mtkrr.experiments import Z_975, _reports, pvalue_pi1, pvalue_pi2, run_experiments
from mtkrr.optimize import Search
from mtkrr.oracles import search_comparisons
from mtkrr.render import emit_heatmap, emit_table, write_report_json
from mtkrr.scenarios import ScenarioKind, ScenarioSpec, build_ensemble, derive_seeds, draw
from conftest import bits, compare_one
from reference import draw_block, numpy_setting_b, run_experiment


def quick_spec(**kw):
    base = dict(kind=ScenarioKind.H2POINTS, n=20, p=4, c1=1.0, c2=0.0, delta1=2.0, beta_or_m=2.0, seed=404)
    base.update(kw)
    return ScenarioSpec(**base)


class TestPi1:
    def test_balanced_fraction_gives_one(self):
        assert pvalue_pi1(0.5, 100) == 1.0

    def test_unanimous_wins(self):
        assert pvalue_pi1(1.0, 100) == pytest.approx(math.exp(-50.0), rel=1e-12)
        assert pvalue_pi1(1.0, 100) < 1e-15

    def test_minority_fraction_gives_zero(self):
        assert pvalue_pi1(0.4, 100) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            pvalue_pi1(1.2, 10)


class TestPi2:
    def test_parity_mean_gives_half(self):
        assert pvalue_pi2(1.0, 0.1, 100) == pytest.approx(0.5, rel=1e-12)

    def test_strong_improvement_vanishes(self):
        # z = sqrt(100)(0.434 - 1)/0.0324 = -174.7
        assert pvalue_pi2(0.434, 0.0324, 100) < 1e-15

    def test_moderate_case_value(self):
        # z = 10 * 0.01 / 0.129 = 0.775, Phi(z) = 0.781
        assert pvalue_pi2(1.01, 0.129, 100) == pytest.approx(0.7808, abs=1e-3)

    def test_degenerate_std_rejected(self):
        with pytest.raises(ValueError):
            pvalue_pi2(1.0, 0.0, 100)


class TestRunExperiment:
    def test_identical_tasks_always_favor_multitask(self):
        report = run_experiment(quick_spec(), sigma2=1.0, n_rep=100)
        assert all(r < 1 for r in report.ratios)
        assert report.b_bar == 1.0
        assert report.pi1 < 1e-15

    def test_single_replicate_is_flagged_degenerate(self):
        report = run_experiment(quick_spec(kind=ScenarioKind.SETTING_A, c2=0.5), sigma2=1.0, n_rep=1)
        assert math.isnan(report.std_ratio)
        assert math.isnan(report.pi2)
        assert all(math.isnan(v) for v in report.ci95)
        assert report.pi1 in (0.0, math.exp(-2 * (report.b_bar - 0.5) ** 2))

    def test_statistics_recompute_from_ratios(self):
        # every spec of a run gets, bit for bit, the statistics numpy forms from its own ratios alone
        specs = [quick_spec(kind=ScenarioKind.SETTING_A, c2=c2) for c2 in (1.0, 0.3, 0.05)]
        for report in run_experiments(specs, 1.0, 25)[0]:
            arr = np.array(report.ratios)
            assert report.b_bar == float(np.mean(arr < 1))
            assert report.pi1 == pvalue_pi1(report.b_bar, 25)
            assert report.mean_ratio == float(arr.mean())
            assert report.std_ratio == float(arr.std(ddof=1))
            half = Z_975 / math.sqrt(25) * report.std_ratio
            assert report.ci95[0] == pytest.approx(report.mean_ratio - half, rel=1e-12)
            assert report.ci95[1] == pytest.approx(report.mean_ratio + half, rel=1e-12)
        assert abs(Z_975 - 1.959964) < 1e-6

    def test_a_ratio_that_is_not_finite_names_its_replicate(self):
        rho = np.array([[0.5, 0.6, 0.7], [0.5, math.inf, math.nan]])
        with pytest.raises(FloatingPointError, match="replicate 1 produced a non-finite oracle ratio"):
            _reports([quick_spec(), quick_spec(seed=1)], 1.0, 3, rho, "N")

    def test_bit_reproducible(self, tmp_path):
        spec = quick_spec(kind=ScenarioKind.SETTING_A, c2=0.5, seed=777)
        a = run_experiment(spec, sigma2=1.0, n_rep=10)
        b = run_experiment(spec, sigma2=1.0, n_rep=10)
        assert a == b
        write_report_json(a, str(tmp_path / "a.json"))
        write_report_json(b, str(tmp_path / "b.json"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("kind, extra", [
        (ScenarioKind.SETTING_C, dict(delta2=1.5)),
        (ScenarioKind.SETTING_B, dict(beta_or_m=2.0, n=16)),  # every replicate has its own spectrum
    ])
    def test_stacked_replicates_equal_one_comparison_each(self, kind, extra):
        spec = quick_spec(kind=kind, c2=0.3, seed=31, p=3, **extra)
        report = run_experiment(spec, sigma2=0.5, n_rep=5)
        alone = [compare_one(*build_ensemble(replace(spec, seed=seed)), 0.5)[2]
                 for seed in derive_seeds([spec.seed] * 5, np.arange(5)).tolist()]
        assert list(report.ratios) == alone

    @pytest.mark.parametrize("p", [8, 20])
    def test_ratios_keep_the_left_to_right_task_sum(self, p):
        # numpy's pairwise sum over the tasks can differ from Python's sum in the last bit from p = 8 on
        spec = quick_spec(kind=ScenarioKind.SETTING_A, c2=0.3, seed=57, p=p)
        report = run_experiment(spec, sigma2=0.5, n_rep=8)
        alone = [compare_one(*build_ensemble(replace(spec, seed=seed)), 0.5)[2]
                 for seed in derive_seeds([spec.seed] * 8, np.arange(8)).tolist()]
        assert list(report.ratios) == alone

    @pytest.mark.parametrize("kind, extra", [
        (ScenarioKind.SETTING_A, dict()),
        (ScenarioKind.SETTING_C, dict(delta2=1.5)),
        (ScenarioKind.SETTING_D, dict(delta2=2.5)),
        (ScenarioKind.H2POINTS, dict(p=4)),
        (ScenarioKind.H1OUT, dict()),
        (ScenarioKind.SETTING_B, dict(n=12)),  # one drawn spectrum per replicate
    ])
    def test_block_rows_are_each_replicates_comparison_rows(self, kind, extra):
        spec = quick_spec(**{"kind": kind, "c2": 0.3, "seed": 71, "p": 3, **extra})
        seeds = derive_seeds([spec.seed] * 6, np.arange(6))
        gamma, owner, h = draw_block([spec], seeds[None])
        signal, noise = comparison_rows(h, 0.5)
        assert signal.shape == (6, spec.p + 2, spec.n)
        for r, seed in enumerate(seeds.tolist()):
            alone_spectrum, alone = build_ensemble(replace(spec, seed=seed))
            alone_signal, alone_noise = comparison_rows(alone.h, 0.5)
            assert np.array_equal(signal[r], alone_signal)
            assert np.array_equal(noise, alone_noise)
            assert np.array_equal(gamma[owner[r]], alone_spectrum.gamma)
            assert np.array_equal(h[r], alone.h)
            # the basis draw drops, kept by build_ensemble: numpy's own draw of it, None for the synthetic kinds
            basis = numpy_setting_b(spec, seed)[0].basis if kind is ScenarioKind.SETTING_B else None
            assert np.array_equal(alone_spectrum.basis, basis)

    @pytest.mark.parametrize("kind, axis", [
        (ScenarioKind.SETTING_A, [dict(c2=c2) for c2 in (0.1, 0.5, 1.0)]),
        (ScenarioKind.SETTING_C, [dict(c2=c2, delta2=d2) for c2 in (0.1, 1.0) for d2 in (1.5, 2.5)]),
        (ScenarioKind.SETTING_D, [dict(c2=c2, delta2=2.5) for c2 in (0.1, 1.0)]),
        (ScenarioKind.H2POINTS, [dict(c2=c2, p=4) for c2 in (0.0, 0.5)]),
        (ScenarioKind.SETTING_B, [dict(n=12, beta_or_m=m) for m in (1.0, 2.0, 3.0)]),
        (ScenarioKind.SETTING_A, [dict(beta_or_m=b, c2=0.5) for b in (1.5, 2.0, 1.5)]),  # distinct spectra
    ])
    def test_whole_sweep_equals_each_cell_alone(self, kind, axis):
        seeds = derive_seeds([8] * len(axis), np.arange(len(axis))).tolist()
        specs = [quick_spec(**{"kind": kind, "p": 3, "seed": seed, **cell}) for seed, cell in zip(seeds, axis)]
        reports, search, _ = run_experiments(specs, 0.7, 4)
        assert reports == [run_experiment(spec, 0.7, 4) for spec in specs]
        assert len(search.value) == len(specs) * 4 * (specs[0].p + 2)

    def test_specs_of_one_run_share_n_and_p(self):
        with pytest.raises(ValueError, match="share n and p"):
            run_experiments([quick_spec(), quick_spec(n=21)], 1.0, 2)

    def test_specs_of_one_run_share_their_kind(self):
        # the draw serves one kind per work list: its sign block is the task block of every spec
        with pytest.raises(ValueError, match="share n and p and their kind"):
            run_experiments([quick_spec(kind=ScenarioKind.SETTING_A), quick_spec(kind=ScenarioKind.SETTING_C,
                                                                               delta2=1.5)], 1.0, 2)
        with pytest.raises(ValueError, match="share n and p and their kind"):
            run_experiments([quick_spec(), quick_spec(kind=ScenarioKind.SETTING_B, n=20, beta_or_m=2.0)], 1.0, 2)

    def test_pi2_scale_override(self):
        spec = quick_spec(kind=ScenarioKind.SETTING_A, c2=0.5, seed=5, n=30)
        by_reps = run_experiment(spec, sigma2=1.0, n_rep=12, pi2_scale="N")
        by_sample = run_experiment(spec, sigma2=1.0, n_rep=12, pi2_scale="n")
        assert by_reps.ratios == by_sample.ratios
        assert by_reps.pi2 == pytest.approx(pvalue_pi2(by_reps.mean_ratio, by_reps.std_ratio, 12), rel=1e-12)
        assert by_sample.pi2 == pytest.approx(pvalue_pi2(by_sample.mean_ratio, by_sample.std_ratio, 30), rel=1e-12)


class TestChunkedDraw:
    """A work list is drawn in replicate chunks straight into the search's rows: where chunks end changes nothing."""

    @pytest.mark.parametrize("kind, axis", [
        (ScenarioKind.SETTING_A, [dict(c2=c2) for c2 in (0.1, 0.5, 1.0)]),
        (ScenarioKind.SETTING_B, [dict(beta_or_m=m, c2=0.3) for m in (1.0, 2.0, 3.0)]),
        (ScenarioKind.SETTING_C, [dict(c2=c2, delta2=d2) for c2, d2 in ((0.1, 1.5), (1.0, 2.5), (0.5, 2.0))]),
        (ScenarioKind.SETTING_D, [dict(c2=c2, delta2=2.5) for c2 in (0.1, 1.0, 0.5)]),
        (ScenarioKind.H1OUT, [dict(c2=c2) for c2 in (0.1, 1.0, 0.5)]),
    ])
    def test_chunk_boundaries_change_no_report_and_no_search(self, kind, axis, monkeypatch):
        specs = [quick_spec(**{"kind": kind, "n": 12, "p": 3, "seed": seed, **cell})
                 for seed, cell in zip(derive_seeds([9] * len(axis), np.arange(len(axis))).tolist(), axis)]
        reports, search, _ = run_experiments(specs, 0.7, 4)  # one chunk: 12 replicates are far below a block
        # three replicates per chunk: four chunks, two of them across specs, and 4 replicates per spec
        monkeypatch.setattr(scenarios, "BLOCK_ELEMENTS", 3 * 12 * (12 if kind is ScenarioKind.SETTING_B else 3))
        seeds = derive_seeds(np.repeat([spec.seed for spec in specs], 4), np.tile(np.arange(4), 3)).reshape(3, 4)
        assert [(rows.start, rows.stop) for rows, _ in draw(specs, seeds)[2]] == [(0, 3), (3, 6), (6, 9), (9, 12)]
        chunked_reports, chunked, _ = run_experiments(specs, 0.7, 4)
        assert chunked_reports == reports
        for column in fields(Search):
            assert np.array_equal(getattr(chunked, column.name), getattr(search, column.name), equal_nan=True)

    @pytest.mark.parametrize("kind, p", [(ScenarioKind.H2POINTS, 4), (ScenarioKind.H1OUT, 3)])
    def test_a_deterministic_kind_searches_p_plus_2_rows_per_spec(self, kind, p, monkeypatch):
        # every replicate of an h2points or h1out spec is the same: one is searched, and stands for all four
        specs = [quick_spec(kind=kind, n=12, p=p, c2=c2, seed=seed)
                 for seed, c2 in zip(derive_seeds([9] * 3, np.arange(3)).tolist(), (0.1, 1.0, 0.5))]
        seeds = derive_seeds(np.repeat([spec.seed for spec in specs], 4), np.tile(np.arange(4), 3)).reshape(3, 4)
        gamma, owner, h = draw_block(specs, seeds)
        # every replicate drawn and searched
        _, _, rho, every = search_comparisons(12, gamma, *comparison_rows(h, 0.7), spectrum=owner)
        rows, original = [], oracles.minimize_profiles
        monkeypatch.setattr(oracles, "minimize_profiles",
                            lambda *args, **kwargs: rows.append(len(args[3])) or original(*args, **kwargs))
        reports, search, _ = run_experiments(specs, 0.7, 4)
        assert rows == [len(specs) * (p + 2)]
        assert bits(search) == bits(every)
        assert [report.ratios for report in reports] == [tuple(rho[4 * k:4 * k + 4].tolist()) for k in range(3)]

    def test_draw_gives_one_spectrum_per_distinct_beta(self):
        # every cell of a c2 x delta2 sweep at one beta shares one spectrum; a beta axis that repeats a value
        # draws each distinct beta once, in order of first use
        def work_list(kind, cells):
            specs = [quick_spec(kind=kind, n=12, p=3, seed=seed, **cell)
                     for seed, cell in zip(derive_seeds([9] * len(cells), np.arange(len(cells))).tolist(), cells)]
            seeds = derive_seeds(np.repeat([spec.seed for spec in specs], 2), np.tile(np.arange(2), len(specs)))
            return specs, draw(specs, seeds.reshape(len(specs), 2))

        sweep = [dict(c2=c2, delta2=d2) for c2 in (0.1, 1.0) for d2 in (1.5, 2.5)]
        _, (gamma, owner, _) = work_list(ScenarioKind.SETTING_C, sweep)
        assert gamma.tobytes() == scenarios.power_law(12, 2.0).tobytes() and owner.tolist() == [0] * 8
        specs, (gamma, owner, _) = work_list(ScenarioKind.SETTING_A, [dict(beta_or_m=b) for b in (1.5, 2.0, 1.5)])
        assert gamma.tobytes() == np.array([scenarios.power_law(12, b) for b in (1.5, 2.0)]).tobytes()
        assert owner.tolist() == [0, 0, 1, 1, 0, 0]
        # the shared spectra change no report: each spec's is the one it gets alone
        assert run_experiments(specs, 0.7, 2)[0] == [run_experiment(spec, 0.7, 2) for spec in specs]

    def test_stacked_rows_give_the_noise_levels_without_a_chunk(self):
        signal, noise = oracles.stacked_rows(iter(()), 0, 12, 3, 0.7)
        assert signal.shape == (0, 5, 12)
        assert noise.tobytes() == comparison_rows(np.ones((12, 3)), 0.7)[1].tobytes()
        h = np.arange(72.0).reshape(2, 12, 3)
        assert oracles.stacked_rows(iter([(slice(0, 2), h)]), 2, 12, 3, 0.7)[1].tobytes() == noise.tobytes()

    def test_a_run_holds_little_beyond_its_row_block(self):
        spec = quick_spec(kind=ScenarioKind.SETTING_A, n=500, p=20, c2=0.5, seed=5)
        run_experiments([spec], 1.0, 2)  # caches filled outside the measure
        tracemalloc.start()
        try:
            run_experiments([spec], 1.0, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 40 * (20 + 2) * 500 * 8  # the (R, p + 2, n) rows the search reads
        assert peak < 1.5 * block + 2**20


class TestEmission:
    def make_report(self, seed=1, n_rep=5):
        return run_experiment(quick_spec(kind=ScenarioKind.SETTING_A, c2=0.5, seed=seed), 1.0, n_rep)

    def test_single_row_table(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "table.csv"
        emit_table([report], str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "C2,r,beta_or_m,b_bar,pi1,mean_ratio,std_ratio,pi2"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[0]) == 0.5
        assert float(row[5]) == report.mean_ratio

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_table([], str(tmp_path / "t.csv"))

    def test_ratio_grows_with_dispersion(self, tmp_path):
        reports = []
        for idx, c2 in enumerate((0.01, 0.1, 0.5, 1.0)):
            spec = quick_spec(kind=ScenarioKind.SETTING_A, n=30, p=5, c2=c2, seed=606 + idx)
            reports.append(run_experiment(spec, 1.0, 30))
        path = tmp_path / "trend.csv"
        emit_table(reports, str(path))
        means = [r.mean_ratio for r in reports]
        assert all(b > a for a, b in zip(means, means[1:]))
        assert len(path.read_text().splitlines()) == 5

    def test_heatmap_grid(self, tmp_path):
        grid = [[self.make_report(seed=10 * i + j) for j in range(3)] for i in range(2)]
        path = tmp_path / "grid.csv"
        emit_heatmap(sum(grid, []), "delta2", [1.5, 2.0], "c2", [0.1, 1.0, 10.0], str(path))
        text = path.read_text()
        assert text.startswith("# mean_ratio\n")
        assert "# ci95_halfwidth" in text
        # 2 section markers + 2 headers + 2*2 data rows
        assert len(text.splitlines()) == 2 + 2 + 4

    def test_five_by_five_grid_is_finite(self, tmp_path):
        grid = []
        for i in range(5):
            row = []
            for j in range(5):
                spec = quick_spec(kind=ScenarioKind.SETTING_A, n=10, p=3, c2=0.2 + 0.1 * j, seed=50 * i + j)
                row.append(run_experiment(spec, 1.0, 2))
            grid.append(row)
        path = tmp_path / "grid5.csv"
        emit_heatmap(sum(grid, []), "row", list(range(5)), "col", list(range(5)), str(path))
        assert all(math.isfinite(rep.mean_ratio) for row in grid for rep in row)

    def test_heatmap_shape_mismatch_rejected(self, tmp_path):
        grid = [[self.make_report()]]
        with pytest.raises(ValueError):
            emit_heatmap(sum(grid, []), "delta2", [1.0, 2.0], "c2", [0.1], str(tmp_path / "g.csv"))

    def test_json_roundtrip_fields(self, tmp_path):
        report = self.make_report()
        write_report_json(report, str(tmp_path / "report.json"))
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n_rep"] == 5
        assert payload["pi2_scale"] == "N"
        assert len(payload["ratios"]) == 5
        assert payload["spec"]["kind"] == "setting_a"
