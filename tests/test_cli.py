import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mtkrr
from mtkrr.cli import ENVELOPE_SAMPLE, _envelope, build_parser, main, parse_args
from mtkrr.render import emit_heatmap, emit_table, write_csv
from mtkrr.riskfn import RiskParams
from mtkrr.scenarios import ScenarioKind, ScenarioSpec, build_ensemble
from conftest import compare_one, stack
from reference import envelope_per_draw, envelope_sample, minimize_risk, risk_curve_rows, run_experiment


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRiskCurve:
    def test_zero_lambda_row_is_noise_over_p(self, tmp_path):
        out = tmp_path / "curve.csv"
        rc = main(["risk-curve", "--n", "40", "--p", "5", "--sigma2", "2.0", "--beta", "2",
                   "--delta", "2", "--c", "1", "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["lambda", "risk", "bias", "variance"]
        first = rows[1]
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(2.0 / 5, rel=1e-12)

    def test_pure_noise_curve_is_monotone_decreasing(self, tmp_path):
        out = tmp_path / "curve.csv"
        main(["risk-curve", "--n", "30", "--p", "1", "--beta", "2", "--delta", "2",
              "--c", "0", "--points", "50", "--out", str(out)])
        risks = [float(r[1]) for r in read_csv(out)[2:]]  # skip header and lambda=0
        assert all(b <= a + 1e-15 for a, b in zip(risks, risks[1:]))

    def test_negative_point_count_is_a_config_error(self, tmp_path, capsys):
        assert main(["risk-curve", "--n", "30", "--beta", "2", "--delta", "2", "--c", "1", "--points", "-3",
                     "--out", str(tmp_path / "c.csv")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: --points: must be nonnegative, got -3\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_curve_minimum_matches_oracle(self, tmp_path):
        curve = tmp_path / "curve.csv"
        main(["risk-curve", "--n", "50", "--p", "4", "--beta", "2", "--delta", "2", "--c", "1",
              "--lambda-min", "1e-3", "--lambda-max", "1", "--points", "8001", "--out", str(curve)])
        curve_min = min(float(r[1]) for r in read_csv(curve)[1:])
        oracle_out = tmp_path / "oracle.json"
        main(["oracle", "--kind", "h2points", "--n", "50", "--p", "4", "--c1", "1", "--c2", "0",
              "--delta1", "2", "--beta-or-m", "2", "--out", str(oracle_out)])
        mt_risk = json.loads(oracle_out.read_text())["mt_risk"]
        assert curve_min >= mt_risk - 1e-15
        assert abs(curve_min - mt_risk) < 1e-6


    def test_default_grid_reaches_the_optimum(self, tmp_path):
        # the optimum sits at lambda = 7.4e-14, below the fixed grid floor 1e-12 of earlier defaults;
        # the default grid spans the oracle's search bracket (about 0.17 decades per point)
        out = tmp_path / "curve.csv"
        assert main(["risk-curve", "--n", "50", "--p", "100", "--beta", "4", "--delta", "2", "--c", "1000",
                     "--out", str(out)]) == 0
        risks = [float(row[1]) for row in read_csv(out)[1:]]
        k = int(np.argmin(risks))
        r_star = minimize_risk(RiskParams(n=50, p=100, sigma2=1.0, beta=4, delta=2, c=1000.0)).r_star
        assert 1 < k < len(risks) - 1  # an interior grid point, not lambda = 0 or an end of the grid
        assert r_star * (1 - 1e-12) <= risks[k] <= r_star * (1 + 1e-4)

    def test_a_risk_that_is_not_finite_is_an_error(self, tmp_path, capsys):
        # c = 1e308: the signal amplitude c n overflows, which no lambda range can help, so it is --c's config error
        out = tmp_path / "curve.csv"
        argv = ["risk-curve", "--n", "50", "--p", "3", "--beta", "100", "--delta", "2", "--out", str(out)]
        assert main([*argv, "--c", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "config error: --c: the signal amplitude c n is not finite at n = 50, got 1e+308\n"
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        # c n = 5e307 is finite, but at delta = 0.51 the bias sum overflows once b ~ 1, from a lambda > 0 on
        assert main(["risk-curve", "--n", "50", "--p", "3", "--beta", "100", "--delta", "0.51", "--c", "1e306",
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        failing = re.fullmatch(r"error: the template risk is not finite at lambda (\S+); narrow the lambda range\n",
                               captured.err)
        assert failing and float(failing[1]) > 0
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        # the same template at c = 1 is finite on the whole default bracket: b = x / (g + x) does not underflow
        assert main([*argv, "--c", "1"]) == 0
        rows = read_csv(out)[1:]
        assert len(rows) == 201 and all(math.isfinite(float(value)) for row in rows for value in row)


class TestRiskCurveIsTheScalarCurve:
    """The ``risk-curve`` CSV is, byte for byte, the engine's arithmetic one lambda at a time (``risk_curve_rows``)."""

    @staticmethod
    def check(n, p, sigma2, beta, delta, c, points, lambda_min=None, lambda_max=None):
        argv = ["risk-curve", "--n", str(n), "--p", str(p), "--sigma2", repr(sigma2), "--beta", repr(beta),
                "--delta", repr(delta), "--c", repr(c), "--points", str(points)]
        argv += [] if lambda_min is None else ["--lambda-min", repr(lambda_min)]
        argv += [] if lambda_max is None else ["--lambda-max", repr(lambda_max)]
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            out, expected = os.path.join(tmp, "curve.csv"), os.path.join(tmp, "expected.csv")
            assert main([*argv, "--out", out]) == 0
            write_csv(expected, risk_curve_rows(RiskParams(n, p, sigma2, beta, delta, c), points,
                                                lambda_min, lambda_max))
            with open(out, "rb") as got, open(expected, "rb") as want:
                assert got.read() == want.read()

    @pytest.mark.parametrize("n, p, sigma2, beta, delta, c, points, lambda_min, lambda_max", [
        (40, 5, 2.0, 2.0, 2.0, 1.0, 200, None, None),  # the defaults
        (30, 1, 1.0, 2.0, 2.0, 0.0, 50, None, None),  # c = 0: pure noise
        (50, 3, 1.0, 100.0, 2.0, 1.0, 20, 1e-3, 1.0),  # eigenvalues from i = 42 on underflow to 0: the lam = 0 row
        (50, 3, 1.0, 100.0, 2.0, 1.0, 200, None, None),  # the default bracket, down to exp(-600): b^2 stays finite
        (50, 3, 1.0, 100.0, 2.0, 0.0, 5, 1e-3, 1.0),
        (12, 2, 0.5, 1.5, 1.0, 3.0, 0, None, None),  # --points 0: the lam = 0 row alone
        (50, 4, 1.0, 2.0, 2.0, 1.0, 101, 1e-3, 1.0),  # explicit bounds
        (60, 2, 1.0, 0.5, 0.5, 1e3, 33, 10.0, 1e-6),  # a descending grid, and exponents of -1
        (2000, 1, 1.0, 1.0, 1.5, 1.0, 7, None, None),  # blocks of 16 lambdas
        (20000, 1, 1.0, 0.75, 1.0, 1.0, 3, None, None),  # one lambda per block, longer than numpy's buffer
    ])
    def test_pinned_templates(self, n, p, sigma2, beta, delta, c, points, lambda_min, lambda_max):
        self.check(n, p, sigma2, beta, delta, c, points, lambda_min, lambda_max)

    @given(n=st.integers(1, 400), p=st.integers(1, 20), log_sigma2=st.floats(-2, 2), beta=st.floats(0.3, 6),
           delta=st.floats(0.3, 6), c=st.one_of(st.sampled_from([0.0, 1e-3, 1.0, 1e3]), st.floats(0, 10)),
           points=st.integers(0, 40), bounds=st.one_of(st.none(), st.tuples(st.floats(-8, 4), st.floats(-8, 4))))
    def test_any_template(self, n, p, log_sigma2, beta, delta, c, points, bounds):
        lambda_min, lambda_max = (None, None) if bounds is None else (10.0 ** bounds[0], 10.0 ** bounds[1])
        self.check(n, p, 10.0**log_sigma2, beta, delta, c, points, lambda_min, lambda_max)


class TestOracleCommand:
    def test_identical_tasks_favor_multitask(self, tmp_path):
        out = tmp_path / "o.json"
        rc = main(["oracle", "--kind", "h2points", "--n", "30", "--p", "4", "--c1", "1",
                   "--c2", "0", "--delta1", "2", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["rho"] < 1.0
        assert payload["rho_formula"] == pytest.approx(4 ** -0.75, rel=1e-12)
        assert math.isinf(payload["mu_star"])
        assert len(payload["st_lambdas"]) == 4

    def test_search_diagnostics_are_written(self, tmp_path):
        out = tmp_path / "o.json"
        assert main(["oracle", "--kind", "h2points", "--n", "30", "--p", "4", "--c1", "1",
                     "--c2", "0", "--delta1", "2", "--out", str(out)]) == 0
        search = json.loads(out.read_text())["search"]
        assert len(search["tasks"]) == 4
        # identical tasks: the dispersion penalty costs nothing, so mu = +inf wins exactly
        assert search["variance"] == {"source": "limit", "iterations": 0, "stationarity": None}
        for record in [search["mean"], *search["tasks"]]:
            assert record["source"] == "newton" and record["iterations"] >= 1
            assert 0 <= record["stationarity"] <= 1e-10

    @pytest.mark.parametrize("seed", [0, 3, 2**40 + 7])
    @pytest.mark.parametrize("kind", [kind.value for kind in ScenarioKind])
    def test_payload_is_the_library_comparison(self, tmp_path, kind, seed):
        # the command draws through scenarios.draw; the reference compares build_ensemble's coefficients
        delta2 = 1.5 if kind in ("setting_c", "setting_d") else None
        out = tmp_path / "o.json"
        assert main(["oracle", "--kind", kind, "--n", "30", "--p", "4", "--c1", "1", "--c2", "0.5", "--delta1", "2",
                     *(["--delta2", str(delta2)] if delta2 else []), "--seed", str(seed), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        spec = ScenarioSpec(kind=ScenarioKind(kind), n=30, p=4, c1=1.0, c2=0.5, delta1=2.0, delta2=delta2, seed=seed)
        mt_risk, st_risk, rho, search = compare_one(*build_ensemble(spec), 1.0)
        assert (payload["mt_risk"], payload["st_risk"], payload["rho"]) == (mt_risk, st_risk, rho)
        assert [payload["lambda_star"], payload["mu_star"], *payload["st_lambdas"]] == search.lam.tolist()
        assert payload["per_task_risks"] == search.value[2:].tolist()

    def test_missing_delta2_is_reported(self, tmp_path, capsys):
        rc = main(["oracle", "--kind", "setting_c", "--n", "10", "--p", "2", "--c1", "1",
                   "--c2", "1", "--delta1", "2", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "delta2" in capsys.readouterr().err

    def test_negative_decay_is_a_config_error(self, tmp_path, capsys):
        # before the spec checked it, the flipped spectrum failed inside the search with no key named
        rc = main(["oracle", "--kind", "setting_a", "--n", "8", "--p", "2", "--c1", "1", "--c2", "0.1",
                   "--delta1", "2", "--beta-or-m", "-5", "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert capsys.readouterr().err == "config error: scenario: beta_or_m must be nonnegative\n"
        assert list(tmp_path.iterdir()) == []


class TestExperimentCommand:
    def write_config(self, tmp_path, **overrides):
        values = dict(kind="setting_a", n="20", p="3", c1="1.0", c2="0.5", delta1="2.0",
                      beta_or_m="2.0", seed="42", sigma2="1.0", n_rep="6",
                      out_json=str(tmp_path / "report.json"), out_csv=str(tmp_path / "ratios.csv"))
        values.update(overrides)
        lines = ["[experiment]"] + [f"{k} = {v}" for k, v in values.items() if v is not None]
        cfg = tmp_path / "exp.ini"
        cfg.write_text("\n".join(lines) + "\n")
        return cfg

    def test_runs_and_writes_outputs(self, tmp_path):
        cfg = self.write_config(tmp_path)
        rc = main(["experiment", "--config", str(cfg), "--jobs", "1"])
        assert rc == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["n_rep"] == 6
        rows = read_csv(tmp_path / "ratios.csv")
        assert rows[0] == ["replicate", "ratio"]
        assert len(rows) == 7

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_config(tmp_path)
        main(["experiment", "--config", str(cfg), "--jobs", "1"])
        first_json = (tmp_path / "report.json").read_bytes()
        first_csv = (tmp_path / "ratios.csv").read_bytes()
        main(["experiment", "--config", str(cfg), "--jobs", "1"])
        assert (tmp_path / "report.json").read_bytes() == first_json
        assert (tmp_path / "ratios.csv").read_bytes() == first_csv

    def test_all_config_errors_are_listed(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, n="not_a_number", sigma2="-1", n_rep=None, out_json=None)
        rc = main(["experiment", "--config", str(cfg)])
        assert rc == 1
        err = capsys.readouterr().err
        for key in ("experiment.n", "experiment.sigma2", "experiment.n_rep", "experiment.out_json"):
            assert key in err

    def test_missing_section_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[wrong]\nn = 5\n")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert "no [experiment] section" in capsys.readouterr().err


class TestTableCommand:
    def test_small_table(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = tmp_path / "table.ini"
        cfg.write_text(
            "[table]\n"
            "kind = setting_a\nn = 20\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
            "c2_values = 0.1, 1.0\nbeta_or_m_values = 2\n"
            "sigma2 = 1.0\nn_rep = 4\nseed = 9\n"
            f"out_csv = {out}\n"
        )
        rc = main(["table", "--config", str(cfg), "--jobs", "1"])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert [float(r[0]) for r in rows[1:]] == [0.1, 1.0]
        assert all(float(r[5]) > 0 for r in rows[1:])

    def test_byte_identical_across_worker_counts(self, tmp_path):
        self.test_small_table(tmp_path)
        first = (tmp_path / "table.csv").read_bytes()
        for jobs in (["--jobs", "2"], []):
            assert main(["table", "--config", str(tmp_path / "table.ini"), *jobs]) == 0
            assert (tmp_path / "table.csv").read_bytes() == first


class TestHeatmapCommand:
    def test_small_grid_with_svg(self, tmp_path):
        out_csv = tmp_path / "grid.csv"
        out_svg = tmp_path / "grid.svg"
        cfg = tmp_path / "heat.ini"
        cfg.write_text(
            "[heatmap]\n"
            "kind = setting_c\nn = 16\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
            "row_param = delta2\nrow_values = 1.5, 2.5\n"
            "col_param = c2\ncol_values = 0.1, 1.0\n"
            "sigma2 = 1.0\nn_rep = 3\nseed = 4\n"
            f"out_csv = {out_csv}\nout_svg = {out_svg}\n"
        )
        rc = main(["heatmap", "--config", str(cfg), "--jobs", "1"])
        assert rc == 0
        text = out_csv.read_text()
        assert text.startswith("# mean_ratio")
        values = [float(tok) for line in text.splitlines()[2:4] for tok in line.split(",")[1:]]
        assert all(math.isfinite(v) for v in values)
        svg = out_svg.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") >= 4

    def test_byte_identical_svg(self, tmp_path):
        self.test_small_grid_with_svg(tmp_path)
        first = (tmp_path / "grid.svg").read_bytes()
        main(["heatmap", "--config", str(tmp_path / "heat.ini"), "--jobs", "1"])
        assert (tmp_path / "grid.svg").read_bytes() == first

    def test_byte_identical_across_worker_counts(self, tmp_path):
        self.test_small_grid_with_svg(tmp_path)
        first = [(tmp_path / name).read_bytes() for name in ("grid.csv", "grid.svg")]
        for jobs in (["--jobs", "2"], []):
            assert main(["heatmap", "--config", str(tmp_path / "heat.ini"), *jobs]) == 0
            assert [(tmp_path / name).read_bytes() for name in ("grid.csv", "grid.svg")] == first


class TestVerifyBounds:
    def test_reduced_grid_passes(self, tmp_path, capsys):
        out = tmp_path / "bounds.txt"
        rc = main(["verify-bounds", "--n-values", "50,200", "--p-values", "1,4",
                   "--c-values", "1", "--bd-pairs", "2:2", "--out", str(out)])
        assert rc == 0
        report = out.read_text()
        assert "PASS property-1 upper bound" in report
        assert "FAIL" not in report
        assert "PASS alpha constant" in capsys.readouterr().out

    def test_an_amplitude_that_overflows_is_a_config_error(self, tmp_path, capsys):
        # c n overflows at the grid's largest n, as risk-curve's --c does: a config error, and no numpy warning
        argv = ["verify-bounds", "--n-values", "5", "--out", str(tmp_path / "v.txt")]
        assert main([*argv, "--c-values", "1,1e308"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: --c-values: the signal amplitude c n is not finite at n = 5, got 1e+308\n"
        assert "Warning" not in err and list(tmp_path.iterdir()) == []

    def test_divergent_noise_integral_is_a_cell_outside_the_window(self, tmp_path, capsys):
        # beta = 0.2 passes 1 < 2 delta < 4 beta + 1, but I2 diverges: nan bounds, not an error
        argv = ["verify-bounds", "--n-values", "50", "--bd-pairs", "0.2:0.7", "--out", str(tmp_path / "v.txt")]
        assert main(argv) == 0
        assert not any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())

    def test_a_property_without_cells_is_skipped(self, tmp_path, capsys):
        # beta = 0.2 puts every cell outside the windows of properties 1 to 3: nothing compared is no PASS
        argv = ["verify-bounds", "--n-values", "50", "--bd-pairs", "0.2:0.7", "--out", str(tmp_path / "v.txt")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:3] == [f"SKIP {name}: no cell of the grid inside its window"
                             for name in ("property-1 upper bound", "property-2 localization", "property-3 lower bound")]
        assert all(line.startswith("PASS ") for line in lines[3:])
        assert (tmp_path / "v.txt").read_text().splitlines() == lines

    def test_a_skipped_property_leaves_the_checked_lines_unchanged(self, capsys):
        argv = ["verify-bounds", "--n-values", "50,200", "--p-values", "1,4", "--c-values", "1", "--bd-pairs", "2:2"]
        assert main(argv) == 0
        checked = capsys.readouterr().out.splitlines()
        assert main([*argv, "--lower-threshold", "1e12"]) == 0  # no cell reaches n p / sigma2 = 1e12
        lines = capsys.readouterr().out.splitlines()
        assert checked[2].startswith("PASS property-3 lower bound: ")
        assert lines == [*checked[:2], "SKIP property-3 lower bound: no cell of the grid inside its window",
                         *checked[3:]]

    def test_a_delta_far_outside_the_window_is_skipped(self, tmp_path, capsys):
        # the minimax rate (n p / sigma2)^(1/(2 delta) - 1) overflows at delta = 1e-300; outside the window
        # it is not computed, so every windowed property is skipped instead of the command failing
        argv = ["verify-bounds", "--bd-pairs", "2:1e-300", "--n-values", "50", "--p-values", "1", "--c-values", "1"]
        assert main([*argv, "--out", str(tmp_path / "v.txt")]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[:3] == [f"SKIP {name}: no cell of the grid inside its window"
                             for name in ("property-1 upper bound", "property-2 localization", "property-3 lower bound")]
        assert all(line.startswith("PASS ") for line in lines[3:])
        assert not any(line.startswith("error:") for line in captured.err.splitlines())

    # property 3 fails on this grid: the sum-versus-integral gap at a few effective dimensions (an open finding)
    FOUND_GRID_LINES = [
        'PASS property-1 upper bound: worst relative excess -2.627e-01',
        'PASS property-2 localization: 0 optimizer(s) above the cap',
        'FAIL property-3 lower bound: worst relative margin -2.248e-01 over 18 cells',
        f"PASS property-4 regime flip: sweep labels {['REGULARIZE'] * 9 + ['TRIVIAL_NOISE'] * 4}",
        'PASS s2 integral envelope: 40 random (n, lam, beta) draws',
        'PASS s1 integral envelope: 40 random (n, lam, beta, delta) draws',
        'PASS alpha constant: alpha(2,2) = 0.3303917680910371',
    ]

    def test_the_found_grid_fails_property_3_with_these_lines(self, tmp_path, capsys):
        argv = ["verify-bounds", "--bd-pairs", "3:5.5", "--n-values", "50,200", "--out", str(tmp_path / "v.txt")]
        assert main(argv) == 2
        out = capsys.readouterr().out
        assert out.splitlines() == self.FOUND_GRID_LINES
        assert (tmp_path / "v.txt").read_text() == out

    @pytest.mark.parametrize("argv, errors", [
        (["--bd-pairs", "0:2,2:2", "--c-values=1,-1"],
         ["beta must be positive and finite", "c must be nonnegative and finite"]),
        (["--sigma2", "-1"], ["sigma2 must be positive and finite"]),
    ])
    def test_a_bad_grid_value_is_one_config_error_in_grid_order(self, capsys, argv, errors):
        assert main(["verify-bounds", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "".join(f"config error: {error}\n" for error in errors)

    def test_template_optimum_far_below_1e_12_is_found(self, capsys):
        # beta = 4, n = 1000: the optimum lies near lam = 1.3e-16, and a search
        # stopped at a fixed floor of 1e-12 overshoots the upper bound fourfold
        rc = main(["verify-bounds", "--n-values", "1000", "--p-values", "100", "--c-values", "1000",
                   "--bd-pairs", "4:2"])
        assert rc == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_default_output_is_pinned(self, tmp_path, capsys):
        # a change of numerics has to edit these lines, and declare it; alpha(2,2) is 1 ulp above the
        # correctly rounded 0.33039176809103704
        assert main(["verify-bounds", "--out", str(tmp_path / "v.txt")]) == 0
        assert capsys.readouterr().out.splitlines() == DEFAULT_BOUNDS_OUTPUT
        assert (tmp_path / "v.txt").read_text().splitlines() == DEFAULT_BOUNDS_OUTPUT


DEFAULT_BOUNDS_OUTPUT = [
    "PASS property-1 upper bound: worst relative excess -1.913e-01",
    "PASS property-2 localization: 0 optimizer(s) above the cap",
    "PASS property-3 lower bound: worst relative margin 1.596e+00 over 90 cells",
    "PASS property-4 regime flip: sweep labels " + str(["REGULARIZE"] * 9 + ["TRIVIAL_NOISE"] * 4),
    "PASS s2 integral envelope: 40 random (n, lam, beta) draws",
    "PASS s1 integral envelope: 40 random (n, lam, beta, delta) draws",
    "PASS alpha constant: alpha(2,2) = 0.3303917680910371",
]


class TestEnvelope:
    """The envelope's block of 40 padded draws against each draw's own template profile (``envelope_per_draw``)."""

    @staticmethod
    def check(sample):
        sums, caps = _envelope(sample)
        ok, expected = envelope_per_draw(sample)
        assert sums.shape == caps.shape == expected.shape == (2, 40)
        assert tuple((sums <= caps).all(axis=1).tolist()) == ok
        # the padding adds exact zeros, so only the order of the additions differs (measured 5e-16)
        np.testing.assert_allclose(sums, expected, rtol=1e-13, atol=0)
        return ok

    def test_the_fixed_sample_is_the_first_40_draws_of_its_generator(self):
        # every draw bit for bit, in order: the literal table is the sample the generator drew
        assert list(ENVELOPE_SAMPLE) == envelope_sample(np.random.default_rng(20240811))
        assert [tuple(map(type, draw)) for draw in ENVELOPE_SAMPLE] == [(float, float, int, float)] * 40

    def test_default_sample_passes_as_each_draw_alone(self):
        assert self.check(ENVELOPE_SAMPLE) == (True, True)

    @given(seed=st.integers(0, 2**64 - 1))
    def test_any_generator_seed_matches_each_draw_alone(self, seed):
        self.check(envelope_sample(np.random.default_rng(seed)))


class TestArgumentHandling:
    def test_unknown_flag_is_a_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["risk-curve", "--n", "10", "--beta", "2", "--delta", "2", "--c", "1",
                  "--out", "x.csv", "--bogus", "1"])
        assert exc.value.code == 2

    def test_help_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("risk-curve", "oracle", "verify-bounds", "experiment", "table", "heatmap"):
            assert cmd in out


TOP_USAGE = """\
usage: mtkrr [-h]
             {risk-curve,oracle,verify-bounds,experiment,table,heatmap} ...
"""
TOP_HELP = TOP_USAGE + """
Exact oracle risks for multi-task kernel ridge regression.

positional arguments:
  {risk-curve,oracle,verify-bounds,experiment,table,heatmap}
    risk-curve          tabulate the template risk over a lambda grid
    oracle              multi-task vs single-task oracle on one scenario
    verify-bounds       run the theoretical-bound verification suite
    experiment          replicated oracle comparison from a config file
    table               comparison table over (c2, beta_or_m) from a config
                        file
    heatmap             mean-ratio heatmap over two scenario axes from a
                        config file

options:
  -h, --help            show this help message and exit
"""
RISK_CURVE = ["risk-curve", "--n", "10", "--beta", "2", "--delta", "2", "--c", "1", "--out", "x.csv"]
ORACLE = ["oracle", "--kind", "h2points", "--n", "12", "--p", "3", "--c1", "1", "--c2", "0.5", "--delta1", "2",
          "--out", "o.json"]
# per subcommand: a valid argv, then argvs that must fail (missing required argument, unknown option, bad value;
# verify-bounds requires no argument, so an option without its value stands in for the first)
PARSER_CASES = {
    "risk-curve": (RISK_CURVE + ["--points", "7", "--lambda-min", "1e-3"],
                   [RISK_CURVE[:-2], RISK_CURVE + ["--bogus", "1"], RISK_CURVE + ["--n", "ten"]]),
    "oracle": (ORACLE + ["--beta-or-m", "3", "--seed", "5"],
               [ORACLE[:3] + ORACLE[5:], ORACLE + ["--bogus"], ORACLE + ["--p", "1.5"],
                ["oracle", "--kind", "nope", *ORACLE[3:]]]),
    "verify-bounds": (["verify-bounds", "--n-values", "50", "--sigma2", "0.5", "--out", "b.txt"],
                      [["verify-bounds", "--bogus"], ["verify-bounds", "--sigma2", "x"], ["verify-bounds", "--out"]]),
    **{name: ([name, "--conf", "c.ini", "--jobs", "2"],
              [[name], [name, "--config", "c.ini", "extra"], [name, "--config", "c.ini", "--jobs", "two"]])
       for name in ("experiment", "table", "heatmap")},
}


def parse_outcome(parse, argv, capsys):
    """What parsing ``argv`` gives: the namespace, or the exit code with stdout and stderr."""
    try:
        return parse(argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


class TestParser:
    """``main`` builds only the named subcommand's parser; what it parses and prints is the full parser's."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width

    @pytest.mark.parametrize("name", PARSER_CASES)
    def test_namespace_help_and_errors_match_the_full_parser(self, name, capsys):
        valid, invalid = PARSER_CASES[name]
        args = parse_args(valid)
        assert args == build_parser().parse_args(valid) and args.command == name
        code, out, err = parse_outcome(main, [name, "-h"], capsys)
        assert (code, out, err) == parse_outcome(build_parser().parse_args, [name, "-h"], capsys)
        assert code == 0 and out.startswith(f"usage: mtkrr {name} [-h]") and err == ""
        for argv in invalid:
            code, out, err = parse_outcome(main, argv, capsys)
            assert (code, out, err) == parse_outcome(build_parser().parse_args, argv, capsys)
            assert code == 2 and out == "" and " error: " in err

    @pytest.mark.parametrize("argv, expected", [
        (["--help"], (0, TOP_HELP, "")),
        ([], (2, "", TOP_USAGE + "mtkrr: error: the following arguments are required: command\n")),
        (["nope"], (2, "", TOP_USAGE + "mtkrr: error: argument command: invalid choice: 'nope' (choose from "
                    "'risk-curve', 'oracle', 'verify-bounds', 'experiment', 'table', 'heatmap')\n")),
    ])
    def test_no_subcommand_prints_the_top_level_text(self, argv, expected, capsys):
        assert parse_outcome(main, argv, capsys) == expected

    def test_unknown_option_is_reported_by_the_top_level_parser(self, capsys):
        code, out, err = parse_outcome(main, ["table", "--config", "c.ini", "--bogus"], capsys)
        assert (code, out) == (2, "") and err == TOP_USAGE + "mtkrr: error: unrecognized arguments: --bogus\n"

    def test_one_command_builds_one_parser(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        assert main(["table", "--config", str(write_table_config(tmp_path))]) == 0
        assert built == ["mtkrr table"]
        built.clear()
        build_parser()
        assert len(built) == 7  # the full parser: the top level and six subcommands


def spawn_seed(seed, *path):
    """Sub-seed of a sweep cell, computed with numpy alone."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=path).generate_state(1, np.uint64)[0])


class TestSweepSeeding:
    """Every table row and heatmap cell reruns as a plain experiment on its derived seed."""

    def test_table_row_k_is_the_experiment_on_spawn_key_k(self, tmp_path):
        out = tmp_path / "table.csv"
        cfg = tmp_path / "table.ini"
        cfg.write_text(
            "[table]\n"
            "kind = setting_a\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
            "c2_values = 0.1, 1.0\nbeta_or_m_values = 1.5, 2\n"
            "sigma2 = 1.0\nn_rep = 3\nseed = 9\n"
            f"out_csv = {out}\n"
        )
        assert main(["table", "--config", str(cfg), "--jobs", "1"]) == 0
        reports = []
        for k, (bm, c2) in enumerate([(1.5, 0.1), (1.5, 1.0), (2.0, 0.1), (2.0, 1.0)]):
            spec = ScenarioSpec(kind=ScenarioKind.SETTING_A, n=12, p=3, c1=1.0, c2=c2, delta1=2.0,
                                beta_or_m=bm, seed=spawn_seed(9, k))
            reports.append(run_experiment(spec, 1.0, 3))
        expected = tmp_path / "expected.csv"
        emit_table(reports, str(expected))
        assert out.read_bytes() == expected.read_bytes()

    def test_heatmap_cell_ij_is_the_experiment_on_spawn_key_ij(self, tmp_path):
        out = tmp_path / "grid.csv"
        cfg = tmp_path / "heat.ini"
        cfg.write_text(
            "[heatmap]\n"
            "kind = setting_c\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
            "row_param = delta2\nrow_values = 1.5, 2.5\n"
            "col_param = c2\ncol_values = 0.1, 0.5, 1.0\n"
            "sigma2 = 1.0\nn_rep = 3\nseed = 4\n"
            f"out_csv = {out}\n"
        )
        assert main(["heatmap", "--config", str(cfg), "--jobs", "1"]) == 0
        grid = [
            [run_experiment(ScenarioSpec(kind=ScenarioKind.SETTING_C, n=12, p=3, c1=1.0, c2=c2, delta1=2.0,
                                         delta2=d2, seed=spawn_seed(4, i, j)), 1.0, 3)
             for j, c2 in enumerate([0.1, 0.5, 1.0])]
            for i, d2 in enumerate([1.5, 2.5])
        ]
        expected = tmp_path / "expected.csv"
        emit_heatmap(sum(grid, []), "delta2", [1.5, 2.5], "c2", [0.1, 0.5, 1.0], str(expected))
        assert out.read_bytes() == expected.read_bytes()


def write_heatmap_config(tmp_path, n_rep=3):
    cfg = tmp_path / "heat.ini"
    cfg.write_text(
        "[heatmap]\n"
        "kind = setting_c\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
        "row_param = delta2\nrow_values = 1.5, 2.5\n"
        "col_param = c2\ncol_values = 0.1, 0.5, 1.0\n"
        f"sigma2 = 1.0\nn_rep = {n_rep}\nseed = 4\n"
        f"out_csv = {tmp_path / 'grid.csv'}\n"
    )
    return cfg


def write_table_config(tmp_path):
    cfg = tmp_path / "table.ini"
    cfg.write_text(
        "[table]\n"
        "kind = setting_b\nn = 10\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
        "c2_values = 0.1, 1.0\nbeta_or_m_values = 1, 2\n"
        f"sigma2 = 1.0\nn_rep = 2\nseed = 9\nout_csv = {tmp_path / 'table.csv'}\n"
    )
    return cfg


class TestOneEngineCall:
    """Every config-driven command minimizes all its risk curves in a single stacked search."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        """The row count (the length of ``noise``) of every ``minimize_profiles`` call made through a package module."""
        original, calls = mtkrr.optimize.minimize_profiles, []

        def counted(*args, **kwargs):
            calls.append(len(args[3]))
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "mtkrr" and getattr(module, "minimize_profiles", None) is original:
                monkeypatch.setattr(module, "minimize_profiles", counted)
        return calls

    @pytest.mark.parametrize("command", ["experiment", "table", "heatmap"])
    def test_each_command_calls_the_engine_once(self, tmp_path, engine_calls, command):
        write = {"experiment": lambda path: TestExperimentCommand().write_config(path),
                 "table": write_table_config, "heatmap": write_heatmap_config}[command]
        for jobs in (["--jobs", "1"], ["--jobs", "2"], []):
            engine_calls.clear()
            assert main([command, "--config", str(write(tmp_path)), *jobs]) == 0
            assert len(engine_calls) == 1
        rows = {"experiment": 6 * (3 + 2), "table": 4 * 2 * (3 + 2), "heatmap": 6 * 3 * (3 + 2)}[command]
        assert engine_calls == [rows]

    @pytest.mark.parametrize("grid, rows, code", [
        ([], 3 * 3 * 4 * 3 + 13, 0),  # the default: 3 pairs x 3 n x 4 p x 3 c, with the 13-cell p-sweep at n = 50
        # property 3 fails on this grid (ROADMAP item 4)
        (["--bd-pairs", "3:5.5,2:3.5,4:7.5", "--n-values", "50,200,800,3200"], 3 * 4 * 4 * 3 + 13, 2),
        (["--n-values", "200,800"], 3 * 2 * 4 * 3 + 13, 0),  # no n = 50 cell: the sweep joins the same call
    ])
    def test_verify_bounds_calls_the_engine_once(self, tmp_path, engine_calls, grid, rows, code):
        # every n, and the sweep, in one call
        assert main(["verify-bounds", *grid, "--out", str(tmp_path / "bounds.txt")]) == code
        assert engine_calls == [rows]


class TestRunSummary:
    def test_summary_counts_every_search_and_leaves_the_data_unchanged(self, tmp_path, capsys):
        assert main(["heatmap", "--config", str(write_heatmap_config(tmp_path)), "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        summary = captured.err.strip().splitlines()[-1]
        assert summary.startswith("searches 90: zero ")
        counts = dict(part.rsplit(" ", 1) for part in summary.split(": ", 1)[1].split("; ")[0].split(", "))
        assert sorted(counts) == ["grid", "limit", "newton", "zero"] and sum(map(int, counts.values())) == 90
        assert "max_iter hits 0; newton evaluations median " in summary
        assert re.search(r"; open-cell searches \d+; stage ms draw ", summary)
        assert "searches" not in captured.out
        # the same grid written straight from the library, which prints nothing
        grid = [
            [run_experiment(ScenarioSpec(kind=ScenarioKind.SETTING_C, n=12, p=3, c1=1.0, c2=c2, delta1=2.0,
                                         delta2=d2, seed=spawn_seed(4, i, j)), 1.0, 3)
             for j, c2 in enumerate([0.1, 0.5, 1.0])]
            for i, d2 in enumerate([1.5, 2.5])
        ]
        emit_heatmap(sum(grid, []), "delta2", [1.5, 2.5], "c2", [0.1, 0.5, 1.0], str(tmp_path / "expected.csv"))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    def test_oracle_prints_the_summary_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "o.json"
        argv = ["oracle", "--kind", "setting_a", "--n", "30", "--p", "4", "--c1", "1", "--c2", "0.5", "--delta1", "2"]
        assert main([*argv, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        # the p + 2 = 6 searches of the one replicate, then the wall times of the draw, the row build and the search,
        # and the search's own stages: the grid scan, the basins' start model, and Newton with the winners
        stages = re.fullmatch(r"searches 6: zero \d+, limit \d+, newton \d+, grid \d+; max_iter hits \d+; "
                              r"newton evaluations (median [\d.]+, max \d+|none); open-cell searches \d+; "
                              r"stage ms draw [\d.]+, rows [\d.]+, search ([\d.]+) "
                              r"\(scan ([\d.]+), model ([\d.]+), newton ([\d.]+)\)\n", captured.err)
        assert stages
        search, *parts = map(float, stages.groups()[1:])
        assert abs(sum(parts) - search) <= 0.25  # each printed to 0.1 ms
        assert captured.out == f"rho = {json.loads(out.read_text())['rho']!r} -> {out}\n"
        search = json.loads(out.read_text())["search"]
        sources = [record["source"] for record in [search["mean"], search["variance"], *search["tasks"]]]
        counts = dict(part.rsplit(" ", 1) for part in captured.err.split(": ", 1)[1].split("; ")[0].split(", "))
        assert {name: int(count) for name, count in counts.items()} == {
            name: sources.count(name) for name in ("zero", "limit", "newton", "grid")}

    def test_experiment_prints_the_summary_to_stderr(self, tmp_path, capsys):
        cfg = TestExperimentCommand().write_config(tmp_path)
        assert main(["experiment", "--config", str(cfg), "--jobs", "1"]) == 0
        captured = capsys.readouterr()
        assert "searches 30: zero " in captured.err and "searches" not in captured.out

    @pytest.mark.parametrize("grid, searches, code", [
        ([], 121, 0),  # the default grid
        (["--bd-pairs", "3:5.5", "--n-values", "50,200"], 37, 2),  # property 3 fails (worst margin -2.248e-01)
        (["--n-values", "200,800"], 85, 0),  # no n = 50 cell: the sweep is searched on its own
    ])
    def test_verify_bounds_summary_counts_every_search_and_leaves_the_output_unchanged(
            self, tmp_path, capsys, monkeypatch, grid, searches, code):
        assert main(["verify-bounds", *grid, "--out", str(tmp_path / "stacked.txt")]) == code
        stacked = capsys.readouterr()
        summary = stacked.err.strip().splitlines()[-1]
        assert summary.startswith(f"searches {searches}: zero ")
        # the grid stage, then its searches' own stages summed over its engine calls, each printed to 0.1 ms
        stages = re.search(r"; open-cell searches \d+; stage ms grid ([\d.]+) \(scan ([\d.]+), model ([\d.]+), "
                           r"newton ([\d.]+)\), envelope [\d.]+, render [\d.]+$", summary)
        assert stages
        grid_ms, *parts = map(float, stages.groups())
        assert sum(parts) <= grid_ms + 0.2  # each of the four printed values rounded by up to 0.05 ms
        assert "searches" not in stacked.out
        assert code == 0 or "FAIL property-3 lower bound: worst relative margin -2.248e-01 " in stacked.out
        # the same command with every cell searched alone, as before the cells were stacked
        original = mtkrr.riskfn.minimize_risks

        def one_by_one(*grid, times=None):
            cells = [original(*(column[k:k + 1] for column in grid), times=times) for k in range(len(grid[0]))]
            return stack([bounds for bounds, _ in cells]), stack([search for _, search in cells])

        monkeypatch.setattr(mtkrr.riskfn, "minimize_risks", one_by_one)
        assert main(["verify-bounds", *grid, "--out", str(tmp_path / "alone.txt")]) == code
        alone = capsys.readouterr()
        # the same summary up to the stage times, which are wall times
        assert alone.err.split("; stage ms ")[0] == stacked.err.split("; stage ms ")[0] and alone.out == stacked.out
        assert (tmp_path / "stacked.txt").read_bytes() == (tmp_path / "alone.txt").read_bytes()


class TestSweepConfigErrors:
    def test_all_table_errors_are_listed(self, tmp_path, capsys):
        cfg = tmp_path / "table.ini"
        cfg.write_text("[table]\nkind = setting_a\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
                       "beta_or_m_values = 2\nsigma2 = -1\n")
        assert main(["table", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        for key in ("table.c2_values", "table.sigma2", "table.n_rep", "table.out_csv"):
            assert key in err

    def test_beta_or_m_does_not_stand_in_for_the_list(self, tmp_path, capsys):
        cfg = tmp_path / "table.ini"
        cfg.write_text("[table]\nkind = setting_a\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\nc2_values = 0.1\n"
                       f"beta_or_m = 2\nsigma2 = 1.0\nn_rep = 2\nout_csv = {tmp_path / 'table.csv'}\n")
        assert main(["table", "--config", str(cfg)]) == 1
        assert "config error: table.beta_or_m_values: missing or empty" in capsys.readouterr().err
        assert not (tmp_path / "table.csv").exists()

    def test_semicolon_is_not_a_list_separator(self, tmp_path, capsys):
        cfg = tmp_path / "table.ini"
        cfg.write_text("[table]\nkind = setting_a\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\nc2_values = 0.1;0.5\n"
                       f"beta_or_m_values = 2\nsigma2 = 1.0\nn_rep = 2\nout_csv = {tmp_path / 'table.csv'}\n")
        assert main(["table", "--config", str(cfg)]) == 1
        assert "config error: table.c2_values: cannot parse list '0.1;0.5'" in capsys.readouterr().err
        assert not (tmp_path / "table.csv").exists()

    def test_bad_cell_is_named_by_its_position(self, tmp_path, capsys):
        cfg = tmp_path / "heat.ini"
        cfg.write_text("[heatmap]\nkind = setting_c\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
                       "row_param = delta2\nrow_values = 1.5\ncol_param = c2\ncol_values = 0.1, -1\n"
                       f"sigma2 = 1.0\nn_rep = 2\nout_csv = {tmp_path / 'grid.csv'}\n")
        assert main(["heatmap", "--config", str(cfg), "--jobs", "1"]) == 1
        assert "heatmap.cell(0,1).scenario: amplitudes must be nonnegative" in capsys.readouterr().err

    def test_all_heatmap_errors_are_listed(self, tmp_path, capsys):
        cfg = tmp_path / "heat.ini"
        cfg.write_text("[heatmap]\nkind = setting_c\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
                       "row_param = n\ncol_param = c2\ncol_values = 0.1\nsigma2 = 0\nn_rep = 0\n")
        assert main(["heatmap", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        for key in ("heatmap.row_param", "heatmap.row_values", "heatmap.sigma2", "heatmap.n_rep",
                    "heatmap.out_csv"):
            assert key in err


class TestSweepValidatesBeforeRunning:
    """Shared keys are named by their section, and every cell is parsed before any cell runs."""

    @staticmethod
    def run_table(tmp_path, capsys, **keys):
        out = tmp_path / "table.csv"
        settings = dict(kind="setting_a", n="12", p="4", c1="1.0", delta1="2.0", c2_values="0.1",
                        beta_or_m_values="2", sigma2="1.0", n_rep="2", out_csv=str(out))
        settings.update(keys)
        cfg = tmp_path / "table.ini"
        cfg.write_text("[table]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items()))
        rc = main(["table", "--config", str(cfg), "--jobs", "1"])
        return rc, capsys.readouterr().err, out

    def test_shared_key_is_listed_with_the_section_errors(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, n="x", sigma2="-1")
        assert rc == 1
        assert "config error: table.sigma2:" in err
        assert "config error: table.n: cannot parse 'x'" in err
        assert not out.exists()

    def test_shared_key_is_named_by_the_section(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, n="x")
        assert rc == 1
        assert "table.n: cannot parse 'x'" in err
        assert "row0" not in err and not out.exists()

    def test_every_bad_row_is_listed_before_any_row_runs(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, kind="h2points", c2_values="0.25, -1, 0.5, -2")
        assert rc == 1
        assert "table.row1.scenario: amplitudes must be nonnegative" in err
        assert "table.row3.scenario: amplitudes must be nonnegative" in err
        assert "row0" not in err and "row 0:" not in err and "row 2:" not in err
        assert not out.exists()

    def test_non_integer_spline_order_is_a_row_error(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, kind="setting_b", beta_or_m_values="1, 2, 3, 2.5")
        assert rc == 1
        assert "config error: table.row3.scenario: setting B needs an integer smoothness order" in err
        assert "row 0:" not in err and not out.exists()

    def test_negative_decay_is_a_row_error(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, beta_or_m_values="2.0, -1.0")
        assert rc == 1
        assert err == "config error: table.row1.scenario: beta_or_m must be nonnegative\n"
        assert not out.exists()

    def test_bad_seed_and_kind_are_named_by_the_section(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, kind="setting_z", seed="s")
        assert rc == 1
        assert "table.kind: cannot parse 'setting_z'" in err and "table.seed: cannot parse 's'" in err
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-3", "18446744073709551616"])
    def test_sweep_seed_outside_64_bits_is_listed_with_the_section_errors(self, tmp_path, capsys, seed):
        rc, err, out = self.run_table(tmp_path, capsys, seed=seed, sigma2="-1")
        assert rc == 1
        assert "config error: table.seed: must fit in 64 unsigned bits" in err
        assert "config error: table.sigma2:" in err
        assert not out.exists()

    def test_error_every_cell_shares_is_reported_once(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        cfg = tmp_path / "heat.ini"
        cfg.write_text("[heatmap]\nkind = h2points\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
                       "row_param = c2\nrow_values = 0.1, 0.2\ncol_param = beta_or_m\ncol_values = 1.5, 2\n"
                       f"sigma2 = 1.0\nn_rep = 2\nout_csv = {out}\n")
        assert main(["heatmap", "--config", str(cfg), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "config error: heatmap.scenario: the two-cluster configuration needs an even p\n"
        assert not out.exists()

    def test_outlier_configuration_with_one_task_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "heat.ini"
        cfg.write_text("[heatmap]\nkind = h1out\nn = 12\np = 1\nc1 = 1.0\ndelta1 = 2.0\n"
                       "row_param = c2\nrow_values = 0.1, 0.2\ncol_param = beta_or_m\ncol_values = 1.5, 2\n"
                       f"sigma2 = 1.0\nn_rep = 2\nout_csv = {tmp_path / 'grid.csv'}\nout_svg = {tmp_path / 'grid.svg'}\n")
        assert main(["heatmap", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == "config error: heatmap.scenario: the outlier configuration needs p >= 2\n"
        assert sorted(os.listdir(tmp_path)) == ["heat.ini"]

    def test_heatmap_shared_key_is_named_by_the_section(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        cfg = tmp_path / "heat.ini"
        cfg.write_text("[heatmap]\nkind = setting_c\nn = 12\np = x\nc1 = 1.0\ndelta1 = 2.0\n"
                       "row_param = delta2\nrow_values = 1.5\ncol_param = c2\ncol_values = 0.1, -1\n"
                       f"sigma2 = 1.0\nn_rep = 2\nout_csv = {out}\n")
        assert main(["heatmap", "--config", str(cfg), "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert "config error: heatmap.p: cannot parse 'x'" in err
        assert "cell(" not in err and not out.exists()


def _sweep_base(command: str) -> dict:
    """A small valid config of ``command``; every degeneracy below breaks it."""
    base = dict(kind="setting_a", n="8", p="2", c1="1.0", c2="0.1", delta1="2.0", beta_or_m="2.0", seed="1",
                sigma2="1.0", n_rep="2")
    if command == "experiment":
        return base | {"out_json": "report.json"}
    if command == "table":
        del base["c2"], base["beta_or_m"]
        return base | {"c2_values": "0.1", "beta_or_m_values": "2", "out_csv": "table.csv"}
    del base["c2"], base["c1"]
    return base | {"row_param": "c2", "row_values": "0.1", "col_param": "c1", "col_values": "1",
                   "out_csv": "grid.csv"}


def _degeneracies(command: str):
    """Strategies of (key, value) edits that each make the config invalid."""
    count = st.integers(0, 10**6)
    edits = [
        st.builds(lambda k: {"n_rep": str(-k)}, count),
        st.builds(lambda x: {"sigma2": repr(-x)}, st.floats(0.0, 1e300)),
        st.builds(lambda k: {"n_rep": f"{k}.5"}, count),
        st.builds(lambda text: {"sigma2": text}, st.sampled_from(["abc", "1,0", "1.0.0", "one"])),
        st.builds(lambda k: {"n": str(-k)}, count),
        st.builds(lambda k: {"p": str(-k)}, count),
        st.builds(lambda k: {"kind": "h2points", "p": str(2 * k + 1)}, st.integers(0, 3)),
        st.builds(lambda m: {"kind": "setting_b", "beta_or_m_values" if command == "table" else "beta_or_m": repr(m)},
                  st.floats(1.0, 6.0).filter(lambda m: not m.is_integer())),
        st.builds(lambda k: {"seed": str(2**64 + k)}, count),
    ]
    if command != "experiment":
        axes = ("c2_values", "beta_or_m_values") if command == "table" else ("row_values", "col_values")
        empty = st.sampled_from(["", " ", ",", ";"])
        edits.append(st.builds(lambda axis, text: {axis: text}, st.sampled_from(axes), empty))
    return st.one_of(edits)


class TestDegenerateConfigs:
    """Degenerate configs fail with config or error lines on stderr and exit 1, never with a traceback."""

    @given(st.data())
    def test_degenerate_config_exits_1_with_error_lines(self, data):
        command = data.draw(st.sampled_from(["experiment", "table", "heatmap"]))
        keys = _sweep_base(command)
        for edit in data.draw(st.lists(_degeneracies(command), min_size=1, max_size=3)):
            keys.update(edit)
        with tempfile.TemporaryDirectory() as tmp:
            for key in ("out_json", "out_csv"):
                if key in keys:
                    keys[key] = os.path.join(tmp, keys[key])
            cfg = os.path.join(tmp, f"{command}.ini")
            with open(cfg, "w") as fh:
                fh.write(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = main([command, "--config", cfg])
            assert sorted(os.listdir(tmp)) == [f"{command}.ini"]  # nothing ran
        lines = err.getvalue().splitlines()
        assert rc == 1
        assert lines and all(line.startswith(("config error:", "error:")) for line in lines), lines

    @pytest.mark.parametrize("command", ["experiment", "table", "heatmap"])
    def test_unparsable_run_size_is_named_with_the_other_errors(self, tmp_path, capsys, command):
        keys = _sweep_base(command) | {"sigma2": "abc", "n_rep": "1.5", "n": "x"}
        for key in ("out_json", "out_csv"):
            if key in keys:
                keys[key] = str(tmp_path / keys[key])
        cfg = tmp_path / f"{command}.ini"
        cfg.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        assert main([command, "--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"config error: {command}.sigma2: cannot parse 'abc'",
                         f"config error: {command}.n_rep: cannot parse '1.5'",
                         f"config error: {command}.n: cannot parse 'x'"]
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"{command}.ini"]


class TestNonFiniteInputs:
    """NaN passes every `<= 0` check, so each non-finite number is a config error named by its key."""

    AXES = {"table": {"c2": "c2_values", "beta_or_m": "beta_or_m_values"},
            "heatmap": {"c2": "row_values", "c1": "col_values"}}

    @pytest.mark.parametrize("command, key, value", [
        ("oracle", "c1", "inf"), ("oracle", "c2", "nan"), ("oracle", "delta1", "inf"),
        ("oracle", "sigma2", "-1"), ("oracle", "sigma2", "0"), ("oracle", "sigma2", "nan"), ("oracle", "sigma2", "inf"),
        ("experiment", "c2", "nan"), ("experiment", "delta1", "inf"), ("experiment", "beta_or_m", "nan"),
        ("experiment", "sigma2", "inf"), ("experiment", "sigma2", "nan"),
        ("table", "c2", "nan"), ("table", "beta_or_m", "inf"), ("table", "sigma2", "nan"),
        ("heatmap", "c2", "nan"), ("heatmap", "c1", "inf"), ("heatmap", "sigma2", "inf"),
    ])
    def test_rejected_before_anything_runs(self, tmp_path, capsys, command, key, value):
        if command == "oracle":
            argv = ["oracle", "--kind", "setting_a", "--n", "8", "--p", "2", "--c1", "1", "--c2", "0.1",
                    "--delta1", "2", f"--{key}", value, "--out", str(tmp_path / "o.json")]
        else:
            keys = _sweep_base(command)
            for out in ("out_json", "out_csv"):
                if out in keys:
                    keys[out] = str(tmp_path / keys[out])
            axis = self.AXES.get(command, {}).get(key)
            if axis:  # a second cell, after a valid one
                keys[axis] += f", {value}"
            else:
                keys[key] = value
            cfg = tmp_path / f"{command}.ini"
            cfg.write_text(f"[{command}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
            argv = [command, "--config", str(cfg)]
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert any(line.startswith("config error:") and key in line for line in lines), lines
        assert sorted(path.name for path in tmp_path.iterdir()) == ([] if command == "oracle" else [f"{command}.ini"])


class TestTemplateParameters:
    """``risk-curve`` and ``verify-bounds`` reject a bad template parameter up front: a config error naming it, no output."""

    @staticmethod
    def argv(tmp_path, command, key, value):
        if command == "risk-curve":
            flags = {"n": "20", "p": "2", "sigma2": "1", "beta": "2", "delta": "2", "c": "1"} | {key: value}
            return [command, *(arg for k, v in flags.items() for arg in (f"--{k}", v)), "--out", str(tmp_path / "c.csv")]
        grid = {"sigma2": ("--sigma2", value), "c": ("--c-values", f"1, {value}"),
                "beta": ("--bd-pairs", f"2:2,{value}:2"), "delta": ("--bd-pairs", f"2:2,2:{value}")}[key]
        return [command, "--n-values", "50", "--p-values", "1,4", *grid, "--out", str(tmp_path / "v.txt")]

    @pytest.mark.parametrize("command, key, value", [
        *((command, key, value) for command in ("risk-curve", "verify-bounds")
          for key in ("sigma2", "beta", "delta", "c") for value in ("nan", "inf")),
        ("risk-curve", "sigma2", "-1"), ("verify-bounds", "sigma2", "0"), ("verify-bounds", "c", "-1"),
        *(("risk-curve", key, value) for key in ("lambda-min", "lambda-max") for value in ("nan", "inf", "-1")),
    ])
    def test_rejected_before_anything_runs(self, tmp_path, capsys, command, key, value):
        assert main(self.argv(tmp_path, command, key, value)) == 1
        captured = capsys.readouterr()
        assert any(line.startswith(f"config error: {key} must be") for line in captured.err.splitlines()), captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []


class TestGridAxes:
    """``verify-bounds`` takes positive integers for n and p and a finite threshold: a config error naming the flag."""

    @pytest.mark.parametrize("flag, value", [
        *(("--n-values", f"50, {value}") for value in ("nan", "inf", "2.5", "0", "-3")),
        *(("--p-values", f"1, {value}") for value in ("nan", "inf", "1.5", "0")),
        *(("--lower-threshold", value) for value in ("nan", "inf", "-inf")),
    ])
    def test_rejected_before_anything_runs(self, tmp_path, capsys, flag, value):
        argv = ["verify-bounds", "--n-values", "50", "--p-values", "1,4", "--c-values", "1", "--bd-pairs", "2:2"]
        assert main([*argv, f"{flag}={value}", "--out", str(tmp_path / "v.txt")]) == 1
        captured = capsys.readouterr()
        assert any(line.startswith(f"config error: {flag}: ") for line in captured.err.splitlines()), captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_integral_floats_are_counts(self, tmp_path):
        argv = ["--c-values", "1", "--bd-pairs", "2:2", "--out", str(tmp_path / "v.txt")]
        assert main(["verify-bounds", "--n-values", "50.0, 2e2", "--p-values", "1, 4.0", *argv]) == 0
        first = (tmp_path / "v.txt").read_bytes()
        assert main(["verify-bounds", "--n-values", "50,200", "--p-values", "1,4", *argv]) == 0
        assert (tmp_path / "v.txt").read_bytes() == first


class TestArithmeticErrors:
    """A zero single-task oracle risk leaves the ratio undefined: exit 1, not a traceback."""

    def test_oracle_with_zero_signal(self, tmp_path, capsys):
        rc = main(["oracle", "--kind", "setting_a", "--n", "20", "--p", "3", "--c1", "0", "--c2", "0",
                   "--delta1", "2", "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "error: single-task oracle risk is zero" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        # the squared signal overflows, quietly: the search reports it instead of returning inf or nan
        (["--kind", "setting_a", "--n", "20", "--p", "3", "--c1", "1e308", "--c2", "0", "--delta1", "2"],
         "risk evaluation is not finite on row 0"),
        (["--kind", "setting_a", "--n", "50", "--p", "3", "--c1", "1e308", "--c2", "1e308", "--delta1", "0.1"],
         "risk evaluation is not finite on row 0"),
        # sqrt(n c2) overflows in the draw: the row build rejects the coefficients
        (["--kind", "setting_d", "--n", "50", "--p", "3", "--c1", "1", "--c2", "1e308", "--delta1", "1",
          "--delta2", "1"], "task coefficients must be finite"),
    ])
    def test_oracle_with_a_non_finite_risk(self, tmp_path, capsys, flags, message):
        # pytest turns a RuntimeWarning into an error, so no numpy warning reaches stderr either
        assert main(["oracle", *flags, "--out", str(tmp_path / "o.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_experiment_with_coefficients_that_are_not_finite(self, tmp_path, capsys):
        cfg = TestExperimentCommand().write_config(tmp_path, kind="setting_d", n="50", p="3", c1="1", c2="1e308",
                                                   delta1="1", delta2="1")
        assert main(["experiment", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: task coefficients must be finite\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_experiment_with_zero_signal(self, tmp_path, capsys):
        cfg = TestExperimentCommand().write_config(tmp_path, c1="0", c2="0")
        assert main(["experiment", "--config", str(cfg), "--jobs", "1"]) == 1
        assert "error: single-task oracle risk is zero" in capsys.readouterr().err


class TestOutOfMemory:
    """A size whose arrays cannot be allocated is an ``error:`` line and exit 1, not a traceback.

    Each command asks numpy for 7 to 15 TiB in one request.  The address space
    is capped at 1 TiB while it runs, so the request fails at once, touching no
    memory, whatever the host's overcommit policy.
    """

    @pytest.fixture(autouse=True)
    def capped_address_space(self):
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        cap = 1 << 40
        resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
        yield
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    @pytest.mark.parametrize("argv", [
        ["verify-bounds", "--n-values", "1e12"],
        ["risk-curve", "--n", "1000000000000", "--beta", "2", "--delta", "2", "--c", "1"],
        ["oracle", "--kind", "setting_a", "--n", "1000000000000", "--p", "2", "--c1", "1", "--c2", "0.5",
         "--delta1", "2"],
    ], ids=["verify-bounds", "risk-curve", "oracle"])
    def test_reported_as_an_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not (tmp_path / "out").exists()


class TestStartUp:
    """The package runs on numpy alone: no command loads a scipy module, alpha's verify-bounds included, and a
    default verify-bounds loads no numpy.random either."""

    @staticmethod
    def fresh_python(code: str) -> str:
        src = os.path.dirname(os.path.dirname(os.path.abspath(mtkrr.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_import_leaves_scipy_unloaded(self):
        out = self.fresh_python("import sys, mtkrr, mtkrr.cli\n"
                                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out == "[]"

    def test_setting_b_commands_leave_scipy_unloaded(self, tmp_path):
        # the spline kernel's zeta values come from Bernoulli numbers, not from scipy's zeta
        config = tmp_path / "table.ini"
        config.write_text(f"[table]\nkind = setting_b\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
                          f"beta_or_m_values = 1, 3\nc2_values = 0.25\nsigma2 = 1.0\nn_rep = 2\nseed = 5\n"
                          f"out_csv = {tmp_path / 'table.csv'}\n")
        out = self.fresh_python(
            "import sys\nfrom mtkrr.cli import main\n"
            "rc = main(['oracle', '--kind', 'setting_b', '--n', '12', '--p', '3', '--c1', '1', '--c2', '0.5',\n"
            f"           '--delta1', '2', '--beta-or-m', '2', '--out', {str(tmp_path / 'oracle.json')!r}])\n"
            f"rc += main(['table', '--config', {str(config)!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert out.splitlines()[-1] == "0 []"
        assert (tmp_path / "oracle.json").exists() and (tmp_path / "table.csv").exists()

    def test_default_verify_bounds_leaves_scipy_unloaded(self, tmp_path):
        # alpha's unit-interval fractions are riskfn's closed form, not scipy's betainc, and the envelope's
        # fixed sample is a literal table, not draws from numpy.random
        out = self.fresh_python(
            "import sys\nfrom mtkrr.cli import main\n"
            f"rc = main(['verify-bounds', '--out', {str(tmp_path / 'bounds.txt')!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
        assert out.splitlines()[-1] == "0 []"
        assert (tmp_path / "bounds.txt").read_text().splitlines() == DEFAULT_BOUNDS_OUTPUT
