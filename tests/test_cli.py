import csv
import json
import math

import numpy as np
import pytest

from mtkrr.cli import main
from mtkrr.experiments import emit_heatmap_csv, emit_table, run_experiment
from mtkrr.scenarios import ScenarioKind, ScenarioSpec


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

    def test_missing_delta2_is_reported(self, tmp_path, capsys):
        rc = main(["oracle", "--kind", "setting_c", "--n", "10", "--p", "2", "--c1", "1",
                   "--c2", "1", "--delta1", "2", "--out", str(tmp_path / "x.json")])
        assert rc == 1
        assert "delta2" in capsys.readouterr().err


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
        emit_heatmap_csv(grid, "delta2", [1.5, 2.5], "c2", [0.1, 0.5, 1.0], str(expected))
        assert out.read_bytes() == expected.read_bytes()


class TestSweepConfigErrors:
    def test_all_table_errors_are_listed(self, tmp_path, capsys):
        cfg = tmp_path / "table.ini"
        cfg.write_text("[table]\nkind = setting_a\nn = 12\np = 3\nc1 = 1.0\ndelta1 = 2.0\n"
                       "beta_or_m_values = 2\nsigma2 = -1\n")
        assert main(["table", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        for key in ("table.c2_values", "table.sigma2", "table.n_rep", "table.out_csv"):
            assert key in err

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

    def test_bad_seed_and_kind_are_named_by_the_section(self, tmp_path, capsys):
        rc, err, out = self.run_table(tmp_path, capsys, kind="setting_z", seed="s")
        assert rc == 1
        assert "table.kind: cannot parse 'setting_z'" in err and "table.seed: cannot parse 's'" in err
        assert not out.exists()

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


class TestArithmeticErrors:
    """A zero single-task oracle risk leaves the ratio undefined: exit 1, not a traceback."""

    def test_oracle_with_zero_signal(self, tmp_path, capsys):
        rc = main(["oracle", "--kind", "setting_a", "--n", "20", "--p", "3", "--c1", "0", "--c2", "0",
                   "--delta1", "2", "--out", str(tmp_path / "o.json")])
        assert rc == 1
        assert "error: single-task oracle risk is zero" in capsys.readouterr().err

    def test_experiment_with_zero_signal(self, tmp_path, capsys):
        cfg = TestExperimentCommand().write_config(tmp_path, c1="0", c2="0")
        assert main(["experiment", "--config", str(cfg), "--jobs", "1"]) == 1
        assert "error: single-task oracle risk is zero" in capsys.readouterr().err
