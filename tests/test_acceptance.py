"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` for the live report).

Only criterion 7 is intentionally left failing rather than loosened: the
periodic-spline comparison does not land at the reference mean 0.570 under
the model as written, and without the full paper nothing in the repository
settles whether the model or the reference value is wrong.  Its docstring
carries the analysis.
"""

import math
import time

import numpy as np
import pytest
from conftest import mean_part_profile, oracle_multitask, quad_kappa, random_psd, value_grid, variance_part_profile

from mtkrr.oracles import rho_formula_1out, rho_formula_2points
from mtkrr.riskfn import (
    alpha_constant,
    integral_i1,
    integral_i2,
    kappa,
)
from mtkrr.scenarios import ScenarioKind, ScenarioSpec, build_ensemble
from reference import (
    RegularizerAV,
    RiskParams,
    df_and_bias,
    eigendecompose_kernel,
    mean_variance_profile,
    minimize_risk,
    project_tasks,
    risk_direct,
    risk_spectral,
    run_experiment,
    synth_spectrum,
)

FRESH_SEED = 20260810


def _criterion(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_spectral_matrix_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(FRESH_SEED)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        p = int(rng.integers(1, 5))
        spectrum = eigendecompose_kernel(random_psd(rng, n, scale=float(rng.uniform(0.5, 3.0))))
        tasks = project_tasks(spectrum, rng.standard_normal((n, p)) * 2)
        lam = float(10 ** rng.uniform(-4, 1))
        mu = float(10 ** rng.uniform(-4, 1))
        sigma2 = float(rng.uniform(0.5, 2.0))
        direct = risk_direct(spectrum, tasks, RegularizerAV(p=p, lam=lam, mu=mu), sigma2)
        spectral = risk_spectral(spectrum, mean_variance_profile(tasks), lam, mu, sigma2, p)
        worst = max(worst, abs(direct.total - spectral.total) / spectral.total)
    elapsed = time.perf_counter() - started
    _criterion(1, worst < 1e-9 and elapsed < 10.0,
               f"worst relative gap {worst:.2e} over 200 instances in {elapsed:.2f}s")


def test_criterion_02_integral_oracles():
    checks = []
    for beta in (0.75, 1.0, 1.5, 2.0, 4.0):
        a = 1 / (2 * beta)
        closed = (1 - a) * math.pi / math.sin(math.pi * a)
        checks.append(abs(integral_i2(beta) - closed) <= 1e-6 * closed)
        checks.append(abs(integral_i1(beta, 0.0) - integral_i2(beta)) <= 1e-10 * integral_i2(beta))
    kq = kappa(2, 2)
    kc = quad_kappa(2, 2)
    checks.append(abs(kq - kc) <= 1e-6 * kc)
    checks.append(abs(kq - 1.111) < 1.5e-3)
    _criterion(2, all(checks), f"I2 vs reflection formula on 5 betas; kappa(2,2) = {kq:.6f} both routes")


def test_criterion_03_bound_suite():
    started = time.perf_counter()
    violations = []
    cells = 0
    for beta, delta in ((2.0, 2.0), (4.0, 2.0), (2.0, 1.5)):
        for n in (50, 200, 800):
            for p in (1, 2, 5, 10):
                for c in (0.5, 1.0, 2.0):
                    cells += 1
                    params = RiskParams(n=n, p=p, sigma2=1.0, beta=beta, delta=delta, c=c)
                    report = minimize_risk(params)
                    if not report.r_star <= report.upper * (1 + 1e-8):
                        violations.append(f"upper n={n} p={p} c={c} b={beta} d={delta}")
                    if math.isfinite(report.epsilon_cap) and not (
                        report.lambda_star <= report.epsilon_cap or math.isinf(report.lambda_star)
                    ):
                        violations.append(f"cap n={n} p={p} c={c} b={beta} d={delta}")
                    if n * p >= 200 and not report.r_star >= report.lower:
                        violations.append(f"lower n={n} p={p} c={c} b={beta} d={delta}")
    elapsed = time.perf_counter() - started
    _criterion(3, not violations and elapsed < 60.0,
               f"{cells} cells checked in {elapsed:.1f}s; violations: {violations or 'none'}")


def test_criterion_04_alpha_constant():
    alpha = alpha_constant(2.0, 2.0)
    from scipy.integrate import quad

    def refined(a):
        f = lambda v: v ** (a - 1) * (1 - v) ** (1 - a)
        return quad(f, 0, 0.5, epsabs=0, epsrel=1e-13, limit=500)[0] / quad(
            f, 0, 1, epsabs=0, epsrel=1e-13, limit=500
        )[0]

    stable = abs(alpha - min(refined(0.25), refined(1.25))) < 1e-6
    _criterion(4, alpha > 0.33 and stable, f"alpha(2,2) = {alpha:.8f} > 0.33, refinement-stable to 1e-6")


def test_criterion_05_rate_scaling():
    k = kappa(2.0, 2.0)
    lo, hi = 0.33 * k, 2**0.25 * k
    values = {}
    ok = True
    for n in (50, 100, 200, 400):
        scaled = minimize_risk(RiskParams(n=n, p=1, sigma2=1.0, beta=2, delta=2, c=1.0)).r_star * n**0.75
        values[n] = scaled
        ok &= lo <= scaled <= hi
    _criterion(5, ok, f"R*(n) n^(3/4) in [{lo:.4f}, {hi:.4f}]: " + ", ".join(f"n={n}: {v:.4f}" for n, v in values.items()))


def test_criterion_06_table_one_reproduction():
    started = time.perf_counter()
    rows = (
        (0.01, 2.0, 0.434, 0.05, True),
        (0.1, 2.0, 0.672, 0.08, True),
        (1.0, 2.0, 1.01, 0.15, False),
        (100.0, 2.0, 0.997, 0.02, False),
    )
    failures = []
    details = []
    for idx, (c2, beta, target, band, want_unanimous) in enumerate(rows):
        spec = ScenarioSpec(kind=ScenarioKind.SETTING_A, n=50, p=5, c1=1.0, c2=c2,
                            delta1=2.0, beta_or_m=beta, seed=FRESH_SEED + idx)
        report = run_experiment(spec, sigma2=1.0, n_rep=100)
        details.append(f"C2={c2:g}: mean={report.mean_ratio:.4f} (target {target}+-{band}) bbar={report.b_bar:.2f}")
        if abs(report.mean_ratio - target) > band:
            failures.append(f"C2={c2:g} mean {report.mean_ratio:.4f} outside {target}+-{band}")
        if want_unanimous and report.b_bar != 1.0:
            failures.append(f"C2={c2:g} b_bar {report.b_bar} != 1")
    elapsed = time.perf_counter() - started
    _criterion(6, not failures and elapsed < 300.0,
               f"{'; '.join(details)} in {elapsed:.1f}s" + (f"; failures: {failures}" if failures else ""))


def test_criterion_07_table_two_spot_check():
    """Expected to fail: the reference mean 0.570 is not reproducible.

    The pipeline here is exactly the documented one (uniform inputs, spline
    kernel by closed form, eigendecomposition, projection, exact oracles).
    It measures ~0.277 +- 0.013: the per-point sign field is scrambled by the
    eigenbasis rotation into a flat spectral dispersion profile, which the
    dispersion penalty shrinks almost for free, so the ratio lands near the
    idealized p^(1/2 delta - 1) = 0.299 instead of 0.570.  The same oracle
    machinery reproduces all four single-cluster reference rows (criterion 6),
    so the gap is in the reference value's provenance, not in the oracles.

    Measured evidence, rerunnable.  This test's spec as an ``mtkrr
    experiment --config c7.ini`` file::

        [experiment]
        kind = setting_b
        n = 50
        p = 5
        c1 = 1.0
        c2 = 0.01
        delta1 = 2.0
        beta_or_m = 2
        seed = 20260810
        sigma2 = 1.0
        n_rep = 100
        out_json = c7.json

    The three noise variants are the same file with only the ``sigma2``
    line changed.  Mean ratio, 95% CI half-width and b_bar of each:

        sigma2 = 1.0   (this test)   0.2765 +- 0.0028   b_bar 1.0
        sigma2 = 0.01                1.0087 +- 0.0030   b_bar 0.2
        sigma2 = 0.1                 0.5425 +- 0.0082   b_bar 1.0
        sigma2 = 10                  0.4326 +- 0.0114   b_bar 1.0

    The ratio depends on the signal-to-noise ratio, and not monotonically;
    sigma2 = 0.1 lands inside 0.570 +- 0.07.  But setting A reproduces
    criterion 6 at sigma2 = 1, so a different noise level for setting B
    alone would need the paper's text.  The settings may be defined in the
    companion paper: Solnon, Arlot and Bach, "Multi-task regression using
    minimal penalties", JMLR 13 (2012).

    Measurements on throwaway copies, not rerunnable from a config: each
    edits the setting-B generator in a copy of the repository (100
    replicates, n=50, p=5, m=2, C2=0.01, sigma2=1; the seed was not
    recorded, and the unedited model gave 0.2775 +- 0.0015 there):

    - one sign per task instead of one per point: 0.2777;
    - Gaussian per-task amplitudes instead of signs: 0.2780;
    - signs applied after the projection: 0.2768;
    - inputs on [0, 1] with f = x, which is not periodic: 0.3967.

    So the sign model is not the cause of the gap.
    """
    started = time.perf_counter()
    spec = ScenarioSpec(kind=ScenarioKind.SETTING_B, n=50, p=5, c1=1.0, c2=0.01,
                        delta1=2.0, beta_or_m=2.0, seed=FRESH_SEED)
    report = run_experiment(spec, sigma2=1.0, n_rep=100)
    elapsed = time.perf_counter() - started
    _criterion(7, abs(report.mean_ratio - 0.570) <= 0.07 and elapsed < 300.0,
               f"setting B m=2 C2=0.01 mean={report.mean_ratio:.4f} vs 0.570+-0.07 in {elapsed:.1f}s")


def test_criterion_08_ratio_formula_anchors():
    """Anchors of the two closed-form ratio formulas.

    (a) two clusters at r = 0: every task is the same, so the ratio is
        4^(1/(2 delta) - 1) at p = 4, the outlier anchor of (b);
    (b) one outlier at r = 0: p^(1/(2 delta) - 1);
    (c) at p = 2 the two-cluster and one-outlier configurations build the
        same tasks for every r, so the two formulas agree there;
    (d) the outlier formula diverges past 1 for rough outliers.

    The two-cluster formula is a rate proxy, not a bound: near r = 1 one
    cluster vanishes and the ratio exceeds 1.  At delta = 2 it peaks at
    1.68 (p=2), 1.64 (p=4) and 1.56 (p=10); the exact oracles give 1.666
    at p = 2, r = 1 (n = 2000).
    """
    failures = []
    if rho_formula_2points(4, 2.0, 0.0) != 4 ** (1 / (2 * 2.0) - 1):
        failures.append("two-cluster r=0 anchor")
    for p in (2, 4, 5, 10):
        if rho_formula_1out(p, 2.0, 0.0) != p ** (1 / (2 * 2.0) - 1):
            failures.append(f"outlier r=0 anchor p={p}")
    if not rho_formula_1out(50, 2.0, 1e6) > 1.0:
        failures.append("outlier divergence at r=1e6")
    r_grid = [0.0] + [float(r) for r in np.geomspace(1e-6, 1e6, 25)]
    mismatches = [
        (delta, r)
        for delta in (1.5, 2.0, 3.0)
        for r in r_grid
        if rho_formula_2points(2, delta, r) != pytest.approx(rho_formula_1out(2, delta, r), rel=1e-12)
    ]
    if mismatches:
        failures.append(f"two-cluster and outlier formulas differ at p=2 at {len(mismatches)} grid points")
    _criterion(8, not failures, "; ".join(failures) if failures else "all four anchor families hold")


def test_criterion_09_oracle_vs_grid():
    rng = np.random.default_rng(FRESH_SEED)
    worst = -math.inf
    for trial in range(20):
        n = 50
        p = int(rng.choice([2, 4, 6]))
        kind = ScenarioKind.H2POINTS if trial % 2 == 0 else ScenarioKind.H1OUT
        spec = ScenarioSpec(kind=kind, n=n, p=p, c1=float(10 ** rng.uniform(-1, 1)),
                            c2=float(10 ** rng.uniform(-2, 2)), delta1=float(rng.uniform(1.1, 2.5)),
                            beta_or_m=float(rng.uniform(1.0, 3.0)))
        spectrum = synth_spectrum(n, spec.beta_or_m)
        tasks = build_ensemble(spec)[1]
        mt = oracle_multitask(spectrum, tasks, 1.0)
        grid = np.geomspace(1e-9, 1e3, 200)
        g1 = value_grid(mean_part_profile(spectrum, tasks, 1.0), grid)
        g2 = value_grid(variance_part_profile(spectrum, tasks, 1.0), grid)
        grid_min = float((g1[:, None] + g2[None, :]).min())
        worst = max(worst, (mt.risk - grid_min) / grid_min)
    _criterion(9, worst <= 1e-7, f"worst (optimizer - grid)/grid = {worst:.2e} over 20 instances")


def test_criterion_10_low_df_low_bias_feasibility():
    witnesses = {}
    ok = True
    for n in (100, 400):
        spectrum = synth_spectrum(n, 2.0)
        i = np.arange(1, n + 1, dtype=float)
        h = np.sqrt(n) * i**-2.0
        witness = None
        for lam in np.geomspace(1e-8, 1.0, 400):
            df, b = df_and_bias(spectrum, h, float(lam))
            if df <= math.sqrt(n) and b <= math.sqrt(math.log(n) / n):
                witness = (float(lam), df, b)
                break
        witnesses[n] = witness
        ok &= witness is not None
    detail = "; ".join(
        f"n={n}: lam={w[0]:.3e} df={w[1]:.2f}<= {math.sqrt(n):.1f} b={w[2]:.2e}" if w else f"n={n}: none"
        for n, w in witnesses.items()
    )
    _criterion(10, ok, detail)


def test_criterion_11_deterministic_outputs(tmp_path):
    from mtkrr.cli import main

    cfg = tmp_path / "exp.ini"
    cfg.write_text(
        "[experiment]\n"
        "kind = setting_a\nn = 30\np = 4\nc1 = 1.0\nc2 = 0.5\ndelta1 = 2.0\n"
        f"beta_or_m = 2.0\nseed = {FRESH_SEED}\nsigma2 = 1.0\nn_rep = 20\n"
        f"out_json = {tmp_path / 'report.json'}\nout_csv = {tmp_path / 'ratios.csv'}\n"
    )
    assert main(["experiment", "--config", str(cfg), "--jobs", "1"]) == 0
    first = ((tmp_path / "report.json").read_bytes(), (tmp_path / "ratios.csv").read_bytes())
    assert main(["experiment", "--config", str(cfg), "--jobs", "2"]) == 0
    second = ((tmp_path / "report.json").read_bytes(), (tmp_path / "ratios.csv").read_bytes())
    _criterion(11, first == second and len(first[0]) > 0,
               "JSON and CSV byte-identical across reruns (including a parallel rerun)")
