"""Command-line front end.

Subcommands wrap the library modules one-to-one: ``risk-curve`` and
``oracle`` take flags, ``experiment``, ``table`` and ``heatmap`` read an INI
config file (flat key = value pairs inside a section named after the
subcommand), and ``verify-bounds`` runs the theoretical-bound test suite.
All data outputs go to files; stdout carries logs and the verify-bounds
pass/fail lines only.  Exit codes: 0 success, 1 error, 2 bound violation.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import itertools
import json
import math
import sys

import numpy as np

from . import experiments, optimize, oracles, riskfn, scenarios
from .render import svg_heatmap

JOBS_HELP = "accepted for compatibility; every command runs as one stacked search in one process"
_SCENARIO_KEYS = ("kind", "n", "p", "c1", "c2", "delta1", "delta2", "beta_or_m", "seed")


class ConfigError(Exception):
    """Carries every offending config key so they can all be reported at once."""

    def __init__(self, messages: list[str]):
        super().__init__("; ".join(messages))
        self.messages = messages


def _scenario_fields(get, keys, errors: list[str], prefix: str) -> dict:
    """Cast each of ``keys`` read through ``get``; one error per missing or unparsable key."""
    raw: dict = {}
    casts = {"kind": scenarios.ScenarioKind, "n": int, "p": int, "c1": float, "c2": float,
             "delta1": float, "delta2": float, "beta_or_m": float, "seed": int}
    for key in keys:
        value = get(key)
        if value is None:
            if key not in ("delta2", "beta_or_m", "seed"):  # defaulted by ScenarioSpec
                errors.append(f"{prefix}{key}: missing")
            continue
        try:
            raw[key] = casts[key](value)
        except (TypeError, ValueError):
            errors.append(f"{prefix}{key}: cannot parse {value!r}")
    return raw


def _build_spec(raw: dict, errors: list[str], prefix: str) -> scenarios.ScenarioSpec | None:
    try:
        return scenarios.ScenarioSpec(**raw)
    except ValueError as exc:
        errors.append(f"{prefix}scenario: {exc}")
        return None


def _parse_scenario(get, errors: list[str], prefix: str = "") -> scenarios.ScenarioSpec | None:
    raw = _scenario_fields(get, _SCENARIO_KEYS, errors, prefix)
    return None if errors else _build_spec(raw, errors, prefix)


def _float_list(text: str, key: str, errors: list[str]) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]
    except ValueError:
        errors.append(f"{key}: cannot parse list {text!r}")
        return []


def _load_section(path: str, section: str) -> configparser.SectionProxy:
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError([f"cannot read config file {path!r}"])
    if section not in parser:
        raise ConfigError([f"config file {path!r} has no [{section}] section"])
    return parser[section]


def _fail_on(errors: list[str]) -> None:
    if errors:
        raise ConfigError(errors)


def _run_size(section: configparser.SectionProxy, name: str, errors: list[str]) -> tuple[float, int]:
    """The noise variance and replicate count every config-driven command needs."""
    sigma2 = section.getfloat("sigma2", fallback=None)
    if sigma2 is None or not 0 < sigma2 < math.inf:
        errors.append(f"{name}.sigma2: missing, not positive or not finite")
    n_rep = section.getint("n_rep", fallback=None)
    if n_rep is None or n_rep < 1:
        errors.append(f"{name}.n_rep: missing or not positive")
    return sigma2, n_rep


def _sweep(
    section: configparser.SectionProxy,
    name: str,
    cells: list[tuple[str, tuple[int, ...], dict[str, float]]],
    errors: list[str],
) -> tuple[list[experiments.ExperimentReport], str]:
    """Run one experiment per (label, path, overrides) cell, in order; return the reports and out_csv.

    Each cell is the section's scenario keys with ``overrides`` applied and
    the seed ``derive_seed(seed, *path)``.  The caller's ``errors``, the
    section's own key errors (a scenario key no cell overrides is checked
    once, as ``{name}.{key}``) and every cell's errors are reported
    together, before any cell runs.
    """
    sigma2, n_rep = _run_size(section, name, errors)
    out_csv = section.get("out_csv", fallback=None)
    if out_csv is None:
        errors.append(f"{name}.out_csv: missing")
    overridden = {key for _, _, overrides in cells for key in overrides}
    # without cells (an empty axis, already reported) only the keys present can be checked
    shared_keys = [k for k in _SCENARIO_KEYS if k not in overridden and (cells or k in section)]
    shared_errors: list[str] = []
    shared = _scenario_fields(section.get, shared_keys, shared_errors, f"{name}.")
    seed = shared.get("seed", 0)
    if not 0 <= seed < 2**64:
        shared_errors.append(f"{name}.seed: must fit in 64 unsigned bits")
    errors += shared_errors
    specs = []
    cell_errors: list[str] = []
    if not shared_errors:  # otherwise every cell would repeat them
        for label, path, overrides in cells:
            raw = {**shared, **overrides, "seed": scenarios.derive_seed(seed, *path)}
            specs.append(_build_spec(raw, cell_errors, f"{label.replace(' ', '')}."))
    # an error every cell makes is the section's, reported once
    messages = {message.split(".", 1)[1] for message in cell_errors}
    if len(cell_errors) == len(cells) and len(messages) == 1:
        errors.append(f"{name}.{messages.pop()}")
    else:
        errors += [f"{name}.{message}" for message in cell_errors]
    _fail_on(errors)

    reports, search = experiments.run_experiments(specs, sigma2, n_rep)
    print(_run_summary(search), file=sys.stderr)
    return reports, out_csv


def _run_summary(search: list[optimize.ProfileMinimum]) -> str:
    """One line on how a run's searches ended: winners by source, max_iter hits, Newton evaluations."""
    sources = [best.source for best in search]
    newton = sorted(best.iterations for best in search if best.source == "newton")
    winners = ", ".join(f"{source} {sources.count(source)}" for source in optimize.SOURCES)
    hits = sum(count >= optimize.DEFAULT_MAX_ITER for count in newton)
    evaluations = f"median {np.median(newton):g}, max {newton[-1]}" if newton else "none"
    return f"searches {len(search)}: {winners}; max_iter hits {hits}; newton evaluations {evaluations}"


# ---------------------------------------------------------------------------
# subcommands


def cmd_risk_curve(args) -> int:
    params = riskfn.RiskParams(n=args.n, p=args.p, sigma2=args.sigma2,
                               beta=args.beta, delta=args.delta, c=args.c)
    profile = riskfn.template_profile(params)
    # a bound not given is that end of the oracle's search bracket, so the grid reaches the minimum
    t_lo, t_hi = optimize.spectrum_bracket(profile.n, profile.gamma)
    lam_min = math.exp(t_lo[0]) if args.lambda_min is None else args.lambda_min
    lam_max = math.exp(t_hi[0]) if args.lambda_max is None else args.lambda_max
    lams = [0.0] + [float(v) for v in np.geomspace(lam_min, lam_max, args.points)]
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["lambda", "risk", "bias", "variance"])
        for lam in lams:
            bias, var = profile.parts(lam)
            writer.writerow([repr(lam), repr(bias + var), repr(bias), repr(var)])
    print(f"wrote {len(lams)} rows to {args.out}")
    return 0


def _search_record(best) -> dict:
    """How one oracle search ended: winning candidate, Newton evaluations, final |lam g'| / g."""
    stationarity = best.stationarity
    return {"source": best.source, "iterations": best.iterations,
            "stationarity": None if math.isnan(stationarity) else stationarity}


def cmd_oracle(args) -> int:
    errors: list[str] = []
    spec = _parse_scenario(lambda k: getattr(args, k, None), errors)
    if not 0 < args.sigma2 < math.inf:
        errors.append("sigma2: not positive or not finite")
    _fail_on(errors)
    spectrum, tasks = scenarios.build_ensemble(spec)
    result = oracles.compare_oracles(spectrum, tasks, args.sigma2)
    payload = {
        "spec": spec.to_dict(),
        "sigma2": args.sigma2,
        "mt_risk": result.mt_risk,
        "st_risk": result.st_risk,
        "lambda_star": result.lambda_star,
        "mu_star": result.mu_star,
        "st_lambdas": list(result.st_lambdas),
        "rho": result.rho,
        "per_task_risks": list(result.diagnostics),
        "search": {
            "mean": _search_record(result.search[0]),
            "variance": _search_record(result.search[1]),
            "tasks": [_search_record(best) for best in result.search[2:]],
        },
    }
    formula = {scenarios.ScenarioKind.H2POINTS: oracles.rho_formula_2points,
               scenarios.ScenarioKind.H1OUT: oracles.rho_formula_1out}.get(spec.kind)
    if formula is not None and spec.c1 > 0:
        payload["rho_formula"] = formula(spec.p, spec.delta1, spec.c2 / spec.c1)
    with open(args.out, "w", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"rho = {result.rho!r} -> {args.out}")
    return 0


def cmd_experiment(args) -> int:
    section = _load_section(args.config, "experiment")
    errors: list[str] = []
    spec = _parse_scenario(section.get, errors, prefix="experiment.")
    sigma2, n_rep = _run_size(section, "experiment", errors)
    pi2_scale = section.get("pi2_scale", fallback="N")
    if pi2_scale not in ("N", "n"):
        errors.append(f"experiment.pi2_scale: must be 'N' or 'n', got {pi2_scale!r}")
    out_json = section.get("out_json", fallback=None)
    if out_json is None:
        errors.append("experiment.out_json: missing")
    _fail_on(errors)

    [report], search = experiments.run_experiments([spec], sigma2, n_rep, pi2_scale)
    print(_run_summary(search), file=sys.stderr)
    experiments.write_report_json(report, out_json)
    out_csv = section.get("out_csv", fallback=None)
    if out_csv:
        with open(out_csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["replicate", "ratio"])
            for i, r in enumerate(report.ratios):
                writer.writerow([i, repr(r)])
    print(f"mean ratio {report.mean_ratio!r} over {n_rep} replicates -> {out_json}")
    return 0


def cmd_table(args) -> int:
    section = _load_section(args.config, "table")
    errors: list[str] = []
    c2_values = _float_list(section.get("c2_values", ""), "table.c2_values", errors)
    bm_values = _float_list(section.get("beta_or_m_values", section.get("beta_or_m", "")), "table.beta_or_m_values", errors)
    if not c2_values:
        errors.append("table.c2_values: missing or empty")
    if not bm_values:
        errors.append("table.beta_or_m_values: missing or empty")
    pairs = [(bm, c2) for bm in bm_values for c2 in c2_values]
    cells = [(f"row {k}", (k,), {"c2": c2, "beta_or_m": bm}) for k, (bm, c2) in enumerate(pairs)]
    reports, out_csv = _sweep(section, "table", cells, errors)
    experiments.emit_table(reports, out_csv)
    print(f"wrote {len(reports)} rows to {out_csv}")
    return 0


def cmd_heatmap(args) -> int:
    section = _load_section(args.config, "heatmap")
    errors: list[str] = []
    row_param = section.get("row_param", fallback=None)
    col_param = section.get("col_param", fallback=None)
    allowed = {"c2", "delta2", "beta_or_m", "c1"}
    if row_param not in allowed:
        errors.append(f"heatmap.row_param: must be one of {sorted(allowed)}")
    if col_param not in allowed or col_param == row_param:
        errors.append(f"heatmap.col_param: must differ from row_param and be one of {sorted(allowed)}")
    row_values = _float_list(section.get("row_values", ""), "heatmap.row_values", errors)
    col_values = _float_list(section.get("col_values", ""), "heatmap.col_values", errors)
    if not row_values or not col_values:
        errors.append("heatmap.row_values / col_values: must be nonempty lists")
    out_svg = section.get("out_svg", fallback=None)
    # cells of a broken axis would only repeat its error
    cells = [] if errors else [(f"cell ({i},{j})", (i, j), {row_param: rv, col_param: cv})
                               for i, rv in enumerate(row_values) for j, cv in enumerate(col_values)]
    reports, out_csv = _sweep(section, "heatmap", cells, errors)

    width = len(col_values)
    grid = [reports[i * width:(i + 1) * width] for i in range(len(row_values))]
    experiments.emit_heatmap_csv(grid, row_param, row_values, col_param, col_values, out_csv)
    if out_svg:
        values = [[rep.mean_ratio for rep in row] for row in grid]
        halves = [[(rep.ci95[1] - rep.ci95[0]) / 2.0 for rep in row] for row in grid]
        kind = section.get("kind", "scenario")
        svg_heatmap(values, halves, row_param, row_values, col_param, col_values,
                    f"mean oracle-risk ratio, {kind}", out_svg)
    print(f"wrote {len(row_values)}x{len(col_values)} grid to {out_csv}")
    return 0


def _check(name: str, ok: bool, detail: str, lines: list[str]) -> bool:
    status = "PASS" if ok else "FAIL"
    lines.append(f"{status} {name}: {detail}")
    return ok


def cmd_verify_bounds(args) -> int:
    errors: list[str] = []
    n_values = [int(v) for v in _float_list(args.n_values, "--n-values", errors)]
    p_values = [int(v) for v in _float_list(args.p_values, "--p-values", errors)]
    c_values = _float_list(args.c_values, "--c-values", errors)
    bd_pairs = []
    for tok in args.bd_pairs.split(","):
        try:
            b, d = tok.split(":")
            bd_pairs.append((float(b), float(d)))
        except ValueError:
            errors.append(f"--bd-pairs: cannot parse {tok!r} (expected beta:delta)")
    if not (n_values and p_values and c_values and bd_pairs):
        errors.append("verify-bounds: every grid axis needs at least one value")
    _fail_on(errors)
    sigma2 = args.sigma2

    lines: list[str] = []
    all_ok = True

    # Property 1/2/3: optimized risk against its envelope, cell by cell
    worst_upper = -math.inf
    worst_lower = math.inf
    cap_violations = 0
    lower_checked = 0
    for beta, delta in bd_pairs:
        for n in n_values:
            for p in p_values:
                for c in c_values:
                    params = riskfn.RiskParams(n=n, p=p, sigma2=sigma2, beta=beta, delta=delta, c=c)
                    report = riskfn.minimize_risk(params)
                    if params.satisfies_hm and report.upper > 0:
                        worst_upper = max(worst_upper, (report.r_star - report.upper) / report.upper)
                    if math.isfinite(report.epsilon_cap) and report.lambda_star > report.epsilon_cap * (1 + 1e-9):
                        cap_violations += 1
                    if params.satisfies_lb and n * p / sigma2 >= args.lower_threshold:
                        lower_checked += 1
                        if report.lower > 0:
                            worst_lower = min(worst_lower, (report.r_star - report.lower) / report.lower)
    all_ok &= _check("property-1 upper bound", worst_upper <= 1e-8,
                     f"worst relative excess {worst_upper:.3e}", lines)
    all_ok &= _check("property-2 localization", cap_violations == 0,
                     f"{cap_violations} optimizer(s) above the cap", lines)
    all_ok &= _check("property-3 lower bound", worst_lower >= 0,
                     f"worst relative margin {worst_lower:.3e} over {lower_checked} cells", lines)

    # Property 4: a single regime flip along a p-sweep at fixed n
    labels = []
    for p in np.geomspace(1, 1e7, 13):
        labels.append(riskfn.minimize_risk(
            riskfn.RiskParams(n=50, p=int(round(p)), sigma2=sigma2, beta=2, delta=2, c=1.0)).regime)
    dedup = [lab for lab, _ in itertools.groupby(lab for lab in labels if lab is not riskfn.Regime.UNDETERMINED)]
    all_ok &= _check("property-4 regime flip", dedup == [riskfn.Regime.REGULARIZE, riskfn.Regime.TRIVIAL_NOISE],
                     f"sweep labels {[lab.value for lab in labels]}", lines)

    # sum-vs-integral envelopes for the two partial sums
    rng = np.random.default_rng(20240811)
    s1_ok = s2_ok = True
    for _ in range(40):
        beta = float(rng.uniform(0.8, 4.0))
        delta = float(rng.uniform(0.6, min(2 * beta - 0.05, 3.0)))
        n = int(rng.integers(5, 400))
        lam = float(10 ** rng.uniform(-8, 2))
        i2 = riskfn.integral_i2(beta)
        i1 = riskfn.integral_i1(beta, delta)
        # the template sums at C = sigma2 = p = 1: bias = lam^2 S1, variance = S2 / n
        bias, var = riskfn.template_profile(riskfn.RiskParams(n, 1, 1.0, beta, delta, 1.0)).parts(lam)
        s2_ok &= n * var <= lam ** (-1 / (2 * beta)) / (2 * beta) * i2 * (1 + 1e-12)
        s1_ok &= bias / lam**2 <= lam ** ((2 * delta - 1) / (2 * beta)) / (beta * lam**2) * i1 * (1 + 1e-12)
    all_ok &= _check("s2 integral envelope", s2_ok, "40 random (n, lam, beta) draws", lines)
    all_ok &= _check("s1 integral envelope", s1_ok, "40 random (n, lam, beta, delta) draws", lines)

    alpha = riskfn.alpha_constant(2.0, 2.0)
    all_ok &= _check("alpha constant", alpha > 0.33, f"alpha(2,2) = {alpha!r}", lines)

    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    return 0 if all_ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtkrr",
        description="Exact oracle risks for multi-task kernel ridge regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("risk-curve", help="tabulate the template risk over a lambda grid")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--p", type=int, default=1)
    pc.add_argument("--sigma2", type=float, default=1.0)
    pc.add_argument("--beta", type=float, required=True)
    pc.add_argument("--delta", type=float, required=True)
    pc.add_argument("--c", type=float, required=True)
    pc.add_argument("--lambda-min", type=float, default=None, help="default: low end of the search bracket")
    pc.add_argument("--lambda-max", type=float, default=None, help="default: high end of the search bracket")
    pc.add_argument("--points", type=int, default=200)
    pc.add_argument("--out", required=True)
    pc.set_defaults(func=cmd_risk_curve)

    po = sub.add_parser("oracle", help="multi-task vs single-task oracle on one scenario")
    po.add_argument("--kind", required=True, choices=[k.value for k in scenarios.ScenarioKind])
    po.add_argument("--n", type=int, required=True)
    po.add_argument("--p", type=int, required=True)
    po.add_argument("--c1", type=float, required=True)
    po.add_argument("--c2", type=float, required=True)
    po.add_argument("--delta1", type=float, required=True)
    po.add_argument("--delta2", type=float, default=None)
    po.add_argument("--beta-or-m", type=float, default=2.0, dest="beta_or_m")
    po.add_argument("--seed", type=int, default=0)
    po.add_argument("--sigma2", type=float, default=1.0)
    po.add_argument("--out", required=True)
    po.set_defaults(func=cmd_oracle)

    pv = sub.add_parser("verify-bounds", help="run the theoretical-bound verification suite")
    pv.add_argument("--n-values", default="50,200,800")
    pv.add_argument("--p-values", default="1,2,5,10")
    pv.add_argument("--c-values", default="0.5,1,2")
    pv.add_argument("--bd-pairs", default="2:2,4:2,2:1.5", help="comma list of beta:delta pairs")
    pv.add_argument("--sigma2", type=float, default=1.0)
    pv.add_argument("--lower-threshold", type=float, default=200.0,
                    help="assert the lower bound only when n p / sigma2 reaches this")
    pv.add_argument("--out", default=None)
    pv.set_defaults(func=cmd_verify_bounds)

    pe = sub.add_parser("experiment", help="replicated oracle comparison from a config file")
    pe.add_argument("--config", required=True)
    pe.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    pe.set_defaults(func=cmd_experiment)

    pt = sub.add_parser("table", help="comparison table over (c2, beta_or_m) from a config file")
    pt.add_argument("--config", required=True)
    pt.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    pt.set_defaults(func=cmd_table)

    ph = sub.add_parser("heatmap", help="mean-ratio heatmap over two scenario axes from a config file")
    ph.add_argument("--config", required=True)
    ph.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)
    ph.set_defaults(func=cmd_heatmap)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
