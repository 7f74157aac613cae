"""Command-line front end.

Subcommands wrap the library modules one-to-one: ``risk-curve`` and
``oracle`` take flags, ``experiment``, ``table`` and ``heatmap`` read an INI
config file (flat key = value pairs inside a section named after the
subcommand), and ``verify-bounds`` runs the theoretical-bound test suite.
All data outputs go to files, written by ``render``; stdout carries logs
and the verify-bounds pass/fail lines only.  Exit codes: 0 success, 1
error, 2 bound violation.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import math
import sys
import time
from collections.abc import Callable

import numpy as np

from . import experiments, optimize, oracles, render, riskfn, scenarios

JOBS_HELP = "accepted for compatibility; every command runs as one stacked search in one process"
_SCENARIO_KEYS = ("kind", "n", "p", "c1", "c2", "delta1", "delta2", "beta_or_m", "seed")
_CASTS = {"kind": scenarios.ScenarioKind, "n": int, "p": int, "c1": float, "c2": float, "delta1": float,
          "delta2": float, "beta_or_m": float, "seed": int, "sigma2": float, "n_rep": int, "out_json": str,
          "out_csv": str}


class ConfigError(Exception):
    """Carries every offending config key so they can all be reported at once."""

    def __init__(self, messages: list[str]):
        super().__init__("; ".join(messages))
        self.messages = messages


def _fields(section: configparser.SectionProxy, keys, errors: list[str], prefix: str) -> dict:
    """Cast each of ``keys`` the section holds; one error per missing or unparsable key."""
    raw: dict = {}
    for key in keys:
        value = section.get(key)
        if value is None:
            if key not in ("delta2", "beta_or_m", "seed"):  # defaulted by ScenarioSpec
                errors.append(f"{prefix}{key}: missing")
            continue
        try:
            raw[key] = _CASTS[key](value)
        except ValueError:
            errors.append(f"{prefix}{key}: cannot parse {value!r}")
    return raw


def _build_spec(raw: dict, errors: list[str], prefix: str) -> scenarios.ScenarioSpec | None:
    try:
        return scenarios.ScenarioSpec(**raw)
    except ValueError as exc:
        errors.append(f"{prefix}scenario: {exc}")
        return None


def _float_list(text: str, key: str, errors: list[str]) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        errors.append(f"{key}: cannot parse list {text!r}")
        return []


def _count_list(text: str, key: str, errors: list[str]) -> list[int]:
    """A comma list of positive integers; a value that is not one is an error naming ``key``."""
    values = _float_list(text, key, errors)
    bad = [v for v in values if not (v.is_integer() and v >= 1)]  # nan and inf are not integers
    if bad:
        errors.append(f"{key}: {bad[0]!r} is not a positive integer")
        return []
    return [int(v) for v in values]


def _load_section(path: str, section: str) -> configparser.SectionProxy:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))  # the README's "key = value  ; note" layout
    if not parser.read(path):
        raise ConfigError([f"cannot read config file {path!r}"])
    if section not in parser:
        raise ConfigError([f"config file {path!r} has no [{section}] section"])
    return parser[section]


def _fail_on(errors: list[str]) -> None:
    if errors:
        raise ConfigError(errors)


def _sweep(
    section: configparser.SectionProxy,
    name: str,
    cells: list[tuple[str, tuple[int, ...], dict[str, float]]],
    errors: list[str],
    write: Callable[[list[experiments.ExperimentReport]], None],
    pi2_scale: str = "N",
) -> list[experiments.ExperimentReport]:
    """Run one experiment per (label, path, overrides) cell, in order, ``write`` the reports and return them.

    ``experiment``, ``table`` and ``heatmap`` all run through here;
    ``experiment`` is the one-cell case, with no overrides and the empty
    path.  Each cell is the section's scenario keys with ``overrides``
    applied and the seed ``derive_seed(seed, *path)``, or the section's seed
    itself for the empty path; the cells share one path length, so their
    seeds are one ``derive_seeds`` pass.  ``sigma2`` and ``n_rep`` are read by
    ``_fields`` like every other key.  The caller's ``errors`` (its own
    keys: outputs, axes), the section's key errors (a scenario key no cell
    overrides is checked once, as ``{name}.{key}``) and every cell's errors
    are reported together, before any cell runs.  Once the reports are
    written, one stderr line sums up the searches and times the stages.
    """
    size = _fields(section, ("sigma2", "n_rep"), errors, f"{name}.")
    if not 0 < size.get("sigma2", 1.0) < math.inf:  # a missing or unparsable value is already reported
        errors.append(f"{name}.sigma2: not positive or not finite")
    if size.get("n_rep", 1) < 1:
        errors.append(f"{name}.n_rep: not positive")
    overridden = {key for _, _, overrides in cells for key in overrides}
    # without cells (an empty axis, already reported) only the keys present can be checked
    shared_keys = [k for k in _SCENARIO_KEYS if k not in overridden and (cells or k in section)]
    shared_errors: list[str] = []
    shared = _fields(section, shared_keys, shared_errors, f"{name}.")
    seed = shared.get("seed", 0)
    if not 0 <= seed < 2**64:
        shared_errors.append(f"{name}.seed: must fit in 64 unsigned bits")
    errors += shared_errors
    specs = []
    cell_errors: list[str] = []
    if not shared_errors:  # otherwise every cell would repeat them
        paths = np.array([path for _, path, _ in cells], dtype=np.uint64).T  # one column per cell
        seeds = [seed] * len(cells) if not len(paths) else \
            scenarios.derive_seeds(np.full(len(cells), seed, dtype=np.uint64), paths).tolist()
        for (label, _, overrides), cell_seed in zip(cells, seeds):
            raw = {**shared, **overrides, "seed": cell_seed}
            specs.append(_build_spec(raw, cell_errors, f"{label.replace(' ', '')}."))
    # an error every cell makes is the section's, reported once
    messages = {message.split(".", 1)[1] for message in cell_errors}
    if len(cell_errors) == len(cells) and len(messages) == 1:
        errors.append(f"{name}.{messages.pop()}")
    else:
        errors += [f"{name}.{message}" for message in cell_errors]
    _fail_on(errors)

    reports, search, times = experiments.run_experiments(specs, size["sigma2"], size["n_rep"], pi2_scale)
    start = time.perf_counter()
    write(reports)
    times["render"] = time.perf_counter() - start
    print(_run_summary(search) + _stage_times(times), file=sys.stderr)
    return reports


def _run_summary(search: optimize.Search) -> str:
    """One line on how a run's searches ended: winners by source, max_iter hits, Newton evaluations, open cells."""
    newton = search.iterations[search.source == optimize.SOURCES.index("newton")]
    counts = np.bincount(search.source, minlength=len(optimize.SOURCES)).tolist()
    winners = ", ".join(f"{name} {count}" for name, count in zip(optimize.SOURCES, counts))
    hits = np.count_nonzero(newton >= optimize.DEFAULT_MAX_ITER)
    evaluations = f"median {np.median(newton):g}, max {newton.max()}" if newton.size else "none"
    return (f"searches {len(search.source)}: {winners}; max_iter hits {hits}; newton evaluations {evaluations}; "
            f"open-cell searches {np.count_nonzero(search.open_cells)}")


def _stage_times(times: dict[str, float]) -> str:
    """The summary line's ending: each stage's wall time in milliseconds."""
    return "; stage ms " + ", ".join(f"{stage} {1e3 * seconds:.1f}" for stage, seconds in times.items())


# ---------------------------------------------------------------------------
# subcommands


def _risk_params(errors: list[str], **values) -> riskfn.RiskParams | None:
    """The template parameters; an invalid value becomes a config error naming its key, reported once."""
    try:
        return riskfn.RiskParams(**values)
    except ValueError as exc:
        if str(exc) not in errors:
            errors.append(str(exc))
        return None


def cmd_risk_curve(args) -> int:
    errors: list[str] = []
    params = _risk_params(errors, n=args.n, p=args.p, sigma2=args.sigma2, beta=args.beta, delta=args.delta, c=args.c)
    if args.points < 0:
        errors.append(f"--points: must be nonnegative, got {args.points}")
    _fail_on(errors)
    # a bound not given is that end of the oracle's search bracket, so the grid reaches the minimum
    t_lo, t_hi = optimize.spectrum_bracket(params.n, scenarios.power_law(params.n, params.beta))
    lam_min = math.exp(t_lo[0]) if args.lambda_min is None else args.lambda_min
    lam_max = math.exp(t_hi[0]) if args.lambda_max is None else args.lambda_max
    _fail_on([f"{key} must be positive and finite" for key, lam in (("lambda-min", lam_min), ("lambda-max", lam_max))
              if not 0 < lam < math.inf])
    lams = [0.0] + [float(v) for v in np.geomspace(lam_min, lam_max, args.points)]
    with np.errstate(all="ignore"):  # a row that is not finite is reported below, and nothing is written
        bias, var = riskfn.template_parts(params.n, lams, params.beta, params.delta, params.c, params.sigma2 / params.p)
        risk = bias + var
    finite = np.isfinite(risk) & np.isfinite(bias) & np.isfinite(var)
    if not finite.all():
        raise FloatingPointError(f"the template risk is not finite at lambda {lams[int(np.argmin(finite))]!r}; "
                                 "narrow the lambda range")
    render.write_csv(args.out, [("lambda", "risk", "bias", "variance"),
                                *zip(lams, risk.tolist(), bias.tolist(), var.tolist())])
    print(f"wrote {len(lams)} rows to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    errors: list[str] = []
    raw = {key: getattr(args, key) for key in _SCENARIO_KEYS} | {"kind": scenarios.ScenarioKind(args.kind)}
    spec = _build_spec(raw, errors, "")
    if not 0 < args.sigma2 < math.inf:
        errors.append("sigma2: not positive or not finite")
    _fail_on(errors)
    spectrum, tasks = scenarios.build_ensemble(spec)
    mt_risk, st_risk, rho, search = oracles.compare(spec.n, spectrum.gamma, tasks.h[None], args.sigma2)
    lam, value = search.lam.tolist(), search.value.tolist()
    # how each search ended: winning candidate, Newton evaluations, final |lam g'| / g (null at a boundary)
    records = [{"source": optimize.SOURCES[code], "iterations": k, "stationarity": None if math.isnan(s) else s}
               for code, k, s in zip(search.source.tolist(), search.iterations.tolist(), search.stationarity.tolist())]
    payload = {
        "spec": spec.to_dict(),
        "sigma2": args.sigma2,
        "mt_risk": float(mt_risk[0]),
        "st_risk": float(st_risk[0]),
        "lambda_star": lam[0],
        "mu_star": lam[1],
        "st_lambdas": lam[2:],
        "rho": float(rho[0]),
        "per_task_risks": value[2:],
        "search": {"mean": records[0], "variance": records[1], "tasks": records[2:]},
    }
    formula = {scenarios.ScenarioKind.H2POINTS: oracles.rho_formula_2points,
               scenarios.ScenarioKind.H1OUT: oracles.rho_formula_1out}.get(spec.kind)
    if formula is not None and spec.c1 > 0:
        payload["rho_formula"] = formula(spec.p, spec.delta1, spec.c2 / spec.c1)
    render.write_json(args.out, payload)
    print(f"rho = {payload['rho']!r} -> {args.out}")
    return 0


def cmd_experiment(args) -> int:
    section = _load_section(args.config, "experiment")
    errors: list[str] = []
    pi2_scale = section.get("pi2_scale", fallback="N")
    if pi2_scale not in ("N", "n"):
        errors.append(f"experiment.pi2_scale: must be 'N' or 'n', got {pi2_scale!r}")
    out_json = _fields(section, ("out_json",), errors, "experiment.").get("out_json")
    out_csv = section.get("out_csv")

    def write(reports):
        render.write_report_json(reports[0], out_json)
        if out_csv:
            render.write_csv(out_csv, [("replicate", "ratio"), *enumerate(reports[0].ratios)])

    [report] = _sweep(section, "experiment", [("", (), {})], errors, write, pi2_scale)
    print(f"mean ratio {report.mean_ratio!r} over {report.n_rep} replicates -> {out_json}")
    return 0


def cmd_table(args) -> int:
    section = _load_section(args.config, "table")
    errors: list[str] = []
    c2_values = _float_list(section.get("c2_values", ""), "table.c2_values", errors)
    bm_values = _float_list(section.get("beta_or_m_values", ""), "table.beta_or_m_values", errors)
    if not c2_values:
        errors.append("table.c2_values: missing or empty")
    if not bm_values:
        errors.append("table.beta_or_m_values: missing or empty")
    pairs = [(bm, c2) for bm in bm_values for c2 in c2_values]
    cells = [(f"row {k}", (k,), {"c2": c2, "beta_or_m": bm}) for k, (bm, c2) in enumerate(pairs)]
    out_csv = _fields(section, ("out_csv",), errors, "table.").get("out_csv")
    reports = _sweep(section, "table", cells, errors, lambda reports: render.emit_table(reports, out_csv))
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
    # cells of a broken axis would only repeat its error
    cells = [] if errors else [(f"cell ({i},{j})", (i, j), {row_param: rv, col_param: cv})
                               for i, rv in enumerate(row_values) for j, cv in enumerate(col_values)]
    out_csv = _fields(section, ("out_csv",), errors, "heatmap.").get("out_csv")
    _sweep(section, "heatmap", cells, errors, lambda reports: render.emit_heatmap(
        reports, row_param, row_values, col_param, col_values, out_csv, section.get("out_svg"),
        f"mean oracle-risk ratio, {section.get('kind', 'scenario')}"))
    print(f"wrote {len(row_values)}x{len(col_values)} grid to {out_csv}")
    return 0


def _check(name: str, ok: bool, detail: str, lines: list[str], cells: int | None = None) -> bool:
    """Append the PASS or FAIL line of one property; a property given no ``cells`` to check is skipped instead."""
    if cells == 0:
        lines.append(f"SKIP {name}: no cell of the grid inside its window")
        return True
    status = "PASS" if ok else "FAIL"
    lines.append(f"{status} {name}: {detail}")
    return ok


def _envelope(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """n var = S2 and bias / lam^2 = S1 of the template at C = sigma2 = p = 1 for 40 random draws, and their bounds."""
    draws = []
    for _ in range(40):
        beta = float(rng.uniform(0.8, 4.0))
        delta = float(rng.uniform(0.6, min(2 * beta - 0.05, 3.0)))
        n, lam = int(rng.integers(5, 400)), float(10 ** rng.uniform(-8, 2))
        draws.append((n, lam, beta, delta, lam ** (-1 / (2 * beta)) / (2 * beta) * riskfn.integral_i2(beta),
                      lam ** ((2 * delta - 1) / (2 * beta)) / (beta * lam**2) * riskfn.integral_i1(beta, delta)))
    n, lam, beta, delta, *caps = np.array(draws).T
    bias, var = riskfn.template_parts(n, lam, beta, delta, 1.0, 1.0)
    return np.array([n * var, bias / lam**2]), np.array(caps) * (1 + 1e-12)


def cmd_verify_bounds(args) -> int:
    errors: list[str] = []
    n_values = _count_list(args.n_values, "--n-values", errors)
    p_values = _count_list(args.p_values, "--p-values", errors)
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
    if not math.isfinite(args.lower_threshold):
        errors.append(f"--lower-threshold: must be finite, got {args.lower_threshold!r}")
    sigma2 = args.sigma2
    grid = [_risk_params(errors, n=n, p=p, sigma2=sigma2, beta=beta, delta=delta, c=c)
            for beta, delta in bd_pairs for n in n_values for p in p_values for c in c_values]
    _fail_on(errors)
    # property 4's p-sweep at fixed n, searched in the grid's call: one engine call per n
    sweep_params = [riskfn.RiskParams(n=50, p=int(round(p)), sigma2=sigma2, beta=2, delta=2, c=1.0)
                    for p in np.geomspace(1, 1e7, 13)]

    lines: list[str] = []
    all_ok = True

    # Property 1/2/3: optimized risk against its envelope, over the cells inside each property's window
    worst_upper, worst_lower = -math.inf, math.inf
    cap_violations = upper_checked = cap_checked = lower_checked = 0
    start = time.perf_counter()
    reports, search = riskfn.minimize_risks(grid + sweep_params)
    times = {"grid": time.perf_counter() - start}
    reports, sweep = reports[:len(grid)], reports[len(grid):]
    for params, report in zip(grid, reports):
        if report.upper > 0:  # nan outside the minimax window
            upper_checked += 1
            worst_upper = max(worst_upper, (report.r_star - report.upper) / report.upper)
        if math.isfinite(report.epsilon_cap):
            cap_checked += 1
            cap_violations += report.lambda_star > report.epsilon_cap * (1 + 1e-9)
        if params.n * params.p / sigma2 >= args.lower_threshold and report.lower > 0:  # nan outside its window
            lower_checked += 1
            worst_lower = min(worst_lower, (report.r_star - report.lower) / report.lower)
    all_ok &= _check("property-1 upper bound", worst_upper <= 1e-8,
                     f"worst relative excess {worst_upper:.3e}", lines, upper_checked)
    all_ok &= _check("property-2 localization", cap_violations == 0,
                     f"{cap_violations} optimizer(s) above the cap", lines, cap_checked)
    all_ok &= _check("property-3 lower bound", worst_lower >= 0,
                     f"worst relative margin {worst_lower:.3e} over {lower_checked} cells", lines, lower_checked)

    # Property 4: a single regime flip along the p-sweep
    labels = [report.regime for report in sweep]
    dedup = [lab for lab, _ in itertools.groupby(lab for lab in labels if lab is not riskfn.Regime.UNDETERMINED)]
    all_ok &= _check("property-4 regime flip", dedup == [riskfn.Regime.REGULARIZE, riskfn.Regime.TRIVIAL_NOISE],
                     f"sweep labels {[lab.value for lab in labels]}", lines)

    start = time.perf_counter()  # sum-vs-integral envelopes, over a fixed sample: never re-seed this generator
    sums, caps = _envelope(np.random.default_rng(20240811))
    s2_ok, s1_ok = (sums <= caps).all(axis=1).tolist()
    times["envelope"] = time.perf_counter() - start
    all_ok &= _check("s2 integral envelope", s2_ok, "40 random (n, lam, beta) draws", lines)
    all_ok &= _check("s1 integral envelope", s1_ok, "40 random (n, lam, beta, delta) draws", lines)

    alpha = riskfn.alpha_constant(2.0, 2.0)
    all_ok &= _check("alpha constant", alpha > 0.33, f"alpha(2,2) = {alpha!r}", lines)

    for line in lines:
        print(line)
    start = time.perf_counter()
    if args.out:
        render.write_lines(args.out, lines)
    times["render"] = time.perf_counter() - start
    print(_run_summary(search) + _stage_times(times), file=sys.stderr)
    return 0 if all_ok else 2


def _risk_curve_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, default=1)
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--beta", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--c", type=float, required=True)
    parser.add_argument("--lambda-min", type=float, default=None, help="default: low end of the search bracket")
    parser.add_argument("--lambda-max", type=float, default=None, help="default: high end of the search bracket")
    parser.add_argument("--points", type=int, default=200)
    parser.add_argument("--out", required=True)


def _oracle_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kind", required=True, choices=[k.value for k in scenarios.ScenarioKind])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--c1", type=float, required=True)
    parser.add_argument("--c2", type=float, required=True)
    parser.add_argument("--delta1", type=float, required=True)
    parser.add_argument("--delta2", type=float, default=None)
    parser.add_argument("--beta-or-m", type=float, default=2.0, dest="beta_or_m")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--out", required=True)


def _verify_bounds_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n-values", default="50,200,800")
    parser.add_argument("--p-values", default="1,2,5,10")
    parser.add_argument("--c-values", default="0.5,1,2")
    parser.add_argument("--bd-pairs", default="2:2,4:2,2:1.5", help="comma list of beta:delta pairs")
    parser.add_argument("--sigma2", type=float, default=1.0)
    parser.add_argument("--lower-threshold", type=float, default=200.0,
                        help="assert the lower bound only when n p / sigma2 reaches this")
    parser.add_argument("--out", default=None)


def _config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True)
    parser.add_argument("--jobs", type=int, default=1, help=JOBS_HELP)


# every subcommand once, in the order of the top-level help: (name, help, add its arguments, run it)
SUBCOMMANDS = (
    ("risk-curve", "tabulate the template risk over a lambda grid", _risk_curve_arguments, cmd_risk_curve),
    ("oracle", "multi-task vs single-task oracle on one scenario", _oracle_arguments, cmd_oracle),
    ("verify-bounds", "run the theoretical-bound verification suite", _verify_bounds_arguments, cmd_verify_bounds),
    ("experiment", "replicated oracle comparison from a config file", _config_arguments, cmd_experiment),
    ("table", "comparison table over (c2, beta_or_m) from a config file", _config_arguments, cmd_table),
    ("heatmap", "mean-ratio heatmap over two scenario axes from a config file", _config_arguments, cmd_heatmap),
)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand: it prints the top-level usage, help and errors."""
    parser = argparse.ArgumentParser(
        prog="mtkrr",
        description="Exact oracle risks for multi-task kernel ridge regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_arguments, func in SUBCOMMANDS:
        subparser = sub.add_parser(name, help=help_text)
        add_arguments(subparser)
        subparser.set_defaults(func=func)
    return parser


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the named subcommand's parser when it can.

    That parser is the one ``add_parser`` would make (prog ``mtkrr <name>``),
    so its help, usage and errors are the same.  Arguments it does not know
    are reported by the top-level parser, as before, and so is everything
    when ``argv`` starts with no subcommand name.
    """
    argv = sys.argv[1:] if argv is None else argv
    for name, _, add_arguments, func in SUBCOMMANDS:
        if argv[:1] == [name]:
            parser = argparse.ArgumentParser(prog=f"mtkrr {name}")
            add_arguments(parser)
            args, unknown = parser.parse_known_args(argv[1:])
            if unknown:
                break
            args.command, args.func = name, func
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
