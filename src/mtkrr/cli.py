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
    applied and the seed ``derive_seeds`` gives (seed, path), or the section's seed
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
    """The summary line's ending: each stage's wall time in milliseconds, its sub-stages (``stage.sub``) in brackets."""
    subs: dict[str, list[str]] = {}
    for name, seconds in times.items():
        stage, _, sub = name.partition(".")
        subs.setdefault(stage, []).extend([f"{sub} {1e3 * seconds:.1f}"] if sub else [])
    return "; stage ms " + ", ".join(f"{stage} {1e3 * times[stage]:.1f}" + (f" ({', '.join(parts)})" if parts else "")
                                     for stage, parts in subs.items())


# ---------------------------------------------------------------------------
# subcommands


def cmd_risk_curve(args) -> int:
    errors = riskfn.cell_errors(args.n, args.p, args.sigma2, args.beta, args.delta, args.c)
    template_ok = not errors
    if args.points < 0:
        errors.append(f"--points: must be nonnegative, got {args.points}")
    if template_ok and not math.isfinite(args.c * args.n):  # c n, the signal coefficient at i = 1 and the largest
        errors.append(f"--c: the signal amplitude c n is not finite at n = {args.n}, got {args.c!r}")
    _fail_on(errors)
    # a bound not given is that end of the oracle's search bracket, so the grid reaches the minimum
    t_lo, t_hi = optimize.spectrum_bracket(args.n, scenarios.power_law(args.n, args.beta))
    lam_min = math.exp(t_lo[0]) if args.lambda_min is None else args.lambda_min
    lam_max = math.exp(t_hi[0]) if args.lambda_max is None else args.lambda_max
    errors = [f"{key} must be positive and finite" for key, lam in (("lambda-min", lam_min), ("lambda-max", lam_max))
              if not 0 < lam < math.inf]
    if not errors and lam_min > lam_max:
        errors.append(f"--lambda-min must not exceed --lambda-max, got {lam_min!r} > {lam_max!r}")
    _fail_on(errors)
    lams = [0.0] + [float(v) for v in np.geomspace(lam_min, lam_max, args.points)]
    with np.errstate(all="ignore"):  # a row that is not finite is reported below, and nothing is written
        bias, var = riskfn.template_parts(args.n, lams, args.beta, args.delta, args.c, args.sigma2 / args.p)
        risk = bias + var
    finite = np.isfinite(risk) & np.isfinite(bias) & np.isfinite(var)
    if not finite.all():
        lam = lams[int(np.argmin(finite))]
        advice = "; narrow the lambda range" if lam > 0 else ""  # the lambda = 0 row is written whatever the range
        raise FloatingPointError(f"the template risk is not finite at lambda {lam!r}{advice}")
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
    start = time.perf_counter()  # one replicate of the sweeps' path: draw, rows, search
    gamma, _, chunks = scenarios.draw([spec], [[spec.seed]])
    times = {"draw": time.perf_counter() - start}
    signal, noise = oracles.stacked_rows(chunks, 1, spec.n, spec.p, args.sigma2, times)
    mt_risk, st_risk, rho, search = oracles.search_comparisons(spec.n, gamma, signal, noise, times=times)
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
    print(_run_summary(search) + _stage_times(times), file=sys.stderr)
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


# the sum-vs-integral envelope's fixed verification sample: (beta, delta, n, lam) of 40 draws, in the order that
# np.random.default_rng(20240811) drew them (beta uniform on [0.8, 4), delta on [0.6, min(2 beta - 0.05, 3)),
# n an integer in [5, 400), lam = 10^u with u uniform on [-8, 2)).  Held as literals so that verify-bounds
# loads no numpy.random; never change a draw.
ENVELOPE_SAMPLE = (
    (2.1452110703193226, 1.2063611431568395, 61, 14.854455858383282),
    (1.7412371111998988, 0.8581843949040264, 391, 31.269214691085775),
    (0.9606774675531455, 1.091440645825971, 157, 0.11364749039875217),
    (3.2989912528722174, 1.9203271870621275, 229, 0.016025609790345004),
    (1.8397773573245986, 2.456527536082303, 59, 1.1622748998257966e-07),
    (1.8439315193968842, 1.3776742895680023, 89, 3.5075950173258523e-07),
    (2.264541564986345, 1.1665095365871911, 227, 3.6431189946758153),
    (1.5170678071044876, 1.7688132818052575, 70, 4.007065219166881),
    (1.7461545803531835, 1.303760665059202, 119, 6.089906930920311e-08),
    (1.596372864065209, 1.5469017623879884, 201, 21.265916326762312),
    (2.770397492560527, 2.6648589550708985, 298, 4.652263652840013e-06),
    (1.9106016170557805, 1.5680851130341655, 195, 17.582922768845204),
    (2.7604007314201917, 1.3284698652000317, 233, 94.47072588408774),
    (3.1678271072208313, 2.4124081444210765, 113, 0.00047495438246368424),
    (3.5102715457275346, 1.4969405720793532, 271, 1.619716180579562e-07),
    (1.4782222464649877, 2.8913797618311596, 6, 6.105714033197467e-06),
    (2.398219269344696, 0.8082576809218015, 52, 2.2473433337535024e-08),
    (2.4622393293742046, 0.8163609013124855, 195, 1.983578596745978e-05),
    (2.8997466105024, 0.7819588065778093, 8, 2.726022123948505),
    (3.206211197645307, 0.8548474515952367, 310, 0.001458378516241488),
    (2.224716705047987, 2.476878711199023, 84, 66.80723737834552),
    (1.9712653752773273, 1.4034088599448746, 195, 0.0002468421419275702),
    (3.6610823084813457, 2.5974520504241094, 111, 0.11862955482455297),
    (1.6680455413042772, 1.17099704180814, 53, 0.0013542589375743414),
    (3.618100761538223, 1.99262553109474, 303, 0.03995474601469631),
    (3.7900782126652546, 2.878366556007152, 257, 0.0632472273405356),
    (0.861634290214436, 1.3210356984784577, 373, 0.0002475023636806616),
    (1.685297804479281, 2.987181303007348, 178, 3.9795855039370905e-07),
    (3.7177547215518, 2.3710100930514906, 103, 1.0632056699365234e-06),
    (0.979673112734719, 1.619375643004913, 288, 0.045634576886982345),
    (1.4887912092948241, 1.8901357108674617, 226, 0.0012817411294254847),
    (3.477037166701513, 2.6639992599115665, 322, 3.037791728527424e-07),
    (1.7442204492869184, 1.264248114812198, 89, 0.040481034479646995),
    (2.8141091887303853, 2.711339805884437, 290, 4.772986015182035),
    (2.210357705975851, 1.6162957867134091, 320, 0.2134687557131533),
    (1.3851207530309368, 0.9514626868252295, 11, 38.017102653825894),
    (1.4060412079019617, 2.0938841810725908, 231, 8.500180539667245e-08),
    (3.3067453183203375, 2.2369041987846647, 177, 0.0011145473279279032),
    (3.205124801937324, 2.8655748407883372, 236, 6.954745732461491e-05),
    (3.861564456524043, 1.2150281901820337, 310, 2.7847134095708997e-07),
)


def _envelope(sample) -> tuple[np.ndarray, np.ndarray]:
    """n var = S2 and bias / lam^2 = S1 of the template at C = sigma2 = p = 1 for each (beta, delta, n, lam) draw of
    ``sample``, and their bounds."""
    draws = []
    for beta, delta, n, lam in sample:
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
    # a cell's first error depends on its curve (beta, delta, c) alone: one column per curve lists them in order
    if n_values and p_values:
        curves = dict.fromkeys((beta, delta, c) for beta, delta in bd_pairs for c in c_values)
        cells = np.array([(n_values[0], p_values[0], sigma2, *curve) for curve in curves]).reshape(-1, 6)
        errors += riskfn.cell_errors(*cells.T)
        # c n, the largest signal coefficient of a cell, as risk-curve checks it
        errors += [f"--c-values: the signal amplitude c n is not finite at n = {max(n_values)}, got {c!r}"
                   for c in c_values if math.isfinite(c) and not math.isfinite(c * max(n_values))]
    _fail_on(errors)
    # the grid's cells in the order beta:delta, n, p, c, then property 4's p-sweep at fixed n, as columns
    grid = np.array([(n, p, beta, delta, c) for beta, delta in bd_pairs for n in n_values for p in p_values
                     for c in c_values] + [(50, int(round(p)), 2.0, 2.0, 1.0) for p in np.geomspace(1, 1e7, 13)])
    n, p = grid[:, :2].T
    cells = len(grid) - 13

    lines: list[str] = []
    all_ok = True

    # Property 1/2/3: optimized risk against its envelope, over the cells inside each property's window
    start, stages = time.perf_counter(), {}
    bounds, search = riskfn.minimize_risks(n, p, np.full(len(grid), sigma2), *grid[:, 2:].T,  # one engine call
                                           times=stages)
    times = {"grid": time.perf_counter() - start, **{f"grid.{stage}": seconds for stage, seconds in stages.items()}}
    r_star, lam, upper, lower, cap = (column[:cells] for column in (
        search.value, search.lam, bounds.upper, bounds.lower, bounds.epsilon_cap))
    upper_cells, cap_cells = upper > 0, np.isfinite(cap)  # the bounds are nan outside their windows
    lower_cells = (n[:cells] * p[:cells] / sigma2 >= args.lower_threshold) & (lower > 0)
    worst_upper = float(np.max((r_star - upper)[upper_cells] / upper[upper_cells], initial=-math.inf))
    worst_lower = float(np.min((r_star - lower)[lower_cells] / lower[lower_cells], initial=math.inf))
    cap_violations = np.count_nonzero(lam[cap_cells] > cap[cap_cells] * (1 + 1e-9))
    lower_checked = np.count_nonzero(lower_cells)
    all_ok &= _check("property-1 upper bound", worst_upper <= 1e-8,
                     f"worst relative excess {worst_upper:.3e}", lines, np.count_nonzero(upper_cells))
    all_ok &= _check("property-2 localization", cap_violations == 0,
                     f"{cap_violations} optimizer(s) above the cap", lines, np.count_nonzero(cap_cells))
    all_ok &= _check("property-3 lower bound", worst_lower >= 0,
                     f"worst relative margin {worst_lower:.3e} over {lower_checked} cells", lines, lower_checked)

    # Property 4: a single regime flip along the p-sweep
    labels = [riskfn.REGIMES[code] for code in bounds.regime[cells:].tolist()]
    dedup = [lab for lab, _ in itertools.groupby(lab for lab in labels if lab is not riskfn.Regime.UNDETERMINED)]
    all_ok &= _check("property-4 regime flip", dedup == [riskfn.Regime.REGULARIZE, riskfn.Regime.TRIVIAL_NOISE],
                     f"sweep labels {[lab.value for lab in labels]}", lines)

    start = time.perf_counter()  # sum-vs-integral envelopes, over a fixed sample
    sums, caps = _envelope(ENVELOPE_SAMPLE)
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
