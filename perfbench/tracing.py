"""Spans and counters around the calls into each ``mtkrr`` layer.

The tracer patches module attributes from outside the program: every public
function of each layer module becomes a span, a few hot methods become
counters, and every reference to a patched function in any ``mtkrr`` module
(``from .x import f`` copies included) is swapped too.  ``uninstall`` puts
the originals back.  Spans stay in memory as
``[name, start, end, parent, command, child_time]`` until the run writes them.

Spans recorded inside forked pool workers are lost with the worker, which is
why the benchmark traces each command twice: pass A with the workload's own
``--jobs`` (parent-side spans, pool starts) and pass B with ``--jobs 1``
(spans inside every replicate).
"""

from __future__ import annotations

import concurrent.futures.process
import functools
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "mtkrr"
LAYERS = ("cli", "scenarios", "spectral", "estimators", "optimize", "oracles", "riskfn", "experiments", "render")

NAME, START, END, PARENT, COMMAND, CHILD = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.command = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.command, 0.0]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record[START], record[END] = start, end
                if parent >= 0:
                    spans[parent][CHILD] += end - start
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_minimum(self, result, args, kwargs) -> None:
        """Winner source and max_iter hits of one returned ProfileMinimum."""
        self.counts[f"optimize.win_{result.source}"] += 1
        optimize = sys.modules[f"{PACKAGE}.optimize"]
        max_iter = kwargs.get("max_iter", getattr(optimize, "DEFAULT_MAX_ITER", math.inf))
        if result.source == "newton" and result.iterations >= max_iter:
            self.counts["optimize.maxiter_hits"] += 1

    # -- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch(self, owner, attr: str, make) -> None:
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if not hasattr(owner, attr):
            self.missing.append(label)
            return
        self._set(owner, attr, make(getattr(owner, attr)))

    def install(self) -> None:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    hook = self._count_minimum if (layer, attr) == ("optimize", "minimize_profile") else None
                    replaced[id(obj)] = (obj, self._span(f"{layer}.{attr}", obj, hook))
        quad = getattr(modules["riskfn"], "quad", None)
        if quad is None:
            self.missing.append("riskfn.quad")
        else:
            replaced[id(quad)] = (quad, self._span("riskfn.quad", quad))
        # swap every module-level reference, including names copied by imports
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    hit = replaced.get(id(obj))
                    if hit is not None and hit[0] is obj:
                        self._set(mod, attr, hit[1])

        profile = getattr(modules["optimize"], "RidgeRiskProfile", None)
        for method in ("grad", "hess", "value_grid"):
            self._patch(profile, method, functools.partial(self._counter, f"optimize.{method}_calls"))
        spectrum = getattr(modules["spectral"], "KernelSpectrum", None)
        self._patch(spectrum, "__init__", functools.partial(self._span, "spectral.KernelSpectrum.__init__"))
        self._patch(concurrent.futures.process.ProcessPoolExecutor, "__init__",
                    functools.partial(self._counter, "experiments.pool_starts"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- per-command metrics -------------------------------------------------

    def begin(self, command: int) -> None:
        self.command = command
        self.counts.clear()

    def finish(self) -> dict[str, float]:
        """Per-layer metrics of the command begun last, from its spans and counters."""
        spans = [s for s in self.spans if s[COMMAND] == self.command]
        incl: defaultdict[str, float] = defaultdict(float)
        self_time: defaultdict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        durations: dict[str, list[float]] = {}
        for s in spans:
            d = s[END] - s[START]
            incl[s[NAME]] += d
            self_time[s[NAME]] += d - s[CHILD]
            calls[s[NAME]] += 1
            durations.setdefault(s[NAME], []).append(d)

        def layer_self(layer: str) -> float:
            return sum((v for k, v in self_time.items() if k.startswith(layer + ".")), 0.0)

        replicate = sorted(durations.get("experiments.replicate_ratio", []))
        out = {
            "optimize.minimize_calls": calls["optimize.minimize_profile"],
            "optimize.minimize_s": incl["optimize.minimize_profile"],
            "experiments.run_experiment_calls": calls["experiments.run_experiment"],
            "experiments.run_experiment_self_s": self_time["experiments.run_experiment"],
            "experiments.replicate_ms_p50": 1e3 * _rank(replicate, 0.50),
            "experiments.replicate_ms_p99": 1e3 * _rank(replicate, 0.99),
            "experiments.emit_s": sum(incl[k] for k in EMITTERS),
            "scenarios.build_ensemble_calls": calls["scenarios.build_ensemble"],
            "scenarios.build_ensemble_s": incl["scenarios.build_ensemble"],
            "scenarios.synth_spectrum_s": incl["scenarios.synth_spectrum"],
            "scenarios.kernel_matrix_s": incl["scenarios.periodic_kernel_matrix"],
            "spectral.spectrum_init_s": incl["spectral.KernelSpectrum.__init__"],
            "spectral.eigendecompose_s": incl["spectral.eigendecompose_kernel"],
            "spectral.project_tasks_s": incl["spectral.project_tasks"],
            "spectral.mean_variance_profile_s": incl["spectral.mean_variance_profile"],
            "estimators.profile_build_calls": sum(calls[k] for k in PROFILE_BUILDERS),
            "estimators.profile_build_s": sum(incl[k] for k in PROFILE_BUILDERS),
            "oracles.compare_calls": calls["oracles.compare_oracles"],
            "oracles.compare_self_s": layer_self("oracles"),
            "riskfn.minimize_risk_calls": calls["riskfn.minimize_risk"],
            "riskfn.minimize_template_s": incl["riskfn.minimize_template"],
            "riskfn.integral_calls": calls["riskfn.quad"],
            "riskfn.integral_s": incl["riskfn.quad"],
            "riskfn.kappa_calls": calls["riskfn.kappa"],
            "render.svg_s": incl["render.svg_heatmap"],
            "cli.self_s": layer_self("cli"),
        }
        out.update((name, self.counts[name]) for name in COUNTERS)
        return out


def _rank(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


EMITTERS = ("experiments.emit_table", "experiments.emit_heatmap_csv", "experiments.write_report_json")
PROFILE_BUILDERS = ("estimators.mean_part_profile", "estimators.variance_part_profile", "estimators.single_task_profile")
COUNTERS = (
    "optimize.grad_calls", "optimize.hess_calls", "optimize.value_grid_calls", "optimize.maxiter_hits",
    "optimize.win_zero", "optimize.win_limit", "optimize.win_grid", "optimize.win_newton",
    "experiments.pool_starts",
)

# Which traced pass each per-layer metric is taken from.  Pass A runs the
# workload's own --jobs, so it sees pool starts and every parent-side span;
# pass B runs --jobs 1, so it sees the spans inside each replicate.
PASS_B = {
    "optimize.minimize_calls", "optimize.minimize_s", "optimize.grad_calls", "optimize.hess_calls",
    "optimize.value_grid_calls", "optimize.maxiter_hits", "optimize.win_zero", "optimize.win_limit",
    "optimize.win_grid", "optimize.win_newton",
    "experiments.replicate_ms_p50", "experiments.replicate_ms_p99",
    "scenarios.build_ensemble_calls", "scenarios.build_ensemble_s", "scenarios.synth_spectrum_s",
    "scenarios.kernel_matrix_s",
    "spectral.spectrum_init_s", "spectral.eigendecompose_s", "spectral.project_tasks_s",
    "spectral.mean_variance_profile_s",
    "estimators.profile_build_calls", "estimators.profile_build_s",
    "oracles.compare_calls", "oracles.compare_self_s",
}

