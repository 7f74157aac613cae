"""Exact fixed-design oracle risks for multi-task kernel ridge regression.

The package computes, never estimates: risks are deterministic functionals
of a kernel spectrum and a set of task signals, and every oracle is an exact
one-dimensional minimization.  Randomness enters only through the seeded
scenario generators used by the Monte Carlo comparison harness.
"""

from .experiments import ExperimentReport, pvalue_pi1, pvalue_pi2
from .optimize import Search, minimize_profiles
from .oracles import rho_formula_1out, rho_formula_2points
from .riskfn import (
    Bounds,
    Regime,
    RiskParams,
    alpha_constant,
    integral_i1,
    integral_i2,
    kappa,
    minimize_risks,
)
from .scenarios import ScenarioKind, ScenarioSpec, build_ensemble, derive_seeds
from .spectral import KernelSpectrum, TaskEnsemble

__version__ = "0.1.0"
