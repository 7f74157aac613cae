"""Exact fixed-design oracle risks for multi-task kernel ridge regression.

The package computes, never estimates: risks are deterministic functionals
of a kernel spectrum and a set of task signals, and every oracle is an exact
one-dimensional minimization.  Randomness enters only through the seeded
scenario generators used by the Monte Carlo comparison harness.
"""

from .estimators import (
    RegularizerAV,
    RegularizerSD,
    RiskBreakdown,
    build_operator,
    penalty_value,
    risk_direct,
    risk_single_task,
    risk_spectral,
)
from .experiments import ExperimentReport, pvalue_pi1, pvalue_pi2, run_experiment
from .optimize import ProfileMinimum, RidgeRiskProfile, minimize_profile, minimize_profiles
from .oracles import (
    OracleResult,
    compare_oracles,
    df_and_bias,
    hm_bound_rhs,
    rho_formula_1out,
    rho_formula_2points,
)
from .riskfn import (
    BoundReport,
    Regime,
    RiskParams,
    alpha_constant,
    epsilon_cap,
    integral_i1,
    integral_i2,
    kappa,
    minimize_risk,
    risk_r,
    t_star,
)
from .scenarios import ScenarioKind, ScenarioSpec, build_ensemble, synth_spectrum
from .spectral import (
    KernelSpectrum,
    MeanVarianceProfile,
    TaskEnsemble,
    eigendecompose_kernel,
    mean_variance_profile,
    project_tasks,
)

__version__ = "0.1.0"
