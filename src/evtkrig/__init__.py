"""Global CVaR estimation over simulation parameter domains: generalized
Pareto peaks-over-threshold tail estimation (point value plus delta-method
variance) feeding stochastic kriging, with the estimator variance treated
as intrinsic noise."""

from .design import BudgetAllocation, Domain, budget_catalog, equally_spaced, lhs
from .evt_risk import (
    GpdFit,
    RiskEstimate,
    SpectralMeasure,
    delta_variance,
    empirical_cvar,
    empirical_var,
    fit_gpd,
    fit_gpd_exceedances,
    gpd_cdf,
    gpd_logpdf,
    pot_cvar,
    pot_var,
    spectral_pot,
)
from .harness import (
    EMP_EMP,
    METHODS,
    ORD_KRG,
    POT_EMP,
    POT_EVT,
    ExperimentConfig,
    ResultRecord,
    estimate_site,
    run_experiment,
    wilcoxon_signed_rank,
)
from .kriging import DesignSite, KrigingModel
from .kriging import fit as fit_kriging
from .kriging import kernel
from .models import (
    benchmark_mean,
    san_simulate,
    san_true_cvar,
    sample_noise,
    true_cvar_benchmark,
)
from .rng import RngStream

__version__ = "0.1.0"

__all__ = [
    "BudgetAllocation", "Domain", "budget_catalog", "equally_spaced", "lhs",
    "GpdFit", "RiskEstimate", "SpectralMeasure", "delta_variance",
    "empirical_cvar", "empirical_var", "fit_gpd", "fit_gpd_exceedances",
    "gpd_cdf", "gpd_logpdf", "pot_cvar", "pot_var", "spectral_pot",
    "EMP_EMP", "METHODS", "ORD_KRG", "POT_EMP", "POT_EVT",
    "ExperimentConfig", "ResultRecord", "estimate_site", "run_experiment",
    "wilcoxon_signed_rank",
    "DesignSite", "KrigingModel", "fit_kriging", "kernel",
    "benchmark_mean", "san_simulate", "san_true_cvar", "sample_noise",
    "true_cvar_benchmark",
    "RngStream",
]
