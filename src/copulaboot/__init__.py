"""Confidence intervals for combinations of estimated parameters.

Fits parametric marginals to reported confidence intervals, draws
correlated parametric-bootstrap samples through a Gaussian copula, combines
them with a user-supplied function, and summarizes the result with a
percentile or highest-density interval.
"""

from .copula import (
    CorrelationFactor,
    CorrelationMatrix,
    factor_correlation,
    validate_correlation_matrix,
)
from .coverage import CoverageResult, CoverageScenario, clopper_pearson, run_coverage
from .distributions import (
    DistributionSpec,
    Family,
    cdf,
    pdf,
    quantile,
    std_normal_cdf,
    std_normal_quantile,
)
from .engine import (
    BootstrapConfig,
    CombinedEstimate,
    Combiner,
    EmpiricalSample,
    boot_comb,
    draw_dependent_samples,
    hdi_interval,
    percentile_interval,
)
from .errors import (
    CopulabootError,
    DomainError,
    EvalError,
    FitError,
    InvalidCorrelationError,
    NonFiniteDrawError,
    ParseError,
    UninformativeTestError,
)
from .exprlang import eval_expression, free_variables, parse_expression, unparse
from .fitting import (
    FittedDistribution,
    QuantileConstraint,
    fit_from_quantiles,
    fit_residual,
)
from .prevalence import (
    PrevAdjustRequest,
    RhoSweepRow,
    adjust_prevalence,
    rho_sweep,
    rogan_gladen,
    scatter_draws,
    sens_spec_sigma,
)
from .rng import RngStream, derive_seed

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BootstrapConfig",
    "CombinedEstimate",
    "Combiner",
    "CopulabootError",
    "CorrelationFactor",
    "CorrelationMatrix",
    "CoverageResult",
    "CoverageScenario",
    "DistributionSpec",
    "DomainError",
    "EmpiricalSample",
    "EvalError",
    "Family",
    "FitError",
    "FittedDistribution",
    "InvalidCorrelationError",
    "NonFiniteDrawError",
    "ParseError",
    "PrevAdjustRequest",
    "QuantileConstraint",
    "RhoSweepRow",
    "RngStream",
    "UninformativeTestError",
    "adjust_prevalence",
    "boot_comb",
    "cdf",
    "clopper_pearson",
    "derive_seed",
    "draw_dependent_samples",
    "eval_expression",
    "factor_correlation",
    "fit_from_quantiles",
    "fit_residual",
    "free_variables",
    "hdi_interval",
    "parse_expression",
    "pdf",
    "percentile_interval",
    "quantile",
    "rho_sweep",
    "rogan_gladen",
    "run_coverage",
    "scatter_draws",
    "sens_spec_sigma",
    "std_normal_cdf",
    "std_normal_quantile",
    "unparse",
    "validate_correlation_matrix",
]
