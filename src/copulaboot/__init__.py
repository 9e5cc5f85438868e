"""Confidence intervals for combinations of estimated parameters.

Fits parametric marginals to reported confidence intervals, draws
correlated parametric-bootstrap samples through a Gaussian copula, combines
them with a user-supplied function, and summarizes the result with a
percentile or highest-density interval.

``__all__`` is the documented API (the README's "Public API" section).
Kernels and helpers below it stay reachable in their submodules.
"""

from .copula import CorrelationMatrix, validate_correlation_matrix
from .coverage import CoverageResult, CoverageScenario, run_coverage
from .distributions import DistributionSpec, Family
from .engine import (
    BootstrapConfig,
    CombinedEstimate,
    Combiner,
    EmpiricalSample,
    boot_comb,
)
from .errors import (
    CopulabootError,
    DomainError,
    FitError,
    InvalidCorrelationError,
    NonFiniteDrawError,
    ParseError,
    UninformativeTestError,
)
from .fitting import FittedDistribution, QuantileConstraint, fit_from_quantiles
from .prevalence import (
    PrevAdjustRequest,
    RhoSweepRow,
    adjust_prevalence,
    rho_sweep,
    scatter_draws,
    sens_spec_sigma,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # types
    "BootstrapConfig",
    "CombinedEstimate",
    "EmpiricalSample",
    "Combiner",
    "CorrelationMatrix",
    "DistributionSpec",
    "Family",
    "FittedDistribution",
    "QuantileConstraint",
    "PrevAdjustRequest",
    "RhoSweepRow",
    "CoverageScenario",
    "CoverageResult",
    # functions
    "fit_from_quantiles",
    "validate_correlation_matrix",
    "boot_comb",
    "adjust_prevalence",
    "sens_spec_sigma",
    "rho_sweep",
    "scatter_draws",
    "run_coverage",
    # errors
    "CopulabootError",
    "DomainError",
    "FitError",
    "InvalidCorrelationError",
    "NonFiniteDrawError",
    "ParseError",
    "UninformativeTestError",
]
