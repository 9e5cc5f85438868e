"""Monte-Carlo coverage harness for the combined-parameter intervals.

Repeatedly simulates the input experiments at known true parameter values,
reruns the full pipeline (exact binomial CI, beta fit, copula bootstrap),
and scores how often the resulting interval contains the true combined
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox
from scipy import special

from .copula import CorrelationMatrix
from .engine import BootstrapConfig, Combiner, boot_comb
from .errors import DomainError, FitError
from .fitting import QuantileConstraint, fit_from_quantiles
from .rng import _count, _level, derive_seed

__all__ = [
    "CoverageScenario",
    "CoverageResult",
    "clopper_pearson",
    "run_coverage",
]

# a run with more than this fraction of excluded trials is considered failed
MAX_EXCLUDED_FRACTION = 0.01


@dataclass(frozen=True)
class CoverageScenario:
    """A coverage experiment: true parameters plus the simulated data model."""

    true_params: tuple[float, ...]
    data_sizes: tuple[int, ...]  # binomial experiment size per parameter
    combiner: Combiner
    true_combined: float
    sigma: CorrelationMatrix
    config: BootstrapConfig
    trials: int

    def __post_init__(self):
        d = len(self.true_params)
        if len(self.data_sizes) != d or self.sigma.d != d or self.combiner.arity != d:
            raise DomainError("scenario dimensions are inconsistent")
        _count("trials", self.trials)
        if not all(0.0 <= p <= 1.0 for p in self.true_params):
            raise DomainError(f"trueParams must lie in [0, 1], got {self.true_params}")
        for i, k in enumerate(self.data_sizes):
            _count(f"dataSizes[{i}]", k)
        check = float(
            self.combiner(np.asarray(self.true_params, dtype=float)[None, :])[0]
        )
        if not math.isfinite(check):
            raise DomainError(f"the combiner at trueParams is not finite ({check})")
        # written so that a NaN trueCombined fails the match too
        if not abs(check - self.true_combined) <= 1e-12:
            raise DomainError(
                f"trueCombined={self.true_combined} does not match the combiner "
                f"at trueParams ({check})"
            )


@dataclass(frozen=True)
class CoverageResult:
    coverage: float
    mean_width: float
    mc_std_err: float
    excluded_trials: int
    trials: int


def clopper_pearson(
    successes: int, size: int, level: float = 0.95
) -> tuple[float, float]:
    """Exact binomial confidence interval via beta quantiles."""
    _level("level", level)
    if not 0 <= successes <= size:
        raise DomainError(f"need 0 <= successes <= size, got {successes}/{size}")
    alpha = 1.0 - level
    low = (
        0.0
        if successes == 0
        else float(special.betaincinv(successes, size - successes + 1, alpha / 2))
    )
    upp = (
        1.0
        if successes == size
        else float(special.betaincinv(successes + 1, size - successes, 1 - alpha / 2))
    )
    return low, upp


def run_coverage(scenario: CoverageScenario, master_seed: int) -> CoverageResult:
    """Run the coverage experiment; trials use seeds derived from (master, index).

    Each trial's input CIs are 95% Clopper-Pearson intervals, the level the
    beta fit's default (0.025, 0.975) quantile constraint assumes;
    ``config.level`` sets only the level of the bootstrap interval.

    Trials whose simulated CI cannot be fitted (e.g. zero successes, giving
    a degenerate interval) are excluded with a count; more than 1% exclusions
    fails the run.
    """
    hits = 0
    widths = []
    excluded = 0
    d = len(scenario.true_params)

    for t in range(scenario.trials):
        trial_seed = derive_seed(master_seed, t)
        # data simulation uses its own stream so it cannot collide with the
        # bootstrap draws of the same trial
        data_rng = Generator(Philox(key=[trial_seed, 0xD47A]))
        try:
            marginals = []
            for i in range(d):
                k = int(data_rng.binomial(scenario.data_sizes[i], scenario.true_params[i]))
                low, upp = clopper_pearson(k, scenario.data_sizes[i])
                if low <= 0.0 or upp >= 1.0:
                    raise FitError("degenerate simulated confidence interval")
                marginals.append(
                    fit_from_quantiles("beta", QuantileConstraint(low, upp))
                )
            config = replace(scenario.config, seed=trial_seed)
            est = boot_comb(marginals, scenario.sigma, scenario.combiner, config)
        except FitError:
            excluded += 1
            continue
        if est.low <= scenario.true_combined <= est.upp:
            hits += 1
        widths.append(est.upp - est.low)

    if excluded > MAX_EXCLUDED_FRACTION * scenario.trials:
        raise FitError(
            f"{excluded} of {scenario.trials} trials excluded "
            f"(> {MAX_EXCLUDED_FRACTION:.0%}); the scenario is unusable"
        )
    scored = scenario.trials - excluded
    coverage = hits / scored
    return CoverageResult(
        coverage=coverage,
        mean_width=float(np.mean(widths)) if widths else math.nan,
        mc_std_err=math.sqrt(coverage * (1.0 - coverage) / scored),
        excluded_trials=excluded,
        trials=scenario.trials,
    )
