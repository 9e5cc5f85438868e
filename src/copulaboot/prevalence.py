"""Prevalence adjustment for diagnostic test sensitivity and specificity.

Convenience layer over the bootstrap engine: fit beta marginals to the
three reported confidence intervals (apparent prevalence, sensitivity,
specificity), couple sensitivity and specificity through the Gaussian
copula, and adjust each draw with the Rogan-Gladen estimator. Also
provides the dependence-parameter sweep and scatter draws used for
sensitivity analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .copula import CorrelationMatrix, factor_correlation, validate_correlation_matrix
from .engine import (
    BootstrapConfig,
    Combiner,
    CombinedEstimate,
    _combine_chunk,
    _rogan_gladen_raw,
    boot_comb,
)
from .errors import DomainError, UninformativeTestError
from .fitting import FittedDistribution, QuantileConstraint, fit_from_quantiles
from .rng import RngStream

__all__ = [
    "PrevAdjustRequest",
    "RhoSweepRow",
    "rogan_gladen",
    "adjust_prevalence",
    "rho_sweep",
    "scatter_draws",
    "sens_spec_sigma",
]


def rogan_gladen(prev_raw: float, sens: float, spec: float) -> float:
    """True-prevalence estimate (apparent + spec - 1)/(sens + spec - 1).

    Truncated to [0, 1]. Requires an informative test: sens + spec > 1.
    """
    if not sens + spec > 1.0:
        raise DomainError(
            f"uninformative test: sens + spec = {sens + spec} must exceed 1"
        )
    raw = (prev_raw + (spec - 1.0)) / (sens + (spec - 1.0))
    return min(max(raw, 0.0), 1.0)


def sens_spec_sigma(rho: float) -> CorrelationMatrix:
    """The 3x3 matrix (order prev, sens, spec) with the given sens-spec correlation."""
    return validate_correlation_matrix(
        [[1.0, 0.0, 0.0], [0.0, 1.0, rho], [0.0, rho, 1.0]]
    )


def _check_ci(name: str, ci: Sequence[float]):
    low, upp = ci
    if not (0.0 < low < upp < 1.0):
        raise DomainError(
            f"{name} bounds must satisfy 0 < low < upp < 1, got ({low}, {upp})"
        )


@dataclass(frozen=True)
class PrevAdjustRequest:
    """Inputs for a prevalence adjustment (parameter order: prev, sens, spec)."""

    prev_ci: tuple[float, float]
    sens_ci: tuple[float, float]
    spec_ci: tuple[float, float]
    sigma: CorrelationMatrix
    config: BootstrapConfig
    point_estimates: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        _check_ci("prevCI", self.prev_ci)
        _check_ci("sensCI", self.sens_ci)
        _check_ci("specCI", self.spec_ci)
        if self.sigma.d != 3:
            raise DomainError(f"sigma must be 3x3, got {self.sigma.d}x{self.sigma.d}")


@dataclass(frozen=True)
class RhoSweepRow:
    """One point of the dependence sweep: interval bounds and width at rho."""

    rho: float
    low: float
    upp: float
    width: float


def _fit_marginals(req: PrevAdjustRequest) -> list[FittedDistribution]:
    return [
        fit_from_quantiles("beta", QuantileConstraint(*ci))
        for ci in (req.prev_ci, req.sens_ci, req.spec_ci)
    ]


def _guarded_rogan_gladen() -> Combiner:
    # raw (untruncated) adjustment; draws landing outside (0, 1) are dropped
    # by boot_comb via valid_range, which is what reproduces the published
    # intervals. Aborts when any draw has sens + spec <= 1, since silently
    # handling such draws would hide mis-specified inputs.
    def fn(x):
        bad = int(np.count_nonzero(x[:, 1] + x[:, 2] <= 1.0))
        if bad:
            raise UninformativeTestError(
                f"{bad} sampled draw(s) had sensitivity + specificity <= 1; "
                "check the sensitivity and specificity intervals",
                count=bad,
            )
        return _rogan_gladen_raw(x)

    return Combiner(fn, 3, "roganGladen")


def adjust_prevalence(req: PrevAdjustRequest, stream_id: int = 0) -> CombinedEstimate:
    """Bootstrap confidence interval for the Rogan-Gladen adjusted prevalence.

    Each draw is adjusted with the raw estimator; draws falling outside
    (0, 1) are excluded before the interval is computed and counted in the
    diagnostics. The reported point estimate uses the truncated estimator.
    """
    marginals = _fit_marginals(req)
    est = boot_comb(
        marginals,
        req.sigma,
        _guarded_rogan_gladen(),
        req.config,
        stream_id=stream_id,
        valid_range=(0.0, 1.0),
    )
    if req.point_estimates is not None:
        point = rogan_gladen(*req.point_estimates)
        est = replace(est, point_estimate=point)
    return est


def rho_sweep(
    req: PrevAdjustRequest, rho_grid: Sequence[float]
) -> list[RhoSweepRow]:
    """Recompute the adjusted-prevalence interval across sens-spec correlations.

    Row i runs on the stream (config.seed, i) so each row is independently
    reproducible; the row at grid index 0 with rho=0 coincides exactly with
    ``adjust_prevalence`` under the identity matrix.
    """
    rows = []
    for i, rho in enumerate(rho_grid):
        if not -1.0 <= rho <= 1.0:
            raise DomainError(f"correlation must be in [-1, 1], got {rho}")
        row_req = replace(req, sigma=sens_spec_sigma(rho))
        est = adjust_prevalence(row_req, stream_id=i)
        rows.append(
            RhoSweepRow(rho=rho, low=est.low, upp=est.upp, width=est.upp - est.low)
        )
    return rows


def scatter_draws(
    sens_ci: tuple[float, float],
    spec_ci: tuple[float, float],
    rho: float,
    m: int,
    seed: int,
) -> np.ndarray:
    """m x 2 matrix of copula-coupled (sensitivity, specificity) draws."""
    if m < 1:
        raise DomainError(f"m must be >= 1, got {m}")
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"correlation must be in [-1, 1], got {rho}")
    marginals = [
        fit_from_quantiles("beta", QuantileConstraint(*ci))
        for ci in (sens_ci, spec_ci)
    ]
    sigma = validate_correlation_matrix([[1.0, rho], [rho, 1.0]])
    return _combine_chunk(marginals, factor_correlation(sigma), RngStream(seed), 0, m)
