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
    ROGAN_GLADEN,
    ROGAN_GLADEN_NAMES,
    BootstrapConfig,
    Combiner,
    CombinedEstimate,
    _allocate,
    _sample,
    boot_comb,
)
from .errors import DomainError, UninformativeTestError
from .fitting import FittedDistribution, QuantileConstraint, fit_from_quantiles
from .rng import RngStream, _count, _seed

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
    """The Rogan-Gladen true-prevalence estimate, truncated to [0, 1].

    Requires an informative test: sens + spec > 1.
    """
    if not sens + spec > 1.0:
        raise DomainError(
            f"uninformative test: sens + spec = {sens + spec} must exceed 1"
        )
    x = np.array([[prev_raw, sens, spec]], dtype=float)
    return float(Combiner.rogan_gladen()(x)[0])


def sens_spec_sigma(rho: float) -> CorrelationMatrix:
    """The 3x3 matrix (order prev, sens, spec) with the given sens-spec correlation."""
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [-1, 1], got {rho}")
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
        if self.point_estimates is not None:
            if not all(0.0 <= v <= 1.0 for v in self.point_estimates):
                raise DomainError(
                    "point estimates (prev, sens, spec) must be finite and in "
                    f"[0, 1], got {self.point_estimates}"
                )
            rogan_gladen(*self.point_estimates)  # raises on an uninformative test


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


_RAW_ROGAN_GLADEN = Combiner.from_expression(ROGAN_GLADEN, ROGAN_GLADEN_NAMES)


def _informative_rogan_gladen(x: np.ndarray) -> np.ndarray:
    # raw (untruncated) adjustment: boot_comb's valid_range drops draws
    # outside (0, 1), which reproduces the published intervals. A draw with
    # sens + spec <= 1 aborts, as it points at mis-specified inputs.
    bad = int(np.count_nonzero(x[:, 1] + x[:, 2] <= 1.0))
    if bad:
        raise UninformativeTestError(
            f"{bad} sampled draw(s) had sensitivity + specificity <= 1; "
            "check the sensitivity and specificity intervals"
        )
    return _RAW_ROGAN_GLADEN.fn(x)


_GUARDED_ROGAN_GLADEN = Combiner(_informative_rogan_gladen, 3, "roganGladen")


def _adjusted_interval(marginals, sigma, config, stream_id: int) -> CombinedEstimate:
    return boot_comb(
        marginals, sigma, _GUARDED_ROGAN_GLADEN, config,
        stream_id=stream_id, valid_range=(0.0, 1.0),
    )


def adjust_prevalence(req: PrevAdjustRequest) -> CombinedEstimate:
    """Bootstrap confidence interval for the Rogan-Gladen adjusted prevalence.

    Each draw is adjusted with the raw estimator; draws falling outside
    (0, 1) are excluded before the interval is computed and counted in the
    diagnostics. The reported point estimate uses the truncated estimator.
    """
    est = _adjusted_interval(_fit_marginals(req), req.sigma, req.config, 0)
    if req.point_estimates is not None:
        est = replace(est, point_estimate=rogan_gladen(*req.point_estimates))
    return est


def rho_sweep(
    req: PrevAdjustRequest, rho_grid: Sequence[float]
) -> list[RhoSweepRow]:
    """Recompute the adjusted-prevalence interval across sens-spec correlations.

    Every rho's matrix is built (and so checked) and the three marginals are
    fitted once, before row 0. Row i runs on the stream (config.seed, i), so
    each row is independently reproducible and row 0 at rho=0 equals
    ``adjust_prevalence`` under the identity matrix. ``req.sigma`` and
    ``req.point_estimates`` are ignored.
    """
    sigmas = [sens_spec_sigma(rho) for rho in rho_grid]
    marginals = _fit_marginals(req)
    rows = []
    for i, (rho, sigma) in enumerate(zip(rho_grid, sigmas)):
        est = _adjusted_interval(marginals, sigma, req.config, i)
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
    _count("m", m)
    _seed("seed", seed)
    if not -1.0 <= rho <= 1.0:
        raise DomainError(f"rho must be in [-1, 1], got {rho}")
    _check_ci("sensCI", sens_ci)
    _check_ci("specCI", spec_ci)
    (draws,) = _allocate(m, (m, 2))  # refuses an m too big, before sampling
    marginals = [
        fit_from_quantiles("beta", QuantileConstraint(*ci))
        for ci in (sens_ci, spec_ci)
    ]
    sigma = validate_correlation_matrix([[1.0, rho], [rho, 1.0]])
    _sample(marginals, factor_correlation(sigma), RngStream(seed), m, draws.__setitem__)
    return draws
