"""Fit marginal distribution parameters to a reported confidence interval.

Given two quantile constraints (typically the 2.5% and 97.5% points of a
reported 95% CI), recover the parameters of a chosen family. Each family
has one deterministic method: a closed form for the normal, bracketed
root-finding (Brent's method) on log parameters for the gamma and the beta,
and a 1-D least-squares fit on the probability scale for the exponential.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy import optimize, special

from .distributions import DistributionSpec, Family, cdf, std_normal_quantile
from .errors import DomainError, FitError

__all__ = [
    "QuantileConstraint",
    "FittedDistribution",
    "fit_from_quantiles",
    "fit_residual",
]

# two-parameter families must meet both constraints to this tolerance
FIT_TOL = 1e-6


@dataclass(frozen=True)
class QuantileConstraint:
    """Two quantile constraints: cdf(q_low) = alpha_low, cdf(q_upp) = alpha_upp."""

    q_low: float
    q_upp: float
    alpha_low: float = 0.025
    alpha_upp: float = 0.975

    def __post_init__(self):
        if not (math.isfinite(self.q_low) and math.isfinite(self.q_upp)):
            raise DomainError("quantiles must be finite")
        if not self.q_low < self.q_upp:
            raise DomainError(
                f"qLow must be < qUpp, got ({self.q_low}, {self.q_upp})"
            )
        if not 0.0 < self.alpha_low < self.alpha_upp < 1.0:
            raise DomainError(
                "need 0 < alphaLow < alphaUpp < 1, got "
                f"({self.alpha_low}, {self.alpha_upp})"
            )


@dataclass(frozen=True)
class FittedDistribution:
    """A marginal distribution fitted to a quantile constraint."""

    spec: DistributionSpec
    constraint: QuantileConstraint
    residual: float


def fit_residual(spec: DistributionSpec, constraint: QuantileConstraint) -> float:
    """Euclidean fit error on the probability scale.

    sqrt[(cdf(qLow) - alphaLow)^2 + (cdf(qUpp) - alphaUpp)^2]; zero iff both
    constraints are met exactly.
    """
    r_low = cdf(spec, constraint.q_low) - constraint.alpha_low
    r_upp = cdf(spec, constraint.q_upp) - constraint.alpha_upp
    return math.hypot(r_low, r_upp)


def _check_support(family: Family, c: QuantileConstraint):
    if family is Family.BETA and not (0.0 < c.q_low and c.q_upp < 1.0):
        raise DomainError(
            f"beta quantiles must lie in (0, 1), got ({c.q_low}, {c.q_upp})"
        )
    if family in (Family.GAMMA, Family.EXPONENTIAL) and c.q_low <= 0.0:
        raise DomainError(
            f"{family.value} quantiles must be positive, got qLow={c.q_low}"
        )


def _moment_start(c: QuantileConstraint) -> tuple[float, float]:
    # moment match: mean and mean/sd, as a (0.025, 0.975) CI spans ~3.92 sd
    m = 0.5 * (c.q_low + c.q_upp)
    return m, 3.92 * m / (c.q_upp - c.q_low)


def _log_root(f, x0: float, what: str) -> float:
    """Root of ``f`` over a log parameter, by Brent's method.

    The bracket [x0 - 1, x0 + 1] widens by a doubling step on each side until
    ``f`` changes sign; a NaN from ``f`` or |log| past 700 raises FitError.
    """
    lo, hi, step = x0 - 1.0, x0 + 1.0, 2.0
    while abs(lo) < 700.0 and abs(hi) < 700.0:
        f_lo, f_hi = f(lo), f(hi)
        if math.isnan(f_lo) or math.isnan(f_hi):
            raise FitError(f"root function is NaN while bracketing the {what}")
        if f_lo * f_hi <= 0.0:
            return optimize.brentq(f, lo, hi, xtol=1e-15)
        lo, hi, step = lo - step, hi + step, 2.0 * step
    raise FitError(f"no bracket for the {what} with its log inside (-700, 700)")


def _fit_normal(c: QuantileConstraint) -> DistributionSpec:
    # closed form: two constraints, two linear unknowns after z-transform
    z_low = std_normal_quantile(c.alpha_low)
    z_upp = std_normal_quantile(c.alpha_upp)
    sigma = (c.q_upp - c.q_low) / (z_upp - z_low)
    mu = c.q_low - sigma * z_low
    return DistributionSpec(Family.NORMAL, (mu, sigma))


def _fit_exponential(c: QuantileConstraint) -> DistributionSpec:
    # one parameter, two constraints: least squares over log(rate)
    rate0 = -math.log1p(-c.alpha_upp) / c.q_upp
    if rate0 == math.inf:
        raise FitError(f"exponential start rate overflows for qUpp={c.q_upp}")
    t0 = math.log(rate0)

    def objective(t):
        spec = DistributionSpec(Family.EXPONENTIAL, (math.exp(t),))
        return fit_residual(spec, c) ** 2

    res = optimize.minimize_scalar(objective, bracket=(t0 - 1.0, t0 + 1.0))
    return DistributionSpec(Family.EXPONENTIAL, (math.exp(res.x),))


def _fit_gamma(c: QuantileConstraint) -> DistributionSpec:
    # gamma is a scale family: gammaincinv(k, a_upp) / gammaincinv(k, a_low)
    # depends on the shape k alone and falls from inf to 1 as k grows
    target = math.log(c.q_upp) - math.log(c.q_low)

    def log_ratio_gap(t):
        upp, low = special.gammaincinv(math.exp(t), (c.alpha_upp, c.alpha_low))
        return math.log(upp) - math.log(low) - target if low > 0.0 else math.inf

    _, z = _moment_start(c)
    shape = math.exp(_log_root(log_ratio_gap, 2.0 * math.log(z), "gamma shape"))
    rate = float(special.gammaincinv(shape, c.alpha_low)) / c.q_low
    if not 0.0 < rate < math.inf:
        raise FitError(f"gamma rate {rate} is not a positive finite number")
    return DistributionSpec(Family.GAMMA, (shape, rate))


def _fit_beta(c: QuantileConstraint) -> DistributionSpec:
    # nested monotone solve: cdf(q_upp; a, b) rises in b, so b(a) is one
    # inner root; the outer root in a matches cdf(q_low; a, b(a)) = a_low
    m, z = _moment_start(c)
    log_a0 = math.log(max(z * z * (1.0 - m) - m, 1e-3 * m))
    log_odds = math.log1p(-m) - math.log(m)

    def b_of(t):
        def upp_gap(s):
            return special.betainc(math.exp(t), math.exp(s), c.q_upp) - c.alpha_upp

        return math.exp(_log_root(upp_gap, t + log_odds, "beta parameter b"))

    def low_gap(t):
        return special.betainc(math.exp(t), b_of(t), c.q_low) - c.alpha_low

    log_a = _log_root(low_gap, log_a0, "beta parameter a")
    return DistributionSpec(Family.BETA, (math.exp(log_a), b_of(log_a)))


def fit_from_quantiles(
    family: Family | str, constraint: QuantileConstraint
) -> FittedDistribution:
    """Fit a distribution of the given family to a quantile constraint.

    Two-parameter families must reproduce both constraints to within
    ``FIT_TOL`` on the probability scale or a :class:`FitError` is raised;
    its ``best_residual`` is ``None`` when no root bracket exists.
    The exponential (one parameter, two constraints) returns the
    least-squares optimum and reports the combined residual; a warning is
    emitted when that residual exceeds 1e-3.
    """
    family = Family.from_name(family) if isinstance(family, str) else family
    _check_support(family, constraint)

    fitters = {Family.NORMAL: _fit_normal, Family.EXPONENTIAL: _fit_exponential,
               Family.GAMMA: _fit_gamma, Family.BETA: _fit_beta}
    spec = fitters[family](constraint)

    residual = fit_residual(spec, constraint)
    if family is Family.EXPONENTIAL:
        if residual > 1e-3:
            warnings.warn(
                f"exponential fit is overdetermined; residual {residual:.3e} "
                "exceeds 1e-3",
                stacklevel=2,
            )
    elif residual > FIT_TOL:
        raise FitError(
            f"{family.value} fit did not converge: residual {residual:.3e} "
            f"> {FIT_TOL} for constraint {constraint}",
            best_residual=residual,
        )
    return FittedDistribution(spec=spec, constraint=constraint, residual=residual)
