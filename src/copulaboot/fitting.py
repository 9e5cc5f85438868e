"""Fit marginal distribution parameters to a reported confidence interval.

Given two quantile constraints (typically the 2.5% and 97.5% points of a
reported 95% CI), recover the parameters of a chosen family. Each family
has one deterministic method: a closed form for the normal; for the gamma
and the beta, one bracketed root (Brent's method) over a log parameter,
with the other parameter in closed form (gamma) or from one library
inverse, ``special.btdtrib`` (beta); and for the exponential, the global
least-squares rate on the probability scale: the best point of a grid over
log rate, polished by Brent's bounded minimiser. The Brent root and the
Brent minimiser are the package's own, step for step as scipy's ``brentq``
and ``fminbound``, so that importing the package loads no ``scipy.optimize``.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import DistributionSpec, Family, cdf, std_normal_quantile
from .errors import DomainError, FitError
from .rng import _level, _real

__all__ = [
    "QuantileConstraint",
    "FittedDistribution",
    "fit_from_quantiles",
]

# two-parameter families must meet both constraints to this tolerance
FIT_TOL = 1e-6

# a failed fit of a CI narrower than this, relative to its larger bound, is
# put down to the double-precision cdf, which resolves about 1e-9
_RESOLVED_WIDTH = 1e-8


@dataclass(frozen=True)
class QuantileConstraint:
    """Two quantile constraints: cdf(q_low) = alpha_low, cdf(q_upp) = alpha_upp."""

    q_low: float
    q_upp: float
    alpha_low: float = 0.025
    alpha_upp: float = 0.975

    def __post_init__(self):
        _real("qLow", self.q_low)
        _real("qUpp", self.q_upp)
        if not self.q_low < self.q_upp:
            raise DomainError(
                f"qLow must be < qUpp, got ({self.q_low}, {self.q_upp})"
            )
        _level("alphaLow", self.alpha_low)
        _level("alphaUpp", self.alpha_upp)
        if not self.alpha_low < self.alpha_upp:
            raise DomainError(
                f"need alphaLow < alphaUpp, got ({self.alpha_low}, {self.alpha_upp})"
            )


@dataclass(frozen=True)
class FittedDistribution:
    """A marginal distribution fitted to a quantile constraint."""

    spec: DistributionSpec
    constraint: QuantileConstraint
    residual: float


def _fit_residual(spec: DistributionSpec, constraint: QuantileConstraint) -> float:
    """Euclidean fit error on the probability scale.

    sqrt[(cdf(qLow) - alphaLow)^2 + (cdf(qUpp) - alphaUpp)^2]; zero iff both
    constraints are met exactly.
    """
    r_low = cdf(spec, constraint.q_low) - constraint.alpha_low
    r_upp = cdf(spec, constraint.q_upp) - constraint.alpha_upp
    return math.hypot(r_low, r_upp)


def _narrow_ci_note(family: Family, c: QuantileConstraint) -> str:
    """Why a fit of a CI too narrow for its cdf failed; empty for wider CIs."""
    width = (c.q_upp - c.q_low) / max(abs(c.q_low), abs(c.q_upp))
    if width >= _RESOLVED_WIDTH:
        return ""
    return (
        f"; the CI's relative width {width:.1e} is below what the "
        f"double-precision {family.value} cdf resolves (~1e-9)"
    )


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
    ``f`` changes sign; a NaN from ``f``, |log| past 700 or no convergence in
    ``_ROOT_MAXITER`` steps raises FitError.
    """
    lo, hi, step = x0 - 1.0, x0 + 1.0, 2.0
    while abs(lo) < 700.0 and abs(hi) < 700.0:
        f_lo, f_hi = f(lo), f(hi)
        if math.isnan(f_lo) or math.isnan(f_hi):
            raise FitError(f"root function is NaN while bracketing the {what}")
        # not f_lo * f_hi <= 0, which two tiny values of one sign underflow
        if min(f_lo, f_hi) <= 0.0 <= max(f_lo, f_hi):
            return _brent_root(f, lo, hi, float(f_lo), float(f_hi), what)
        lo, hi, step = lo - step, hi + step, 2.0 * step
    raise FitError(f"no bracket for the {what} with its log inside (-700, 700)")


# scipy's brentq at xtol=1e-15: its relative tolerance and its step cap
_ROOT_XTOL = 1e-15
_ROOT_RTOL = 4.0 * sys.float_info.epsilon
_ROOT_MAXITER = 100


def _brent_root(f, xpre, xcur, fpre, fcur, what):
    """Root of ``f`` between ``xpre`` and ``xcur``, where it is ``fpre`` and ``fcur``.

    Brent-Dekker (Brent, *Algorithms for Minimization without Derivatives*,
    1973, ch. 4), step for step as scipy's ``brentq``: a secant or inverse
    quadratic step where it is short enough, a bisection where it is not.
    """
    if fpre == 0.0:
        return xpre
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if (fpre < 0.0) != (fcur < 0.0):  # a new bracket [xblk, xcur]
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # xcur is the best point so far
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_XTOL + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic; a zero denominator is C's infinite step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
        if math.isnan(fcur):
            raise FitError(f"root function is NaN solving for the {what}")
    raise FitError(f"no root for the {what} within {_ROOT_MAXITER} Brent steps")


def _bounded_min(f, a, b, xatol):
    """Minimiser of ``f`` over [a, b], to ``xatol``.

    Brent's method (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 5), step for step as scipy's bounded ``minimize_scalar``
    (``fminbound``): parabolic steps through the three best points, golden
    section where a parabola is not acceptable, at most 500 evaluations.
    """
    sqrt_eps, golden_mean = math.sqrt(2.2e-16), 0.5 * (3.0 - math.sqrt(5.0))
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = float(f(xf))
    for _ in range(499):
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol1:  # try a parabola through xf, nfc and fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                if xf + rat - a < tol2 or b - (xf + rat) < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
    return xf


def _fit_normal(c: QuantileConstraint) -> DistributionSpec:
    # closed form: two constraints, two linear unknowns after z-transform
    z_low = std_normal_quantile(c.alpha_low)
    z_upp = std_normal_quantile(c.alpha_upp)
    sigma = (c.q_upp - c.q_low) / (z_upp - z_low)
    mu = c.q_low - sigma * z_low
    return DistributionSpec(Family.NORMAL, (mu, sigma))


def _fit_exponential(c: QuantileConstraint) -> DistributionSpec:
    # least squares over t = log(rate). Every stationary point lies between
    # the t_i that meet one constraint each, so the best point of a grid over
    # that span, widened by 1, is within a step of the global minimum; Brent's
    # minimiser polishes it over the offset s, to a tolerance not relative to t
    pairs = ((c.q_low, c.alpha_low), (c.q_upp, c.alpha_upp))

    def objective(s, t=0.0):  # of a float or an array; hypot does not underflow
        return np.hypot(*(-np.expm1(-np.exp(t + s) * q) - a for q, a in pairs))

    with np.errstate(over="ignore", divide="ignore"):
        t_i = [np.log(-np.log1p(-a) / q) for q, a in pairs]
        lo, hi = min(t_i) - 1.0, max(t_i) + 1.0
        # so that exp(t) stays a positive double a grid step past either end
        if not -740.0 < lo < hi < 708.0:
            raise FitError(f"exponential log rate leaves (-740, 708) for {pairs}")
        grid, h = np.linspace(lo, hi, 1025, retstep=True)
        t = grid[np.argmin(objective(grid))]
        s = _bounded_min(lambda s: objective(s, t), -float(h), float(h), 1e-12)
    return DistributionSpec(Family.EXPONENTIAL, (math.exp(t + s),))


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
    # btdtrib(a, alpha_upp, q_upp) is the b that puts alpha_upp at q_upp;
    # one root in a then matches cdf(q_low; a, b(a)) = alpha_low
    m, z = _moment_start(c)
    log_a0 = math.log(max(z * z * (1.0 - m) - m, 1e-3 * m))

    def b_of(t):
        return float(special.btdtrib(math.exp(t), c.alpha_upp, c.q_upp))

    def low_gap(t):
        return special.betainc(math.exp(t), b_of(t), c.q_low) - c.alpha_low

    log_a = _log_root(low_gap, log_a0, "beta parameter a")
    return DistributionSpec(Family.BETA, (math.exp(log_a), b_of(log_a)))


def fit_from_quantiles(
    family: Family | str, constraint: QuantileConstraint
) -> FittedDistribution:
    """Fit a distribution of the given family to a quantile constraint.

    Two-parameter families must reproduce both constraints to within
    ``FIT_TOL`` on the probability scale or a :class:`FitError` is raised.
    The exponential (one parameter, two constraints) returns the global
    least-squares rate and reports the combined residual; a warning is
    emitted when that residual exceeds 1e-3.
    """
    family = Family.from_name(family)
    _check_support(family, constraint)

    fitters = {Family.NORMAL: _fit_normal, Family.EXPONENTIAL: _fit_exponential,
               Family.GAMMA: _fit_gamma, Family.BETA: _fit_beta}
    try:
        spec = fitters[family](constraint)
    except FitError as exc:
        note = _narrow_ci_note(family, constraint)
        raise FitError(f"{exc}{note}") from None

    residual = _fit_residual(spec, constraint)
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
            f"> {FIT_TOL} for constraint {constraint}"
            + _narrow_ci_note(family, constraint)
        )
    return FittedDistribution(spec=spec, constraint=constraint, residual=residual)
