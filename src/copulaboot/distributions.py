"""Continuous univariate distribution kernels.

CDF and quantile (inverse CDF) for the supported marginal families,
plus the standard normal CDF and its inverse. All functions accept scalars
or numpy arrays and are pure, so they are safe for concurrent use.

The beta and gamma quantiles are evaluated from a table of the inverse CDF
that each ``DistributionSpec`` builds on first use: cubic Hermite
interpolation with knots uniform in the latent z = Phi^-1(p) (Hoermann and
Leydold's HINV, ACM TOMACS 13(4), 2003, indexed by z instead of p), with
the exact kernel wherever the table cannot meet its stated bound.

Parameters use the natural parameterization throughout: beta(alpha, beta),
normal(mu, sigma), gamma(shape, rate), exponential(rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import special

from .errors import DomainError
from .rng import _real

__all__ = [
    "Family",
    "DistributionSpec",
    "cdf",
    "quantile",
    "std_normal_cdf",
    "std_normal_quantile",
]


class Family(str, Enum):
    """Supported continuous marginal families (closed set)."""

    BETA = "beta"
    NORMAL = "normal"
    GAMMA = "gamma"
    EXPONENTIAL = "exponential"

    @classmethod
    def from_name(cls, name) -> "Family":
        """The family named ``name``, in any case; a member passes through."""
        if isinstance(name, cls):
            return name
        try:
            return cls(name.lower())
        except (AttributeError, ValueError):  # not a string, or no such family
            valid = ", ".join(f.value for f in cls)
            raise DomainError(
                f"unknown distribution family {name!r}; expected one of: {valid}"
            ) from None


# inverse-CDF table: knots uniform in z over [-_TABLE_Z, _TABLE_Z], which
# covers every latent z a stream uniform can give, ndtri(2^-53) = -8.2095 to
# 8.2095, except the clamp of u = 0 (z = -37.05)
_TABLE_KNOTS = 1024
_TABLE_Z = 8.25
_TABLE_STEP = 2.0 * _TABLE_Z / (_TABLE_KNOTS - 1)
# a cell whose cubic misses the exact y = logit x (beta) or log x (gamma) by
# more than this at its midpoint, where a Hermite cubic errs most, is
# evaluated by the exact kernel; half the stated bound of 1e-9 leaves room
# for the error off the midpoint and for the exact kernel's own error
_TABLE_MIDPOINT_TOL = 5e-10
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# parameter names per family, in order
_PARAM_NAMES = {
    Family.BETA: ("alpha", "beta"),
    Family.NORMAL: ("mu", "sigma"),
    Family.GAMMA: ("shape", "rate"),
    Family.EXPONENTIAL: ("rate",),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A fully parameterized continuous distribution.

    Parameter order: beta(alpha>0, beta>0), normal(mu, sigma>0),
    gamma(shape>0, rate>0), exponential(rate>0).
    """

    family: Family
    params: tuple[float, ...]

    def __post_init__(self):
        family = Family.from_name(self.family)
        names, params = _PARAM_NAMES[family], tuple(self.params)
        if len(params) != len(names):
            raise DomainError(
                f"{family.value} takes {len(names)} parameters, got {len(params)}"
            )
        params = tuple(_real(f"{family.value} {n}", p) for n, p in zip(names, params))
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)
        if family is Family.BETA and (params[0] <= 0 or params[1] <= 0):
            raise DomainError(f"beta requires alpha>0 and beta>0, got {params}")
        if family is Family.NORMAL and params[1] <= 0:
            raise DomainError(f"normal requires sigma>0, got sigma={params[1]}")
        if family is Family.GAMMA and (params[0] <= 0 or params[1] <= 0):
            raise DomainError(f"gamma requires shape>0 and rate>0, got {params}")
        if family is Family.EXPONENTIAL and params[0] <= 0:
            raise DomainError(f"exponential requires rate>0, got rate={params[0]}")

    @cached_property
    def _inverse_table(self):
        return _build_inverse_table(self)


def _check_finite(x, what: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"non-finite {what}: {x!r}")
    return arr


def cdf(spec: DistributionSpec, x):
    """Cumulative distribution function Pr[X <= x].

    Returns 0 below the support and 1 above it; continuous on the support.
    """
    xv = _check_finite(x, "x")
    fam, p = spec.family, spec.params
    if fam is Family.BETA:
        out = special.betainc(p[0], p[1], np.clip(xv, 0.0, 1.0))
    elif fam is Family.NORMAL:
        out = special.ndtr((xv - p[0]) / p[1])
    elif fam is Family.GAMMA:
        out = np.where(xv > 0.0, special.gammainc(p[0], p[1] * np.maximum(xv, 0.0)), 0.0)
    else:  # exponential; a rate * x past 1.8e308 is -expm1(-inf) = 1
        with np.errstate(over="ignore"):
            out = np.where(xv > 0.0, -np.expm1(-p[0] * np.maximum(xv, 0.0)), 0.0)
    return out if isinstance(x, np.ndarray) else float(out)


def quantile(spec: DistributionSpec, p):
    """Inverse CDF: the x with cdf(spec, x) = p, for p strictly in (0, 1).

    Beta and gamma quantiles come from the spec's inverse-CDF table. Against
    the exact inverse at z = Phi^-1(p), taken from whichever tail gives x and
    1 - x to full relative precision, the result x_hat obeys
    |x_hat - x| <= 1e-9 * min(x, 1 - x) + ulp(x) for the beta and
    |x_hat - x| <= 1e-9 * x + ulp(x) for the gamma. A p whose z lies outside
    the table, or in a cell that cannot meet the bound (saturated,
    subnormal or badly resolved), gets the exact kernel ``betaincinv`` /
    ``gammaincinv``. The normal and exponential quantiles are closed forms.
    """
    pv = np.asarray(p, dtype=float)
    if not np.all((pv > 0.0) & (pv < 1.0)):
        raise DomainError(f"quantile probability must be in (0, 1), got {p!r}")
    fam, par = spec.family, spec.params
    if fam is Family.NORMAL:
        out = par[0] + par[1] * special.ndtri(pv)
    elif fam is Family.EXPONENTIAL:  # closed form -log(1-p)/rate
        out = -np.log1p(-pv) / par[0]
    else:
        out = _tabulated_quantile(spec, pv)
    return out if isinstance(p, np.ndarray) else float(out)


def _exact_quantile(spec: DistributionSpec, pv: np.ndarray) -> np.ndarray:
    a, b = spec.params
    if spec.family is Family.BETA:
        return special.betaincinv(a, b, pv)
    return special.gammaincinv(a, pv) / b


def _latent_inverse(spec: DistributionSpec, z: np.ndarray):
    """(y, dy/dz, x) at the latent z for the beta or gamma x = Q(Phi(z)).

    y = logit x for the beta and log x for the gamma. Each inverse is taken
    at q = Phi(-|z|), the smaller tail mass, through the lower- or the
    upper-tail inverse, so it keeps full relative precision; for the beta,
    the smaller of x and 1 - x is inverted and the larger one formed from
    it. The slope is computed in logs, dy/dz = phi(z) / (f(x) x (1 - x))
    for the beta and phi(z) / (f(x) x) for the gamma.
    """
    q = special.ndtr(-np.abs(z))
    left = z <= 0.0
    log_phi = -0.5 * z * z - _LOG_SQRT_2PI
    a, b = spec.params
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if spec.family is Family.BETA:
            # v is x up to the z where x = 1/2 and 1 - x, a beta(b, a)
            # variate, beyond it; q is v's lower-tail mass where ``lower``
            seek_x = z <= special.ndtri(special.betainc(a, b, 0.5))
            lo, hi = np.where(seek_x, a, b), np.where(seek_x, b, a)
            lower = left == seek_x
            v = np.empty_like(z)
            v[lower] = special.betaincinv(lo[lower], hi[lower], q[lower])
            v[~lower] = special.betainccinv(lo[~lower], hi[~lower], q[~lower])
            x, c = np.where(seek_x, v, 1.0 - v), np.where(seek_x, 1.0 - v, v)
            log_x, log_c = np.log(x), np.log(c)
            y = log_x - log_c
            log_slope = log_phi - a * log_x - b * log_c + special.betaln(a, b)
        else:
            x = np.empty_like(z)
            x[left] = special.gammaincinv(a, q[left])
            x[~left] = special.gammainccinv(a, q[~left])
            log_x = np.log(x)
            y = log_x - math.log(b)
            log_slope = log_phi - a * log_x + x + special.gammaln(a)
            x = x / b
        return y, np.exp(log_slope), x


def _build_inverse_table(spec: DistributionSpec):
    """Per-cell Horner coefficients of y(s) on s in [0, 1), and exact cells.

    Row k of ``coef`` holds the s^k coefficient of each cell. Position 0 is
    below the table, positions 1 .. K-1 are the cells between the K knots
    and position K is above the table; the two ends, and every cell with an
    unusable knot or a midpoint error above ``_TABLE_MIDPOINT_TOL``, are
    flagged in ``exact``.
    """
    z = np.linspace(-_TABLE_Z, _TABLE_Z, 2 * _TABLE_KNOTS - 1)
    y, slope, x = _latent_inverse(spec, z)
    usable = np.isfinite(y) & np.isfinite(slope) & np.isfinite(x)
    usable &= x >= np.finfo(float).tiny
    if spec.family is Family.BETA:
        # within a few ulps of 1 the one-sided exact kernel may already round
        # to 1, and a saturated draw must get its 1.0
        usable &= x < 1.0 - 2.0**-50
    y0, y1, y_mid = y[0:-2:2], y[2::2], y[1::2]
    m0, m1 = _TABLE_STEP * slope[0:-2:2], _TABLE_STEP * slope[2::2]
    coef = np.zeros((4, _TABLE_KNOTS + 1))
    exact = np.ones(_TABLE_KNOTS + 1, dtype=bool)
    with np.errstate(invalid="ignore", over="ignore"):
        dy = y1 - y0
        cells = np.array([y0, m0, 3.0 * dy - 2.0 * m0 - m1, m0 + m1 - 2.0 * dy])
        at_mid = cells[0] + 0.5 * (cells[1] + 0.5 * (cells[2] + 0.5 * cells[3]))
        ok = usable[0:-2:2] & usable[1::2] & usable[2::2]
        ok &= np.abs(at_mid - y_mid) <= _TABLE_MIDPOINT_TOL
    coef[:, 1:-1] = np.where(ok, cells, 0.0)
    exact[1:-1] = ~ok
    coef.setflags(write=False)
    exact.setflags(write=False)
    return coef, exact


def _tabulated_quantile(spec: DistributionSpec, pv: np.ndarray) -> np.ndarray:
    """Beta or gamma quantile from the spec's table, in place, in one pass."""
    coef, exact = spec._inverse_table
    p = pv.reshape(-1)
    # cell coordinate: position 1 + (z + _TABLE_Z) / step, clipped to the
    # sentinel positions 0 and K; its fractional part is s
    t = special.ndtri(p)
    t *= 1.0 / _TABLE_STEP
    t += 1.0 + _TABLE_Z / _TABLE_STEP
    np.clip(t, 0.0, float(_TABLE_KNOTS), out=t)
    cell = t.astype(np.intp)
    t -= cell
    x = np.take(coef[3], cell)
    g = np.empty_like(x)
    for row in coef[2::-1]:
        x *= t
        # cell is in range; mode="raise" would gather via a hidden buffer
        x += np.take(row, cell, out=g, mode="clip")
    fallback = np.flatnonzero(exact[cell])
    if spec.family is Family.BETA:
        # x = 1/(1 + e^-y) from the smaller side, so that min(x, 1 - x)
        # keeps its relative precision: e/(1 + e) with e = e^-|y|, then
        # 1 - that where y > 0
        upper = x > 0.0
        np.abs(x, out=x)
        np.negative(x, out=x)
        np.exp(x, out=x)
        np.add(x, 1.0, out=g)
        np.divide(x, g, out=x)
        np.subtract(1.0, x, out=x, where=upper)
    else:
        np.exp(x, out=x)
    if fallback.size:
        x[fallback] = _exact_quantile(spec, p[fallback])
    return x.reshape(pv.shape)


# standard normal CDF Phi(z)
std_normal_cdf = special.ndtr


def std_normal_quantile(p):
    """Inverse standard normal CDF, for p strictly in (0, 1)."""
    pv = np.asarray(p, dtype=float)
    if not np.all((pv > 0.0) & (pv < 1.0)):
        raise DomainError(f"probability must be in (0, 1), got {p!r}")
    out = special.ndtri(pv)
    return out if isinstance(p, np.ndarray) else float(out)
