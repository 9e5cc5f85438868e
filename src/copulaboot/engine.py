"""Parametric bootstrap combination engine.

Draws N joint parameter samples through the Gaussian copula, applies the
combination function to each draw, and summarizes the empirical
distribution with a percentile or highest-density interval.

Work proceeds in chunks whose stream positions are fixed by draw index, so
the assembled sample (and therefore the interval) is identical for any
chunk size or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .copula import (
    CorrelationMatrix,
    factor_correlation,
    _draw_uniform_block,
)
from .distributions import quantile
from .errors import DomainError, NonFiniteDrawError
from .exprlang import Expr, eval_expression, free_variables, parse_expression
from .fitting import FittedDistribution
from .rng import RngStream

__all__ = [
    "BootstrapConfig",
    "EmpiricalSample",
    "CombinedEstimate",
    "Combiner",
    "boot_comb",
    "percentile_interval",
    "hdi_interval",
]

# interval estimates from fewer draws than this are refused as unstable
MIN_DRAWS = 1000


@dataclass(frozen=True)
class BootstrapConfig:
    """Configuration for a bootstrap run."""

    n: int = 1_000_000
    seed: int = 0
    method: str = "percentile"  # "percentile" or "hdi"
    level: float = 0.95
    return_boot_vals: bool = False
    chunk_size: int = 65_536
    threads: int = 1

    def __post_init__(self):
        if self.n < MIN_DRAWS:
            raise DomainError(f"n must be >= {MIN_DRAWS}, got {self.n}")
        if not 0.0 < self.level < 1.0:
            raise DomainError(f"level must be in (0, 1), got {self.level}")
        if self.method not in ("percentile", "hdi"):
            raise DomainError(
                f"method must be 'percentile' or 'hdi', got {self.method!r}"
            )
        if self.chunk_size < 1:
            raise DomainError(f"chunkSize must be >= 1, got {self.chunk_size}")
        if self.threads < 1:
            raise DomainError(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class EmpiricalSample:
    """The combined bootstrap values, plus the input draws when retained."""

    values: np.ndarray
    input_draws: Optional[np.ndarray] = None


@dataclass(frozen=True)
class CombinedEstimate:
    """A confidence interval for the combined parameter."""

    low: float
    upp: float
    method: str
    level: float
    n: int
    point_estimate: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)
    sample: Optional[EmpiricalSample] = None


def _rogan_gladen_raw(x: np.ndarray) -> np.ndarray:
    """Untruncated Rogan-Gladen (prev + (spec - 1))/(sens + (spec - 1)) per draw.

    Columns are (prev, sens, spec). Subtracting 1 from spec first (exact
    for spec >= 1/2) is the more accurate order; it is that of the scalar
    ``prevalence.rogan_gladen`` and of the parsed expression
    (prev+(spec-1))/(sens+(spec-1)), so the builtin and expression routes
    are bit-identical.
    """
    with np.errstate(all="ignore"):
        spec_m1 = x[:, 2] - 1.0
        return (x[:, 0] + spec_m1) / (x[:, 1] + spec_m1)


class Combiner:
    """A combination function of fixed arity applied draw-wise.

    ``fn`` maps an (n, d) matrix of parameter draws to an (n,) vector.
    Built-in combiners and parsed expressions share this interface.
    """

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], arity: int, label: str):
        self.fn = fn
        self.arity = arity
        self.label = label

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    @classmethod
    def product(cls, arity: int = 2) -> "Combiner":
        return cls(lambda x: np.prod(x, axis=1), arity, "product")

    @classmethod
    def sum(cls, arity: int = 2) -> "Combiner":
        return cls(lambda x: np.sum(x, axis=1), arity, "sum")

    @classmethod
    def identity(cls) -> "Combiner":
        return cls(lambda x: x[:, 0], 1, "identity")

    @classmethod
    def rogan_gladen(cls) -> "Combiner":
        def fn(x):
            return np.minimum(np.maximum(_rogan_gladen_raw(x), 0.0), 1.0)

        return cls(fn, 3, "roganGladen")

    @classmethod
    def from_name(cls, name: str, arity: Optional[int] = None) -> "Combiner":
        if name == "product":
            return cls.product(arity or 2)
        if name == "sum":
            return cls.sum(arity or 2)
        if name == "identity":
            return cls.identity()
        if name == "roganGladen":
            return cls.rogan_gladen()
        raise DomainError(
            f"unknown combiner {name!r}; expected one of: "
            "product, sum, identity, roganGladen"
        )

    @classmethod
    def from_expression(
        cls, text_or_ast, names: Optional[Sequence[str]] = None
    ) -> "Combiner":
        """Build a combiner from expression text (or a parsed tree).

        Marginal i is bound to the i-th free variable in first-appearance
        order unless an explicit name list is given.
        """
        ast: Expr = (
            parse_expression(text_or_ast)
            if isinstance(text_or_ast, str)
            else text_or_ast
        )
        names = list(names) if names is not None else free_variables(ast)
        missing = set(free_variables(ast)) - set(names)
        if missing:
            raise DomainError(f"expression variables not bound: {sorted(missing)}")

        def fn(x):
            bindings = {name: x[:, i] for i, name in enumerate(names)}
            return np.asarray(eval_expression(ast, bindings), dtype=float)

        label = text_or_ast if isinstance(text_or_ast, str) else "<expression>"
        return cls(fn, len(names), label)


def percentile_interval(values, level: float) -> tuple[float, float]:
    """Empirical quantiles at (1-level)/2 and 1-(1-level)/2.

    Linear interpolation of order statistics: with sorted x_0..x_{N-1} and
    h = (N-1)p, the quantile is x_floor(h) + frac(h) * (x_floor(h)+1 - x_floor(h)).
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DomainError(f"need at least 2 values, got {values.size}")
    alpha = (1.0 - level) / 2.0
    low, upp = np.quantile(values, [alpha, 1.0 - alpha], method="linear")
    return float(low), float(upp)


def hdi_interval(values, level: float) -> tuple[float, float]:
    """Shortest interval containing ceil(level * N) of the N sample values.

    Ties are broken by the smallest left index so the result is
    deterministic.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise DomainError(f"need at least 2 values, got {n}")
    s = np.sort(values)
    m = math.ceil(level * n)
    m = max(m, 1)
    widths = s[m - 1 :] - s[: n - m + 1]
    i = int(np.argmin(widths))  # argmin returns the first minimizer
    return float(s[i]), float(s[i + m - 1])


def _combine_chunk(
    marginals, factor, rng_base: RngStream, start: int, stop: int
) -> np.ndarray:
    """Parameter draws start..stop-1 as a (stop - start) x d matrix.

    Draw i consumes the d uniforms at stream positions c + i*d .. c + (i+1)*d - 1,
    where c is ``rng_base.counter``, so any chunking of the work reproduces
    the same draws. This is the package's only sampler.
    """
    d = len(marginals)
    rng = rng_base.at(rng_base.counter + start * d)
    u = _draw_uniform_block(factor, stop - start, d, rng)
    x = np.empty((stop - start, d))
    for i, marg in enumerate(marginals):
        x[:, i] = quantile(marg.spec, u[:, i])
    return x


def boot_comb(
    marginals: Sequence[FittedDistribution],
    sigma: CorrelationMatrix,
    combiner: Combiner,
    config: BootstrapConfig,
    stream_id: int = 0,
    valid_range: Optional[tuple[float, float]] = None,
) -> CombinedEstimate:
    """Run the full combination pipeline and summarize with an interval.

    The point estimate is the median of the kept combined sample. With
    ``valid_range`` set, combined values outside the open interval are
    excluded from the empirical sample before the interval is computed (the
    count is reported in the diagnostics). The result is identical for any
    chunk size and thread count.
    """
    d = len(marginals)
    if sigma.d != d:
        raise DomainError(
            f"dimension mismatch: {d} marginals but {sigma.d}x{sigma.d} matrix"
        )
    if combiner.arity != d:
        raise DomainError(
            f"dimension mismatch: {d} marginals but combiner arity {combiner.arity}"
        )

    factor = factor_correlation(sigma)
    rng_base = RngStream(config.seed, stream_id)
    n = config.n
    values = np.empty(n)
    draws = np.empty((n, d)) if config.return_boot_vals else None

    bounds = [
        (s, min(s + config.chunk_size, n)) for s in range(0, n, config.chunk_size)
    ]

    def run_chunk(span):
        start, stop = span
        x = _combine_chunk(marginals, factor, rng_base, start, stop)
        values[start:stop] = combiner(x)
        if draws is not None:
            draws[start:stop] = x

    if config.threads > 1 and len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            list(pool.map(run_chunk, bounds))
    else:
        for span in bounds:
            run_chunk(span)

    finite = np.isfinite(values)
    if not np.all(finite):
        idx = int(np.argmin(finite))
        # re-derive the inputs of the offending draw for the error message
        x = _combine_chunk(marginals, factor, rng_base, idx, idx + 1)
        raise NonFiniteDrawError(idx, x[0].tolist(), values[idx])

    dropped = 0
    kept_values = values
    kept_draws = draws
    if valid_range is not None:
        keep = (values > valid_range[0]) & (values < valid_range[1])
        dropped = int(n - np.count_nonzero(keep))
        if n - dropped < MIN_DRAWS:
            raise DomainError(
                f"only {n - dropped} of {n} combined values fall inside "
                f"{valid_range}; too few for a stable interval"
            )
        if dropped:
            kept_values = values[keep]
            kept_draws = draws[keep] if draws is not None else None

    if config.method == "percentile":
        low, upp = percentile_interval(kept_values, config.level)
    else:
        low, upp = hdi_interval(kept_values, config.level)

    eigs = np.linalg.eigvalsh(sigma.entries)
    diagnostics = {
        "fit_residuals": [m.residual for m in marginals],
        "sigma_min_eigenvalue": float(eigs[0]),
        "sigma_max_eigenvalue": float(eigs[-1]),
        "factor_rank": factor.rank,
        "draw_count": n,
        "dropped_outside_range": dropped,
    }
    sample = (
        EmpiricalSample(values=kept_values, input_draws=kept_draws)
        if config.return_boot_vals
        else None
    )
    return CombinedEstimate(
        low=low,
        upp=upp,
        method=config.method,
        level=config.level,
        n=n,
        point_estimate=float(np.median(kept_values)),
        diagnostics=diagnostics,
        sample=sample,
    )
