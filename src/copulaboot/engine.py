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
from .errors import CopulabootError, DomainError, NonFiniteDrawError
from .exprlang import eval_expression, free_variables, parse_expression
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

DEFAULT_CHUNK_SIZE = 65_536


def _is_int(k) -> bool:
    # bool is an int subclass, but True is no count or seed
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


@dataclass(frozen=True)
class BootstrapConfig:
    """Configuration for a bootstrap run."""

    n: int = 1_000_000
    seed: int = 0
    method: str = "percentile"  # "percentile" or "hdi"
    level: float = 0.95
    return_boot_vals: bool = False
    chunk_size: int = DEFAULT_CHUNK_SIZE
    threads: int = 1

    def __post_init__(self):
        for label, k in (
            ("n", self.n), ("seed", self.seed),
            ("chunkSize", self.chunk_size), ("threads", self.threads),
        ):
            if not _is_int(k):
                raise DomainError(f"{label} must be an integer, got {k!r}")
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


# the Rogan-Gladen estimator of true prevalence from the apparent prevalence,
# sensitivity and specificity; subtracting 1 from spec first is exact for
# spec >= 1/2, so this order is the more accurate one
ROGAN_GLADEN = "(prev+(spec-1))/(sens+(spec-1))"
ROGAN_GLADEN_NAMES = ("prev", "sens", "spec")


def _allocate(n: int, *shapes):
    """Empty float arrays of the given shapes (None gives None) for n draws.

    numpy raises MemoryError for a size the machine cannot hold, or
    ValueError for one past its address space; either becomes a
    ``CopulabootError`` naming n and the bytes needed.
    """
    try:
        return [None if s is None else np.empty(s) for s in shapes]
    except (MemoryError, ValueError):
        need = 8 * sum(math.prod(s) for s in shapes if s is not None)
        raise CopulabootError(
            f"cannot allocate the sample of n={n} draws: it needs {need:,} bytes"
        ) from None


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
        if x.shape[1] != self.arity:
            raise DomainError(
                f"combiner {self.label!r} takes {self.arity} values per draw, "
                f"got {x.shape[1]}"
            )
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
        """The Rogan-Gladen estimator over (prev, sens, spec), clamped to [0, 1]."""
        text = f"min(max({ROGAN_GLADEN},0),1)"
        return cls(cls.from_expression(text, ROGAN_GLADEN_NAMES).fn, 3, "roganGladen")

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
        cls, text: str, names: Optional[Sequence[str]] = None
    ) -> "Combiner":
        """Build a combiner from expression text.

        Marginal i is bound to the i-th free variable in first-appearance
        order unless an explicit name list is given.
        """
        ast = parse_expression(text)
        names = list(names) if names is not None else free_variables(ast)
        missing = set(free_variables(ast)) - set(names)
        if missing:
            raise DomainError(f"expression variables not bound: {sorted(missing)}")

        def fn(x):
            bindings = {name: x[:, i] for i, name in enumerate(names)}
            return np.asarray(eval_expression(ast, bindings), dtype=float)

        return cls(fn, len(names), text)


def _ascending(values) -> np.ndarray:
    s = np.asarray(values, dtype=float)
    if s.size < 2:
        raise DomainError(f"need at least 2 values, got {s.size}")
    if not np.all(s[1:] >= s[:-1]):
        raise DomainError("the summaries need a sample sorted ascending, no NaN")
    return s


def percentile_interval(values, level: float) -> tuple[float, float]:
    """Empirical quantiles at (1-level)/2 and 1-(1-level)/2.

    ``values`` must be sorted ascending; an unsorted sample raises
    ``DomainError``. With h = (N-1)p and t = frac(h), the quantile is
    x_floor(h) + t * (x_floor(h)+1 - x_floor(h)), taken from the upper value
    once t >= 0.5: numpy's "linear" rule, bit for bit.
    """
    s = _ascending(values)
    alpha = (1.0 - level) / 2.0
    h = (s.size - 1) * np.array([alpha, 1.0 - alpha])
    i = np.floor(h).astype(np.intp)
    a, b, t = s[i], s[np.minimum(i + 1, s.size - 1)], h - i
    low, upp = np.where(t < 0.5, a + (b - a) * t, b - (b - a) * (1 - t))
    return float(low), float(upp)


def hdi_interval(values, level: float) -> tuple[float, float]:
    """Shortest interval containing ceil(level * N) of the N sample values.

    ``values`` must be sorted ascending; an unsorted sample raises
    ``DomainError``. Ties are broken by the smallest left index so the
    result is deterministic.
    """
    s = _ascending(values)
    m = max(math.ceil(level * s.size), 1)
    widths = s[m - 1 :] - s[: s.size - m + 1]
    i = int(np.argmin(widths))  # argmin returns the first minimizer
    return float(s[i]), float(s[i + m - 1])


def _combine_chunk(
    marginals, factor, rng: RngStream, start: int, stop: int
) -> np.ndarray:
    """Parameter draws start..stop-1 as a (stop - start) x d matrix.

    Each draw depends only on its index, so any chunking of the work
    reproduces the same draws. This is the package's only sampler.
    """
    u = _draw_uniform_block(factor, rng, start, stop)
    x = np.empty((stop - start, len(marginals)))
    for i, marg in enumerate(marginals):
        x[:, i] = quantile(marg.spec, u[:, i])
    return x


def _sample(marginals, factor, rng, n, put, chunk_size=DEFAULT_CHUNK_SIZE, threads=1):
    """Draws 0..n-1 in chunks on up to ``threads`` workers; ``put(rows, x)``
    stores a chunk's draws at the slice rows, as an array's ``__setitem__``."""

    def run_chunk(start):
        stop = min(start + chunk_size, n)
        put(slice(start, stop), _combine_chunk(marginals, factor, rng, start, stop))

    starts = range(0, n, chunk_size)
    # a one-worker pool is slower: ~32 ms against ~28-31 for an n=1e5 HDV run
    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_chunk, starts))
    else:
        list(map(run_chunk, starts))


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
    ``valid_range = (low, high)``, low < high, combined values outside the
    open interval are excluded from the empirical sample before the interval
    is computed (the count is reported in the diagnostics). The result is
    identical for any chunk size and thread count.
    """
    d = len(marginals)
    if sigma.d != d:
        raise DomainError(
            f"dimension mismatch: {d} marginals but sigma is {sigma.d}x{sigma.d}"
        )
    if combiner.arity != d:
        raise DomainError(
            f"dimension mismatch: {d} marginals but combiner arity {combiner.arity}"
        )
    # a NaN bound fails low < high too
    if valid_range is not None and not valid_range[0] < valid_range[1]:
        raise DomainError(f"valid_range must satisfy low < high, got {valid_range}")

    factor = factor_correlation(sigma)
    rng = RngStream(config.seed, stream_id)
    n = config.n
    # allocated before anything else sized by n, so a draw count the machine
    # cannot hold fails at once
    values, draws = _allocate(n, (n,), (n, d) if config.return_boot_vals else None)

    def put(rows, x):
        values[rows] = combiner(x)
        if draws is not None:
            draws[rows] = x

    _sample(marginals, factor, rng, n, put, config.chunk_size, config.threads)

    finite = np.isfinite(values)
    if not np.all(finite):
        idx = int(np.argmin(finite))
        # re-derive the inputs of the offending draw for the error message
        x = _combine_chunk(marginals, factor, rng, idx, idx + 1)
        raise NonFiniteDrawError(idx, x[0].tolist(), float(values[idx]))

    # one ascending ordering serves valid_range, the median and both intervals;
    # the returned sample keeps draw order, so only then is a copy sorted
    if config.return_boot_vals:
        ordered = np.sort(values)
    else:
        ordered = values
        ordered.sort()
    dropped = 0
    if valid_range is not None:
        # the values inside the open range are one contiguous run of the ordering
        start = np.searchsorted(ordered, valid_range[0], side="right")
        stop = np.searchsorted(ordered, valid_range[1], side="left")
        ordered = ordered[start:stop]
        dropped = n - ordered.size
        if ordered.size < MIN_DRAWS:
            # a sampled outcome, not a bad input, so not a DomainError
            raise CopulabootError(
                f"only {ordered.size} of {n} combined values fall inside "
                f"{valid_range}; too few for a stable interval"
            )
    k = ordered.size
    # the mean of the middle one or two order statistics, as np.median takes it
    point = float(np.mean(ordered[(k - 1) // 2 : k // 2 + 1]))
    if config.method == "percentile":
        low, upp = percentile_interval(ordered, config.level)
    else:
        low, upp = hdi_interval(ordered, config.level)

    eigs = np.linalg.eigvalsh(sigma.entries)
    diagnostics = {
        "fit_residuals": [m.residual for m in marginals],
        "sigma_min_eigenvalue": float(eigs[0]),
        "sigma_max_eigenvalue": float(eigs[-1]),
        "factor_rank": factor.rank,
        "draw_count": n,
        "dropped_outside_range": dropped,
    }
    sample = None
    if config.return_boot_vals:
        if dropped:
            keep = (values > valid_range[0]) & (values < valid_range[1])
            values, draws = values[keep], draws[keep]
        sample = EmpiricalSample(values=values, input_draws=draws)
    return CombinedEstimate(
        low=low,
        upp=upp,
        method=config.method,
        level=config.level,
        n=n,
        point_estimate=point,
        diagnostics=diagnostics,
        sample=sample,
    )
