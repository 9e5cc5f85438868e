"""Outside-in layer tracing for the copulaboot benchmark.

Nothing under ``src/`` is instrumented. Instead, for the duration of a traced
pass, the calls each module makes into the next are wrapped at the name the
*caller* resolves: ``copulaboot.engine.quantile`` rather than
``copulaboot.distributions.quantile``, ``copulaboot.prevalence.boot_comb``
rather than ``copulaboot.engine.boot_comb``. Every wrapped entry point is put
back when the pass ends, and the restoration is verified.

Timed boundaries record spans (name, start, end, parent span, op id) in
memory; a span's self time is its duration minus the time covered by its
child spans. Counted boundaries only increment counters, because they sit in
tight scalar loops (the fitter's ``cdf`` calls) where a span would cost more
than the call itself.

An entry point that no longer exists is skipped with a warning; the layer it
fed then sees no calls, and the benchmark reports it as missing instead of
as zero.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    op: int
    start: float
    end: float = 0.0
    parent: int = -1
    child_time: float = 0.0


@dataclass
class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    spans: list = field(default_factory=list)
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    total_time: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    maxima: dict = field(default_factory=dict)
    op: int = 0

    def __post_init__(self):
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        self.spans.append(Span(name, self.op, time.perf_counter(), parent=parent))
        idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int):
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        dur = span.end - span.start
        self.total_time[span.name] += dur
        self.self_time[span.name] += dur - span.child_time
        self.calls[span.name] += 1
        if span.parent >= 0:
            self.spans[span.parent].child_time += dur

    def count(self, key: str, amount: float = 1):
        self.counts[key] += amount

    def maximum(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def seen(self, key: str) -> bool:
        return self.calls.get(key, 0) > 0 or self.counts.get(key, 0) > 0

    def dump(self) -> list:
        return [
            [s.op, s.name, s.start, s.end, s.parent] for s in self.spans
        ]


# ---------------------------------------------------------------------------
# wrapper factories; each returns a function with the wrapped one's signature


def _timed(tracer: Tracer, name: str, fn, after=None, span_name=None):
    def wrapper(*args, **kwargs):
        idx = tracer.begin(span_name(args) if span_name else name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _boundaries(tracer: Tracer):
    """(module or class path, attribute, wrapper factory) for every boundary."""
    # the sampler clamps uniforms into [_U_LOW, _U_HIGH]; values outside it
    # are the ones that hit the clamps
    rng = _resolve("copulaboot.rng")
    low, high = getattr(rng, "_U_LOW", 1e-300), getattr(rng, "_U_HIGH", 1.0 - 1e-16)

    def quantile_name(args):
        return f"distributions.quantile.{args[0].family.value}"

    def after_quantile(args, kwargs, out):
        tracer.count(f"distributions.quantile_values.{args[0].family.value}", int(np.size(out)))

    def after_uniforms(args, kwargs, out):
        tracer.count("rng.uniform_values", int(out.size))
        tracer.count("copula.clamped", int(np.count_nonzero((out < low) | (out > high))))

    def after_ndtri(args, kwargs, out):
        tracer.count("copula.ndtri_values", int(np.size(out)))

    def after_ndtr(args, kwargs, out):
        tracer.count("copula.clamped", int(np.count_nonzero((out < low) | (out > high))))

    def after_eval(args, kwargs, out):
        tracer.count("exprlang.eval_values", int(np.size(out)))

    def after_fit(args, kwargs, out):
        tracer.maximum("fitting.max_residual", out.residual)

    def after_boot_comb(args, kwargs, out):
        config = args[3] if len(args) > 3 else kwargs["config"]
        n = config.n
        dropped = out.diagnostics["dropped_outside_range"]
        kept = n - dropped
        # computed, not measured: the values array, plus the valid_range mask
        # and kept copy when draws were dropped, plus the copy the summary
        # sorts or partitions
        sample_bytes = 8 * n + (n + 8 * kept if dropped else 0) + 8 * kept
        if config.return_boot_vals:
            sample_bytes += 8 * n * len(args[0])
        tracer.count("engine.drawn", n)
        tracer.count("engine.kept", kept)
        tracer.maximum("engine.sample_bytes", sample_bytes)

    def after_coverage(args, kwargs, out):
        scored = out.trials - out.excluded_trials
        tracer.count("coverage.trials", out.trials)
        tracer.count("coverage.excluded", out.excluded_trials)
        tracer.count("coverage.hits", round(out.coverage * scored))

    def timed(name, after=None, span_name=None):
        return lambda fn: _timed(tracer, name, fn, after, span_name)

    def counted(name):
        return lambda fn: _counted(tracer, name, fn)

    boot_comb = timed("engine.boot_comb", after_boot_comb)
    fit = timed("fitting.fit", after_fit)
    philox = counted("rng.streams")
    return [
        # callers of the engine: the benchmark itself, prevalence, coverage
        ("copulaboot.engine", "boot_comb", boot_comb),
        ("copulaboot.prevalence", "boot_comb", boot_comb),
        ("copulaboot.coverage", "boot_comb", boot_comb),
        ("copulaboot.prevalence", "adjust_prevalence", timed("prevalence.adjust")),
        ("copulaboot.coverage", "run_coverage", timed("coverage.run", after_coverage)),
        ("copulaboot.coverage", "clopper_pearson", timed("coverage.clopper_pearson")),
        # callers of the fitter
        ("copulaboot.fitting", "fit_from_quantiles", fit),
        ("copulaboot.prevalence", "fit_from_quantiles", fit),
        ("copulaboot.coverage", "fit_from_quantiles", fit),
        ("copulaboot.fitting", "cdf", counted("fitting.cdf_evals")),
        # engine internals and its calls into copula, distributions, exprlang
        ("copulaboot.engine", "_combine_chunk", timed("engine.chunk")),
        ("copulaboot.engine", "factor_correlation", timed("copula.factor")),
        ("copulaboot.engine", "_draw_uniform_block", timed("copula.block")),
        ("copulaboot.engine", "quantile", timed(None, after_quantile, quantile_name)),
        ("copulaboot.engine.Combiner", "__call__", timed("engine.combine")),
        ("copulaboot.engine", "eval_expression", timed("exprlang.eval", after_eval)),
        ("copulaboot.engine", "hdi_interval", timed("engine.summary")),
        ("copulaboot.engine", "percentile_interval", timed("engine.summary")),
        # copula's calls into distributions and rng
        ("copulaboot.copula", "std_normal_quantile", timed("copula.ndtri", after_ndtri)),
        ("copulaboot.copula", "std_normal_cdf", timed("copula.ndtr", after_ndtr)),
        ("copulaboot.rng.RngStream", "uniforms", timed("rng.uniforms", after_uniforms)),
        ("copulaboot.rng", "Philox", philox),
        ("copulaboot.coverage", "Philox", philox),
    ]


def _resolve(path: str):
    """The module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
            if obj is None:
                return None
        return obj
    return None


@contextmanager
def installed(tracer: Tracer):
    """Wrap every boundary for the duration of the block, then restore all."""
    saved = []
    try:
        for path, attr, wrap in _boundaries(tracer):
            owner = _resolve(path)
            if owner is None or attr not in vars(owner):
                print(f"warning: trace boundary {path}.{attr} not found; "
                      "its layer will be reported as missing", file=sys.stderr)
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, wrap(original))
            saved.append((owner, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        leftover = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in saved
            if vars(owner).get(attr) is not original
        ]
        if leftover:
            raise RuntimeError(f"trace wrappers not restored: {leftover}")
