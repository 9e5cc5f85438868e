"""The four benchmark workloads: inputs, one operation, and its correctness gate.

Each workload is closed-loop: the caller issues the next operation only after
the previous one returns. The workload seed is a benchmark argument; it fixes
the sequence of per-operation seeds (``op_seeds``), and the program receives
only those generated inputs.

Every call into copulaboot goes through a module attribute
(``engine.boot_comb``, ``fitting.fit_from_quantiles``, ...) so that the
outside-in tracer in ``layertrace`` sees the benchmark's own calls too.
"""

from __future__ import annotations

import json
import os
import random
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from copulaboot import copula, coverage, engine, fitting, prevalence

# bound once at import, so the coverage gate's own call never shows in a trace
from copulaboot.coverage import clopper_pearson

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# published intervals and acceptance tolerances (criteria 2 and 4); these are
# the test suite's bounds and must never be loosened here
HDV_CIS = ((0.027, 0.050), (0.036, 0.057))
HDV_REFERENCE = ((0.0010, 0.0026), 2e-4)
SARS_CIS = ((0.136, 0.204), (0.837, 0.918), (0.857, 0.975))
SARS_REFERENCE = ((0.038, 0.194), 0.003)

CLOSED_FORM_MARGINALS = (
    ("normal", (1.2, 3.4)),
    ("exponential", (0.0253, 3.689)),
    ("normal", (-0.5, 0.8)),
    ("exponential", (0.01266, 1.844)),
)
CLOSED_FORM_SIGMA = [
    [1.0, 0.3, -0.2, 0.1],
    [0.3, 1.0, 0.25, 0.0],
    [-0.2, 0.25, 1.0, 0.4],
    [0.1, 0.0, 0.4, 1.0],
]
CLOSED_FORM_EXPR = "sqrt(x1^2 + x2) * exp(x3) * log(1 + x4) - x1/(1 + x2)"
# every closed-form fit must land within this residual, with no warning
CLOSED_FORM_MAX_RESIDUAL = 2e-5
# an endpoint may sit this many n=2e6 Monte-Carlo standard errors from the
# large-n reference before the operation counts as failed
CLOSED_FORM_SE_MULTIPLE = 6.0

COVERAGE_TRUE = (0.035, 0.045)
COVERAGE_SIZES = (2000, 1500)
# few trials per op give many ops per run, so the median op time is steady;
# the per-op gate is then weak, and the same gate on the hits pooled over a
# run's ops (``run_gate``) is the stronger check
COVERAGE_TRIALS = 4
# (nominal level, max excluded fraction, Clopper-Pearson level of the check)
COVERAGE_REFERENCE = (0.95, 0.01, 0.999)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def op_seeds(seed: int):
    """The endless, seed-determined sequence of per-operation seeds."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, reduced to what the gates and checks need.

    ``fingerprint`` holds the exact floats that must match bit-for-bit
    between thread counts and between traced and untraced runs.
    """

    fingerprint: tuple
    draws: int
    detail: dict


def _interval_gate(outcome: Outcome, reference) -> tuple[bool, str]:
    (ref_low, ref_upp), tol = reference
    low, upp = outcome.fingerprint
    ok = abs(low - ref_low) <= tol and abs(upp - ref_upp) <= tol
    return ok, f"({low:.6g}, {upp:.6g}) vs ({ref_low:.6g}, {ref_upp:.6g}) +/- {tol:.3g}"


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    method: str
    threads: int  # threads of the measured operation
    d: int
    expected: tuple  # trace keys that must see calls on this workload

    def run(self, seed: int, threads: int) -> Outcome:
        raise NotImplementedError

    def gate(self, outcome: Outcome, reference=None) -> tuple[bool, str]:
        raise NotImplementedError

    def run_gate(self, outcomes: list):
        """An extra check over all of a run's outcomes, or None."""
        return None

    def config(self, seed: int, threads: int):
        return engine.BootstrapConfig(
            n=self.n, seed=seed, method=self.method, threads=threads
        )


_SAMPLING = (
    "rng.uniforms", "rng.streams", "copula.block", "copula.factor",
    "engine.boot_comb", "engine.chunk", "engine.combine", "engine.summary",
    "fitting.fit",
)
_CORRELATED = ("copula.ndtri", "copula.ndtr")


@dataclass(frozen=True)
class HdvProduct(Workload):
    def run(self, seed, threads):
        marginals = [
            fitting.fit_from_quantiles("beta", fitting.QuantileConstraint(*ci))
            for ci in HDV_CIS
        ]
        sigma = copula.validate_correlation_matrix([[1.0, 0.5], [0.5, 1.0]])
        est = engine.boot_comb(
            marginals, sigma, engine.Combiner.from_expression("x1*x2"),
            self.config(seed, threads),
        )
        return Outcome((est.low, est.upp), self.n, {})

    def gate(self, outcome, reference=HDV_REFERENCE):
        return _interval_gate(outcome, reference)


@dataclass(frozen=True)
class SarsPrevalence(Workload):
    def run(self, seed, threads):
        prev_ci, sens_ci, spec_ci = SARS_CIS
        req = prevalence.PrevAdjustRequest(
            prev_ci=prev_ci, sens_ci=sens_ci, spec_ci=spec_ci,
            sigma=prevalence.sens_spec_sigma(-0.5),
            config=self.config(seed, threads),
        )
        est = prevalence.adjust_prevalence(req)
        return Outcome(
            (est.low, est.upp), self.n,
            {"dropped": est.diagnostics["dropped_outside_range"]},
        )

    def gate(self, outcome, reference=SARS_REFERENCE):
        return _interval_gate(outcome, reference)


@dataclass(frozen=True)
class CoverageTrials(Workload):
    trials: int = COVERAGE_TRIALS

    def run(self, seed, threads):
        scenario = coverage.CoverageScenario(
            true_params=COVERAGE_TRUE,
            data_sizes=COVERAGE_SIZES,
            combiner=engine.Combiner.product(2),
            true_combined=COVERAGE_TRUE[0] * COVERAGE_TRUE[1],
            sigma=copula.validate_correlation_matrix(np.eye(2)),
            config=self.config(0, threads),
            trials=self.trials,
        )
        res = coverage.run_coverage(scenario, master_seed=seed)
        scored = res.trials - res.excluded_trials
        return Outcome(
            (res.coverage, res.mean_width, res.excluded_trials),
            self.trials * self.n,
            {"hits": round(res.coverage * scored), "scored": scored,
             "trials": res.trials},
        )

    def gate(self, outcome, reference=COVERAGE_REFERENCE):
        nominal, max_excluded, cp_level = reference
        hits, scored = outcome.detail["hits"], outcome.detail["scored"]
        excluded = outcome.detail["trials"] - scored
        low, upp = clopper_pearson(hits, scored, cp_level)
        ok = excluded <= max_excluded * outcome.detail["trials"] and low <= nominal <= upp
        return ok, (
            f"{hits}/{scored} hits, {excluded} excluded; {cp_level:g} "
            f"Clopper-Pearson ({low:.3f}, {upp:.3f}) vs nominal {nominal}"
        )

    def run_gate(self, outcomes, reference=COVERAGE_REFERENCE):
        keys = ("hits", "scored", "trials")
        pooled = {k: sum(o.detail[k] for o in outcomes) for k in keys}
        return self.gate(Outcome((), 0, pooled), reference)


def closed_form_reference():
    """(reference interval, tolerance) from the committed large-n reference."""
    ref = json.loads(REFERENCE_FILE.read_text())
    tol = tuple(CLOSED_FORM_SE_MULTIPLE * se for se in ref["se_at_n"])
    return (tuple(ref["interval"]), tol)


@dataclass(frozen=True)
class ClosedFormExpr(Workload):
    def run(self, seed, threads):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            marginals = [
                fitting.fit_from_quantiles(family, fitting.QuantileConstraint(*ci))
                for family, ci in CLOSED_FORM_MARGINALS
            ]
        sigma = copula.validate_correlation_matrix(CLOSED_FORM_SIGMA)
        est = engine.boot_comb(
            marginals, sigma, engine.Combiner.from_expression(CLOSED_FORM_EXPR),
            self.config(seed, threads),
        )
        return Outcome(
            (est.low, est.upp), self.n,
            {"max_residual": max(m.residual for m in marginals),
             "warnings": [str(w.message) for w in caught]},
        )

    def gate(self, outcome, reference=None):
        (ref_low, ref_upp), (tol_low, tol_upp) = reference or closed_form_reference()
        low, upp = outcome.fingerprint
        residual, caught = outcome.detail["max_residual"], outcome.detail["warnings"]
        ok = (
            abs(low - ref_low) <= tol_low
            and abs(upp - ref_upp) <= tol_upp
            and residual <= CLOSED_FORM_MAX_RESIDUAL
            and not caught
        )
        return ok, (
            f"({low:.6g}, {upp:.6g}) vs ({ref_low:.6g}, {ref_upp:.6g}) "
            f"+/- ({tol_low:.2g}, {tol_upp:.2g}); fit residual {residual:.2g}, "
            f"{len(caught)} warning(s)"
        )


def all_workloads() -> dict:
    threads = nproc()
    beta = ("distributions.quantile.beta",)
    items = [
        HdvProduct(
            "hdv_product",
            n=1_000_000, method="hdi", threads=threads, d=2,
            expected=_SAMPLING + _CORRELATED + beta + ("exprlang.eval", "fitting.cdf_evals"),
        ),
        SarsPrevalence(
            "sars_prevalence",
            n=1_000_000, method="hdi", threads=threads, d=3,
            expected=_SAMPLING + _CORRELATED + beta + ("prevalence.adjust", "fitting.cdf_evals"),
        ),
        CoverageTrials(
            "coverage_trials",
            n=100_000, method="percentile", threads=1, d=2,
            expected=_SAMPLING + beta + ("coverage.run", "coverage.clopper_pearson", "fitting.cdf_evals"),
        ),
        ClosedFormExpr(
            "closed_form_expr",
            n=2_000_000, method="percentile", threads=threads, d=4,
            expected=_SAMPLING + _CORRELATED + (
                "distributions.quantile.normal", "distributions.quantile.exponential",
                "exprlang.eval", "fitting.cdf_evals",
            ),
        ),
    ]
    return {w.name: w for w in items}

