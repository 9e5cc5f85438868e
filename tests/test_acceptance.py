"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The coverage criterion draws 1000 trials at n=1e5 and takes a few
minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from copulaboot import (
    BootstrapConfig,
    Combiner,
    CoverageScenario,
    PrevAdjustRequest,
    QuantileConstraint,
    boot_comb,
    fit_from_quantiles,
    run_coverage,
    sens_spec_sigma,
    validate_correlation_matrix,
)
from copulaboot.cli import main
from copulaboot.distributions import cdf
from copulaboot.engine import hdi_interval
from copulaboot.prevalence import rogan_gladen

HDV_CIS = [(0.027, 0.050), (0.036, 0.057)]
PREV_CI = (0.136, 0.204)
SENS_CI = (0.837, 0.918)
SPEC_CI = (0.857, 0.975)
SARS_POINTS = (84 / 500, 238 / 270, 82 / 88)

results = {}


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def hdv_marginals():
    return [fit_from_quantiles("beta", QuantileConstraint(*ci)) for ci in HDV_CIS]


@pytest.fixture(scope="module")
def sars_marginals():
    return [
        fit_from_quantiles("beta", QuantileConstraint(*ci))
        for ci in (PREV_CI, SENS_CI, SPEC_CI)
    ]


@pytest.fixture(scope="module")
def hdv_independent(hdv_marginals):
    config = BootstrapConfig(n=1_000_000, seed=123, method="hdi", threads=1)
    start = time.time()
    est = boot_comb(
        hdv_marginals,
        validate_correlation_matrix(np.eye(2)),
        Combiner.product(2),
        config,
    )
    results["hdv_indep"] = est
    results["hdv_indep_runtime"] = time.time() - start
    return est


@pytest.fixture(scope="module")
def hdv_correlated(hdv_marginals):
    config = BootstrapConfig(n=1_000_000, seed=123, method="hdi")
    est = boot_comb(
        hdv_marginals,
        validate_correlation_matrix([[1, 0.5], [0.5, 1]]),
        Combiner.product(2),
        config,
    )
    results["hdv_rho"] = est
    return est


def sars_estimate(rho, method):
    req = PrevAdjustRequest(
        prev_ci=PREV_CI,
        sens_ci=SENS_CI,
        spec_ci=SPEC_CI,
        sigma=sens_spec_sigma(rho),
        config=BootstrapConfig(n=1_000_000, seed=123, method=method),
        point_estimates=SARS_POINTS,
    )
    from copulaboot import adjust_prevalence

    return adjust_prevalence(req)


@pytest.fixture(scope="module")
def sars_runs():
    runs = {
        (rho, method): sars_estimate(rho, method)
        for rho in (0.0, -0.5)
        for method in ("percentile", "hdi")
    }
    results["sars"] = runs
    return runs


def test_criterion_1_hdv_independent(hdv_independent):
    est = hdv_independent
    runtime = results["hdv_indep_runtime"]
    ok = (
        abs(est.low - 0.0011) <= 2e-4
        and abs(est.upp - 0.0025) <= 2e-4
        and runtime <= 10.0
    )
    report(
        1,
        ok,
        f"HDV independent hdi interval ({est.low:.5f}, {est.upp:.5f}) "
        f"vs (0.0011, 0.0025) ±2e-4; runtime {runtime:.1f}s (limit 10s)",
    )


def test_criterion_2_hdv_correlated(hdv_independent, hdv_correlated):
    ind, dep = hdv_independent, hdv_correlated
    ok = (
        abs(dep.low - 0.0010) <= 2e-4
        and abs(dep.upp - 0.0026) <= 2e-4
        and dep.low <= ind.low + 2e-4
        and dep.upp >= ind.upp - 2e-4
    )
    report(
        2,
        ok,
        f"HDV rho=0.5 interval ({dep.low:.5f}, {dep.upp:.5f}) vs "
        f"(0.0010, 0.0026) ±2e-4, not narrower than criterion 1 by >2e-4",
    )


def test_criterion_3_sars_independent(sars_runs):
    point = rogan_gladen(*SARS_POINTS)
    point_ok = abs(point - 0.1227) <= 1e-4
    matches = {
        method: (
            abs(sars_runs[(0.0, method)].low - 0.039) <= 0.003
            and abs(sars_runs[(0.0, method)].upp - 0.190) <= 0.003
        )
        for method in ("percentile", "hdi")
    }
    matched = [m for m, ok in matches.items() if ok]
    results["sars_indep_method"] = matched[0] if matched else None
    est = sars_runs[(0.0, matched[0])] if matched else sars_runs[(0.0, "hdi")]
    ok = point_ok and bool(matched)
    report(
        3,
        ok,
        f"point {point:.5f} vs 0.1227 ±1e-4; interval ({est.low:.4f}, "
        f"{est.upp:.4f}) vs (0.039, 0.190) ±0.003 — matching method(s): "
        f"{matched or 'none'}",
    )


def test_criterion_4_sars_correlated(sars_runs):
    method = results.get("sars_indep_method") or "hdi"
    dep = sars_runs[(-0.5, method)]
    ind = sars_runs[(0.0, method)]
    ok = (
        abs(dep.low - 0.038) <= 0.003
        and abs(dep.upp - 0.194) <= 0.003
        and (dep.upp - dep.low) >= (ind.upp - ind.low) - 0.002
    )
    report(
        4,
        ok,
        f"SARS rho=-0.5 {method} interval ({dep.low:.4f}, {dep.upp:.4f}) vs "
        f"(0.038, 0.194) ±0.003, width >= independent width - 0.002",
    )


def input_draws(marginals, sigma, seed):
    """The 1e5 (n, d) parameter draws behind a boot_comb run with this seed."""
    config = BootstrapConfig(n=100_000, seed=seed, return_boot_vals=True)
    est = boot_comb(marginals, sigma, Combiner.sum(len(marginals)), config)
    return est.sample.input_draws


def test_criterion_5_rank_correlation_law(hdv_marginals):
    errs = {}
    for rho in (-0.9, -0.5, 0.5, 0.9):
        sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
        x = input_draws(hdv_marginals, sigma, 17)
        r = stats.spearmanr(x[:, 0], x[:, 1]).statistic
        expected = (6.0 / math.pi) * math.asin(rho / 2.0)
        errs[rho] = abs(r - expected)
    ok = all(e <= 0.01 for e in errs.values())
    report(
        5,
        ok,
        "Spearman vs (6/pi)asin(rho/2) at n=1e5, max dev "
        f"{max(errs.values()):.4f} (limit 0.01) over rho in {list(errs)}",
    )


def test_criterion_6_marginal_preservation(hdv_marginals, sars_marginals):
    def ks(sample, fitted):
        s = np.sort(sample)
        n = s.size
        c = cdf(fitted.spec, s)
        return max(
            np.max(np.abs(c - np.arange(1, n + 1) / n)),
            np.max(np.abs(c - np.arange(0, n) / n)),
        )

    worst = 0.0
    cases = [
        (hdv_marginals, validate_correlation_matrix(np.eye(2))),
        (hdv_marginals, validate_correlation_matrix([[1, 0.5], [0.5, 1]])),
        (sars_marginals, sens_spec_sigma(-0.5)),
    ]
    for marginals, sigma in cases:
        x = input_draws(marginals, sigma, 23)
        for i, m in enumerate(marginals):
            worst = max(worst, ks(x[:, i], m))
    ok = worst < 0.006
    report(6, ok, f"KS distance to fitted marginals, worst {worst:.4f} (limit 0.006)")


def test_criterion_7_hdi_oracle():
    rng = np.random.default_rng(2718)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(10, 1001))
        sample = rng.lognormal(0.0, 1.0, size=n)
        level = float(rng.uniform(0.5, 0.99))
        fast = hdi_interval(np.sort(sample), level)
        s = np.sort(sample)
        m = int(np.ceil(level * n))
        widths = [(s[i + m - 1] - s[i], i) for i in range(n - m + 1)]
        w, i = min(widths)
        if fast != (s[i], s[i + m - 1]):
            mismatches += 1
    report(
        7,
        mismatches == 0,
        f"hdi vs exhaustive window search on 100 samples: {mismatches} mismatches",
    )


def test_criterion_8_coverage():
    scenario = CoverageScenario(
        true_params=(0.035, 0.045),
        data_sizes=(2000, 1500),
        combiner=Combiner.product(2),
        true_combined=0.035 * 0.045,
        sigma=validate_correlation_matrix(np.eye(2)),
        config=BootstrapConfig(n=100_000, seed=0, method="percentile"),
        trials=1000,
    )
    start = time.time()
    result = run_coverage(scenario, master_seed=2024)
    runtime = time.time() - start
    ok = 0.93 <= result.coverage <= 0.97 and runtime <= 900.0
    report(
        8,
        ok,
        f"coverage {result.coverage:.3f} (target [0.93, 0.97], mcStdErr "
        f"{result.mc_std_err:.4f}, {result.excluded_trials} excluded) in "
        f"{runtime:.0f}s (limit 900s)",
    )


def test_criterion_9_thread_determinism(capsys):
    hdv = [
        "combine",
        "--dist", "beta:0.027:0.050",
        "--dist", "beta:0.036:0.057",
        "--expr", "x1*x2",
        "--method", "hdi",
        "--n", "1000000",
        "--seed", "123",
    ]
    sars = [
        "adjust-prev",
        "--prev-ci", "0.136,0.204",
        "--sens-ci", "0.837,0.918",
        "--spec-ci", "0.857,0.975",
        "--method", "hdi",
        "--n", "1000000",
        "--seed", "123",
    ]
    invocations = [
        hdv,
        hdv + ["--sigma", "1,0.5;0.5,1"],
        sars,
        sars + ["--rho-sens-spec", "-0.5"],
    ]
    identical = True
    for args in invocations:
        outs = []
        for threads in ("1", "8"):
            code = main(args + ["--threads", threads])
            outs.append(capsys.readouterr().out)
            assert code == 0
        identical = identical and outs[0] == outs[1]
    report(
        9,
        identical,
        "criteria 1-4 CLI reruns with --threads 1 and --threads 8 "
        "produce byte-identical JSON",
    )


def test_criterion_10_fit_fidelity(hdv_marginals, sars_marginals):
    worst = 0.0
    for m in hdv_marginals + sars_marginals:
        c = m.constraint
        worst = max(
            worst,
            abs(cdf(m.spec, c.q_low) - c.alpha_low),
            abs(cdf(m.spec, c.q_upp) - c.alpha_upp),
        )
    report(
        10,
        worst <= 1e-6,
        f"fitted CDFs reproduce CI endpoint probabilities, worst error "
        f"{worst:.2e} (limit 1e-6)",
    )
