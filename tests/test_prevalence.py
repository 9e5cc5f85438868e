import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy import special, stats
from scipy.optimize import brentq

from copulaboot import (
    BootstrapConfig,
    Combiner,
    CopulabootError,
    DomainError,
    PrevAdjustRequest,
    QuantileConstraint,
    adjust_prevalence,
    boot_comb,
    fit_from_quantiles,
    rho_sweep,
    scatter_draws,
    sens_spec_sigma,
    validate_correlation_matrix,
)
from copulaboot.copula import factor_correlation
from copulaboot.distributions import cdf
from copulaboot.engine import _combine_chunk
from copulaboot.prevalence import rogan_gladen
from copulaboot.rng import RngStream

# SARS-CoV-2 serosurvey inputs: 84/500 positive, sensitivity 238/270,
# specificity 82/88
PREV_CI = (0.136, 0.204)
SENS_CI = (0.837, 0.918)
SPEC_CI = (0.857, 0.975)
POINTS = (84 / 500, 238 / 270, 82 / 88)


def make_request(rho=0.0, n=100_000, seed=123, method="hdi", **kwargs):
    return PrevAdjustRequest(
        prev_ci=PREV_CI,
        sens_ci=SENS_CI,
        spec_ci=SPEC_CI,
        sigma=sens_spec_sigma(rho),
        config=BootstrapConfig(n=n, seed=seed, method=method, **kwargs),
        point_estimates=POINTS,
    )


class TestRoganGladen:
    def test_paper_point_estimate(self):
        assert rogan_gladen(*POINTS) == pytest.approx(0.1227, abs=1e-4)

    def test_perfect_test_identity(self):
        assert rogan_gladen(0.3, 1.0, 1.0) == 0.3

    def test_truncation_to_zero(self):
        assert rogan_gladen(0.05, 0.9, 0.9) == 0.0

    def test_uninformative_test(self):
        with pytest.raises(DomainError, match="uninformative"):
            rogan_gladen(0.3, 0.5, 0.5)

    def test_monotone_in_apparent_prevalence(self):
        vals = [rogan_gladen(p, 0.9, 0.95) for p in np.linspace(0.01, 0.99, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_round_trip_identity(self):
        # apparent = prev*sens + (1-prev)*(1-spec); adjusting recovers prev
        rng = np.random.default_rng(8)
        for _ in range(200):
            sens = rng.uniform(0.6, 1.0)
            spec = rng.uniform(0.6, 1.0)
            if sens + spec <= 1.0:
                continue
            prev = rng.uniform(0.0, 1.0)
            apparent = prev * sens + (1.0 - prev) * (1.0 - spec)
            assert rogan_gladen(apparent, sens, spec) == pytest.approx(
                prev, abs=1e-12
            )


def test_rogan_gladen_bits_match_the_scalar_formula():
    # the scalar computes through the sampled kernel; both round alike
    rng = np.random.default_rng(5)
    draws = rng.uniform([0.0, 0.55, 0.55], 1.0, size=(500, 3))
    for prev, sens, spec in draws:
        raw = (prev + (spec - 1.0)) / (sens + (spec - 1.0))
        assert rogan_gladen(prev, sens, spec) == min(max(raw, 0.0), 1.0)


class TestRequestValidation:
    def test_ci_bounds_checked(self):
        with pytest.raises(DomainError):
            PrevAdjustRequest(
                prev_ci=(0.2, 0.1),
                sens_ci=SENS_CI,
                spec_ci=SPEC_CI,
                sigma=sens_spec_sigma(0.0),
                config=BootstrapConfig(n=1000),
            )
        with pytest.raises(DomainError):
            PrevAdjustRequest(
                prev_ci=(0.0, 0.1),
                sens_ci=SENS_CI,
                spec_ci=SPEC_CI,
                sigma=sens_spec_sigma(0.0),
                config=BootstrapConfig(n=1000),
            )

    @pytest.mark.parametrize(
        "points, match",
        [
            ((math.nan, 0.88, 0.93), "finite and in"),
            ((5.0, 0.88, 0.93), "finite and in"),
            ((0.168, 0.3, 0.3), "uninformative"),
        ],
    )
    def test_point_estimates_checked(self, points, match):
        with pytest.raises(DomainError, match=match):
            PrevAdjustRequest(
                prev_ci=PREV_CI,
                sens_ci=SENS_CI,
                spec_ci=SPEC_CI,
                sigma=sens_spec_sigma(0.0),
                config=BootstrapConfig(n=1000),
                point_estimates=points,
            )

    def test_sigma_dimension_checked(self):
        from copulaboot import validate_correlation_matrix

        with pytest.raises(DomainError):
            PrevAdjustRequest(
                prev_ci=PREV_CI,
                sens_ci=SENS_CI,
                spec_ci=SPEC_CI,
                sigma=validate_correlation_matrix(np.eye(2)),
                config=BootstrapConfig(n=1000),
            )


class TestAdjustPrevalence:
    def test_independent_interval(self):
        est = adjust_prevalence(make_request(rho=0.0, n=1_000_000))
        assert est.low == pytest.approx(0.039, abs=0.003)
        assert est.upp == pytest.approx(0.190, abs=0.003)
        assert est.point_estimate == pytest.approx(0.1227, abs=1e-4)

    def test_negative_dependence_marginally_wider(self):
        indep = adjust_prevalence(make_request(rho=0.0, n=1_000_000))
        dep = adjust_prevalence(make_request(rho=-0.5, n=1_000_000))
        assert dep.low == pytest.approx(0.038, abs=0.003)
        assert dep.upp == pytest.approx(0.194, abs=0.003)
        assert (dep.upp - dep.low) >= (indep.upp - indep.low) - 0.002

    def test_narrow_cis_collapse_to_point(self):
        # delta-method limit: tiny input uncertainty gives a tiny interval
        # around the truncated point adjustment
        eps = 5e-4
        req = PrevAdjustRequest(
            prev_ci=(0.168 - eps, 0.168 + eps),
            sens_ci=(0.881 - eps, 0.881 + eps),
            spec_ci=(0.932 - eps, 0.932 + eps),
            sigma=sens_spec_sigma(0.0),
            config=BootstrapConfig(n=100_000, seed=1),
        )
        est = adjust_prevalence(req)
        target = rogan_gladen(0.168, 0.881, 0.932)
        assert est.upp - est.low < 0.01
        assert est.low < target < est.upp

    def test_matches_generic_boot_comb_byte_identical(self):
        req = make_request(rho=0.0, n=10_000)
        est = adjust_prevalence(req)
        marginals = [
            fit_from_quantiles("beta", QuantileConstraint(*ci))
            for ci in (PREV_CI, SENS_CI, SPEC_CI)
        ]
        generic = boot_comb(
            marginals,
            req.sigma,
            Combiner.from_expression(
                "(prev+(spec-1))/(sens+(spec-1))", names=["prev", "sens", "spec"]
            ),
            req.config,
            valid_range=(0.0, 1.0),
        )
        assert (est.low, est.upp) == (generic.low, generic.upp)

    def test_uninformative_draws_abort(self):
        # sens and spec CIs straddling 0.5 make sens+spec <= 1 draws common
        req = PrevAdjustRequest(
            prev_ci=PREV_CI,
            sens_ci=(0.30, 0.60),
            spec_ci=(0.30, 0.60),
            sigma=sens_spec_sigma(0.0),
            config=BootstrapConfig(n=10_000, seed=1),
        )
        from copulaboot import UninformativeTestError

        with pytest.raises(UninformativeTestError, match=r"^[1-9]\d* sampled draw\(s\)"):
            adjust_prevalence(req)


# probabilists' Gauss-Hermite rule, weights scaled to sum to 1. 96 nodes:
# at rho = 0 the 64-node rule misses nested quad by 2e-9 in F(0)
GH_Z, GH_W = hermegauss(96)
GH_W = GH_W / GH_W.sum()


def beta_at_z(params, z):
    """The beta quantile at Phi(z), from the tail that keeps its precision."""
    a, b = params
    return np.where(
        z < 0,
        special.betaincinv(a, b, special.ndtr(z)),
        special.betainccinv(a, b, special.ndtr(-z)),
    )


def sars_model_quantile(rho, p):
    """Quantile p of the kept Rogan-Gladen values under the fitted model.

    prev is independent of (sens, spec) and sens + spec > 1, so F(t) =
    P(RG <= t) = E[F_prev(t (se + sp - 1) - sp + 1)] over the (sens, spec)
    copula, taken on a tensor Gauss-Hermite grid with the exact beta kernels.
    Draws outside (0, 1) are dropped, so the kept quantile solves
    (F(t) - F(0)) / (F(1) - F(0)) = p.
    """
    prev, sens, spec = (
        fit_from_quantiles("beta", QuantileConstraint(*ci)).spec.params
        for ci in (PREV_CI, SENS_CI, SPEC_CI)
    )
    z1, z2 = GH_Z[:, None], GH_Z[None, :]
    se = beta_at_z(sens, z1)
    sp = beta_at_z(spec, rho * z1 + math.sqrt(1.0 - rho * rho) * z2)
    w = GH_W[:, None] * GH_W[None, :]

    def F(t):
        x = np.clip(t * (se + sp - 1.0) - sp + 1.0, 0.0, 1.0)
        return float(np.sum(w * special.betainc(*prev, x)))

    f0, f1 = F(0.0), F(1.0)
    return brentq(
        lambda t: (F(t) - f0) / (f1 - f0) - p, 0.0, 1.0, xtol=1e-15, rtol=1e-14
    )


class TestModelIntervalOracle:
    """SARS percentile intervals at n = 1e6 against the fitted model's quantiles.

    SE is the per-run SD of each statistic over 32 seeds (1000..1031).
    """

    # rho: (SE of low, median, upp)
    SE = {0.0: (1.5e-4, 4.1e-5, 6.8e-5), -0.5: (1.0e-4, 3.8e-5, 6.6e-5)}

    @pytest.mark.parametrize("rho", [0.0, -0.5])
    def test_percentile_endpoints_and_median(self, rho):
        req = PrevAdjustRequest(
            prev_ci=PREV_CI,
            sens_ci=SENS_CI,
            spec_ci=SPEC_CI,
            sigma=sens_spec_sigma(rho),
            config=BootstrapConfig(n=1_000_000, seed=2026, threads=2),
        )
        est = adjust_prevalence(req)  # no point estimates: the kept median
        got = (est.low, est.point_estimate, est.upp)
        for p, x, se in zip((0.025, 0.5, 0.975), got, self.SE[rho]):
            assert abs(x - sars_model_quantile(rho, p)) <= 6 * se


class TestRhoSweep:
    def test_zero_grid_matches_adjust_prevalence(self):
        req = make_request(rho=0.0, n=10_000)
        rows = rho_sweep(req, [0.0])
        est = adjust_prevalence(req)
        assert (rows[0].low, rows[0].upp) == (est.low, est.upp)

    def test_endpoint_ordering(self):
        req = make_request(n=200_000)
        rows = rho_sweep(req, [0.0, -0.5])
        assert rows[1].width >= rows[0].width - 0.002

    def test_singular_rho_runs(self):
        req = make_request(n=10_000)
        rows = rho_sweep(req, [-1.0])
        assert rows[0].width >= 0.0

    def test_out_of_range_rho_rejected(self):
        req = make_request(n=10_000)
        with pytest.raises(DomainError):
            rho_sweep(req, [1.5])

    def test_grid_checked_before_any_row(self, monkeypatch):
        def no_rows(*args, **kwargs):
            raise AssertionError("a row ran before the grid was checked")

        for name in ("adjust_prevalence", "boot_comb", "fit_from_quantiles"):
            monkeypatch.setattr(f"copulaboot.prevalence.{name}", no_rows)
        with pytest.raises(DomainError, match=r"rho must be in \[-1, 1\], got 1.5"):
            rho_sweep(make_request(n=10_000), [0.0, -0.5, 1.5])

    def test_marginals_fitted_once(self, monkeypatch):
        # rows share one fit of each marginal, and row i is the generic
        # pipeline on stream i, as when every row refitted
        fits = []

        def counting_fit(*args):
            fits.append(args)
            return fit_from_quantiles(*args)

        monkeypatch.setattr("copulaboot.prevalence.fit_from_quantiles", counting_fit)
        req = make_request(n=10_000)
        grid = [0.0, -0.3, -0.6, -0.9]
        rows = rho_sweep(req, grid)
        assert len(fits) == 3
        marginals = [fit_from_quantiles(*args) for args in fits]
        generic = Combiner.from_expression(
            "(prev+(spec-1))/(sens+(spec-1))", names=["prev", "sens", "spec"]
        )
        for i, (rho, row) in enumerate(zip(grid, rows)):
            est = boot_comb(
                marginals, sens_spec_sigma(rho), generic, req.config,
                stream_id=i, valid_range=(0.0, 1.0),
            )
            assert (row.low, row.upp) == (est.low, est.upp)

    def test_rows_independently_reproducible(self):
        req = make_request(n=10_000)
        grid = [0.0, -0.3, -0.6]
        rows = rho_sweep(req, grid)
        again = rho_sweep(req, grid)
        assert rows == again


class TestUnmixedCoordinates:
    """prev and sens are correlated with no earlier coordinate, so they read
    their stream uniforms directly: for a given seed and stream their draws
    do not depend on rho, and only spec moves."""

    RHOS = (-0.5, 0.7, 1.0, -1.0)

    def test_boot_comb_prev_and_sens_shared_across_rho(self):
        marginals = [
            fit_from_quantiles("beta", QuantileConstraint(*ci))
            for ci in (PREV_CI, SENS_CI, SPEC_CI)
        ]
        config = BootstrapConfig(n=5000, seed=123, chunk_size=1024, return_boot_vals=True)

        def draws(rho):
            est = boot_comb(marginals, sens_spec_sigma(rho), Combiner.sum(3), config)
            return est.sample.input_draws

        base = draws(0.0)
        for rho in self.RHOS:
            x = draws(rho)
            assert np.array_equal(x[:, :2], base[:, :2])
            assert not np.array_equal(x[:, 2], base[:, 2])

    def test_scatter_sens_shared_across_rho(self):
        base = scatter_draws(SENS_CI, SPEC_CI, rho=0.0, m=5000, seed=123)
        for rho in self.RHOS:
            x = scatter_draws(SENS_CI, SPEC_CI, rho=rho, m=5000, seed=123)
            assert np.array_equal(x[:, 0], base[:, 0])
            assert not np.array_equal(x[:, 1], base[:, 1])


class TestScatterDraws:
    def test_marginals_preserved(self):
        draws = scatter_draws(SENS_CI, SPEC_CI, rho=0.0, m=100_000, seed=123)
        sens_fit = fit_from_quantiles("beta", QuantileConstraint(*SENS_CI))
        spec_fit = fit_from_quantiles("beta", QuantileConstraint(*SPEC_CI))
        for col, fit in ((0, sens_fit), (1, spec_fit)):
            s = np.sort(draws[:, col])
            n = s.size
            c = cdf(fit.spec, s)
            d = max(
                np.max(np.abs(c - np.arange(1, n + 1) / n)),
                np.max(np.abs(c - np.arange(0, n) / n)),
            )
            assert d < 0.006

    def test_independence_latent_correlation(self):
        draws = scatter_draws(SENS_CI, SPEC_CI, rho=0.0, m=100_000, seed=123)
        r = stats.spearmanr(draws[:, 0], draws[:, 1]).statistic
        assert r == pytest.approx(0.0, abs=0.01)

    def test_antithetic_coupling(self):
        draws = scatter_draws(SENS_CI, SPEC_CI, rho=-1.0, m=5000, seed=123)
        r0 = stats.rankdata(draws[:, 0])
        r1 = stats.rankdata(draws[:, 1])
        assert np.array_equal(r0, len(r0) + 1 - r1)  # ranks exactly reversed

    def test_negative_half_rank_correlation(self):
        draws = scatter_draws(SENS_CI, SPEC_CI, rho=-0.5, m=100_000, seed=123)
        r = stats.spearmanr(draws[:, 0], draws[:, 1]).statistic
        expected = -(6.0 / math.pi) * math.asin(0.25)
        assert r == pytest.approx(expected, abs=0.01)

    def test_m_validation(self):
        with pytest.raises(DomainError):
            scatter_draws(SENS_CI, SPEC_CI, rho=0.0, m=0, seed=123)

    def test_chunks_reproduce_one_block(self):
        # several default-size chunks give the draws of one 0..m block
        m = 200_000
        draws = scatter_draws(SENS_CI, SPEC_CI, rho=-0.5, m=m, seed=9)
        marginals = [
            fit_from_quantiles("beta", QuantileConstraint(*ci))
            for ci in (SENS_CI, SPEC_CI)
        ]
        sigma = validate_correlation_matrix([[1.0, -0.5], [-0.5, 1.0]])
        factor = factor_correlation(sigma)
        block = _combine_chunk(marginals, factor, RngStream(9), 0, m)
        assert np.array_equal(draws, block)

    def test_peak_memory_is_the_output_plus_chunk_buffers(self):
        # the m x 2 output (16m bytes) is the only allocation sized by m
        m = 1_000_000
        scatter_draws(SENS_CI, SPEC_CI, rho=-0.5, m=1000, seed=9)  # warm-up
        tracemalloc.start()
        try:
            scatter_draws(SENS_CI, SPEC_CI, rho=-0.5, m=m, seed=9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 16 * m

    def test_ci_validation_names_the_ci(self):
        with pytest.raises(DomainError, match="specCI"):
            scatter_draws(SENS_CI, (0.5, 1.5), rho=0.0, m=10, seed=123)

    def test_unallocatable_m_fails_before_any_uniform(self, monkeypatch):
        # numpy refuses 2**60 x 2 doubles as too big before allocating anything
        def no_uniforms(self, start, n):
            raise AssertionError("a uniform was drawn")

        monkeypatch.setattr(RngStream, "uniforms", no_uniforms)
        m = 2**60
        match = f"n={m} draws: it needs {16 * m:,} bytes"
        with pytest.raises(CopulabootError, match=match) as exc:
            scatter_draws(SENS_CI, SPEC_CI, rho=0.0, m=m, seed=123)
        assert not isinstance(exc.value, ValueError)
