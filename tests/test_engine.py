import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.hermite_e import hermegauss
from scipy import special
from scipy.optimize import brentq

from copulaboot import (
    BootstrapConfig,
    Combiner,
    CopulabootError,
    DomainError,
    NonFiniteDrawError,
    QuantileConstraint,
    boot_comb,
    fit_from_quantiles,
    scatter_draws,
    validate_correlation_matrix,
)
from copulaboot import engine
from copulaboot.copula import factor_correlation
from copulaboot.coverage import CoverageScenario, clopper_pearson
from copulaboot.engine import _combine_chunk, hdi_interval, percentile_interval
from copulaboot.rng import RngStream, derive_seed

Z_975 = 1.9599639845400545


def brute_force_hdi(values, level):
    # exhaustive window search oracle
    s = np.sort(np.asarray(values, dtype=float))
    n = s.size
    m = int(np.ceil(level * n))
    best = None
    for i in range(n - m + 1):
        w = s[i + m - 1] - s[i]
        if best is None or w < best[0]:
            best = (w, s[i], s[i + m - 1])
    return best[1], best[2]


class TestPercentileInterval:
    def test_linear_interpolation_formula(self):
        values = np.arange(101.0)
        assert percentile_interval(values, 0.95) == pytest.approx((2.5, 97.5))

    def test_degenerate_sample(self):
        assert percentile_interval(np.full(10, 3.0), 0.95) == (3.0, 3.0)

    def test_extreme_levels_hit_min_max(self):
        values = np.arange(101.0)
        low, upp = percentile_interval(values, 1.0 - 1e-12)
        assert low == pytest.approx(0.0, abs=1e-8)
        assert upp == pytest.approx(100.0, abs=1e-8)

    def test_too_small_sample(self):
        with pytest.raises(DomainError):
            percentile_interval(np.array([1.0]), 0.95)

    def test_bracketing_fraction(self):
        rng = np.random.default_rng(5)
        values = np.sort(rng.standard_normal(10_000))
        low, upp = percentile_interval(values, 0.95)
        frac_low = np.mean(values <= low)
        assert abs(frac_low - 0.025) <= 1.0 / values.size + 1e-12

    def test_matches_numpy_linear_quantile_bit_for_bit(self):
        # the direct read of two order statistics against numpy's own rule.
        # Rounding makes ties, so some reads interpolate between equal values;
        # adding 0.0 turns each -0.0 into 0.0, because np.quantile partitions
        # a copy, which may swap the equal -0.0 and 0.0
        rng = np.random.default_rng(19)
        fixed = [0.5, 0.9, 0.95, 0.99, 1.0 - 1e-12]
        for k in range(3000):
            n = int(rng.integers(2, 3001))
            digits = int(rng.integers(0, 17))
            s = np.sort(np.round(rng.standard_normal(n), digits) + 0.0)
            level = fixed[k % 5] if k % 2 else float(rng.uniform(0.001, 0.999))
            alpha = (1.0 - level) / 2.0
            expected = np.quantile(s, [alpha, 1.0 - alpha], method="linear")
            got = np.array(percentile_interval(s, level))
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestHdiInterval:
    def test_equal_spacing_tie_break(self):
        # all windows of 5 out of 0..9 have width 4; smallest index wins
        assert hdi_interval(np.arange(10.0), 0.5) == (0.0, 4.0)

    def test_two_windows(self):
        values = np.array([0.0, 0.1, 0.2, 0.3, 10.0])
        assert hdi_interval(values, 0.8) == (0.0, 0.3)

    def test_hdi_no_wider_than_percentile_for_symmetric_sample(self):
        rng = np.random.default_rng(11)
        values = rng.standard_normal(50_000)
        h_low, h_upp = hdi_interval(np.sort(values), 0.95)
        p_low, p_upp = percentile_interval(np.sort(values), 0.95)
        assert h_upp - h_low <= p_upp - p_low + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(10, 1000))
            values = rng.gamma(2.0, 1.0, size=n)
            level = float(rng.uniform(0.5, 0.99))
            assert hdi_interval(np.sort(values), level) == brute_force_hdi(values, level)

    def test_ties_keep_the_first_minimizer(self):
        # rounded so that equal-width windows recur far apart: the window
        # with the smallest left index wins
        rng = np.random.default_rng(8)
        s = np.sort(np.round(rng.standard_normal(100_000), 1))
        for level in (0.5, 0.9, 0.95):
            m = int(np.ceil(level * s.size))
            i = int(np.argmin(s[m - 1 :] - s[: s.size - m + 1]))
            assert hdi_interval(s, level) == (s[i], s[i + m - 1])

    @pytest.mark.parametrize("swap", [0, 16_383, 39_998])
    def test_rejects_unsorted_sample(self, swap):
        values = np.arange(40_000.0)
        values[[swap, swap + 1]] = values[[swap + 1, swap]]
        for summary in (hdi_interval, percentile_interval):
            with pytest.raises(DomainError, match="sorted"):
                summary(values, 0.95)

    def test_rejects_nan(self):
        # np.sort puts a NaN last, where an order check by < would miss it
        values = np.sort([3.0, float("nan"), 1.0, 2.0])
        for summary in (hdi_interval, percentile_interval):
            with pytest.raises(DomainError, match="NaN"):
                summary(values, 0.5)

    def test_too_small_sample(self):
        with pytest.raises(DomainError):
            hdi_interval(np.array([]), 0.95)


class TestBootstrapConfig:
    def test_min_draws(self):
        with pytest.raises(DomainError):
            BootstrapConfig(n=999)

    def test_level_bounds(self):
        with pytest.raises(DomainError):
            BootstrapConfig(level=1.0)

    def test_bad_method(self):
        with pytest.raises(DomainError):
            BootstrapConfig(method="bca")

    def test_numpy_integers_accepted(self):
        config = BootstrapConfig(
            n=np.int64(2000), seed=np.uint64(3), threads=np.int32(2)
        )
        assert (config.n, config.seed, config.threads) == (2000, 3, 2)


SCATTER_CIS = ((0.837, 0.918), (0.857, 0.975))


def scenario(trials=10, sizes=(100, 100)):
    return CoverageScenario(
        true_params=(0.1, 0.2),
        data_sizes=sizes,
        combiner=Combiner.product(2),
        true_combined=0.1 * 0.2,
        sigma=validate_correlation_matrix(np.eye(2)),
        config=BootstrapConfig(n=1000),
        trials=trials,
    )


@pytest.mark.parametrize(
    "name, make",
    [
        ("n", lambda: BootstrapConfig(n=2000.0)),
        ("n", lambda: BootstrapConfig(n=2000.5)),
        ("chunkSize", lambda: BootstrapConfig(chunk_size=100.5)),
        ("seed", lambda: BootstrapConfig(seed=1.5)),
        ("threads", lambda: BootstrapConfig(threads=2.5)),
        ("threads", lambda: BootstrapConfig(threads=True)),
        ("m", lambda: scatter_draws(*SCATTER_CIS, rho=0.0, m=10.0, seed=1)),
        ("m", lambda: scatter_draws(*SCATTER_CIS, rho=0.0, m=True, seed=1)),
        ("seed", lambda: scatter_draws(*SCATTER_CIS, rho=0.0, m=10, seed=1.5)),
        # int() would truncate 2.7 to the stream of seed 2, silently
        ("seed", lambda: RngStream(2.7)),
        ("seed", lambda: RngStream(True)),
        ("stream_id", lambda: RngStream(0, 2.0)),
        ("seed", lambda: derive_seed(2.9, 0)),
        ("trials", lambda: scenario(trials=2.5)),
        ("trials", lambda: scenario(trials=True)),
        (r"dataSizes\[1\]", lambda: scenario(sizes=(100, 2.5))),
    ],
    ids=[
        "n_float", "n_fraction", "chunk_size_fraction", "seed_fraction",
        "threads_fraction", "threads_bool", "m_float", "m_bool", "scatter_seed",
        "stream_seed", "stream_seed_bool", "stream_id_float", "derived_seed",
        "trials_fraction", "trials_bool", "data_size_fraction",
    ],
)
def test_integer_inputs_refused_by_name(name, make):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        make()


@pytest.mark.parametrize(
    "name, make",
    [
        ("n", lambda: BootstrapConfig(n=999)),
        ("chunkSize", lambda: BootstrapConfig(chunk_size=0)),
        ("threads", lambda: BootstrapConfig(threads=np.int64(0))),
        ("m", lambda: scatter_draws(*SCATTER_CIS, rho=0.0, m=0, seed=1)),
        ("trials", lambda: scenario(trials=0)),
        (r"dataSizes\[0\]", lambda: scenario(sizes=(-5, 100))),
    ],
    ids=["n", "chunk_size", "threads", "m", "trials", "data_size"],
)
def test_counts_below_their_floor_refused_by_name(name, make):
    with pytest.raises(DomainError, match=f"^{name} must be >= "):
        make()


LEVEL_SITES = {
    "config": ("level", lambda p: BootstrapConfig(level=p)),
    "alpha_low": ("alphaLow", lambda p: QuantileConstraint(0.1, 0.2, p, 0.975)),
    "alpha_upp": ("alphaUpp", lambda p: QuantileConstraint(0.1, 0.2, 1e-9, p)),
    "percentile": ("level", lambda p: percentile_interval(np.arange(10.0), p)),
    "hdi": ("level", lambda p: hdi_interval(np.arange(10.0), p)),
    "clopper_pearson": ("level", lambda p: clopper_pearson(5, 10, p)),
}


@pytest.mark.parametrize("site", LEVEL_SITES)
@pytest.mark.parametrize(
    "p", ["0.5", None, True, math.nan, 0, 1, -0.5, 1.5],
    ids=["str", "none", "bool", "nan", "zero", "one", "negative", "above_one"],
)
def test_levels_outside_the_unit_interval_refused_by_name(site, p):
    # unchecked, a str raises a bare TypeError, and the summaries and
    # clopper_pearson return a reversed, empty or NaN interval
    name, make = LEVEL_SITES[site]
    match = f"^{name} must be a number in \\(0, 1\\), got "
    with pytest.raises(DomainError, match=match):
        make(p)


def test_alpha_order_refused_after_each_level_passes():
    with pytest.raises(DomainError, match="^need alphaLow < alphaUpp, got "):
        QuantileConstraint(0.1, 0.2, 0.6, 0.4)


@pytest.mark.parametrize(
    "seed", [-1, 2**64, np.int64(-1)], ids=["negative", "too_large", "np_negative"]
)
def test_seed_outside_64_bits_refused_before_any_draw(monkeypatch, seed):
    # a seed out of range would alias one inside it (-1 as 2**64 - 1)
    def no_uniforms(self, start, n):
        raise AssertionError("a uniform was drawn")

    monkeypatch.setattr(RngStream, "uniforms", no_uniforms)
    match = r"^seed must be in \[0, 2\*\*64\), got "
    with pytest.raises(DomainError, match=match):
        BootstrapConfig(seed=seed)  # refused when built, not later by boot_comb
    with pytest.raises(DomainError, match=match):
        scatter_draws(*SCATTER_CIS, rho=0.0, m=10, seed=seed)
    with pytest.raises(DomainError, match=match):
        derive_seed(seed, 0)
    with pytest.raises(DomainError, match=r"^stream_id must be in "):
        RngStream(0, seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.int32(5)])
def test_numpy_integer_seed_draws_as_its_int(hdv_marginals, seed):
    sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])

    def run(s):
        config = BootstrapConfig(n=2000, seed=s, return_boot_vals=True)
        return boot_comb(hdv_marginals, sigma, Combiner.product(2), config)

    a, b = run(seed), run(5)
    assert (a.low, a.upp) == (b.low, b.upp)
    assert np.array_equal(a.sample.input_draws, b.sample.input_draws)
    assert np.array_equal(
        scatter_draws(*SCATTER_CIS, rho=-0.5, m=100, seed=seed),
        scatter_draws(*SCATTER_CIS, rho=-0.5, m=100, seed=5),
    )
    assert derive_seed(seed, 3) == derive_seed(5, 3)


@pytest.fixture(scope="module")
def hdv_marginals():
    return [
        fit_from_quantiles("beta", QuantileConstraint(0.027, 0.050)),
        fit_from_quantiles("beta", QuantileConstraint(0.036, 0.057)),
    ]


class TestBootComb:
    def test_identity_normal_recovers_normal_quantiles(self):
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix(np.eye(1))
        config = BootstrapConfig(n=1_000_000, seed=77, method="percentile")
        est = boot_comb([m], sigma, Combiner.identity(), config)
        assert est.low == pytest.approx(-Z_975, abs=0.01)
        assert est.upp == pytest.approx(Z_975, abs=0.01)

    def test_dimension_mismatches(self, hdv_marginals):
        config = BootstrapConfig(n=1000, seed=1)
        with pytest.raises(DomainError):
            boot_comb(
                hdv_marginals,
                validate_correlation_matrix(np.eye(3)),
                Combiner.product(2),
                config,
            )
        with pytest.raises(DomainError):
            boot_comb(
                hdv_marginals,
                validate_correlation_matrix(np.eye(2)),
                Combiner.product(3),
                config,
            )
        with pytest.raises(DomainError, match="takes 3 values per draw, got 2"):
            Combiner.product(3)(np.ones((4, 2)))

    def test_nonfinite_abort_names_index(self, hdv_marginals):
        n = 20_000
        cases = [
            ("log(x1 - x2)", 0.0),  # NaN at most draws, draw 0 first
            ("log(0.012 - x1 + x2)", 0.5),  # NaN first at draw 2638, then later
            ("x1/(x2 - x2)", 0.0),  # inf at every draw
        ]
        for text, rho in cases:
            sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
            bad = Combiner.from_expression(text)
            # the reference: the first non-finite value of the whole sample,
            # with its draw's inputs sampled on their own
            factor, rng = factor_correlation(sigma), RngStream(1)
            values = bad(_combine_chunk(hdv_marginals, factor, rng, 0, n))
            idx = int(np.argmin(np.isfinite(values)))
            x = _combine_chunk(hdv_marginals, factor, rng, idx, idx + 1)
            expected = (idx, x[0].tolist(), repr(float(bad(x)[0])))

            for threads in (1, 2, 8):
                for chunk_size in (777, 4096, 65_536):
                    config = BootstrapConfig(
                        n=n, seed=1, chunk_size=chunk_size, threads=threads
                    )
                    with pytest.raises(NonFiniteDrawError) as exc:
                        boot_comb(hdv_marginals, sigma, bad, config)
                    got = exc.value
                    assert (got.index, got.inputs, repr(got.value)) == expected
                    assert "np.float64" not in str(got)

    def test_nonfinite_draw_stops_the_run_at_its_chunk(
        self, hdv_marginals, monkeypatch
    ):
        # a serial run whose first chunk holds a non-finite value samples no
        # other chunk and re-samples no draw
        calls = []

        def counting(*args):
            calls.append(args[3:])
            return _combine_chunk(*args)

        monkeypatch.setattr(engine, "_combine_chunk", counting)
        config = BootstrapConfig(n=10_000, seed=1, chunk_size=1000, threads=1)
        sigma = validate_correlation_matrix(np.eye(2))
        bad = Combiner.from_expression("log(x1 - x2)")
        with pytest.raises(NonFiniteDrawError, match="at draw index 0 "):
            boot_comb(hdv_marginals, sigma, bad, config)
        assert calls == [(0, 1000)]

    def test_determinism_repeated_runs(self, hdv_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        config = BootstrapConfig(n=10_000, seed=123, method="hdi")
        a = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
        b = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
        assert (a.low, a.upp, a.point_estimate) == (b.low, b.upp, b.point_estimate)

    def test_chunk_size_invariance(self, hdv_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        base = BootstrapConfig(n=10_000, seed=9, chunk_size=10_000)
        small = BootstrapConfig(n=10_000, seed=9, chunk_size=777)
        a = boot_comb(hdv_marginals, sigma, Combiner.product(2), base)
        b = boot_comb(hdv_marginals, sigma, Combiner.product(2), small)
        assert (a.low, a.upp) == (b.low, b.upp)

    def test_thread_count_invariance(self, hdv_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        one = BootstrapConfig(n=50_000, seed=9, chunk_size=4096, threads=1)
        many = BootstrapConfig(n=50_000, seed=9, chunk_size=4096, threads=8)
        a = boot_comb(hdv_marginals, sigma, Combiner.product(2), one)
        b = boot_comb(hdv_marginals, sigma, Combiner.product(2), many)
        assert (a.low, a.upp, a.point_estimate) == (b.low, b.upp, b.point_estimate)

    def test_schedule_invariance_past_a_default_chunk(self, hdv_marginals):
        # one 70,000-draw chunk, uneven chunks and 777-draw chunks, on one and
        # two workers: each marginal column is evaluated at whatever length
        # its chunk has, and the interval does not see it
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        results = set()
        for chunk_size in (70_000, 20_000, 777):
            for threads in (1, 2):
                config = BootstrapConfig(
                    n=70_000, seed=5, chunk_size=chunk_size, threads=threads
                )
                est = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
                results.add((est.low, est.upp, est.point_estimate))
        assert len(results) == 1

    @settings(max_examples=25)
    @given(
        chunk_size=st.integers(1, 2500),
        threads=st.sampled_from([1, 2]),
        seed=st.integers(0, 2**32 - 1),
        rho=st.floats(-0.9, 0.9),
        method=st.sampled_from(["percentile", "hdi"]),
    )
    def test_scheduling_invariance(
        self, hdv_marginals, chunk_size, threads, seed, rho, method
    ):
        # the interval is a function of the seed and inputs, not of the schedule
        sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
        ref = BootstrapConfig(n=2000, seed=seed, method=method)
        other = BootstrapConfig(
            n=2000, seed=seed, method=method, chunk_size=chunk_size, threads=threads
        )
        a = boot_comb(hdv_marginals, sigma, Combiner.product(2), ref)
        b = boot_comb(hdv_marginals, sigma, Combiner.product(2), other)
        assert (a.low, a.upp, a.point_estimate) == (b.low, b.upp, b.point_estimate)

    @settings(max_examples=20)
    @given(
        m=st.integers(1000, 3000),
        extra=st.integers(0, 2000),
        schedules=st.tuples(
            st.integers(1, 2500), st.sampled_from([1, 2]),
            st.integers(1, 2500), st.sampled_from([1, 2]),
        ),
        seed=st.integers(0, 2**32 - 1),
        rho=st.floats(-0.9, 0.9),
    )
    def test_n_prefix(self, hdv_marginals, m, extra, schedules, seed, rho):
        # the first m draws of an n-draw run are the draws of an m-draw run,
        # whatever chunking and thread count either run uses
        sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
        chunk_m, threads_m, chunk_n, threads_n = schedules

        def draws(n, chunk_size, threads):
            config = BootstrapConfig(
                n=n, seed=seed, chunk_size=chunk_size, threads=threads,
                return_boot_vals=True,
            )
            est = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
            return est.sample.input_draws

        short = draws(m, chunk_m, threads_m)
        long = draws(m + extra, chunk_n, threads_n)
        assert np.array_equal(long[:m], short)

    def test_independent_runs_same_distribution(self, hdv_marginals):
        # two seeds, identity matrix: KS between the two combined samples
        sigma = validate_correlation_matrix(np.eye(2))
        config1 = BootstrapConfig(n=100_000, seed=1, return_boot_vals=True)
        config2 = BootstrapConfig(n=100_000, seed=2, return_boot_vals=True)
        a = boot_comb(hdv_marginals, sigma, Combiner.product(2), config1)
        b = boot_comb(hdv_marginals, sigma, Combiner.product(2), config2)
        from scipy import stats

        d = stats.ks_2samp(a.sample.values, b.sample.values).statistic
        assert d < 0.006

    def test_hdi_width_grows_with_dependence_for_product(self, hdv_marginals):
        widths = []
        for rho in (0.0, 0.5, 1.0):
            sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
            config = BootstrapConfig(n=100_000, seed=4, method="hdi")
            est = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
            widths.append(est.upp - est.low)
        assert widths[2] == max(widths)

    def test_point_estimate_defaults_to_median(self, hdv_marginals):
        sigma = validate_correlation_matrix(np.eye(2))
        config = BootstrapConfig(n=10_000, seed=3, return_boot_vals=True)
        est = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
        assert est.point_estimate == float(np.median(est.sample.values))

    def test_returned_sample_shapes(self, hdv_marginals):
        sigma = validate_correlation_matrix(np.eye(2))
        config = BootstrapConfig(n=2000, seed=3, return_boot_vals=True)
        est = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
        assert est.sample.values.shape == (2000,)
        assert est.sample.input_draws.shape == (2000, 2)
        assert np.array_equal(
            est.sample.values, np.prod(est.sample.input_draws, axis=1)
        )

    @pytest.mark.parametrize("method", ["percentile", "hdi"])
    def test_returned_sample_keeps_draw_order(self, method):
        # the summary sorts the kept values; the returned ones stay in draw
        # order, row for row with the returned draws
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix([[1, 0.3], [0.3, 1]])
        config = BootstrapConfig(
            n=20_000, seed=6, method=method, chunk_size=3000, return_boot_vals=True
        )
        combiner = Combiner.sum(2)
        est = boot_comb([m, m], sigma, combiner, config, valid_range=(0.0, 10.0))
        assert est.diagnostics["dropped_outside_range"] > 0
        assert np.array_equal(est.sample.values, combiner(est.sample.input_draws))

    @pytest.mark.parametrize(
        "method, valid_range",
        [
            pytest.param("percentile", None, id="percentile"),
            pytest.param("hdi", None, id="hdi"),
            pytest.param("percentile", (0.0, 10.0), id="percentile-valid_range"),
            pytest.param("hdi", (0.0, 10.0), id="hdi-valid_range"),
        ],
    )
    def test_peak_memory_of_one_run(self, hdv_marginals, method, valid_range):
        # a run holds its n combined values and a few chunk-sized buffers; the
        # summary adds no sample-sized copy, and a valid_range that drops
        # about half the draws adds no mask or copy of the kept values
        n = 200_000
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        config = BootstrapConfig(
            n=n, seed=1, method=method, chunk_size=4096, threads=1
        )
        if valid_range is None:
            marginals, combiner = hdv_marginals, Combiner.product(2)
        else:
            m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
            marginals, combiner = [m, m], Combiner.sum(2)

        def run():
            return boot_comb(
                marginals, sigma, combiner, config, valid_range=valid_range
            )

        run()  # warm-up
        tracemalloc.start()
        try:
            est = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        if valid_range is not None:
            assert est.diagnostics["dropped_outside_range"] > n // 3
        # the peak is 1.19 (1.12 with a valid_range) times 8n at this n; a
        # sample-sized mask of finite values would add 0.125
        assert peak <= 1.22 * 8 * n

    def test_chunk_holds_one_block_of_its_size(self, hdv_marginals):
        # the quantiles overwrite the block of copula uniforms; an output
        # array of its own would add one more chunk * d * 8 bytes
        chunk, d = 65_536, len(hdv_marginals)
        factor = factor_correlation(validate_correlation_matrix([[1, 0.5], [0.5, 1]]))
        rng = RngStream(3)
        _combine_chunk(hdv_marginals, factor, rng, 0, chunk)  # builds the tables
        tracemalloc.start()
        try:
            _combine_chunk(hdv_marginals, factor, rng, 0, chunk)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 3.07 here; an output array of its own read 4.07
        assert peak <= 3.3 * chunk * d * 8

    def test_valid_range_drops_and_counts(self):
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix(np.eye(1))
        config = BootstrapConfig(n=100_000, seed=5, return_boot_vals=True)
        est = boot_comb(
            [m], sigma, Combiner.identity(), config, valid_range=(0.0, float("inf"))
        )
        dropped = est.diagnostics["dropped_outside_range"]
        assert dropped == pytest.approx(50_000, abs=1500)  # half the mass is negative
        assert est.sample.values.size == 100_000 - dropped
        assert np.all(est.sample.values > 0)

    def test_valid_range_keeps_values_on_neither_bound(self):
        # the clamp gives exact 0s and 1s, which the open range drops; the
        # kept sample and the count match a mask over the full run's draws
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix(np.eye(1))
        combiner = Combiner.from_expression("min(max(x1,0),1)")
        config = BootstrapConfig(
            n=20_000, seed=7, chunk_size=3000, return_boot_vals=True
        )
        full = boot_comb([m], sigma, combiner, config)
        est = boot_comb([m], sigma, combiner, config, valid_range=(0.0, 1.0))
        values = full.sample.values
        keep = (values > 0.0) & (values < 1.0)
        assert np.any(values == 0.0) and np.any(values == 1.0)
        assert est.diagnostics["dropped_outside_range"] == np.count_nonzero(~keep)
        assert np.array_equal(est.sample.values, values[keep])
        assert np.array_equal(est.sample.input_draws, full.sample.input_draws[keep])
        kept = np.sort(values[keep])
        assert (est.low, est.upp) == percentile_interval(kept, config.level)
        assert est.point_estimate == float(np.median(kept))

    @pytest.mark.parametrize(
        "valid_range",
        [(0.0, float("nan")), (float("nan"), 1.0), (1.0, 0.0), (0.5, 0.5)],
        ids=["nan_high", "nan_low", "reversed", "empty"],
    )
    def test_valid_range_is_checked_before_sampling(self, monkeypatch, valid_range):
        def no_uniforms(self, start, n):
            raise AssertionError("a uniform was drawn")

        monkeypatch.setattr(RngStream, "uniforms", no_uniforms)
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix(np.eye(1))
        config = BootstrapConfig(n=1000, seed=5)
        with pytest.raises(DomainError, match="valid_range must satisfy low < high"):
            boot_comb([m], sigma, Combiner.identity(), config, valid_range=valid_range)

    def test_valid_range_shortfall_is_not_an_input_error(self):
        # too few kept draws is a sampled outcome, so not a ValueError (exit 3)
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix(np.eye(1))
        config = BootstrapConfig(n=1000, seed=5)
        with pytest.raises(CopulabootError, match="too few") as exc:
            boot_comb([m], sigma, Combiner.identity(), config, valid_range=(0.0, 1.0))
        assert not isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("keep", [False, True])
    def test_unallocatable_sample_is_a_numerical_failure(self, hdv_marginals, keep):
        # numpy refuses 2**60 doubles as too big before allocating anything
        n = 2**60
        config = BootstrapConfig(n=n, seed=1, return_boot_vals=keep)
        sigma = validate_correlation_matrix(np.eye(2))
        need = 8 * n * (3 if keep else 1)
        match = f"n={n} draws: it needs {need:,} bytes"
        with pytest.raises(CopulabootError, match=match) as exc:
            boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
        assert not isinstance(exc.value, ValueError)


# probabilists' Gauss-Hermite rule for E[f(Z)], Z ~ N(0, 1)
GH_Z, GH_W = hermegauss(64)
GH_W = GH_W / math.sqrt(2.0 * math.pi)


def hdv_model_quantile(marginals, rho, p):
    """Quantile p of x1 * x2 under the fitted model, without sampling.

    F(t) = E[Phi((Phi^-1(F2(t / x1(Z))) - rho Z) / sqrt(1 - rho^2))] with
    x1(z) = Q1(Phi(z)): the Gaussian copula's law of x2 given the latent
    normal Z of x1, over Z by Gauss-Hermite, with the exact beta kernels.
    """
    (a1, b1), (a2, b2) = (m.spec.params for m in marginals)
    # x1 at each node, from the tail that keeps its precision
    x1 = np.where(
        GH_Z < 0,
        special.betaincinv(a1, b1, special.ndtr(GH_Z)),
        special.betainccinv(a1, b1, special.ndtr(-GH_Z)),
    )
    s = math.sqrt(1.0 - rho * rho)

    def F(t):
        g = special.ndtri(special.betainc(a2, b2, np.minimum(t / x1, 1.0)))
        return float(GH_W @ special.ndtr((g - rho * GH_Z) / s))

    return brentq(lambda t: F(t) - p, 1e-7, 0.05, xtol=1e-15, rtol=1e-14)


class TestModelIntervalOracle:
    """HDV product intervals at n = 1e6 against the fitted model's quantiles.

    SE is the per-run SD of each statistic over seeds: the endpoints at
    rho = 0 and 0.5 over 24 seeds; the rest over 32 seeds (1000..1031).
    """

    # rho: (SE of low, median, upp)
    SE = {
        0.0: (6.9e-7, 3.5e-7, 1.3e-6),
        0.5: (8.8e-7, 4.6e-7, 1.6e-6),
        -0.5: (5.9e-7, 2.7e-7, 8.8e-7),
    }

    @pytest.mark.parametrize("rho", [0.0, 0.5, -0.5])
    def test_percentile_endpoints_and_median(self, hdv_marginals, rho):
        sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
        config = BootstrapConfig(n=1_000_000, seed=2026, threads=2)
        est = boot_comb(hdv_marginals, sigma, Combiner.product(2), config)
        got = (est.low, est.point_estimate, est.upp)
        for p, x, se in zip((0.025, 0.5, 0.975), got, self.SE[rho]):
            assert abs(x - hdv_model_quantile(hdv_marginals, rho, p)) <= 6 * se


class TestCombiner:
    @pytest.mark.parametrize(
        "name, arity, expected",
        [
            ("product", 2, [6.0, 0.25]),
            ("sum", 2, [5.0, 1.0]),
            ("identity", 1, [2.0, 0.5]),
        ],
    )
    def test_from_name(self, name, arity, expected):
        combiner = Combiner.from_name(name, arity=arity)
        assert (combiner.label, combiner.arity) == (name, arity)
        x = np.array([[2.0, 3.0], [0.5, 0.5]])[:, :arity]
        assert combiner(x).tolist() == expected

    @pytest.mark.parametrize("d", range(1, 17))
    def test_builtins_match_numpy_reductions(self, d):
        # the column folds against np.prod / np.sum: the product is exact at
        # every d; numpy sums 8 or more columns pairwise, so from there the
        # two sums of d terms in [0, 1) may differ by up to 2d ulps
        x = np.random.default_rng(d).random((5000, d))
        assert np.array_equal(Combiner.product(d)(x), np.prod(x, axis=1))
        folded, reduced = Combiner.sum(d)(x), np.sum(x, axis=1)
        if d < 8:
            assert np.array_equal(folded, reduced)
        assert np.all(np.abs(folded - reduced) <= 2 * d * np.spacing(reduced))

    def test_from_expression_names_must_bind_every_variable(self):
        with pytest.raises(DomainError, match=r"not bound: \['b'\]"):
            Combiner.from_expression("a*b", names=["a"])
