import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from copulaboot.engine import hdi_interval, percentile_interval
from copulaboot.rng import RngStream

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
    ],
    ids=[
        "n_float", "n_fraction", "chunk_size_fraction", "seed_fraction",
        "threads_fraction", "threads_bool", "m_float", "m_bool", "scatter_seed",
    ],
)
def test_integer_inputs_refused_by_name(name, make):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        make()


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
        config = BootstrapConfig(n=1000, seed=1)
        sigma = validate_correlation_matrix(np.eye(2))
        bad = Combiner.from_expression("log(x1 - x2)")  # negative args sometimes
        with pytest.raises(NonFiniteDrawError) as exc:
            boot_comb(hdv_marginals, sigma, bad, config)
        assert exc.value.index >= 0
        assert len(exc.value.inputs) == 2
        assert "np.float64" not in str(exc.value)

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
        assert peak <= 1.5 * 8 * n

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

    def test_from_expression_names_must_bind_every_variable(self):
        with pytest.raises(DomainError, match=r"not bound: \['b'\]"):
            Combiner.from_expression("a*b", names=["a"])
