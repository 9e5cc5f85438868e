import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulaboot import (
    BootstrapConfig,
    Combiner,
    DomainError,
    NonFiniteDrawError,
    QuantileConstraint,
    boot_comb,
    fit_from_quantiles,
    validate_correlation_matrix,
)
from copulaboot.engine import hdi_interval, percentile_interval

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
        values = rng.standard_normal(10_000)
        low, upp = percentile_interval(values, 0.95)
        frac_low = np.mean(values <= low)
        assert abs(frac_low - 0.025) <= 1.0 / values.size + 1e-12


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
        h_low, h_upp = hdi_interval(values, 0.95)
        p_low, p_upp = percentile_interval(values, 0.95)
        assert h_upp - h_low <= p_upp - p_low + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(10, 1000))
            values = rng.gamma(2.0, 1.0, size=n)
            level = float(rng.uniform(0.5, 0.99))
            assert hdi_interval(values, level) == brute_force_hdi(values, level)

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

    def test_nonfinite_abort_names_index(self, hdv_marginals):
        config = BootstrapConfig(n=1000, seed=1)
        sigma = validate_correlation_matrix(np.eye(2))
        bad = Combiner.from_expression("log(x1 - x2)")  # negative args sometimes
        with pytest.raises(NonFiniteDrawError) as exc:
            boot_comb(hdv_marginals, sigma, bad, config)
        assert exc.value.index >= 0
        assert len(exc.value.inputs) == 2

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
