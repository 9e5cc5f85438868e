import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from copulaboot import (
    BootstrapConfig,
    Combiner,
    DomainError,
    InvalidCorrelationError,
    QuantileConstraint,
    boot_comb,
    fit_from_quantiles,
    sens_spec_sigma,
    validate_correlation_matrix,
)
from copulaboot.copula import FACTOR_TOL, _draw_uniform_block, factor_correlation
from copulaboot.distributions import cdf, quantile, std_normal_cdf, std_normal_quantile
from copulaboot.engine import MIN_DRAWS, _combine_chunk
from copulaboot.rng import _U_HIGH, _U_LOW, RngStream

Z_975 = 1.9599639845400545

# KS 95% acceptance band at n = 1e5 is ~1.36/sqrt(n) ~ 0.0043; spec fixes 0.006
KS_THRESHOLD = 0.006
N_BIG = 100_000


def ks_distance(sample, fitted):
    s = np.sort(sample)
    n = s.size
    c = cdf(fitted.spec, s)
    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return max(np.max(np.abs(c - ecdf_hi)), np.max(np.abs(c - ecdf_lo)))


def spearman_of_rho(rho):
    # closed-form Gaussian-copula rank correlation
    return (6.0 / math.pi) * math.asin(rho / 2.0)


def sample(marginals, sigma, n, seed, start=0):
    """Draws start..start+n-1 of the sampler on stream (seed, 0).

    Runs of at least MIN_DRAWS from the start go through ``boot_comb``;
    shorter ones call its chunk sampler, ``engine._combine_chunk``, directly.
    """
    if start == 0 and n >= MIN_DRAWS:
        config = BootstrapConfig(n=n, seed=seed, return_boot_vals=True)
        combiner = Combiner.sum(len(marginals))
        return boot_comb(marginals, sigma, combiner, config).sample.input_draws
    factor = factor_correlation(sigma)
    return _combine_chunk(marginals, factor, RngStream(seed), start, start + n)


def unit_row_source(row):
    """j if the factor row is the unit vector e_j, else None."""
    if np.count_nonzero(row) == 1 and 1.0 in row:
        return int(np.argmax(row))
    return None


def rebuild_uniforms(L, raw):
    """The copula stage recomputed from clamped stream uniforms: latents z, uniforms u.

    A unit-vector row e_j keeps stream column j; only the other rows go
    through Phi^-1, L and Phi.
    """
    n, d = raw.shape
    g = std_normal_quantile(raw)
    # z[r, i] = sum over j of g[r, j] * L[i, j], added in order of j
    z = np.array(
        [[sum(float(g[r, j]) * L[i, j] for j in range(d)) for i in range(d)]
         for r in range(n)]
    )
    u = np.empty((n, d))
    for i in range(d):
        j = unit_row_source(L[i])
        if j is None:
            u[:, i] = np.clip(std_normal_cdf(z[:, i]), _U_LOW, _U_HIGH)
        else:
            u[:, i] = raw[:, j]
    return z, u


def stream_block(seed, n, d):
    """The clamped stream uniforms of draws 0..n-1, one row per draw."""
    return np.clip(RngStream(seed).uniforms(0, n * d).reshape(n, d), _U_LOW, _U_HIGH)


def rebuild_draws(marginals, sigma, n, seed):
    """The sampler's stages recomputed from public pieces: latents z, draws x."""
    raw = stream_block(seed, n, len(marginals))
    z, u = rebuild_uniforms(factor_correlation(sigma).L, raw)
    x = np.column_stack([quantile(m.spec, u[:, i]) for i, m in enumerate(marginals)])
    return z, x


@st.composite
def block_sigmas(draw):
    """Correlation matrices of up to 3 independent blocks over up to 5
    coordinates, in any interleaving. Block b has correlation s_a s_c rho_b
    between its members a and c, with signs s and rho_b in [0, 1], so rho_b
    = 1 gives perfect positive and negative correlation and a rank-deficient
    factor."""
    d = draw(st.integers(1, 5))
    blocks = draw(st.lists(st.integers(0, 2), min_size=d, max_size=d))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=d, max_size=d))
    rho = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    rhos = draw(st.lists(rho, min_size=3, max_size=3))
    m = np.eye(d)
    for a in range(d):
        for c in range(d):
            if a != c and blocks[a] == blocks[c]:
                m[a, c] = signs[a] * signs[c] * rhos[blocks[a]]
    return validate_correlation_matrix(m)


@pytest.fixture
def constant_uniforms(monkeypatch):
    """Make every stream return the given constant as each uniform."""

    def install(value):
        monkeypatch.setattr(
            RngStream, "uniforms", lambda self, start, n: np.full(n, value)
        )

    return install


@pytest.fixture(scope="module")
def beta_marginals():
    return [
        fit_from_quantiles("beta", QuantileConstraint(0.027, 0.050)),
        fit_from_quantiles("beta", QuantileConstraint(0.036, 0.057)),
    ]


class TestValidate:
    def test_identity_valid(self):
        sigma = validate_correlation_matrix(np.eye(3))
        assert sigma.d == 3

    def test_paper_matrix_valid(self):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        assert sigma.entries[0, 1] == 0.5

    def test_non_unit_diagonal(self):
        with pytest.raises(InvalidCorrelationError, match="diagonal not unit"):
            validate_correlation_matrix([[0.9, 0.8], [0.8, 1.0]])

    def test_asymmetric(self):
        with pytest.raises(InvalidCorrelationError, match="not symmetric"):
            validate_correlation_matrix([[1.0, 0.3], [0.4, 1.0]])

    def test_out_of_range(self):
        with pytest.raises(InvalidCorrelationError, match="out of") as exc:
            validate_correlation_matrix([[1.0, 1.5], [1.5, 1.0]])
        assert str(exc.value).endswith("entry (0,1)=1.5")  # no np.float64(...)

    def test_not_psd(self):
        m = [[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]]
        with pytest.raises(InvalidCorrelationError, match="semi-definite"):
            validate_correlation_matrix(m)

    def test_not_square(self):
        with pytest.raises(InvalidCorrelationError, match="square"):
            validate_correlation_matrix([[1.0, 0.0]])

    @pytest.mark.parametrize("raw", [[[1.0, 0.0], [0.0]], [["a"]], [[{}]]])
    def test_not_numbers(self, raw):
        with pytest.raises(InvalidCorrelationError, match="equal-length rows"):
            validate_correlation_matrix(raw)

    def test_non_finite(self):
        with pytest.raises(InvalidCorrelationError, match="finite"):
            validate_correlation_matrix([[1.0, float("nan")], [float("nan"), 1.0]])


class TestFactor:
    def test_identity(self):
        f = factor_correlation(validate_correlation_matrix(np.eye(4)))
        assert np.array_equal(f.L, np.eye(4))
        assert f.rank == 4

    def test_hand_cholesky(self):
        f = factor_correlation(validate_correlation_matrix([[1, 0.5], [0.5, 1]]))
        # hand Cholesky: L = [[1, 0], [0.5, sqrt(0.75)]]
        assert f.L[0, 0] == pytest.approx(1.0)
        assert f.L[1, 0] == pytest.approx(0.5)
        assert f.L[1, 1] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert f.L[0, 1] == 0.0

    def test_perfect_correlation_rank1(self):
        sigma = validate_correlation_matrix([[1, 1], [1, 1]])
        f = factor_correlation(sigma)
        assert f.rank == 1
        assert np.max(np.abs(f.L @ f.L.T - sigma.entries)) <= 1e-8

    def test_equals_lapack_on_the_forms_the_runs_use(self):
        # the HDV 2x2 and the sens/spec 3x3 (prev uncorrelated) at every rho
        # of a grid, and near the ends: LAPACK's L, bit for bit
        grid = np.concatenate(
            [np.linspace(-0.999, 0.999, 1999), 1 - np.logspace(-9, -2, 50)]
        )
        for rho in np.concatenate([grid, -grid]):
            for sigma in (
                validate_correlation_matrix([[1, rho], [rho, 1]]),
                sens_spec_sigma(rho),
            ):
                L = factor_correlation(sigma).L
                assert np.array_equal(L, np.linalg.cholesky(sigma.entries)), rho

    def test_pivot_within_psd_tol_is_dropped(self):
        # positive definite, but its second pivot 1 - r^2 ~ 4e-11 is within
        # PSD_TOL, so the column drops and the rank is 1
        r = 1 - 2e-11
        sigma = validate_correlation_matrix([[1, r], [r, 1]])
        f = factor_correlation(sigma)
        assert f.rank == 1
        assert np.array_equal(f.L[:, 1], [0.0, 0.0])
        assert np.max(np.abs(f.L @ f.L.T - sigma.entries)) <= FACTOR_TOL

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            cov = a @ a.T + 1e-3 * np.eye(4)
            dd = np.sqrt(np.diag(cov))
            m = cov / np.outer(dd, dd)
            np.fill_diagonal(m, 1.0)
            sigma = validate_correlation_matrix(0.5 * (m + m.T))
            f = factor_correlation(sigma)
            assert np.max(np.abs(f.L @ f.L.T - sigma.entries)) <= 1e-8
            assert np.allclose(np.triu(f.L, 1), 0.0)


class TestSampleLatent:
    """The latent stage of the sampler: z = L @ g, read from the stream."""

    def test_identity_factor_passthrough(self):
        f = factor_correlation(validate_correlation_matrix(np.eye(3)))
        u = _draw_uniform_block(f, RngStream(123, 0), 0, 100)
        raw = RngStream(123, 0).uniforms(0, 300).reshape(100, 3)
        assert np.array_equal(u, np.clip(raw, _U_LOW, _U_HIGH))

    def test_determinism_and_advancement(self, beta_marginals):
        # draws 50..99 follow draws 0..49 on the stream, 2 positions per draw
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        first = sample(beta_marginals, sigma, 50, 123)
        assert np.array_equal(first, sample(beta_marginals, sigma, 50, 123))
        second = sample(beta_marginals, sigma, 50, 123, start=50)
        assert not np.array_equal(first, second)
        whole = sample(beta_marginals, sigma, 100, 123)
        assert np.array_equal(whole, np.vstack([first, second]))

    @given(
        sigma=block_sigmas(),
        n=st.integers(1, 40),
        cuts=st.sets(st.integers(1, 39)),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sigma=validate_correlation_matrix([[1, 1], [1, 1]]), n=9, cuts={4}, seed=1)
    @example(sigma=validate_correlation_matrix([[1, -1], [-1, 1]]), n=9, cuts={4}, seed=1)
    @example(sigma=sens_spec_sigma(-0.5), n=9, cuts={1, 2}, seed=1)
    # row 2 is e_1 while row 1 mixes: coordinate 2 copies the stream normal
    # of coordinate 1, not its copula uniform
    @example(sigma=validate_correlation_matrix([[1, 0.6, 0], [0.6, 1, 0.8], [0, 0.8, 1]]),
             n=9, cuts={4}, seed=1)
    def test_unit_rows_read_the_stream(self, sigma, n, cuts, seed):
        # a unit-vector row e_j is stream column j bit for bit; any other
        # row is Phi(L Phi^-1(u)) on that row alone; any split agrees
        factor = factor_correlation(sigma)
        raw = stream_block(seed, n, sigma.d)
        whole = _draw_uniform_block(factor, RngStream(seed), 0, n)
        for i, row in enumerate(factor.L):
            j = unit_row_source(row)
            if j is not None:
                assert np.array_equal(whole[:, i], raw[:, j])
        _, ref = rebuild_uniforms(factor.L, raw)
        assert np.array_equal(whole, ref)
        bounds = [0, *sorted(c for c in cuts if c < n), n]
        pieces = [
            _draw_uniform_block(factor, RngStream(seed), a, b)
            for a, b in zip(bounds, bounds[1:])
        ]
        assert np.array_equal(np.vstack(pieces), whole)

    def test_rank1_equal_components(self, beta_marginals):
        same = [beta_marginals[0], beta_marginals[0]]
        sigma = validate_correlation_matrix([[1, 1], [1, 1]])
        x = sample(same, sigma, 1000, 9)
        assert np.array_equal(x[:, 0], x[:, 1])


class TestCopulaTransform:
    """The transform stage of the sampler: u = Phi(z), x = Q(u)."""

    def test_zero_latent_gives_medians(self, beta_marginals, constant_uniforms):
        constant_uniforms(0.5)  # g = Phi^-1(1/2) = 0, so every latent is 0
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        x = sample(beta_marginals, sigma, 10, 1)
        for i, m in enumerate(beta_marginals):
            assert np.all(x[:, i] == quantile(m.spec, 0.5))

    def test_normal_round_trip(self):
        m = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        x = sample([m, m], sigma, 1000, 4)
        z, _ = rebuild_draws([m, m], sigma, 1000, 4)
        assert np.max(np.abs(x - z)) <= 1e-9

    def test_extreme_latent_clamped(self, beta_marginals, constant_uniforms):
        constant_uniforms(0.0)  # clamped to _U_LOW, the most extreme latent
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        x = sample(beta_marginals, sigma, 10, 1)
        assert np.all(x > 0.0)
        assert np.all(np.isfinite(x))

    def test_invariants(self, beta_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        x = sample(beta_marginals, sigma, 1000, 5)
        _, ref = rebuild_draws(beta_marginals, sigma, 1000, 5)
        assert np.array_equal(x, ref)

    def test_length_mismatch(self, beta_marginals):
        sigma = validate_correlation_matrix(np.eye(2))
        with pytest.raises(DomainError, match="dimension mismatch"):
            sample(beta_marginals + beta_marginals[:1], sigma, MIN_DRAWS, 1)


class TestDrawDependentSamples:
    def test_identity_bit_identical_to_independent(self, beta_marginals):
        sigma = validate_correlation_matrix(np.eye(2))
        x = sample(beta_marginals, sigma, 500, 42)
        u = np.clip(RngStream(42).uniforms(0, 1000).reshape(500, 2), 1e-300, 1 - 1e-16)
        ref = np.column_stack(
            [quantile(m.spec, u[:, i]) for i, m in enumerate(beta_marginals)]
        )
        assert np.array_equal(x, ref)

    def test_marginals_preserved_identity(self, beta_marginals):
        sigma = validate_correlation_matrix(np.eye(2))
        x = sample(beta_marginals, sigma, N_BIG, 7)
        for i, m in enumerate(beta_marginals):
            assert ks_distance(x[:, i], m) < KS_THRESHOLD

    def test_marginals_preserved_correlated(self, beta_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        x = sample(beta_marginals, sigma, N_BIG, 7)
        for i, m in enumerate(beta_marginals):
            assert ks_distance(x[:, i], m) < KS_THRESHOLD

    def test_latent_pearson_correlation(self, beta_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        rng = RngStream(11)
        # reconstruct the latent normals the sampler used
        u_raw = np.clip(rng.uniforms(0, 2 * N_BIG).reshape(N_BIG, 2), 1e-300, 1 - 1e-16)
        g = stats.norm.ppf(u_raw)
        f = factor_correlation(sigma)
        z = g @ f.L.T
        r = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
        assert r == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
    def test_spearman_rank_law(self, beta_marginals, rho):
        sigma = validate_correlation_matrix([[1, rho], [rho, 1]])
        x = sample(beta_marginals, sigma, N_BIG, 13)
        r = stats.spearmanr(x[:, 0], x[:, 1]).statistic
        assert r == pytest.approx(spearman_of_rho(rho), abs=0.01)

    def test_perfect_correlation_identical_ranks(self, beta_marginals):
        sigma = validate_correlation_matrix([[1, 1], [1, 1]])
        x = sample(beta_marginals, sigma, 5000, 3)
        r0 = stats.rankdata(x[:, 0])
        r1 = stats.rankdata(x[:, 1])
        assert np.array_equal(r0, r1)
        # rank-difference formula: all differences zero, so Spearman is 1 exactly
        n = len(r0)
        d2 = np.sum((r0 - r1) ** 2)
        assert 1.0 - 6.0 * d2 / (n * (n * n - 1.0)) == 1.0

    def test_determinism(self, beta_marginals):
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        a = sample(beta_marginals, sigma, 2000, 99)
        b = sample(beta_marginals, sigma, 2000, 99)
        assert np.array_equal(a, b)

    def test_chunk_partition_invariance(self, beta_marginals):
        # drawing in two halves from the appropriately positioned streams
        # reproduces the single-shot output exactly
        sigma = validate_correlation_matrix([[1, 0.5], [0.5, 1]])
        whole = sample(beta_marginals, sigma, 1000, 21)
        first = sample(beta_marginals, sigma, 600, 21)
        second = sample(beta_marginals, sigma, 400, 21, start=600)
        assert np.array_equal(whole, np.vstack([first, second]))
        # one-draw blocks round exactly like the rows of a taller block
        singles = [sample(beta_marginals, sigma, 1, 21, start=i) for i in range(200)]
        assert np.array_equal(whole[:200], np.vstack(singles))

    def test_n_and_dimension_validation(self, beta_marginals):
        with pytest.raises(DomainError, match="n must be"):
            BootstrapConfig(n=0)
        with pytest.raises(DomainError, match="dimension mismatch"):
            sample(beta_marginals, validate_correlation_matrix(np.eye(3)), MIN_DRAWS, 1)


class TestRngStream:
    def test_counter_addressing(self):
        a = RngStream(123, 0).uniforms(0, 100)
        for offset in (0, 1, 2, 3, 4, 37):
            tail = RngStream(123, 0).uniforms(offset, 100 - offset)
            assert np.array_equal(a[offset:], tail)

    def test_streams_differ(self):
        a = RngStream(123, 0).uniforms(0, 50)
        b = RngStream(123, 1).uniforms(0, 50)
        assert not np.array_equal(a, b)

    def test_normals_consume_one_uniform_each(self, beta_marginals, monkeypatch):
        # each latent normal is read from exactly one stream uniform
        read = []
        uniforms = RngStream.uniforms

        def recording(self, start, n):
            read.append((start, n))
            return uniforms(self, start, n)

        monkeypatch.setattr(RngStream, "uniforms", recording)
        for marginals, sigma in (
            (beta_marginals[:1], [[1.0]]),
            (beta_marginals, [[1, 0.5], [0.5, 1]]),
        ):
            read.clear()
            sigma = validate_correlation_matrix(sigma)
            sample(marginals, sigma, 7, 5, start=3)
            d = len(marginals)
            assert read == [(3 * d, 7 * d)]
