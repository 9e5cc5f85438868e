import math

import numpy as np
import pytest
from scipy import special

from copulaboot import (
    BootstrapConfig,
    Combiner,
    DistributionSpec,
    DomainError,
    Family,
    PrevAdjustRequest,
    QuantileConstraint,
    adjust_prevalence,
    boot_comb,
    fit_from_quantiles,
    sens_spec_sigma,
    validate_correlation_matrix,
)
from copulaboot import distributions
from copulaboot.distributions import cdf, quantile, std_normal_cdf, std_normal_quantile

# z with Phi(z) = 0.975, from the rational-approximation oracle, verified
# below by bisection on the CDF
Z_975 = 1.9599639845400545


def bisect_normal_quantile(p, lo=-10.0, hi=10.0):
    # independent oracle: bisection on erf-based CDF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_z975_oracle_agrees_with_bisection():
    assert bisect_normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-12)


class TestSpecValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            Family.from_name("poisson")

    def test_spec_and_fit_share_the_family_name_rule(self):
        # any case names the family, a member passes through, and an unknown
        # name is a DomainError wherever it enters
        for family in ("Beta", "BETA", Family.BETA):
            assert DistributionSpec(family, (2.0, 3.0)).family is Family.BETA
            fitted = fit_from_quantiles(family, QuantileConstraint(0.027, 0.050))
            assert fitted.spec.family is Family.BETA
        for family in ("foo", None):
            with pytest.raises(DomainError, match="unknown distribution family"):
                DistributionSpec(family, (2.0, 3.0))
            with pytest.raises(DomainError, match="unknown distribution family"):
                fit_from_quantiles(family, QuantileConstraint(0.027, 0.050))

    @pytest.mark.parametrize(
        "family,params",
        [
            ("beta", (0.0, 1.0)),
            ("beta", (2.0, -1.0)),
            ("normal", (0.0, 0.0)),
            ("gamma", (-2.0, 1.0)),
            ("exponential", (0.0,)),
            ("beta", (2.0,)),
            ("normal", (0.0, float("nan"))),
        ],
    )
    def test_bad_params_rejected(self, family, params):
        with pytest.raises(DomainError):
            DistributionSpec(Family.from_name(family), params)


class TestCdf:
    def test_standard_normal_at_zero(self):
        assert cdf(DistributionSpec(Family.NORMAL, (0, 1)), 0.0) == pytest.approx(0.5)

    def test_exponential_support_boundary(self):
        assert cdf(DistributionSpec(Family.EXPONENTIAL, (1,)), 0.0) == 0.0

    def test_symmetric_beta_median(self):
        assert cdf(DistributionSpec(Family.BETA, (2, 2)), 0.5) == pytest.approx(0.5)

    def test_outside_support(self):
        beta = DistributionSpec(Family.BETA, (2, 3))
        assert cdf(beta, -0.5) == 0.0
        assert cdf(beta, 1.5) == 1.0
        assert cdf(DistributionSpec(Family.GAMMA, (2, 1)), -1.0) == 0.0

    def test_non_finite_x_rejected(self):
        with pytest.raises(DomainError):
            cdf(DistributionSpec(Family.NORMAL, (0, 1)), float("nan"))
        with pytest.raises(DomainError):
            cdf(DistributionSpec(Family.NORMAL, (0, 1)), float("inf"))


class TestQuantile:
    def test_exponential_closed_form(self):
        spec = DistributionSpec(Family.EXPONENTIAL, (1,))
        assert quantile(spec, 1.0 - math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_normal_975(self):
        spec = DistributionSpec(Family.NORMAL, (0, 1))
        assert quantile(spec, 0.975) == pytest.approx(Z_975, abs=1e-9)

    def test_symmetric_beta(self):
        spec = DistributionSpec(Family.BETA, (2, 2))
        assert quantile(spec, 0.5) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_boundary_p_rejected(self, p):
        with pytest.raises(DomainError):
            quantile(DistributionSpec(Family.NORMAL, (0, 1)), p)


def test_std_normal_cdf_examples():
    assert std_normal_cdf(0.0) == 0.5
    assert std_normal_cdf(Z_975) == pytest.approx(0.975, abs=1e-12)
    assert std_normal_cdf(-40.0) == 0.0  # extreme tail: no underflow fault


def test_std_normal_quantile_examples():
    assert std_normal_quantile(0.5) == 0.0
    assert std_normal_quantile(0.975) == pytest.approx(Z_975, abs=1e-12)
    assert std_normal_quantile(0.025) == pytest.approx(-Z_975, abs=1e-12)
    with pytest.raises(DomainError):
        std_normal_quantile(0.0)
    with pytest.raises(DomainError):
        std_normal_quantile(1.0)


def test_std_normal_cdf_accuracy_vs_erf():
    # erf-based oracle, max abs error <= 1e-12
    z = np.linspace(-8, 8, 4001)
    oracle = 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in z]))
    assert np.max(np.abs(std_normal_cdf(z) - oracle)) <= 1e-12


def test_std_normal_antisymmetry():
    p = np.linspace(0.001, 0.999, 999)
    assert np.max(np.abs(std_normal_quantile(p) + std_normal_quantile(1 - p))) <= 1e-12


def _param_grid():
    rng = np.random.default_rng(20240817)
    specs = []
    for _ in range(25):
        specs.append(
            DistributionSpec(Family.BETA, tuple(np.exp(rng.uniform(-1, 4, 2))))
        )
        specs.append(
            DistributionSpec(
                Family.NORMAL, (rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
            )
        )
        specs.append(
            DistributionSpec(Family.GAMMA, tuple(np.exp(rng.uniform(-1, 3, 2))))
        )
        specs.append(
            DistributionSpec(Family.EXPONENTIAL, (math.exp(rng.uniform(-2, 2)),))
        )
    return specs


@pytest.mark.parametrize("spec", _param_grid(), ids=lambda s: f"{s.family.value}{s.params}")
def test_cdf_quantile_round_trip(spec):
    p = np.linspace(0.001, 0.999, 10)
    q = quantile(spec, p)
    assert np.max(np.abs(cdf(spec, q) - p)) <= 1e-10


@pytest.mark.parametrize("spec", _param_grid()[:20], ids=lambda s: f"{s.family.value}{s.params}")
def test_quantile_strictly_increasing(spec):
    p = np.linspace(0.001, 0.999, 200)
    q = quantile(spec, p)
    assert np.all(np.diff(q) > 0)


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec(Family.BETA, (2.0, 5.0)),
        DistributionSpec(Family.NORMAL, (1.0, 2.0)),
        DistributionSpec(Family.GAMMA, (3.0, 2.0)),
        DistributionSpec(Family.EXPONENTIAL, (0.7,)),
    ],
    ids=lambda s: s.family.value,
)
def test_cdf_monotone_on_grid(spec):
    lo = quantile(spec, 1e-6)
    hi = quantile(spec, 1.0 - 1e-6)
    x = np.linspace(lo - 1.0, hi + 1.0, 10_000)
    c = cdf(spec, x)
    assert np.all(np.diff(c) >= 0)
    assert np.all((c >= 0) & (c <= 1))


def _two_sided_inverse(spec, z):
    """Exact x = Q(Phi(z)) and min(x, 1 - x) (beta) or x (gamma).

    Each tail is inverted at its own mass Phi(-|z|), so x and 1 - x both
    keep full relative precision.
    """
    q = special.ndtr(-np.abs(z))
    left = z <= 0.0
    x, near = np.empty_like(z), np.empty_like(z)
    a, b = spec.params
    if spec.family is Family.BETA:
        x[left] = special.betaincinv(a, b, q[left])
        x[~left] = special.betainccinv(a, b, q[~left])
        near[left] = special.betainccinv(b, a, q[left])
        near[~left] = special.betaincinv(b, a, q[~left])
        return x, np.minimum(x, near)
    x[left] = special.gammaincinv(a, q[left])
    x[~left] = special.gammainccinv(a, q[~left])
    return x / b, x / b


def _exact_quantile(spec, p):
    a, b = spec.params
    if spec.family is Family.BETA:
        return special.betaincinv(a, b, p)
    return special.gammaincinv(a, p) / b


@pytest.mark.parametrize(
    "spec",
    [
        DistributionSpec(Family.BETA, params)
        for params in [
            (39.4, 1008), (4.8e7, 4.8e7), (0.19, 2.47), (32, 2.2e7),
            (2, 2), (0.5, 0.5), (0.05, 0.05),
        ]
    ]
    + [DistributionSpec(Family.GAMMA, (shape, 2.5)) for shape in (1e-3, 0.1, 3, 1e3, 1e6)],
    ids=lambda s: f"{s.family.value}{s.params}",
)
def test_tabulated_quantile_accuracy(spec):
    # the bound stated in the quantile docstring, over random latent z and a
    # sweep of the whole reachable range [ndtri(2^-53), -ndtri(2^-53)]
    z = np.concatenate([
        np.random.default_rng(6).standard_normal(200_000),
        np.linspace(-8.2095, 8.2095, 20_001),
    ])
    p = np.sort(special.ndtr(z))
    x_hat = quantile(spec, p)
    exact = _exact_quantile(spec, p)
    x, near = _two_sided_inverse(spec, special.ndtri(p))
    within = np.abs(x_hat - x) <= 1e-9 * near + np.spacing(x)
    # outside the bound only where the exact kernel itself was used
    assert np.all(within | (x_hat == exact))
    saturated = (exact == 0.0) | (exact == 1.0)
    assert np.array_equal(x_hat[saturated], exact[saturated])
    # non-decreasing in p, except where the exact kernel itself decreases
    assert np.all((np.diff(x_hat) >= 0) | (np.diff(exact) < 0))
    # the clamp of u = 0 lies far outside the table
    assert quantile(spec, 1e-300) == _exact_quantile(spec, 1e-300)


@pytest.mark.parametrize(
    "spec",
    [DistributionSpec(Family.BETA, (39.4, 1008)), DistributionSpec(Family.GAMMA, (0.1, 2.5))],
    ids=lambda s: s.family.value,
)
def test_tabulated_quantile_is_elementwise(spec):
    # a long column gives the values of its uneven slices, with the exact
    # kernel's values (the u = 0 clamp and p below the table) spread through
    z = np.random.default_rng(8).standard_normal(70_001) * 3.0
    p = np.clip(special.ndtr(z), 1e-300, 1.0 - 2.0**-53)
    p[::997] = 1e-300
    p[5::1009] = 1e-20
    whole = quantile(spec, p)
    cuts = [0, 1, 8_193, 8_200, 40_000, 65_537, 70_001]
    parts = [quantile(spec, p[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert np.array_equal(whole, np.concatenate(parts))
    assert whole[0] == _exact_quantile(spec, 1e-300)
    assert whole[5] == _exact_quantile(spec, 1e-20)


def _published_interval(case, method, seed):
    config = BootstrapConfig(n=200_000, seed=seed, method=method, threads=2)
    if case == "hdv_rho05":
        marginals = [
            fit_from_quantiles("beta", QuantileConstraint(*ci))
            for ci in ((0.027, 0.050), (0.036, 0.057))
        ]
        sigma = validate_correlation_matrix([[1.0, 0.5], [0.5, 1.0]])
        return boot_comb(marginals, sigma, Combiner.product(2), config)
    return adjust_prevalence(PrevAdjustRequest(
        prev_ci=(0.136, 0.204), sens_ci=(0.837, 0.918), spec_ci=(0.857, 0.975),
        sigma=sens_spec_sigma(-0.5), config=config,
    ))


@pytest.mark.parametrize("method", ["percentile", "hdi"])
@pytest.mark.parametrize("case", ["hdv_rho05", "sars_rho_minus05"])
def test_tabulated_quantile_moves_no_interval(case, method, monkeypatch):
    # the table's bound carried to the worked examples' intervals: against
    # the exact kernel, no HDI window switch and no draw crossing valid_range
    for seed in (1, 2):
        table = _published_interval(case, method, seed)
        with monkeypatch.context() as patch:
            patch.setattr(
                distributions, "_tabulated_quantile", distributions._exact_quantile
            )
            exact = _published_interval(case, method, seed)
        for got, want in (
            (table.low, exact.low),
            (table.upp, exact.upp),
            (table.point_estimate, exact.point_estimate),
        ):
            assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        assert (
            table.diagnostics["dropped_outside_range"]
            == exact.diagnostics["dropped_outside_range"]
        )
