import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

from copulaboot import (
    DistributionSpec,
    DomainError,
    Family,
    FitError,
    QuantileConstraint,
    fit_from_quantiles,
)
from copulaboot.distributions import cdf, quantile
from copulaboot.fitting import FIT_TOL, _bounded_min, _brent_root, _fit_residual, _log_root

Z_975 = 1.9599639845400545


class TestQuantileConstraint:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            QuantileConstraint(0.5, 0.4)

    def test_alpha_ordering_enforced(self):
        with pytest.raises(DomainError):
            QuantileConstraint(0.1, 0.2, alpha_low=0.975, alpha_upp=0.025)
        with pytest.raises(DomainError):
            QuantileConstraint(0.1, 0.2, alpha_low=0.0)

    def test_defaults(self):
        c = QuantileConstraint(0.1, 0.2)
        assert (c.alpha_low, c.alpha_upp) == (0.025, 0.975)

    @pytest.mark.parametrize(
        "q_low, q_upp, field",
        [("0.1", 0.2, "qLow"), (0.1, None, "qUpp"), (True, 2.0, "qLow"),
         (math.nan, 0.2, "qLow"), (0.1, math.inf, "qUpp"), (0.1, 10**400, "qUpp")],
    )
    def test_non_numbers_name_the_field(self, q_low, q_upp, field):
        with pytest.raises(DomainError, match=f"^{field} must be a finite real number"):
            QuantileConstraint(q_low, q_upp)


class TestFitResidual:
    def test_exact_normal(self):
        spec = DistributionSpec(Family.NORMAL, (0, 1))
        c = QuantileConstraint(-Z_975, Z_975)
        assert _fit_residual(spec, c) <= 1e-10

    def test_direct_substitution(self):
        # cdf(0)=0.5 so the low residual is 0.475, the upp residual ~0
        spec = DistributionSpec(Family.NORMAL, (0, 1))
        c = QuantileConstraint(0.0, Z_975)
        assert _fit_residual(spec, c) == pytest.approx(0.475, abs=1e-9)

    def test_uniform_identity(self):
        # beta(1,1) cdf is the identity, so quantiles equal their probabilities
        spec = DistributionSpec(Family.BETA, (1, 1))
        c = QuantileConstraint(0.025, 0.975)
        assert _fit_residual(spec, c) == pytest.approx(0.0, abs=1e-15)


class TestFitFromQuantiles:
    def test_normal_closed_form(self):
        fit = fit_from_quantiles("normal", QuantileConstraint(-Z_975, Z_975))
        mu, sigma = fit.spec.params
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert sigma == pytest.approx(1.0, abs=1e-9)

    def test_beta_paper_inputs(self):
        fit = fit_from_quantiles("beta", QuantileConstraint(0.027, 0.050))
        assert fit.residual <= 1e-6
        assert cdf(fit.spec, 0.027) == pytest.approx(0.025, abs=1e-6)
        assert cdf(fit.spec, 0.050) == pytest.approx(0.975, abs=1e-6)

    def test_reversed_quantiles_rejected(self):
        with pytest.raises(DomainError):
            fit_from_quantiles("beta", QuantileConstraint(0.5, 0.4))

    def test_beta_support_mismatch(self):
        with pytest.raises(DomainError):
            fit_from_quantiles("beta", QuantileConstraint(-0.1, 0.5))
        with pytest.raises(DomainError):
            fit_from_quantiles("beta", QuantileConstraint(0.5, 1.2))

    def test_gamma_support_mismatch(self):
        with pytest.raises(DomainError):
            fit_from_quantiles("gamma", QuantileConstraint(-1.0, 2.0))

    def test_exponential_reports_residual(self):
        # one parameter cannot satisfy two generic constraints exactly
        with pytest.warns(UserWarning):
            fit = fit_from_quantiles("exponential", QuantileConstraint(1.0, 2.0))
        assert fit.residual > 1e-3
        # but it is the least-squares optimum: nearby rates do no better
        rate = fit.spec.params[0]
        for factor in (0.99, 1.01):
            other = DistributionSpec(Family.EXPONENTIAL, (rate * factor,))
            assert _fit_residual(other, fit.constraint) >= fit.residual

    def test_exponential_self_consistent(self):
        # constraints actually achievable by an exponential fit cleanly
        rate = 0.8
        spec = DistributionSpec(Family.EXPONENTIAL, (rate,))
        c = QuantileConstraint(quantile(spec, 0.025), quantile(spec, 0.975))
        fit = fit_from_quantiles("exponential", c)
        assert fit.residual <= 1e-6
        assert fit.spec.params[0] == pytest.approx(rate, rel=1e-4)

    @pytest.mark.parametrize(
        "q_upp, rate, residual",
        [(971.4, 0.0038352715, 0.021191234340), (2000.0, 0.0018539490, 0.023152559257)],
    )
    def test_exponential_global_minimum(self, q_upp, rate, residual):
        # a CI wider than an exponential's gives two local minima; a search
        # started at the rate meeting the upper constraint stops at the
        # worse one, rate 0.02532 with residual 0.025
        with pytest.warns(UserWarning):
            fit = fit_from_quantiles("exponential", QuantileConstraint(1.0, q_upp))
        assert fit.spec.params[0] == pytest.approx(rate, rel=1e-7)
        assert fit.residual == pytest.approx(residual, rel=1e-9)

    def test_exponential_tiny_levels(self):
        # rate 1e-200 meets both levels; their squared residuals underflow to
        # 0 over the whole search, so a sum of squares stops anywhere
        c = QuantileConstraint(1.0, 2.0, 1e-200, 2e-200)
        fit = fit_from_quantiles("exponential", c)
        assert fit.spec.params[0] == pytest.approx(1e-200, rel=1e-9)
        assert fit.residual <= 1e-209

    def test_residual_field_matches_fit_residual(self):
        fit = fit_from_quantiles("beta", QuantileConstraint(0.136, 0.204))
        assert fit.residual == pytest.approx(
            _fit_residual(fit.spec, fit.constraint), abs=1e-12
        )


def _random_specs(family, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        if family is Family.BETA:
            out.append(DistributionSpec(family, tuple(np.exp(rng.uniform(0, 4, 2)))))
        elif family is Family.NORMAL:
            out.append(
                DistributionSpec(
                    family, (rng.uniform(-10, 10), math.exp(rng.uniform(-2, 2)))
                )
            )
        elif family is Family.GAMMA:
            out.append(DistributionSpec(family, tuple(np.exp(rng.uniform(0, 3, 2)))))
        else:
            out.append(DistributionSpec(family, (math.exp(rng.uniform(-2, 2)),)))
    return out


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_self_consistency_200_random_specs(family):
    # generate a spec, take its (0.025, 0.975) quantiles, refit, and check
    # the constraints are recovered; two-parameter families must also
    # recover the parameters themselves
    for spec in _random_specs(family, 200, seed=hash(family.value) & 0xFFFF):
        c = QuantileConstraint(quantile(spec, 0.025), quantile(spec, 0.975))
        fit = fit_from_quantiles(family, c)
        assert abs(cdf(fit.spec, c.q_low) - 0.025) <= 1e-6
        assert abs(cdf(fit.spec, c.q_upp) - 0.975) <= 1e-6
        if family is not Family.EXPONENTIAL:
            for got, want in zip(fit.spec.params, spec.params):
                assert got == pytest.approx(want, rel=1e-4)


def _beta_ci(a, b):
    # the exact inverse, not the tabulated quantile: the constraint is built
    # from the true 2.5% and 97.5% points
    return tuple(special.betaincinv(a, b, [0.025, 0.975]).tolist())


@pytest.mark.parametrize(
    "family, q_low, q_upp, expected",
    [
        # a solution exists: fit within FIT_TOL (no moment-start underflow)
        ("gamma", 1e-6, 1e6, None),
        ("gamma", 1e-200, 1e-199, None),
        # solutions beyond double-precision cdfs: a FitError, never a DomainError
        ("gamma", 1e-300, 1e300, FitError),
        ("beta", 0.5, 0.5 + 1e-15, FitError),
        # extreme beta parameters round-trip through their own quantiles
        ("beta", *_beta_ci(0.19, 2.47), (0.19, 2.47)),
        ("beta", *_beta_ci(32.0, 2.2e7), (32.0, 2.2e7)),
        ("beta", *_beta_ci(4.8e7, 4.8e7), (4.8e7, 4.8e7)),
        # a denormal qUpp overflows the exponential start rate
        ("exponential", 1e-320, 1e-319, FitError),
    ],
)
def test_extreme_constraints(family, q_low, q_upp, expected):
    c = QuantileConstraint(q_low, q_upp)
    if expected is FitError:
        with pytest.raises(FitError):
            fit_from_quantiles(family, c)
        return
    fit = fit_from_quantiles(family, c)
    assert fit.residual <= FIT_TOL
    if expected is not None:
        assert fit.spec.params == pytest.approx(expected, rel=1e-6)


@pytest.mark.parametrize(
    "family, q_low, q_upp, width",
    [
        ("gamma", 1.0, 1.0 + 1e-12, "1.0e-12"),
        ("beta", 0.3, 0.30000000001, "3.3e-11"),
        ("normal", 1.7016666546485774e-33, 1.701666654652761e-33, "2.5e-12"),
        # brentq meets a NaN inside its bracket: still a FitError naming the limit
        ("beta", 0.3, 0.300000000003, "1.0e-11"),
    ],
    ids=["gamma", "beta", "normal", "beta-nan-in-bracket"],
)
def test_narrow_ci_names_the_limit(family, q_low, q_upp, width):
    # a CI narrower than the double-precision cdf resolves has no fit
    # within FIT_TOL; the error gives its relative width and says so
    expected = (
        f"relative width {width} is below what the double-precision "
        rf"{family} cdf resolves \(~1e-9\)"
    )
    with pytest.raises(FitError, match=expected):
        fit_from_quantiles(family, QuantileConstraint(q_low, q_upp))


def test_log_root_nan_while_bracketing():
    with pytest.raises(FitError, match="NaN while bracketing the shape"):
        _log_root(lambda x: math.nan, 0.0, "shape")


def test_log_root_brackets_tiny_values_of_one_sign():
    # 1e-200 * 1e-200 underflows to 0, which is no sign change: the bracket
    # widens on to the jump at 5
    def f(x):
        return 1e-200 if x < 5.0 else -1e-200

    assert _log_root(f, 0.0, "shape") == pytest.approx(5.0, abs=1e-14)


def _bracket(f, x0):
    # _log_root's bracket search: widen [x0 - 1, x0 + 1] until f changes sign
    lo, hi, step = x0 - 1.0, x0 + 1.0, 2.0
    while abs(lo) < 700.0 and abs(hi) < 700.0:
        f_lo, f_hi = f(lo), f(hi)
        if math.isnan(f_lo) or math.isnan(f_hi):
            return None
        if min(f_lo, f_hi) <= 0.0 <= max(f_lo, f_hi):
            return lo, hi, float(f_lo), float(f_hi)
        lo, hi, step = lo - step, hi + step, 2.0 * step
    return None


def _root_problems(count):
    # the fitters' gaps over a log parameter, at random CIs and levels: the
    # beta's cdf at q as its a varies (b fixed), the gamma's log quantile ratio
    rng = np.random.default_rng(20261022)
    while count > 0:
        a_low, a_upp = rng.uniform(1e-4, 0.4), rng.uniform(0.6, 1.0 - 1e-4)
        if rng.uniform() < 0.5:
            b, q = math.exp(rng.uniform(-3.0, 10.0)), special.expit(rng.uniform(-12.0, 12.0))

            def f(t, b=b, q=q, a_low=a_low):
                return special.betainc(math.exp(t), b, q) - a_low
        else:
            target = math.exp(rng.uniform(-8.0, 3.0))

            def f(t, target=target, a=(a_upp, a_low)):
                upp, low = special.gammaincinv(math.exp(t), a)
                return math.log(upp) - math.log(low) - target if low > 0.0 else math.inf

        found = _bracket(f, rng.uniform(-5.0, 5.0))
        if found is not None:
            count -= 1
            yield f, found


def test_brent_root_is_scipy_brentq():
    # bit for bit on 1,000 bracketed problems; a NaN stops both
    for f, (lo, hi, f_lo, f_hi) in _root_problems(1000):
        try:
            expected = optimize.brentq(f, lo, hi, xtol=1e-15)
        except ValueError:
            with pytest.raises(FitError, match="NaN solving for the x"):
                _brent_root(f, lo, hi, f_lo, f_hi, "x")
            continue
        assert _brent_root(f, lo, hi, f_lo, f_hi, "x") == expected


def test_log_root_nan_inside_the_bracket():
    # f changes sign over [-1, 1] and is NaN at the first Brent step
    def f(x):
        return x if abs(x) == 1.0 else math.nan

    with pytest.raises(ValueError):
        optimize.brentq(f, -1.0, 1.0, xtol=1e-15)
    with pytest.raises(FitError, match="^root function is NaN solving for the shape$"):
        _log_root(f, 0.0, "shape")


def test_log_root_without_convergence():
    # a ninth-power zero: 100 Brent steps do not close the bracket
    def f(x):
        return (x - 1.0 / 3.0) ** 9

    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        optimize.brentq(f, -1.0, 1.0, xtol=1e-15)
    with pytest.raises(FitError, match="^no root for the shape within 100 Brent steps$"):
        _log_root(f, 0.0, "shape")


def test_bounded_min_is_scipy_bounded_minimize_scalar():
    # bit for bit on 1,000 exponential fits' objectives over the offset from
    # the best grid point, as _fit_exponential builds them
    rng = np.random.default_rng(20261023)
    for _ in range(1000):
        q_low = 10.0 ** rng.uniform(-200.0, 200.0)
        q_upp = q_low * (1.0 + 10.0 ** rng.uniform(-6.0, 4.0))
        pairs = tuple(zip((q_low, q_upp), np.sort(rng.uniform(1e-4, 1.0 - 1e-4, 2))))

        def objective(s, t=0.0):
            return np.hypot(*(-np.expm1(-np.exp(t + s) * q) - a for q, a in pairs))

        with np.errstate(over="ignore"):
            t_i = [np.log(-np.log1p(-a) / q) for q, a in pairs]
            grid, h = np.linspace(min(t_i) - 1.0, max(t_i) + 1.0, 1025, retstep=True)
            t = grid[np.argmin(objective(grid))]
            expected = optimize.minimize_scalar(
                objective, bounds=(-h, h), args=(t,), method="bounded",
                options={"xatol": 1e-12},
            ).x
            assert _bounded_min(lambda s: objective(s, t), -float(h), float(h), 1e-12) == expected


@st.composite
def _feasible_cases(draw):
    # the declared domain; the alphas cover 60% to 99.8% intervals. Uniform
    # draws, as in _solvable_cases: st.floats would put many on the bounds
    u = draw(st.randoms(use_true_random=True)).uniform
    alphas = u(0.001, 0.2), u(0.8, 0.999)
    if u(0.0, 1.0) < 0.5:  # beta: logit centre and log half-width
        family, centre, half = "beta", u(-12.0, 12.0), math.exp(u(-8.0, 2.0))
        q_low, q_upp = special.expit(centre - half), special.expit(centre + half)
    else:  # gamma: log q_low and log log(q_upp / q_low)
        family, log_low, log_width = "gamma", u(-30.0, 30.0), u(-6.0, 3.0)
        q_low, q_upp = math.exp(log_low), math.exp(log_low + math.exp(log_width))
    return family, QuantileConstraint(float(q_low), float(q_upp), *alphas)


@given(_feasible_cases())
def test_fit_or_named_failure(case):
    # any exception other than FitError, or a NaN residual, fails
    family, c = case
    try:
        fit = fit_from_quantiles(family, c)
    except FitError:
        return
    assert fit.residual <= FIT_TOL


@st.composite
def _solvable_cases(draw):
    # where a fit is claimed to exist; relative widths stay >= 1e-6. Uniform
    # draws from a hypothesis-seeded Random spread over the region, which
    # st.floats does not (it favours 0 and the bounds).
    u = draw(st.randoms(use_true_random=True)).uniform
    alphas = u(1e-4, 0.4), u(0.6, 1.0 - 1e-4)
    if u(0.0, 1.0) < 0.5:
        # beta: qUpp at distance 10**e from 0 or from 1. Below qUpp ~ 1e-140
        # the fit meets NaNs or finds no bracket (see ROADMAP), so e >= -100
        edge, near_one = 10.0 ** u(-100.0, -0.31), u(0.0, 1.0) < 0.5
        q_upp = min(1.0 - edge, math.nextafter(1.0, 0.0)) if near_one else edge
        # qLow = qUpp * 10**-s, s from 1e-6 (relative width ~2.3e-6) to 316
        q_low = max(q_upp * 10.0 ** -(10.0 ** u(-6.0, 2.5)), 1e-300)
        return "beta", QuantileConstraint(q_low, q_upp, *alphas)
    q_low = 10.0 ** u(-4.0, 4.0)
    ratio = 1.0 + 10.0 ** u(-6.0, math.log10(999.0))
    return "gamma", QuantileConstraint(q_low, q_low * ratio, *alphas)


@given(_solvable_cases())
def test_fit_succeeds_where_a_solution_exists(case):
    # the narrow-CI FitError needs a relative width below 1e-8, outside this
    # region, so any FitError here is a fitter failure. A beta fit, whose b
    # comes from special.btdtrib, also meets its constraints to 1e-9
    family, c = case
    bound = 1e-9 if family == "beta" else FIT_TOL
    assert fit_from_quantiles(family, c).residual <= bound


@st.composite
def _exponential_cases(draw):
    # CIs over 400 decades, relative widths 1e-6 to 1e4, and uneven levels
    u = draw(st.randoms(use_true_random=True)).uniform
    q_low = 10.0 ** u(-200.0, 200.0)
    q_upp = q_low * (1.0 + 10.0 ** u(-6.0, 4.0))
    a_low = u(1e-4, 0.5)
    return QuantileConstraint(q_low, q_upp, a_low, u(a_low + 1e-3, 1.0 - 1e-6))


def _grid_min_residual(c, points=20_001):
    q, a = np.array([c.q_low, c.q_upp]), np.array([c.alpha_low, c.alpha_upp])
    with np.errstate(over="ignore"):
        t_i = np.log(-np.log1p(-a) / q)
        t = np.linspace(t_i.min() - 3.0, t_i.max() + 3.0, points)
        r = -np.expm1(-np.exp(t)[:, None] * q) - a
    return float(np.hypot(r[:, 0], r[:, 1]).min())


@pytest.mark.parametrize(
    "q_low, q_upp",
    # log rates near the top of the double range; rates whose rate * qUpp
    # overflows (pytest turns the RuntimeWarning into an error)
    [(1e-307, 1e-306), (1e-300, 1e300), (1e-307, 1e300)],
)
def test_exponential_fit_at_the_double_range(q_low, q_upp):
    c = QuantileConstraint(q_low, q_upp)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit = fit_from_quantiles("exponential", c)
    assert fit.residual <= _grid_min_residual(c) * (1.0 + 1e-6)


@settings(max_examples=300)
@given(_exponential_cases())
def test_exponential_fit_is_the_global_least_squares_rate(c):
    # a search from one start stops in the worse of two minima for ~3% of
    # these CIs; the fit must reach a dense log-rate grid's minimum
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        fit = fit_from_quantiles("exponential", c)
    assert fit.residual <= _grid_min_residual(c) * (1.0 + 1e-6)
