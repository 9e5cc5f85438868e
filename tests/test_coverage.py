import math

import numpy as np
import pytest
from scipy import stats

from copulaboot import (
    BootstrapConfig,
    Combiner,
    CoverageScenario,
    DomainError,
    run_coverage,
    validate_correlation_matrix,
)
from copulaboot.coverage import clopper_pearson


def make_scenario(trials=50, n=20_000, sizes=(2000, 1500), level=0.95):
    true_params = (0.035, 0.045)
    return CoverageScenario(
        true_params=true_params,
        data_sizes=sizes,
        combiner=Combiner.product(2),
        true_combined=true_params[0] * true_params[1],
        sigma=validate_correlation_matrix(np.eye(2)),
        config=BootstrapConfig(n=n, seed=0, method="percentile", level=level),
        trials=trials,
    )


class TestClopperPearson:
    def test_against_scipy_binomtest(self):
        for k, n in [(84, 500), (238, 270), (82, 88), (1, 2000)]:
            low, upp = clopper_pearson(k, n)
            ref = stats.binomtest(k, n).proportion_ci(0.95, method="exact")
            assert low == pytest.approx(ref.low, abs=1e-10)
            assert upp == pytest.approx(ref.high, abs=1e-10)

    def test_boundaries(self):
        assert clopper_pearson(0, 10)[0] == 0.0
        assert clopper_pearson(10, 10)[1] == 1.0

    def test_invalid_counts(self):
        with pytest.raises(DomainError):
            clopper_pearson(11, 10)


class TestScenarioValidation:
    def test_true_combined_must_match(self):
        with pytest.raises(DomainError):
            CoverageScenario(
                true_params=(0.1, 0.2),
                data_sizes=(100, 100),
                combiner=Combiner.product(2),
                true_combined=0.5,
                sigma=validate_correlation_matrix(np.eye(2)),
                config=BootstrapConfig(n=1000),
                trials=10,
            )

    @pytest.mark.parametrize(
        "params, sizes, match",
        [
            ((1.5, 0.2), (100, 100), "trueParams"),
            ((math.nan, 0.2), (100, 100), "trueParams"),
            ((0.1, 0.2), (-5, 100), "dataSizes"),
            ((0.1, 0.2), (100.5, 100), "dataSizes"),
            ((0.1, 0.2), (True, 100), "dataSizes"),
        ],
    )
    def test_params_and_sizes_checked(self, params, sizes, match):
        with pytest.raises(DomainError, match=match):
            CoverageScenario(
                true_params=params,
                data_sizes=sizes,
                combiner=Combiner.sum(2),
                true_combined=sum(params),
                sigma=validate_correlation_matrix(np.eye(2)),
                config=BootstrapConfig(n=1000),
                trials=10,
            )

    @pytest.mark.parametrize("trials", [0, True, 2.5])
    def test_trials_checked(self, trials):
        with pytest.raises(DomainError, match="trials"):
            make_scenario(trials=trials)

    def test_dimension_consistency(self):
        with pytest.raises(DomainError):
            CoverageScenario(
                true_params=(0.1, 0.2),
                data_sizes=(100,),
                combiner=Combiner.product(2),
                true_combined=0.02,
                sigma=validate_correlation_matrix(np.eye(2)),
                config=BootstrapConfig(n=1000),
                trials=10,
            )


class TestRunCoverage:
    def test_determinism(self):
        scenario = make_scenario(trials=5, n=2000)
        a = run_coverage(scenario, master_seed=11)
        b = run_coverage(scenario, master_seed=11)
        assert a == b

    def test_high_level_near_total_mass(self):
        scenario = make_scenario(trials=40, n=5000, level=0.999)
        result = run_coverage(scenario, master_seed=2)
        assert result.coverage >= 0.95

    def test_smoke_coverage_near_nominal(self):
        # reduced-scale version of the acceptance criterion: 200 trials at
        # n=2e4, nominal 0.95, allow ~4 binomial standard errors
        scenario = make_scenario(trials=200, n=20_000)
        result = run_coverage(scenario, master_seed=7)
        assert 0.89 <= result.coverage <= 0.995
        assert result.excluded_trials <= 2

    def test_level_sets_only_the_bootstrap_interval(self):
        # the simulated input CIs stay 95%, as the beta fit assumes; at
        # level 0.8 the bootstrap interval must not under-cover
        result = run_coverage(make_scenario(trials=400, n=10_000, level=0.8), 11)
        scored = result.trials - result.excluded_trials
        hits = round(result.coverage * scored)
        assert clopper_pearson(hits, scored, 0.999)[1] >= 0.80

    def test_width_shrinks_with_bigger_experiments(self):
        small = run_coverage(make_scenario(trials=30, n=5000), master_seed=3)
        big = run_coverage(
            make_scenario(trials=30, n=5000, sizes=(8000, 6000)), master_seed=3
        )
        assert big.mean_width < small.mean_width

    def test_mc_std_err_formula(self):
        scenario = make_scenario(trials=25, n=2000)
        r = run_coverage(scenario, master_seed=5)
        scored = r.trials - r.excluded_trials
        assert r.mc_std_err == pytest.approx(
            np.sqrt(r.coverage * (1 - r.coverage) / scored), abs=1e-15
        )
