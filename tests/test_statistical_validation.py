"""Statistical validation of the sharded Monte-Carlo estimator.

The parallel runner must stay an *unbiased* estimator of lifetime
failure probability for any worker count.  These tests pin that down
against :class:`AnalyticModel`'s closed-form Poisson arithmetic using
instrumented correction models whose exact failure probability is
known:

* a model that fails on any fault -> P(fail) = P(N >= 1);
* a model that fails on the second permanent fault -> P(fail) =
  P(N_perm >= 2) (permanent faults survive scrubbing when DDS is off,
  exercising the stratified min_faults=2 sampling path).

A seed sweep asserts the analytic value falls inside the Wilson score
interval of every campaign (z=3.3, so a correct estimator fails any
single check with probability ~1e-3; the seeds are fixed, making the
outcome deterministic).
"""

import math

from repro.ecc.base import CorrectionModel
from repro.faults.rates import FailureRates
from repro.faults.types import Permanence
from repro.reliability import (
    AnalyticModel,
    ParallelLifetimeRunner,
    ReliabilityWork,
)
from repro.reliability.montecarlo import EngineConfig

RATES = FailureRates.paper_baseline(tsv_device_fit=0.0)
SEEDS = (1, 2, 3, 4, 5, 6)
TRIALS = 3000
Z = 3.3


class FailOnAnyFault(CorrectionModel):
    """Fails the moment any fault arrives: P(fail) = P(N >= 1)."""

    @property
    def name(self) -> str:
        return "fail-on-any"

    def is_uncorrectable(self, faults) -> bool:
        return len(faults) > 0


class FailOnTwoPermanent(CorrectionModel):
    """Fails when two permanent faults are ever live simultaneously.

    Without DDS, permanent faults are never scrubbed away, so this
    fires iff >= 2 permanent faults arrive within the lifetime:
    P(fail) = P(Poisson(lambda_perm) >= 2).
    """

    @property
    def name(self) -> str:
        return "fail-on-two-permanent"

    def is_uncorrectable(self, faults) -> bool:
        return sum(1 for f in faults if f.is_permanent) >= 2

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return 2


def wilson_interval(failures: int, trials: int, z: float = Z):
    """Wilson score interval for a binomial proportion."""
    p_hat = failures / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials**2))
        / denom
    )
    return center - half, center + half


def run_campaign(geometry, model, seed, min_faults, workers=1):
    runner = ParallelLifetimeRunner(
        ReliabilityWork(
            geometry, RATES, model, EngineConfig(), min_faults=min_faults
        ),
        root_seed=seed,
        workers=workers,
        shard_size=500,
    )
    return runner.run(trials=TRIALS)


def poisson_at_least(lam: float, k: int) -> float:
    cdf, term = 0.0, math.exp(-lam)
    for i in range(k):
        cdf += term
        term *= lam / (i + 1)
    return max(0.0, 1.0 - cdf)


class TestEstimatorUnbiased:
    def test_prob_at_least_one_fault_seed_sweep(self, geometry):
        """Unconditioned sampling: MC failure rate of the fail-on-any
        model must bracket AnalyticModel.prob_at_least(1)."""
        analytic = AnalyticModel(geometry, RATES).prob_at_least(1)
        for seed in SEEDS:
            result = run_campaign(
                geometry, FailOnAnyFault(geometry), seed, min_faults=0
            )
            assert result.stratum_weight == 1.0
            lo, hi = wilson_interval(result.failures, result.trials)
            assert lo <= analytic <= hi, (seed, lo, analytic, hi)

    def test_stratified_two_permanent_seed_sweep(self, geometry):
        """Stratified min_faults=2 sampling stays unbiased: the weighted
        estimate must bracket P(Poisson(lambda_perm) >= 2)."""
        model = AnalyticModel(geometry, RATES)
        lam_perm = sum(
            model.expected_faults(kind, Permanence.PERMANENT)
            for kind in RATES.die_fit
        )
        truth = poisson_at_least(lam_perm, 2)
        for seed in SEEDS:
            result = run_campaign(
                geometry, FailOnTwoPermanent(geometry), seed, min_faults=2
            )
            assert 0.0 < result.stratum_weight < 1.0
            lo, hi = wilson_interval(result.failures, result.trials)
            weighted = (
                result.stratum_weight * lo,
                result.stratum_weight * hi,
            )
            assert weighted[0] <= truth <= weighted[1], (seed, weighted, truth)

    def test_stratum_weight_matches_analytic_poisson(self, geometry):
        """The injector's stratum weight is the same Poisson tail the
        analytic model computes (independent implementations)."""
        analytic = AnalyticModel(geometry, RATES)
        result = run_campaign(
            geometry, FailOnTwoPermanent(geometry), seed=1, min_faults=2
        )
        assert math.isclose(
            result.stratum_weight, analytic.prob_at_least(2), rel_tol=1e-9
        )

    def test_expected_fault_count_recovered_from_tail(self, geometry):
        """Inverting P(N >= 1) = 1 - exp(-lambda) on the MC estimate
        recovers AnalyticModel.expected_all_faults within the CI."""
        analytic = AnalyticModel(geometry, RATES).expected_all_faults()
        merged_failures = 0
        merged_trials = 0
        for seed in SEEDS:
            result = run_campaign(
                geometry, FailOnAnyFault(geometry), seed, min_faults=0
            )
            merged_failures += result.failures
            merged_trials += result.trials
        lo, hi = wilson_interval(merged_failures, merged_trials)
        lam_lo = -math.log(1.0 - lo)
        lam_hi = -math.log(1.0 - hi)
        assert lam_lo <= analytic <= lam_hi

    def test_workers_do_not_bias_the_estimate(self, geometry):
        """Sanity link to determinism: the two-worker campaign is the
        same numbers, so every statistical property above transfers."""
        a = run_campaign(
            geometry, FailOnAnyFault(geometry), seed=3, min_faults=0
        )
        b = run_campaign(
            geometry, FailOnAnyFault(geometry), seed=3, min_faults=0, workers=2
        )
        assert a == b
