"""Acceptance tests for the stratified / importance sampling layer.

The samplers in :mod:`repro.reliability.sampling` claim *exactness*: the
reweighted estimator has the same expectation as the naive conditioned
path for any correction model.  These tests prove the pieces that can be
proven algebraically (stratum masses telescope, likelihood ratios are
recomputable from the sampled times alone and never exceed their
declared bound, allocation is a pure function of the shard size) and pin
the statistical claims against closed-form Poisson ground truth:

* ``E[LR] = 1`` under the importance proposal (fixed-seed Monte-Carlo);
* an instrumented model that fails iff two faults share an arrival
  epoch, whose failure probability has a closed form — both plans must
  bracket it, and so must the naive path on the same ground truth;
* hypothesis seed sweeps asserting stratified / importance / naive
  campaign estimates agree within their combined standard errors;
* byte-identity of sampled campaigns across worker counts.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.base import CorrectionModel
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.rates import FailureRates
from repro.reliability import ParallelLifetimeRunner, ReliabilityWork
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.sampling import (
    DEFAULT_MIXTURE_WEIGHT,
    ImportanceSampler,
    StratifiedSampler,
    StratumDef,
    TrialSampler,
    clustered_likelihood_ratio,
    count_stratum_mass,
    full_epochs,
    make_sampler,
)
from repro.stack.geometry import LIFETIME_HOURS, SCRUB_INTERVAL_HOURS

RATES = FailureRates.paper_baseline(tsv_device_fit=0.0)


class FailOnEpochPair(CorrectionModel):
    """Fails iff two *live* faults arrived in the same scrub epoch.

    Within one epoch nothing is scrubbed, so both members of a same-epoch
    pair are live when the second arrives; faults surviving into later
    epochs keep their original arrival epoch and can never pair with a
    newcomer.  The failure probability is therefore exactly
    ``P(some epoch receives >= 2 Poisson arrivals)``, which has the
    closed form used in the tests below.
    """

    def __init__(self, geometry, epoch_hours: float = SCRUB_INTERVAL_HOURS):
        super().__init__(geometry)
        self.epoch_hours = epoch_hours

    @property
    def name(self) -> str:
        return "fail-on-epoch-pair"

    def is_uncorrectable(self, faults) -> bool:
        epochs = [int(f.time_hours // self.epoch_hours) for f in faults]
        return len(epochs) != len(set(epochs))

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        return 2


def epoch_pair_truth(
    rate_per_hour: float,
    lifetime_hours: float = LIFETIME_HOURS,
    epoch_hours: float = SCRUB_INTERVAL_HOURS,
) -> float:
    """P(any arrival epoch receives >= 2 Poisson arrivals), closed form.

    Arrival counts per epoch are independent Poissons; the lifetime
    splits into ``E`` full epochs of mass ``lam_e`` plus a remainder of
    mass ``lam_r``, and no epoch has two arrivals with probability
    ``[(1 + lam_e) e^-lam_e]^E * (1 + lam_r) e^-lam_r``.
    """
    epochs = int(lifetime_hours // epoch_hours)
    lam_e = rate_per_hour * epoch_hours
    lam_r = rate_per_hour * (lifetime_hours - epochs * epoch_hours)
    none = ((1.0 + lam_e) * math.exp(-lam_e)) ** epochs
    none *= (1.0 + lam_r) * math.exp(-lam_r)
    return 1.0 - none


def make_injector(geometry, seed: int = 0) -> FaultInjector:
    return FaultInjector(geometry, RATES, seed=seed)


# ---------------------------------------------------------------------- #
# Algebraic structure: masses, ratios, allocation
# ---------------------------------------------------------------------- #
class TestStratumAlgebra:
    def test_exact_masses_telescope_to_tail(self, geometry):
        """Sum of the plan's stratum masses == P(N >= m), bitwise-composed
        from the same prob_at_least the engine contract uses."""
        sampler = StratifiedSampler(
            make_injector(geometry), LIFETIME_HOURS, min_faults=2
        )
        total = math.fsum(s.weight for s in sampler.strata)
        tail = make_injector(geometry).prob_at_least(2, LIFETIME_HOURS)
        assert math.isclose(total, tail, rel_tol=1e-12)

    def test_count_stratum_mass_is_tail_difference(self, geometry):
        injector = make_injector(geometry)
        for count in (1, 2, 3, 7):
            mass = count_stratum_mass(injector, count, LIFETIME_HOURS)
            assert mass == injector.prob_at_least(
                count, LIFETIME_HOURS
            ) - injector.prob_at_least(count + 1, LIFETIME_HOURS)
            assert mass > 0.0

    def test_importance_stratum_matches_naive_weight(self, geometry):
        """The importance plan's single stratum carries exactly the naive
        path's conditioning mass (same prob_at_least call)."""
        injector = make_injector(geometry)
        sampler = ImportanceSampler(
            injector, LIFETIME_HOURS, min_faults=2,
            epoch_hours=SCRUB_INTERVAL_HOURS,
        )
        (stratum,) = sampler.strata
        assert stratum.weight == injector.prob_at_least(2, LIFETIME_HOURS)
        assert stratum.bound == 1.0 / (1.0 - DEFAULT_MIXTURE_WEIGHT)

    @given(trials=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_allocation_partitions_every_shard_size(self, trials):
        """sum == trials, no negatives, and >= 1 per stratum whenever the
        shard is large enough — for any shard size hypothesis finds."""
        from repro.stack.geometry import StackGeometry

        sampler = StratifiedSampler(
            make_injector(StackGeometry()), LIFETIME_HOURS, min_faults=2
        )
        counts = sampler.allocate(trials)
        assert sum(counts) == trials
        assert all(c >= 0 for c in counts)
        if trials >= len(counts):
            assert all(c >= 1 for c in counts)
        # Pure function of the shard size: equal shards allocate equally
        # on any worker, which is what keeps campaigns merge-stable.
        assert counts == sampler.allocate(trials)

    def test_likelihood_ratio_recomputable_and_bounded(self, geometry):
        """LR returned by the sampler equals the pure-function
        recomputation from the sampled times, and respects the bound."""
        sampler = ImportanceSampler(
            make_injector(geometry, seed=7), LIFETIME_HOURS, min_faults=2,
            epoch_hours=SCRUB_INTERVAL_HOURS,
        )
        (stratum,) = sampler.strata
        saw_clustered = False
        for _ in range(200):
            faults, ratio = sampler.sample(stratum)
            again = clustered_likelihood_ratio(
                [f.time_hours for f in faults],
                LIFETIME_HOURS,
                SCRUB_INTERVAL_HOURS,
                DEFAULT_MIXTURE_WEIGHT,
            )
            assert ratio == again
            assert 0.0 < ratio <= stratum.bound
            if ratio < 1e-2:
                saw_clustered = True
        assert saw_clustered, "proposal never clustered a pair in 200 draws"

    def test_degenerate_ratio_is_one(self):
        assert clustered_likelihood_ratio([1.0], 100.0, 12.0, 0.5) == 1.0
        assert clustered_likelihood_ratio([1.0, 2.0], 10.0, 12.0, 0.5) == 1.0
        assert clustered_likelihood_ratio([1.0, 2.0], 100.0, 12.0, 0.0) == 1.0

    def test_mean_likelihood_ratio_is_one(self, geometry):
        """E[LR] = 1 under the proposal (the normalization the
        unbiasedness proof rests on); fixed seed, 5-sigma tolerance."""
        sampler = ImportanceSampler(
            make_injector(geometry, seed=11), LIFETIME_HOURS, min_faults=2,
            epoch_hours=SCRUB_INTERVAL_HOURS,
        )
        (stratum,) = sampler.strata
        draws = 4000
        ratios = [sampler.sample(stratum)[1] for _ in range(draws)]
        mean = math.fsum(ratios) / draws
        second = math.fsum(r * r for r in ratios) / draws
        se = math.sqrt(max(second - mean * mean, 1e-12) / draws)
        assert abs(mean - 1.0) <= 5.0 * se, (mean, se)

    def test_make_sampler_rejects_unknown_method(self, geometry):
        try:
            make_sampler(
                "antithetic",
                make_injector(geometry),
                lifetime_hours=LIFETIME_HOURS,
                scrub_interval_hours=SCRUB_INTERVAL_HOURS,
                min_faults=2,
            )
        except ConfigurationError as exc:
            assert "antithetic" in str(exc)
        else:
            raise AssertionError("unknown method accepted")

    def test_naive_method_is_one_stratum(self, geometry):
        """Naive sampling is the one-stratum plan ``N >= m``, weighted by
        the injector's tail mass bitwise, that takes every trial."""
        injector = make_injector(geometry)
        sampler = make_sampler(
            "naive",
            injector,
            lifetime_hours=LIFETIME_HOURS,
            scrub_interval_hours=SCRUB_INTERVAL_HOURS,
            min_faults=2,
        )
        assert sampler.naive
        (stratum,) = sampler.strata
        assert stratum.exact_count is None and stratum.min_count == 2
        assert stratum.weight == injector.prob_at_least(2, LIFETIME_HOURS)
        assert stratum.bound == 1.0
        for trials in (0, 1, 7, 500):
            assert sampler.allocate(trials) == [trials]


# ---------------------------------------------------------------------- #
# Statistical exactness against closed-form ground truth
# ---------------------------------------------------------------------- #
def run_sampled(geometry, method, seed, trials=2000, workers=1,
                scrub_hours=SCRUB_INTERVAL_HOURS):
    model = FailOnEpochPair(geometry, epoch_hours=scrub_hours)
    runner = ParallelLifetimeRunner(
        ReliabilityWork(
            geometry,
            RATES,
            model,
            EngineConfig(sampling=method, scrub_interval_hours=scrub_hours),
        ),
        root_seed=seed,
        workers=workers,
        shard_size=500,
    )
    return runner.run(trials=trials)


class TestClosedFormValidation:
    def test_epoch_pair_truth_matches_analytic_tail(self, geometry):
        """Sanity on the instrumented model's closed form: it must be
        dominated by P(N >= 2) and dominate the single-epoch pair rate."""
        rate = make_injector(geometry).total_rate_per_hour
        truth = epoch_pair_truth(rate)
        assert 0.0 < truth < make_injector(geometry).prob_at_least(
            2, LIFETIME_HOURS
        )

    def test_importance_brackets_closed_form(self, geometry):
        rate = make_injector(geometry).total_rate_per_hour
        truth = epoch_pair_truth(rate)
        for seed in (1, 2, 3, 4, 5, 6):
            result = run_sampled(geometry, "importance", seed)
            lo, hi = result.confidence_interval(z=4.0)
            assert lo <= truth <= hi, (seed, lo, truth, hi)

    def test_stratified_brackets_closed_form(self, geometry):
        """Count stratification is exact but blind to *where* faults land,
        so validate it on a coarse epoch (the pair event is then common
        enough for the count strata to resolve at test scale)."""
        rate = make_injector(geometry).total_rate_per_hour
        scrub = 6000.0
        truth = epoch_pair_truth(rate, epoch_hours=scrub)
        for seed in (1, 2, 3):
            result = run_sampled(
                geometry, "stratified", seed, trials=4000, scrub_hours=scrub
            )
            lo, hi = result.confidence_interval(z=4.0)
            assert lo <= truth <= hi, (seed, lo, truth, hi)

    def test_importance_concentrates_effective_failures(self, geometry):
        """The clustered proposal must actually hit the rare event: far
        more effective failures per trial than the naive path sees."""
        result = run_sampled(geometry, "importance", seed=1)
        assert result.effective_failures() >= 20.0
        naive = run_sampled(geometry, "naive", seed=1)
        assert result.effective_failures() > 2.0 * max(
            1.0, float(naive.failures)
        )


class TestSamplersAgreeWithNaive:
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_estimates_agree_within_combined_error(self, seed):
        """Property: for any root seed, the three plans estimate the same
        probability within 6 combined standard errors."""
        from repro.stack.geometry import StackGeometry

        geometry = StackGeometry()
        # Coarse epoch: the pair event is then frequent enough that all
        # three plans observe failures, making the per-plan standard
        # errors honest and the 6-sigma comparison meaningful.
        scrub = 6000.0
        estimates = {}
        for method in ("naive", "stratified", "importance"):
            result = run_sampled(
                geometry, method, seed, trials=1500, scrub_hours=scrub
            )
            estimates[method] = (
                result.failure_probability, result.std_error
            )
        p_naive, se_naive = estimates["naive"]
        for method in ("stratified", "importance"):
            p, se = estimates[method]
            combined = math.sqrt(se * se + se_naive * se_naive)
            assert abs(p - p_naive) <= 6.0 * combined, (
                seed, method, estimates
            )


# ---------------------------------------------------------------------- #
# Determinism across worker counts
# ---------------------------------------------------------------------- #
class TestWorkerByteIdentity:
    def test_stratified_workers_1_vs_4(self, geometry):
        a = run_sampled(geometry, "stratified", seed=9, workers=1)
        b = run_sampled(geometry, "stratified", seed=9, workers=4)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_importance_workers_1_vs_4(self, geometry):
        a = run_sampled(geometry, "importance", seed=9, workers=1)
        b = run_sampled(geometry, "importance", seed=9, workers=4)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_serial_engine_matches_runner_shard(self, geometry):
        """The sampled path composes through the shard machinery the same
        way the naive path does: a single-shard campaign equals a direct
        LifetimeSimulator run on the shard seed."""
        from repro.rng import derive_seed

        config = EngineConfig(sampling="importance")
        model = FailOnEpochPair(geometry)
        sim = LifetimeSimulator(
            geometry, RATES, model, config,
            seed=derive_seed(9, "shard", 0),
        )
        direct = sim.run(trials=400, label="direct")
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geometry, RATES, FailOnEpochPair(geometry), config,
                label="direct",
            ),
            root_seed=9, workers=1, shard_size=400,
        )
        via_runner = runner.run(trials=400)
        # The runner stamps a provenance manifest the bare engine cannot
        # know about; the physics payload must be identical.
        runner_doc = via_runner.to_dict()
        assert runner_doc.pop("manifest", None) is not None
        assert direct.canonical().to_dict() == runner_doc


# ---------------------------------------------------------------------- #
# Allocation edge cases
# ---------------------------------------------------------------------- #
class DegenerateSampler(TrialSampler):
    """A plan whose stratum masses all underflowed to zero — the
    even-spread fallback branch of ``allocate``."""

    def _build_strata(self):
        return [
            StratumDef(key=f"z={i}", weight=0.0, bound=1.0, min_count=1)
            for i in range(5)
        ]


class TestAllocateEdgeCases:
    def _sampler(self, geometry, count_strata=4):
        return StratifiedSampler(
            make_injector(geometry), LIFETIME_HOURS, min_faults=2,
            count_strata=count_strata,
        )

    @given(count_strata=st.integers(min_value=2, max_value=9))
    @settings(max_examples=20, deadline=None)
    def test_boundary_shard_sizes_partition_exactly(self, count_strata):
        """trials in {0, 1, S-1, S}: the partition invariant holds and the
        >=1-per-stratum rebalance kicks in exactly at trials == S."""
        from repro.stack.geometry import StackGeometry

        sampler = self._sampler(StackGeometry(), count_strata)
        strata = len(sampler.strata)
        for trials in (0, 1, strata - 1, strata):
            counts = sampler.allocate(trials)
            assert sum(counts) == trials, trials
            assert all(c >= 0 for c in counts)
            assert counts == sampler.allocate(trials)
        assert all(c == 1 for c in sampler.allocate(strata))

    @given(trials=st.integers(min_value=0, max_value=64))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_weights_spread_evenly(self, trials):
        """All-underflowed masses must not divide by zero, must still
        partition, and the zero-rebalance loop must terminate."""
        from repro.stack.geometry import StackGeometry

        sampler = DegenerateSampler(
            make_injector(StackGeometry()), LIFETIME_HOURS, min_faults=1
        )
        counts = sampler.allocate(trials)
        assert sum(counts) == trials
        assert all(c >= 0 for c in counts)
        if trials >= len(counts):
            assert all(c >= 1 for c in counts)
        assert max(counts) - min(counts) <= 1  # even spread

    def test_zero_trials_zero_everywhere(self, geometry):
        sampler = self._sampler(geometry)
        assert sampler.allocate(0) == [0] * len(sampler.strata)

    def test_negative_trials_rejected(self, geometry):
        from repro.errors import ContractViolation

        sampler = self._sampler(geometry)
        try:
            sampler.allocate(-1)
        except ContractViolation:
            pass
        else:
            raise AssertionError("negative shard size accepted")
