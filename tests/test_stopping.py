"""Acceptance tests for the anytime-valid stopping layer.

The confidence sequence must be *time-uniform*: the interval traps the
true failure probability simultaneously at every shard-merge prefix, so
the runner may peek after each shard without inflating the error rate.
These tests check the boundary algebra (radii shrink in ``n``, grow as
``alpha`` shrinks), replay exact shard-prefix sequences against closed
-form Poisson ground truth for both the legacy single-stratum path and
the importance-sampled strata path, and drive ``target_ci_width``
through :class:`ParallelLifetimeRunner` end to end — including the
worker-count byte-identity of the stopped campaign.
"""

import json
import math

import pytest

from repro.ecc.base import CorrectionModel
from repro.errors import ContractViolation
from repro.faults.injector import FaultInjector
from repro.faults.rates import FailureRates
from repro.reliability import ParallelLifetimeRunner, ReliabilityWork
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.results import ReliabilityResult, StratumStats
from repro.reliability.stopping import (
    ConfidenceSequence,
    StoppingRule,
    bernstein_radius,
    hoeffding_radius,
    stitched_log,
)
from repro.rng import derive_seed
from repro.stack.geometry import LIFETIME_HOURS, SCRUB_INTERVAL_HOURS

RATES = FailureRates.paper_baseline(tsv_device_fit=0.0)


class FailOnAnyFault(CorrectionModel):
    """P(fail) = P(N >= 1): plentiful failures, known ground truth."""

    @property
    def name(self) -> str:
        return "fail-on-any"

    def is_uncorrectable(self, faults) -> bool:
        return len(faults) > 0


class FailOnEpochPair(CorrectionModel):
    """Fails iff two live faults share an arrival epoch (see
    test_sampling.py for the closed-form failure probability)."""

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


def epoch_pair_truth(rate_per_hour: float) -> float:
    epochs = int(LIFETIME_HOURS // SCRUB_INTERVAL_HOURS)
    lam_e = rate_per_hour * SCRUB_INTERVAL_HOURS
    lam_r = rate_per_hour * (
        LIFETIME_HOURS - epochs * SCRUB_INTERVAL_HOURS
    )
    none = ((1.0 + lam_e) * math.exp(-lam_e)) ** epochs
    none *= (1.0 + lam_r) * math.exp(-lam_r)
    return 1.0 - none


def shard_prefixes(geometry, model_factory, config, root_seed, shards,
                   shard_trials, min_faults):
    """The exact prefix sequence the runner's stopping check sees."""
    prefix = ReliabilityResult.identity()
    out = []
    for index in range(shards):
        sim = LifetimeSimulator(
            geometry, RATES, model_factory(), config,
            seed=derive_seed(root_seed, "shard", index),
        )
        shard = sim.run(
            trials=shard_trials, min_faults=min_faults, label="cs"
        )
        prefix = prefix.merge(shard)
        out.append(prefix)
    return out


# ---------------------------------------------------------------------- #
# Boundary algebra
# ---------------------------------------------------------------------- #
class TestBoundaries:
    def test_radii_shrink_with_n(self):
        for radius in (
            lambda n: hoeffding_radius(n, 1.0, 0.05),
            lambda n: bernstein_radius(n, 1.0, 0.1, 0.05),
        ):
            values = [radius(n) for n in (10, 100, 1000, 10000, 100000)]
            assert values == sorted(values, reverse=True)
            assert values[-1] < 0.1

    def test_radii_grow_as_alpha_shrinks(self):
        assert hoeffding_radius(1000, 1.0, 0.01) > hoeffding_radius(
            1000, 1.0, 0.1
        )
        assert bernstein_radius(1000, 1.0, 0.1, 0.01) > bernstein_radius(
            1000, 1.0, 0.1, 0.1
        )

    def test_zero_trials_radius_is_infinite(self):
        assert hoeffding_radius(0, 1.0, 0.05) == float("inf")
        assert bernstein_radius(0, 1.0, 0.1, 0.05) == float("inf")

    def test_stitched_log_is_increasing_in_n(self):
        values = [stitched_log(n, 0.05) for n in (1, 10, 1000, 10**6)]
        assert values == sorted(values)

    def test_bernstein_beats_hoeffding_on_small_variance(self):
        """The variance-adaptive boundary is why rare-event campaigns can
        stop: with v << scale^2 it is far inside the Hoeffding radius."""
        n, scale, variance = 50000, 1.0, 1e-4
        assert bernstein_radius(n, scale, variance, 0.05) < 0.2 * (
            hoeffding_radius(n, scale, 0.05)
        )

    def test_interval_clips_to_stratum_mass(self, geometry):
        result = ReliabilityResult(
            scheme_name="x", trials=10, failures=10,
            stratum_weight=1.0,
            strata=[
                StratumStats(
                    key="n=2", weight=0.1, bound=1.0, trials=10,
                    failures=10, failure_weights=[1.0] * 10,
                )
            ],
        )
        lo, hi = ConfidenceSequence().interval(result)
        assert 0.0 <= lo <= hi <= 0.1

    def test_empty_stratum_contributes_full_mass_to_upper(self):
        result = ReliabilityResult(
            scheme_name="x", trials=5, failures=0, stratum_weight=1.0,
            strata=[
                StratumStats(key="n=2", weight=0.07, trials=5),
                StratumStats(key="n=3", weight=0.012, trials=0),
            ],
        )
        lo, hi = ConfidenceSequence().interval(result)
        assert lo == 0.0
        assert hi >= 0.012

    def test_constructor_validation(self):
        with pytest.raises(ContractViolation):
            ConfidenceSequence(alpha=0.0)
        with pytest.raises(ContractViolation):
            ConfidenceSequence(method="wald")
        with pytest.raises(ContractViolation):
            StoppingRule(target_ci_width=0.0)

    def test_empty_prefix_never_satisfies_the_rule(self):
        empty = ReliabilityResult(
            scheme_name="x", trials=0, failures=0, stratum_weight=1.0
        )
        rule = StoppingRule(target_ci_width=10.0)
        assert rule.interval(empty) == (0.0, 1.0)
        assert not rule.satisfied(empty)


# ---------------------------------------------------------------------- #
# Coverage at every prefix (anytime validity)
# ---------------------------------------------------------------------- #
class TestPrefixCoverage:
    def test_naive_prefixes_trap_poisson_truth(self, geometry):
        """12 seeds x 8 prefixes, both boundary families: every interval
        must contain P(N >= 1).  With alpha = 0.05 per (seed, family) a
        correct sequence misses with probability well under 5%; the
        stitched bounds are conservative enough that all pass."""
        truth = FaultInjector(geometry, RATES).prob_at_least(
            1, LIFETIME_HOURS
        )
        for seed in range(12):
            prefixes = shard_prefixes(
                geometry, lambda: FailOnAnyFault(geometry),
                EngineConfig(), root_seed=seed, shards=8,
                shard_trials=200, min_faults=0,
            )
            for method in ("hoeffding", "bernstein"):
                sequence = ConfidenceSequence(method=method)
                for prefix in prefixes:
                    lo, hi = sequence.interval(prefix)
                    assert lo <= truth <= hi, (seed, method, prefix.trials)

    def test_importance_prefixes_trap_closed_form(self, geometry):
        """Strata path: the per-stratum union-bound sequence must trap
        the epoch-pair closed form at every importance-sampled prefix."""
        rate = FaultInjector(geometry, RATES).total_rate_per_hour
        truth = epoch_pair_truth(rate)
        config = EngineConfig(sampling="importance")
        for seed in (0, 1, 2, 3):
            prefixes = shard_prefixes(
                geometry, lambda: FailOnEpochPair(geometry), config,
                root_seed=seed, shards=6, shard_trials=250, min_faults=2,
            )
            sequence = ConfidenceSequence()
            for prefix in prefixes:
                lo, hi = sequence.interval(prefix)
                assert lo <= truth <= hi, (seed, prefix.trials, lo, hi)

    def test_width_shrinks_along_prefixes(self, geometry):
        prefixes = shard_prefixes(
            geometry, lambda: FailOnAnyFault(geometry), EngineConfig(),
            root_seed=3, shards=6, shard_trials=300, min_faults=0,
        )
        widths = [ConfidenceSequence().width(p) for p in prefixes]
        assert widths[-1] < widths[0]


# ---------------------------------------------------------------------- #
# End-to-end: target_ci_width stops campaigns deterministically
# ---------------------------------------------------------------------- #
def run_stopping_campaign(geometry, model, config, seed=5, workers=1,
                          trials=8000, min_faults=None):
    runner = ParallelLifetimeRunner(
        ReliabilityWork(
            geometry, RATES, model, config, min_faults=min_faults, label="stop"
        ),
        root_seed=seed, workers=workers, shard_size=500,
    )
    result = runner.run(trials=trials)
    return result, runner.last_report


class TestStoppingCampaigns:
    def test_campaign_stops_before_planned_trials(self, geometry):
        config = EngineConfig(target_ci_width=0.15)
        result, report = run_stopping_campaign(
            geometry, FailOnAnyFault(geometry), config, min_faults=0
        )
        assert report is not None and report.stopped_early
        assert 0 < result.trials < 8000
        rule = StoppingRule(config.target_ci_width)
        lo, hi = rule.interval(result)
        assert hi - lo <= config.target_ci_width
        assert not report.partial  # an early stop is not a partial run

    def test_stopped_campaign_workers_1_vs_4_byte_identical(self, geometry):
        config = EngineConfig(target_ci_width=0.15)
        a, ra = run_stopping_campaign(
            geometry, FailOnAnyFault(geometry), config, min_faults=0,
            workers=1,
        )
        b, rb = run_stopping_campaign(
            geometry, FailOnAnyFault(geometry), config, min_faults=0,
            workers=4,
        )
        assert ra is not None and rb is not None
        assert ra.stopped_early and rb.stopped_early
        assert ra.merged_shards == rb.merged_shards
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_importance_campaign_stops_on_ci_width(self, geometry):
        config = EngineConfig(sampling="importance", target_ci_width=5e-3)
        a, ra = run_stopping_campaign(
            geometry, FailOnEpochPair(geometry), config, workers=1
        )
        assert ra is not None and ra.stopped_early
        assert 0 < a.trials < 8000
        b, rb = run_stopping_campaign(
            geometry, FailOnEpochPair(geometry), config, workers=2
        )
        assert rb is not None and rb.stopped_early
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )

    def test_stops_on_prefix_and_is_deterministic(self, geometry):
        """The stopped result is the merge of the contiguous shard
        prefix 0..k, whatever the worker count."""
        config = EngineConfig(target_ci_width=0.15)
        a, ra = run_stopping_campaign(
            geometry, FailOnAnyFault(geometry), config, min_faults=0,
            workers=1,
        )
        b, rb = run_stopping_campaign(
            geometry, FailOnAnyFault(geometry), config, min_faults=0,
            workers=2,
        )
        assert ra.stopped_early and rb.stopped_early
        assert a == b
        assert a.trials == 500 * ra.merged_shards < 8000
        # An early stop is a deliberate decision, not a partial failure.
        assert not ra.partial and not rb.partial

    def test_no_target_runs_every_trial(self, geometry):
        config = EngineConfig(sampling="importance")
        result, report = run_stopping_campaign(
            geometry, FailOnEpochPair(geometry), config, trials=1000
        )
        assert report is not None and not report.stopped_early
        assert result.trials == 1000

    def test_campaign_metrics_record_savings(self, geometry):
        config = EngineConfig(target_ci_width=0.15)
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geometry, RATES, FailOnAnyFault(geometry), config,
                min_faults=0, label="stop",
            ),
            root_seed=5, workers=1, shard_size=500,
        )
        result = runner.run(trials=8000)
        registry = runner.last_campaign_metrics
        assert registry is not None
        snapshot = registry.to_dict()
        saved = snapshot["counters"]["campaign/trials_saved"]
        assert saved == 8000 - result.trials > 0
        assert "campaign/ci_width" in snapshot["gauges"]
        assert "campaign/effective_failures" in snapshot["gauges"]
