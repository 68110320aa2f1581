"""Same-seed determinism regression tests for the seeded-RNG plumbing.

Every stochastic component accepts an explicit ``seed`` (or a caller-owned
``random.Random``); two runs with the same seed must be bit-identical.
This guards the reproducibility contract enforced statically by reprolint
rule REPRO001 (no unseeded RNG construction outside CLI entry points).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datapath import CitadelDatapath
from repro.core.parity3dp import make_1dp, make_3dp
from repro.ecc.base import FromScratch
from repro.faults.injector import FaultInjector
from repro.faults.rates import TABLE_I_8GB_FIT, TSV_FIT_HIGH, FailureRates
from repro.faults.types import FaultKind
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.parallel import ParallelLifetimeRunner, ReliabilityWork
from repro.rng import DEFAULT_SEED, derive_seed, make_rng
from repro.stack.address import AddressMapper
from repro.stack.geometry import StackGeometry
from repro.workloads import rate_mode_traces


@pytest.fixture
def geom():
    return StackGeometry()


def run_monte_carlo(geom, seed, trials=300, from_scratch=False, **cfg):
    model = make_1dp(geom)
    sim = LifetimeSimulator(
        geom,
        FailureRates.paper_baseline(tsv_device_fit=100.0),
        FromScratch(model) if from_scratch else model,
        EngineConfig(**cfg),
        seed=seed,
    )
    return sim.run(trials=trials)


class TestMakeRng:
    def test_default_seed_is_stable(self):
        assert make_rng().random() == make_rng(seed=DEFAULT_SEED).random()

    def test_explicit_seed_wins_over_default(self):
        assert make_rng(seed=7).random() == random.Random(7).random()

    def test_caller_rng_passes_through(self):
        rng = random.Random(3)
        assert make_rng(rng, seed=99) is rng

    def test_derive_seed_is_deterministic_and_label_sensitive(self):
        assert derive_seed(1, "injector") == derive_seed(1, "injector")
        assert derive_seed(1, "injector") != derive_seed(1, "generator")
        assert derive_seed(1, "injector") != derive_seed(2, "injector")


class TestMonteCarloDeterminism:
    def test_same_seed_identical_results(self, geom):
        a = run_monte_carlo(geom, seed=42)
        b = run_monte_carlo(geom, seed=42)
        assert a.failures == b.failures
        assert a.failure_times_hours == b.failure_times_hours
        assert a.stratum_weight == b.stratum_weight

    def test_same_seed_identical_with_mitigations(self, geom):
        cfg = dict(tsv_swap_standby=4, use_dds=True,
                   collect_failure_modes=True)
        a = run_monte_carlo(geom, seed=11, **cfg)
        b = run_monte_carlo(geom, seed=11, **cfg)
        assert a.failures == b.failures
        assert a.failure_times_hours == b.failure_times_hours
        assert a.failure_modes == b.failure_modes

    def test_seed_kwarg_matches_explicit_rng(self, geom):
        rates = FailureRates.paper_baseline()
        via_seed = LifetimeSimulator(
            geom, rates, make_3dp(geom), seed=5
        ).run(trials=100)
        via_rng = LifetimeSimulator(
            geom, rates, make_3dp(geom), rng=random.Random(5)
        ).run(trials=100)
        assert via_seed.failures == via_rng.failures
        assert via_seed.failure_times_hours == via_rng.failure_times_hours

    def test_different_seeds_diverge(self, geom):
        """Not a hard guarantee, but with 300 trials the full failure-time
        vectors colliding across seeds would mean the seed is ignored."""
        a = run_monte_carlo(geom, seed=1)
        b = run_monte_carlo(geom, seed=2)
        assert (a.failures, a.failure_times_hours) != (
            b.failures,
            b.failure_times_hours,
        )


class TestParallelRunnerDeterminism:
    """The sharded runner's worker count must never change the numbers."""

    def run_parallel(self, geom, workers, **cfg):
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geom,
                FailureRates.paper_baseline(tsv_device_fit=100.0),
                make_1dp(geom),
                EngineConfig(**cfg),
            ),
            root_seed=42,
            workers=workers,
            shard_size=200,
        )
        return runner.run(trials=800)

    def test_workers_1_vs_4_identical_merged_results(self, geom):
        a = self.run_parallel(geom, workers=1)
        b = self.run_parallel(geom, workers=4)
        assert a == b  # byte-identical aggregate, the PR's core contract
        assert a.failure_times_hours == b.failure_times_hours
        assert a.stratum_weight == b.stratum_weight

    def test_workers_identical_with_mitigations(self, geom):
        cfg = dict(tsv_swap_standby=4, use_dds=True,
                   collect_failure_modes=True, collect_sparing_stats=True)
        a = self.run_parallel(geom, workers=1, **cfg)
        b = self.run_parallel(geom, workers=4, **cfg)
        assert a == b
        assert a.failure_modes == b.failure_modes
        assert a.sparing == b.sparing

    def test_same_root_seed_identical_across_runs(self, geom):
        assert self.run_parallel(geom, workers=2) == self.run_parallel(
            geom, workers=2
        )

    def test_different_root_seeds_diverge(self, geom):
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geom,
                FailureRates.paper_baseline(tsv_device_fit=100.0),
                make_1dp(geom),
                EngineConfig(),
            ),
            root_seed=43,
            workers=1,
            shard_size=200,
        )
        assert runner.run(trials=800) != self.run_parallel(geom, workers=1)


def stress_rates():
    """Table I rates with the bit/word FITs x1000, as in
    ``benchmarks/bench_engine_hotpath.py``: about 150 faults per trial,
    nearly all of them correctable."""
    die_fit = {
        kind: (
            (transient * 1000, permanent * 1000)
            if kind in (FaultKind.BIT, FaultKind.WORD)
            else (transient, permanent)
        )
        for kind, (transient, permanent) in TABLE_I_8GB_FIT.items()
    }
    return FailureRates(die_fit=die_fit, tsv_device_fit=TSV_FIT_HIGH)


class TestIncrementalCorrectionInvisible:
    """Incremental correction is a pure performance path: results —
    counts, failure times, metrics snapshot — must be byte-identical to
    the from-scratch oracle (:class:`FromScratch`)."""

    def run_citadel(
        self, geom, workers, incremental, rates=None, trials=600,
        shard_size=150, **cfg,
    ):
        model = make_3dp(geom)
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geom,
                rates or FailureRates.paper_baseline(tsv_device_fit=1430.0),
                model if incremental else FromScratch(model),
                EngineConfig(
                    tsv_swap_standby=4,
                    use_dds=True,
                    collect_metrics=True,
                    collect_failure_modes=True,
                    **cfg,
                ),
            ),
            root_seed=302,
            workers=workers,
            shard_size=shard_size,
        )
        return runner.run(trials=trials)

    def test_serial_engine_flag_invisible(self, geom):
        fast = run_monte_carlo(geom, seed=42, collect_metrics=True)
        reference = run_monte_carlo(
            geom, seed=42, collect_metrics=True, from_scratch=True
        )
        assert fast == reference
        assert fast.metrics == reference.metrics

    def test_citadel_parallel_flag_invisible_any_worker_count(self, geom):
        """Citadel config exercises scrub rebuilds and DDS re-exposure;
        identity must hold at workers=1 and workers=4."""
        reference = self.run_citadel(geom, workers=1, incremental=False)
        for workers in (1, 4):
            fast = self.run_citadel(geom, workers=workers, incremental=True)
            assert fast == reference
            assert fast.metrics == reference.metrics

    def test_stress_rates_flag_invisible_any_worker_count(self, geom):
        """Stress rates and a scrub every quarter lifetime: trials carry
        over 100 faults, so the 3DP kernel's column index and component
        map hold many faults and every scrub re-indexes them."""
        stress = dict(
            rates=stress_rates(), trials=8, shard_size=2,
            scrub_interval_hours=15330.0,
        )
        reference = self.run_citadel(
            geom, workers=1, incremental=False, **stress
        )
        assert reference.metrics.counter("engine/faults_sampled") > 100 * 8
        assert reference.metrics.counter("engine/scrub_passes") > 0
        for workers in (1, 4):
            fast = self.run_citadel(
                geom, workers=workers, incremental=True, **stress
            )
            assert fast == reference
            assert fast.metrics == reference.metrics


class TestInjectorDeterminism:
    def test_same_seed_identical_fault_streams(self, geom):
        rates = FailureRates.paper_baseline(tsv_device_fit=200.0)
        a = FaultInjector(geom, rates, seed=17).sample_lifetime(61320.0)[0]
        b = FaultInjector(geom, rates, seed=17).sample_lifetime(61320.0)[0]
        assert len(a) == len(b)
        for fa, fb in zip(a, b):
            assert fa.kind == fb.kind
            assert fa.permanence == fb.permanence
            assert fa.time_hours == fb.time_hours
            assert fa.footprint == fb.footprint


class TestWorkloadDeterminism:
    def test_same_seed_identical_traces(self, geom):
        a = rate_mode_traces("mcf", geom, cores=2, requests_per_core=400, seed=3)
        b = rate_mode_traces("mcf", geom, cores=2, requests_per_core=400, seed=3)
        assert a == b

    def test_cores_get_distinct_streams(self, geom):
        traces = rate_mode_traces(
            "mcf", geom, cores=2, requests_per_core=400, seed=3
        )
        assert traces[0].requests != traces[1].requests


class TestSyntheticWorkloadDeterminism:
    """The replay PR's synthetic profiles (zipfian addresses, bursty
    arrivals) must be pure functions of their seed — for any seed and
    core count hypothesis finds."""

    @settings(max_examples=25, deadline=None)
    @given(
        workload=st.sampled_from(["zipfian", "bursty"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        cores=st.integers(min_value=1, max_value=3),
    )
    def test_equal_seeds_yield_identical_traces(self, workload, seed, cores):
        geom = StackGeometry()
        a = rate_mode_traces(
            workload, geom, cores=cores, requests_per_core=64, seed=seed
        )
        b = rate_mode_traces(
            workload, geom, cores=cores, requests_per_core=64, seed=seed
        )
        assert a == b

    def test_different_seeds_diverge(self, geom):
        for workload in ("zipfian", "bursty"):
            a = rate_mode_traces(
                workload, geom, cores=1, requests_per_core=256, seed=1
            )
            b = rate_mode_traces(
                workload, geom, cores=1, requests_per_core=256, seed=2
            )
            assert a != b

    def test_synthetic_models_actually_differ_from_stream(self, geom):
        """The zipfian address model and bursty arrival model must not
        silently fall through to the default stream/poisson paths."""
        base = rate_mode_traces(
            "zipfian", geom, cores=1, requests_per_core=256, seed=3
        )[0]
        mapper = AddressMapper(geom, stacks=2)
        rows = {mapper.decode(r.address)[2] for r in base.requests}
        assert len(rows) < 256  # hot-set reuse, not a pure stream
        bursty = rate_mode_traces(
            "bursty", geom, cores=1, requests_per_core=256, seed=3
        )[0]
        gaps = [r.gap_cycles for r in bursty.requests]
        assert max(gaps) > 8 * sorted(gaps)[len(gaps) // 2]  # long idles


class TestDatapathDeterminism:
    def test_same_seed_same_rng_stream(self):
        a = CitadelDatapath(seed=23)
        b = CitadelDatapath(seed=23)
        assert [a.rng.random() for _ in range(8)] == [
            b.rng.random() for _ in range(8)
        ]


class TestSerializedByteIdentity:
    """Worker count must not change the *serialized* result either.

    ``a == b`` compares Counters order-insensitively, so it would miss
    the REPRO008 bug this guards: ``failure_modes`` emitted in merge
    (i.e. worker-count-dependent) order.  Comparing the JSON text with
    ``sort_keys=False`` pins the actual bytes a checkpoint or golden
    fixture would contain.
    """

    def run_parallel(self, geom, workers):
        import json

        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geom,
                FailureRates.paper_baseline(tsv_device_fit=100.0),
                make_1dp(geom),
                EngineConfig(collect_failure_modes=True,
                             collect_sparing_stats=True),
            ),
            root_seed=42,
            workers=workers,
            shard_size=200,
        )
        return json.dumps(runner.run(trials=800).to_dict(), sort_keys=False)

    def test_workers_1_vs_4_serialize_byte_identically(self, geom):
        assert self.run_parallel(geom, 1) == self.run_parallel(geom, 4)
