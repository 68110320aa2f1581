"""Integration tests for the Monte-Carlo lifetime reliability engine."""

import random

import pytest

from repro.core.parity3dp import make_1dp, make_3dp
from repro.ecc.symbol_code import SymbolCode
from repro.errors import ConfigurationError
from repro.faults.rates import FailureRates
from repro.faults.types import FaultKind
from repro.reliability.batch import make_batch_runner
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.results import ReliabilityResult
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy


@pytest.fixture
def geom():
    return StackGeometry()


def simulator(geom, model, seed=1, tsv_fit=0.0, **cfg):
    return LifetimeSimulator(
        geom,
        FailureRates.paper_baseline(tsv_device_fit=tsv_fit),
        model,
        EngineConfig(**cfg),
        rng=random.Random(seed),
    )


class TestEngineBasics:
    def test_result_fields(self, geom):
        sim = simulator(geom, make_3dp(geom))
        result = sim.run(trials=50)
        assert result.trials == 50
        assert 0 <= result.failures <= 50
        assert 0 < result.stratum_weight <= 1
        assert result.min_faults == 2  # 3DP cannot fail with one fault

    def test_deterministic_given_seed(self, geom):
        a = simulator(geom, make_1dp(geom), seed=9).run(trials=200)
        b = simulator(geom, make_1dp(geom), seed=9).run(trials=200)
        assert a.failures == b.failures

    def test_default_min_faults_respects_tsv(self, geom):
        sb = SymbolCode(geom, StripingPolicy.SAME_BANK)
        assert simulator(geom, sb).default_min_faults() == 1
        ac = SymbolCode(geom, StripingPolicy.ACROSS_CHANNELS)
        assert simulator(geom, ac).default_min_faults() == 2
        ab = SymbolCode(geom, StripingPolicy.ACROSS_BANKS)
        assert simulator(geom, ab, tsv_fit=1430.0).default_min_faults() == 1
        assert simulator(geom, ab, tsv_fit=0.0).default_min_faults() == 2
        # TSV-Swap makes TSV single-fault kills impossible.
        assert (
            simulator(geom, ab, tsv_fit=1430.0, tsv_swap_standby=4)
            .default_min_faults()
            == 2
        )

    def test_label_includes_mitigations(self, geom):
        sim = simulator(geom, make_3dp(geom), tsv_swap_standby=4, use_dds=True)
        result = sim.run(trials=5)
        assert "3DP" in result.scheme_name
        assert "TSV-Swap" in result.scheme_name
        assert "DDS" in result.scheme_name

    def test_custom_label(self, geom):
        result = simulator(geom, make_3dp(geom)).run(trials=5, label="X")
        assert result.scheme_name == "X"


class TestMitigationEffects:
    def test_scrubbing_removes_transients(self, geom):
        """With a scrub interval longer than the lifetime, transient faults
        accumulate; with the paper's 12h interval they are removed — the
        failure probability must be visibly lower."""
        slow = simulator(
            geom, make_1dp(geom), seed=3, scrub_interval_hours=1e9
        ).run(trials=1500)
        fast = simulator(
            geom, make_1dp(geom), seed=3, scrub_interval_hours=12.0
        ).run(trials=1500)
        assert fast.failure_probability < slow.failure_probability

    def test_dds_improves_3dp(self, geom):
        plain = simulator(geom, make_3dp(geom), seed=4).run(trials=1500)
        with_dds = simulator(geom, make_3dp(geom), seed=4, use_dds=True).run(
            trials=1500
        )
        assert with_dds.failures < plain.failures

    def test_tsv_swap_neutralizes_tsv_faults(self, geom):
        """Figure 9's claim: with TSV-Swap, resilience at the highest TSV
        rate matches a system with no TSV faults at all."""
        sb = SymbolCode(geom, StripingPolicy.SAME_BANK)
        no_tsv = simulator(geom, sb, seed=5, tsv_fit=0.0).run(trials=800)
        swapped = simulator(
            geom, sb, seed=5, tsv_fit=1430.0, tsv_swap_standby=4
        ).run(trials=800)
        unswapped = simulator(geom, sb, seed=5, tsv_fit=1430.0).run(trials=800)
        assert unswapped.failure_probability > no_tsv.failure_probability
        assert swapped.failure_probability == pytest.approx(
            no_tsv.failure_probability, rel=0.35
        )

    def test_sparing_stats_collection(self, geom):
        sim = simulator(
            geom, make_3dp(geom), seed=6, use_dds=True, collect_sparing_stats=True
        )
        result = sim.run(trials=600, min_faults=1)
        assert result.sparing is not None
        hist = result.sparing.rows_histogram()
        assert hist  # at least some faulty banks observed
        assert all(rows >= 1 for rows in hist)


class TestStandbyCount:
    """A TSV-Swap stand-by count the controller refuses is refused where
    the simulator is built, whichever trial loop would run: the batch
    kernel builds a controller only for the trials it re-runs, so
    checking there made the refusal depend on the draws."""

    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["batch", "scalar"])
    @pytest.mark.parametrize("count", ["zero", "not-a-divisor", "too-many"])
    def test_bad_count_raises_on_both_paths(self, geom, count, telemetry):
        standby = {
            "zero": 0,
            "not-a-divisor": 3,
            "too-many": geom.data_tsvs_per_channel + 1,
        }[count]
        with pytest.raises(ConfigurationError, match="stand-by count"):
            simulator(
                geom, make_3dp(geom), tsv_swap_standby=standby, use_dds=True,
                collect_metrics=telemetry,
            ).run(trials=20)

    def test_good_count_takes_the_batch_path(self, geom):
        """The ``batch`` cases above reach the kernel, not the scalar
        loop: the same configuration with a valid count runs there."""
        sim = simulator(geom, make_3dp(geom), tsv_swap_standby=4,
                        use_dds=True)
        assert make_batch_runner(sim) is not None
        assert sim.run(trials=20).trials == 20


class TestStratification:
    def test_stratified_estimate_consistent_with_plain(self, geom):
        """The weighted (min_faults=1) estimator must agree with plain
        sampling within Monte-Carlo error."""
        model = SymbolCode(geom, StripingPolicy.SAME_BANK)
        plain = simulator(geom, model, seed=7).run(trials=4000, min_faults=0)
        strat = simulator(geom, model, seed=8).run(trials=4000, min_faults=1)
        assert strat.failure_probability == pytest.approx(
            plain.failure_probability, rel=0.25
        )

    def test_weight_is_tail_probability(self, geom):
        sim = simulator(geom, make_3dp(geom))
        result = sim.run(trials=10, min_faults=2)
        assert result.stratum_weight == pytest.approx(
            sim.injector.prob_at_least(2), rel=1e-9
        )


class TestResults:
    def test_failure_probability_and_ci(self):
        r = ReliabilityResult("x", trials=1000, failures=10, stratum_weight=0.5)
        assert r.failure_probability == pytest.approx(0.005)
        lo, hi = r.confidence_interval()
        assert lo < 0.005 < hi

    def test_improvement_over(self):
        a = ReliabilityResult("a", trials=100, failures=1, stratum_weight=1.0)
        b = ReliabilityResult("b", trials=100, failures=10, stratum_weight=1.0)
        assert a.improvement_over(b) == pytest.approx(10.0)
        zero = ReliabilityResult("z", trials=100, failures=0, stratum_weight=1.0)
        assert zero.improvement_over(b) == float("inf")

    def test_summary_format(self):
        r = ReliabilityResult("scheme", trials=10, failures=1, stratum_weight=1.0)
        assert "scheme" in r.summary()
        assert "P(fail)" in r.summary()


class TestMinFaultsDispatch:
    """``default_min_faults`` calls ``min_faults_to_fail(tsv_possible)``
    directly; it must not call-and-catch TypeError, which masks
    TypeErrors raised *inside* the model and strands the scheme on the
    wrong stratum."""

    class _BuggyTsvBranch(SymbolCode):
        """A model whose TSV branch contains a genuine TypeError bug."""

        def min_faults_to_fail(self, tsv_possible=True):
            if tsv_possible:
                return 1 + None  # the bug the old except clause hid
            return 2

    def test_internal_typeerror_propagates(self, geom):
        model = self._BuggyTsvBranch(geom, StripingPolicy.ACROSS_BANKS)
        sim = simulator(geom, model, tsv_fit=1430.0)
        # The old try/except TypeError fell back to the no-arg call and
        # silently returned 2 here; the bug must surface instead.
        with pytest.raises(TypeError):
            sim.default_min_faults()

    def test_no_tsv_branch_still_works(self, geom):
        model = self._BuggyTsvBranch(geom, StripingPolicy.ACROSS_BANKS)
        assert simulator(geom, model, tsv_fit=0.0).default_min_faults() == 2


class TestSampledWeight:
    """The result's stratum weight is the weight the injector sampled the
    trials with, and the engine cross-checks it against its own tail
    probability so the two formulas cannot drift apart unnoticed.

    The default (batch) path samples each trial's count through
    ``sample_count``; the scalar loop's naive plan draws whole lifetimes
    through ``sample_lifetime``, and its stratified tail and importance
    strata draw counts through ``sample_count``.  All carry the
    contract."""

    @staticmethod
    def _spy(sim, method, scale=1.0):
        sampled = []
        original = getattr(sim.injector, method)

        def spy(lifetime_hours, min_faults=0):
            drawn, weight = original(lifetime_hours, min_faults=min_faults)
            sampled.append(weight)
            return drawn, weight * scale

        setattr(sim.injector, method, spy)
        return sampled

    def test_result_weight_is_exactly_the_sampled_weight(self, geom):
        sim = simulator(geom, make_3dp(geom))
        sampled = self._spy(sim, "sample_count")
        result = sim.run(trials=10, min_faults=2)
        assert len(sampled) == 10 and all(w == sampled[0] for w in sampled)
        assert result.stratum_weight == sampled[0]  # same float, not approx

    def test_result_weight_is_exactly_the_sampled_weight_scalar_reference(
        self, geom
    ):
        sim = simulator(geom, make_3dp(geom))
        sampled = self._spy(sim, "sample_lifetime")
        result = sim._run_scalar(10, 2, None)
        assert len(sampled) == 10 and all(w == sampled[0] for w in sampled)
        assert result.stratum_weight == sampled[0]

    def test_disagreeing_weight_violates_contract(self, geom):
        from repro import contracts
        from repro.errors import ContractViolation

        sim = simulator(geom, make_3dp(geom))
        self._spy(sim, "sample_count", scale=0.5)  # a biased estimator
        if not contracts.enabled():
            pytest.skip("contracts disabled in this environment")
        with pytest.raises(ContractViolation):
            sim.run(trials=2, min_faults=2)

    def test_disagreeing_weight_violates_contract_scalar_reference(self, geom):
        from repro import contracts
        from repro.errors import ContractViolation

        sim = simulator(geom, make_3dp(geom))
        self._spy(sim, "sample_lifetime", scale=0.5)
        if not contracts.enabled():
            pytest.skip("contracts disabled in this environment")
        with pytest.raises(ContractViolation):
            sim._run_scalar(2, 2, None)

    @pytest.mark.parametrize("sampling", ["stratified", "importance"])
    def test_disagreeing_weight_violates_contract_sampled_plans(
        self, geom, sampling
    ):
        """The stratified tail stratum and the importance stratum draw
        their counts through ``sample_count``; a weight that disagrees
        with the plan's is a contract violation on both."""
        from repro import contracts
        from repro.errors import ContractViolation

        sim = simulator(geom, make_3dp(geom), sampling=sampling)
        self._spy(sim, "sample_count", scale=0.5)
        if not contracts.enabled():
            pytest.skip("contracts disabled in this environment")
        # Eight trials give every stratified stratum, the tail included,
        # at least one trial.
        with pytest.raises(ContractViolation):
            sim.run(trials=8, min_faults=2)


class TestTrialSpans:
    """A traced ``trial`` span carries the trial's ``index``; a plan that
    is not naive adds its ``stratum`` key, trials running through the
    plan's strata in order."""

    TRIALS = 12

    def _spans(self, geom, tmp_path, sampling):
        from repro.telemetry.tracing import TraceWriter, read_trace

        path = tmp_path / f"{sampling}.jsonl"
        with TraceWriter(path, sample_every=1) as tracer:
            sim = LifetimeSimulator(
                geom,
                FailureRates.paper_baseline(tsv_device_fit=1430.0),
                make_3dp(geom),
                EngineConfig(tsv_swap_standby=4, sampling=sampling),
                rng=random.Random(3),
                tracer=tracer,
            )
            sim.run(trials=self.TRIALS)
        spans = [
            record.attrs
            for record in read_trace(path)
            if record.kind == "begin" and record.name == "trial"
        ]
        return sim, spans

    def test_naive_spans_carry_only_the_index(self, geom, tmp_path):
        _, spans = self._spans(geom, tmp_path, "naive")
        assert spans == [{"index": i} for i in range(self.TRIALS)]

    def test_stratified_spans_carry_the_plan_keys_in_order(
        self, geom, tmp_path
    ):
        from repro.reliability.sampling import make_sampler

        sim, spans = self._spans(geom, tmp_path, "stratified")
        config = sim.config
        sampler = make_sampler(
            "stratified",
            sim.injector,
            lifetime_hours=config.lifetime_hours,
            scrub_interval_hours=config.scrub_interval_hours,
            min_faults=sim.default_min_faults(),
        )
        keys = [
            stratum.key
            for stratum, quota in zip(
                sampler.strata, sampler.allocate(self.TRIALS)
            )
            for _ in range(quota)
        ]
        assert len(sampler.strata) > 1
        assert spans == [
            {"index": i, "stratum": key} for i, key in enumerate(keys)
        ]


class TestScrubEpochBoundaries:
    """Scrub scheduling counts integer boundary epochs with one consistent
    ``(k + 1) * interval <= t`` comparison.  The old float chain
    ``next_scrub = (t // interval + 1) * interval`` disagreed with its own
    trigger comparison at exact-boundary arrivals, re-running a scrub pass
    (double-counting DDS sparing demand) or skipping one."""

    @staticmethod
    def _fixed_fault_sim(geom, times, **cfg):
        from repro.faults.types import Permanence, make_row_fault

        sim = simulator(
            geom, make_3dp(geom), collect_metrics=True, **cfg
        )
        faults = [
            make_row_fault(geom, 0, 0, 5, Permanence.TRANSIENT).at_time(t)
            for t in times
        ]
        sim.injector.sample_lifetime = (
            lambda lifetime_hours, min_faults=0: (list(faults), 1.0)
        )
        return sim

    def test_boundary_arrival_scrubs_exactly_once(self, geom):
        # 3 * 0.3 == 0.8999999999999999 in binary64: the first arrival
        # lands exactly on scrub boundary 3.  The old scheduler set
        # next_scrub equal to the arrival time and re-scrubbed at the
        # second arrival with no boundary in between (2 passes).
        boundary = 3 * 0.3
        sim = self._fixed_fault_sim(
            geom, [boundary, 0.95], scrub_interval_hours=0.3
        )
        result = sim.run(trials=1, min_faults=0)
        assert result.metrics.counter("engine/scrub_passes") == 1

    def test_exact_multiple_interval_boundary(self, geom):
        # With the paper's 12h interval products are exact: an arrival at
        # t=24.0 crosses boundaries 1 and 2 (collapsed into one pass) and
        # an arrival at 24.5 must not scrub again.
        sim = self._fixed_fault_sim(
            geom, [24.0, 24.5], scrub_interval_hours=12.0
        )
        result = sim.run(trials=1, min_faults=0)
        assert result.metrics.counter("engine/scrub_passes") == 1

    def test_epoch_search_matches_naive_reference(self, geom):
        """_scrub_epoch_at == the largest k reachable by stepping the same
        comparison from zero, for adversarial interval/time pairs."""
        import random as _random

        rng = _random.Random(42)
        intervals = [0.3, 0.1, 12.0, 7.3, 1e-3]
        for interval in intervals:
            for _ in range(200):
                k_true = rng.randrange(0, 5000)
                jitter = rng.choice([0.0, 1e-16, -1e-16, 1e-12, -1e-12])
                t = k_true * interval * (1.0 + jitter)
                if t < 0:
                    continue
                naive = 0
                while (naive + 1) * interval <= t:
                    naive += 1
                got = LifetimeSimulator._scrub_epoch_at(t, 0, interval)
                assert got == naive, (interval, t)
                # Restarting mid-way (as the engine does) agrees too.
                mid = naive // 2
                assert LifetimeSimulator._scrub_epoch_at(t, mid, interval) == naive
