"""Tests for the trace-replay co-simulation subsystem (``repro.replay``).

Covers the full stack the replay PR introduced: timeline export from
the reliability engine, the perturbation state machine driving the
performance simulator, the thermal FIT feedback proxy, the
:class:`ReplayResult` monoid, the sharded/resumable campaign runner's
worker-count byte identity, the ``repro replay`` CLI, and the campaign
service's replay mode (spec canonicalization, store dispatch).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perf_reference import ReferencePerturbation
from repro.core.parity3dp import make_3dp
from repro.errors import CheckpointError, MergeError, SpecError
from repro.faults.injector import FaultInjector, ThermalFaultInjector
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.replay import (
    FaultTimeline,
    ReplayConfig,
    ReplayEngine,
    ReplayPerturbation,
    ReplayResult,
    TimelineEvent,
    ReplayWork,
    build_timeline,
    thermal_bank_multipliers,
)
from repro.reliability.parallel import ParallelLifetimeRunner
from repro.schemes import SCHEMES
from repro.stack.address import LineLocation
from repro.stack.geometry import StackGeometry


@pytest.fixture
def geom():
    return StackGeometry()


def citadel_sim(geom, seed=0, tsv_fit=500.0, **cfg):
    defaults = dict(tsv_swap_standby=4, use_dds=True)
    defaults.update(cfg)
    return LifetimeSimulator(
        geom,
        FailureRates.paper_baseline(tsv_device_fit=tsv_fit),
        make_3dp(geom),
        EngineConfig(**defaults),
        seed=seed,
    )


# ---------------------------------------------------------------------- #
# Timeline export
# ---------------------------------------------------------------------- #
class TestTimeline:
    def test_events_sorted_and_weight_matches_injector(self, geom):
        sim = citadel_sim(geom, seed=7)
        min_faults = sim.default_min_faults()
        timeline = build_timeline(sim, min_faults)
        keys = [(e.time_hours, e.seq) for e in timeline.events]
        assert keys == sorted(keys)
        expected = sim.injector.prob_at_least(
            min_faults, sim.config.lifetime_hours
        )
        assert timeline.weight == expected

    def test_recorder_does_not_change_the_verdict(self, geom):
        """Recording is observational: a recorded trial must fail (or
        survive) exactly when the unrecorded same-seed trial does."""
        for seed in range(12):
            recorded = build_timeline(citadel_sim(geom, seed=seed), 2)
            sim = citadel_sim(geom, seed=seed)
            faults, _ = sim.injector.sample_lifetime(
                sim.config.lifetime_hours, min_faults=2
            )
            outcome = sim.simulate_history(faults)
            assert recorded.failed == (outcome is not None)

    def test_same_seed_identical_timelines(self, geom):
        a = build_timeline(citadel_sim(geom, seed=3), 2)
        b = build_timeline(citadel_sim(geom, seed=3), 2)
        assert a == b

    def test_events_carry_no_process_local_state(self, geom):
        """``Fault.uid`` is a process-local counter and must never leak
        into a timeline (it would break cross-process byte identity)."""
        timeline = build_timeline(citadel_sim(geom, seed=5), 2)
        assert timeline.events
        for event in timeline.events:
            assert not hasattr(event, "uid")

    def test_event_validation(self):
        with pytest.raises(Exception):
            TimelineEvent(seq=-1, time_hours=0.0, kind="fault")
        with pytest.raises(Exception):
            TimelineEvent(seq=0, time_hours=0.0, kind="fault", channel=-2)


# ---------------------------------------------------------------------- #
# Perturbation state machine
# ---------------------------------------------------------------------- #
def make_timeline(events, lifetime=100.0, failed=False):
    return FaultTimeline(
        lifetime_hours=lifetime,
        events=tuple(events),
        weight=1.0,
        num_faults=sum(e.kind == "fault" for e in events),
        failed=failed,
        failure_time_hours=None,
    )


def request_at(channel=0, bank=0):
    """The global home bank the simulator hands the hook for a request
    homed in ``(channel, bank)``."""
    return channel * StackGeometry().banks_per_die + bank


class TestPerturbation:
    def test_degraded_bank_pays_correction_latency(self, geom):
        timeline = make_timeline([
            TimelineEvent(seq=0, time_hours=0.0, kind="fault",
                          fault_kind="bank", dies=(0,), banks=(3,),
                          detail="permanent"),
        ])
        hook = ReplayPerturbation(timeline, geom, total_requests=100)
        hit = hook.on_request(0, request_at(channel=0, bank=3), now=0)
        assert hit is not None and hit.delay_cycles == 8
        miss = hook.on_request(1, request_at(channel=0, bank=4), now=0)
        assert miss is None

    def test_scrub_clears_transients_and_injects_reads(self, geom):
        timeline = make_timeline([
            TimelineEvent(seq=0, time_hours=0.0, kind="fault",
                          fault_kind="row", dies=(0,), banks=(1,),
                          detail="transient"),
            TimelineEvent(seq=1, time_hours=50.0, kind="scrub", dropped=1),
        ])
        hook = ReplayPerturbation(timeline, geom, total_requests=100)
        before = hook.on_request(0, request_at(bank=1), now=0)
        assert before is not None and before.delay_cycles == 8
        at_scrub = hook.on_request(50, request_at(bank=1), now=0)
        # The scrub pass clears the transient degradation and injects a
        # bounded burst of background reads.
        assert at_scrub is not None
        assert at_scrub.delay_cycles == 0
        assert len(at_scrub.extra_accesses) == 8
        assert all(not w for _, w in at_scrub.extra_accesses)
        after = hook.on_request(51, request_at(bank=1), now=0)
        assert after is None

    def test_dds_remap_converts_degradation_to_indirection(self, geom):
        timeline = make_timeline([
            TimelineEvent(seq=0, time_hours=0.0, kind="fault",
                          fault_kind="row", dies=(0,), banks=(2,),
                          detail="permanent"),
            TimelineEvent(seq=1, time_hours=50.0, kind="dds_remap",
                          fault_kind="row", dies=(0,), banks=(2,),
                          detail="row"),
        ])
        hook = ReplayPerturbation(timeline, geom, total_requests=100)
        degraded = hook.on_request(0, request_at(bank=2), now=0)
        assert degraded is not None and degraded.delay_cycles == 8
        remap = hook.on_request(50, request_at(bank=2), now=0)
        # Copy traffic: 2 lines per "row" remap, (read source, write
        # spare) each; thereafter the bank costs only the RRT lookup.
        assert remap is not None
        assert len(remap.extra_accesses) == 4
        assert remap.delay_cycles == 1
        later = hook.on_request(60, request_at(bank=2), now=0)
        assert later is not None and later.delay_cycles == 1

    def test_tsv_swap_taxes_the_whole_channel(self, geom):
        timeline = make_timeline([
            TimelineEvent(seq=0, time_hours=0.0, kind="tsv_swap",
                          fault_kind="data_tsv", channel=1),
        ])
        hook = ReplayPerturbation(timeline, geom, total_requests=100)
        on = hook.on_request(0, request_at(channel=1, bank=5), now=0)
        assert on is not None and on.delay_cycles == 2
        off = hook.on_request(1, request_at(channel=0, bank=5), now=0)
        assert off is None

    def test_events_are_deterministic_given_a_timeline(self, geom):
        timeline = make_timeline([
            TimelineEvent(seq=0, time_hours=10.0, kind="scrub"),
            TimelineEvent(seq=1, time_hours=20.0, kind="scrub"),
        ])
        def collect():
            hook = ReplayPerturbation(timeline, geom, total_requests=100)
            return [
                hook.on_request(i, request_at(), now=i) for i in range(40)
            ]
        assert collect() == collect()


_GEOMETRY = StackGeometry()
_LIFETIME_HOURS = 100.0


@st.composite
def timeline_events(draw):
    """A timeline of every event kind.  Times come from a handful of
    values, so several events often land on one request ordinal; faults
    and swaps may carry a TSV channel; dies span the metadata die."""
    g = _GEOMETRY
    events = []
    for seq in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(
            ["fault", "tsv_swap", "scrub", "dds_remap", "failure"]
        ))
        fields = {}
        if kind in ("fault", "tsv_swap"):
            fields["channel"] = draw(st.integers(-1, g.channels - 1))
        if kind in ("fault", "dds_remap"):
            fields["dies"] = tuple(sorted(draw(st.sets(
                st.integers(0, g.total_dies - 1), min_size=1, max_size=2
            ))))
            fields["banks"] = tuple(sorted(draw(st.sets(
                st.integers(0, g.banks_per_die - 1), min_size=1, max_size=3
            ))))
        if kind == "fault":
            fields["detail"] = draw(
                st.sampled_from(["transient", "permanent", ""])
            )
        if kind == "dds_remap":
            fields["detail"] = draw(st.sampled_from(["row", "bank", "other"]))
        time_hours = draw(st.sampled_from(
            [0.0, 0.5, 10.0, 33.3, 50.0, 99.0, _LIFETIME_HOURS]
        ))
        events.append(TimelineEvent(
            seq=seq, time_hours=time_hours, kind=kind, **fields
        ))
    return sorted(events, key=lambda e: (e.time_hours, e.seq))


class TestTableMatchesReference:
    """The table-driven hook against the per-request reference: same
    delay and same extra accesses, in the same order, or both ``None``,
    for every request, homes on both stacks included."""

    @settings(max_examples=150, deadline=None)
    @given(
        events=timeline_events(),
        homes=st.lists(
            st.tuples(
                st.integers(0, 2 * _GEOMETRY.channels - 1),
                st.integers(0, _GEOMETRY.banks_per_die - 1),
            ),
            min_size=1, max_size=120,
        ),
    )
    def test_every_request(self, events, homes):
        g = _GEOMETRY
        timeline = make_timeline(events, lifetime=_LIFETIME_HOURS)
        hook = ReplayPerturbation(timeline, g, total_requests=len(homes))
        reference = ReferencePerturbation(
            timeline, g, total_requests=len(homes)
        )
        for index, (channel, bank) in enumerate(homes):
            home = LineLocation(channel=channel, bank=bank, row=index, slot=0)
            got = hook.on_request(index, channel * g.banks_per_die + bank, index)
            assert got == reference.on_request(index, home, index), index
        assert hook.applied == reference.applied


# ---------------------------------------------------------------------- #
# Thermal feedback
# ---------------------------------------------------------------------- #
class TestThermalFeedback:
    def test_idle_activity_means_no_feedback(self, geom):
        flat = [[0] * geom.banks_per_die for _ in range(geom.channels)]
        assert thermal_bank_multipliers(flat, geom) == tuple(
            1.0 for _ in range(geom.banks_per_die)
        )

    def test_peak_bank_doubles_fit(self, geom):
        activity = [[0] * geom.banks_per_die]
        activity[0][3] = 1000
        multipliers = thermal_bank_multipliers(activity, geom)
        assert multipliers[3] == 2.0  # +10 degC at the peak -> 2x FIT
        assert multipliers[0] == 1.0

    def test_thermal_injector_prefers_hot_banks(self, geom):
        rates = FailureRates.paper_baseline()
        hot = tuple(
            4.0 if bank == 0 else 1.0
            for bank in range(geom.banks_per_die)
        )
        injector = ThermalFaultInjector(geom, rates, multipliers=hot, seed=9)
        counts = [0] * geom.banks_per_die
        for code, _, bank, _, _ in injector.sample_specs(2000):
            kind, _ = injector.codes[code]
            if not kind.is_tsv:
                counts[bank] += 1
        assert counts[0] > 2 * max(counts[1:])

    def test_thermal_injector_scales_total_rate(self, geom):
        rates = FailureRates.paper_baseline()
        base = FaultInjector(geom, rates, seed=0)
        flat = ThermalFaultInjector(
            geom, rates,
            multipliers=tuple(2.0 for _ in range(geom.banks_per_die)),
            seed=0,
        )
        # Uniform 2x multipliers double every non-TSV entry rate, so the
        # tail probability (and the stratum weight) moves with them.
        assert flat.prob_at_least(1, 1000.0) > base.prob_at_least(1, 1000.0)

    def test_engine_config_default_keeps_plain_injector(self, geom):
        sim = citadel_sim(geom, seed=0)
        assert type(sim.injector) is FaultInjector
        with_thermal = citadel_sim(
            geom, seed=0,
            thermal_bank_fit=tuple(
                1.5 for _ in range(geom.banks_per_die)
            ),
        )
        assert type(with_thermal.injector) is ThermalFaultInjector


# ---------------------------------------------------------------------- #
# ReplayResult monoid
# ---------------------------------------------------------------------- #
def shard(engine, seed, trials=2):
    return engine.run_shard(seed, trials, trace_seed=123)


@pytest.fixture
def engine(geom):
    return ReplayEngine(
        geom,
        FailureRates.paper_baseline(tsv_device_fit=500.0),
        make_3dp(geom),
        EngineConfig(tsv_swap_standby=4, use_dds=True),
        ReplayConfig(workload="zipfian", cores=2, requests_per_core=64),
    )


class TestReplayResultMonoid:
    def test_identity_element(self, engine):
        a = shard(engine, seed=1)
        assert ReplayResult.identity().merge(a) == a
        assert a.merge(ReplayResult.identity()) == a

    def test_merge_is_order_insensitive(self, engine):
        a, b, c = (shard(engine, seed=s) for s in (1, 2, 3))
        left = a.merge(b).merge(c)
        right = c.merge(a).merge(b)
        assert left == right
        assert json.dumps(left.to_dict()) == json.dumps(right.to_dict())

    def test_incompatible_shards_refuse_to_merge(self, engine, geom):
        other_engine = ReplayEngine(
            geom,
            FailureRates.paper_baseline(tsv_device_fit=500.0),
            make_3dp(geom),
            EngineConfig(tsv_swap_standby=4, use_dds=True),
            ReplayConfig(workload="bursty", cores=2, requests_per_core=64),
        )
        with pytest.raises(MergeError):
            shard(engine, seed=1).merge(shard(other_engine, seed=1))

    def test_round_trip_is_byte_identical(self, engine):
        a = shard(engine, seed=1)
        again = ReplayResult.from_dict(
            json.loads(json.dumps(a.to_dict()))
        )
        assert json.dumps(a.to_dict()) == json.dumps(again.to_dict())

    def test_thermal_key_absent_when_feedback_off(self, engine):
        assert "thermal_multipliers" not in shard(engine, seed=1).to_dict()

    def test_estimators(self, engine):
        a = shard(engine, seed=1, trials=3)
        assert a.trials == 3
        assert a.mean_slowdown >= 1.0
        assert a.worst_slowdown >= a.mean_slowdown or (
            a.worst_slowdown == pytest.approx(a.mean_slowdown)
        )
        assert a.mean_energy_overhead > 1.0
        summary = a.summary()
        assert summary["workload"] == "zipfian"
        assert summary["trials"] == 3


# ---------------------------------------------------------------------- #
# Campaign runner: worker-count and resume byte identity
# ---------------------------------------------------------------------- #
def make_runner(geom, workers=1, thermal=False, checkpoint=None,
                resume=False, collect_metrics=False, **kw):
    work = ReplayWork(
        geom,
        FailureRates.paper_baseline(tsv_device_fit=500.0),
        make_3dp(geom),
        EngineConfig(tsv_swap_standby=4, use_dds=True),
        ReplayConfig(
            workload="zipfian", cores=2, requests_per_core=64,
            thermal=thermal,
        ),
        collect_metrics=collect_metrics,
    )
    return ParallelLifetimeRunner(
        work=work,
        root_seed=42,
        workers=workers,
        shard_size=2,
        checkpoint_path=checkpoint,
        resume=resume,
        **kw,
    )


class TestReplayCampaignRunner:
    def test_workers_1_vs_4_serialize_byte_identically(self, geom):
        a = make_runner(geom, workers=1).run(trials=6)
        b = make_runner(geom, workers=4).run(trials=6)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_checkpoint_resume_is_byte_identical(self, geom, tmp_path):
        ckpt = tmp_path / "replay.ckpt.json"
        fresh = make_runner(geom, checkpoint=ckpt).run(trials=6)
        assert ckpt.exists()
        resumed = make_runner(
            geom, workers=4, checkpoint=ckpt, resume=True
        ).run(trials=6)
        assert json.dumps(fresh.to_dict()) == json.dumps(resumed.to_dict())

    def test_checkpoint_of_other_campaign_rejected(self, geom, tmp_path):
        ckpt = tmp_path / "replay.ckpt.json"
        make_runner(geom, checkpoint=ckpt).run(trials=4)
        other = make_runner(geom, checkpoint=ckpt, resume=True,
                            thermal=True)
        with pytest.raises(CheckpointError):
            other.run(trials=4)

    def test_zero_trials_is_the_identity(self, geom):
        result = make_runner(geom).run(trials=0)
        assert result.is_identity

    def test_thermal_feedback_changes_the_sampled_stratum(self, geom):
        base = make_runner(geom).run(trials=4)
        hot = make_runner(geom, thermal=True).run(trials=4)
        # Thermal multipliers scale the injector rates, so the stratum
        # weight must move; the baseline perf/power stays shared.
        assert hot.stratum_weight != base.stratum_weight
        assert hot.baseline_exec_cycles == base.baseline_exec_cycles
        assert hot.to_dict()["thermal_multipliers"]

    def test_metrics_snapshot_attached_and_mergeable(self, geom):
        result = make_runner(geom, workers=2,
                             collect_metrics=True).run(trials=4)
        assert result.metrics is not None
        registry = result.metrics
        assert registry.counter("replay/trials") == 4
        assert registry.counter("replay/requests") > 0


# ---------------------------------------------------------------------- #
# Reliability results must not move with the replay feature off
# ---------------------------------------------------------------------- #
class TestReliabilityUnperturbed:
    def test_default_engine_config_has_no_thermal_feedback(self):
        assert EngineConfig().thermal_bank_fit is None

    def test_reliability_results_byte_identical_with_replay_imported(
        self, geom
    ):
        """Importing/running replay machinery must not consume RNG draws
        from, or otherwise perturb, a plain reliability run."""
        def run():
            return citadel_sim(geom, seed=42).run(trials=300)
        before = run()
        build_timeline(citadel_sim(geom, seed=9), 2)  # exercise replay
        after = run()
        assert before == after
        assert json.dumps(before.to_dict()) == json.dumps(after.to_dict())


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
class TestReplayCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["replay"])
        assert args.scheme == "citadel"
        assert args.workload == "zipfian"
        assert args.trials == 32
        assert args.shard_size is None

    def test_small_joint_report(self, capsys):
        from repro.cli import main

        rc = main([
            "replay", "--trials", "2", "--requests", "64", "--cores", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean slowdown" in out
        assert "mean energy overhead" in out

    def test_json_document_has_all_three_sections(self, capsys):
        from repro.cli import main

        rc = main([
            "replay", "--trials", "2", "--requests", "64", "--cores", "2",
            "--json",
        ])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {
            "replay", "reliability", "performance", "power"
        }
        assert document["replay"]["trials"] == 2
        assert document["performance"]["baseline_exec_cycles"] > 0
        assert document["power"]["baseline_energy_nj"] > 0

    def test_unknown_workload_rejected(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--workload", "nope"])


# ---------------------------------------------------------------------- #
# Service: replay specs, store dispatch
# ---------------------------------------------------------------------- #
class TestReplaySpec:
    def test_reliability_spec_hash_unchanged_by_replay_fields(self):
        from repro.service.jobs import CampaignSpec

        spec = CampaignSpec(scheme="citadel", trials=100)
        document = spec.canonical_dict()
        assert "mode" not in document
        assert "replay" not in document
        # Replay-only knobs on a reliability spec are canonicalized away.
        noisy = CampaignSpec(
            scheme="citadel", trials=100, workload="bursty", requests=7,
            replay_cores=9, thermal=True,
        )
        assert noisy.spec_hash() == spec.spec_hash()

    def test_replay_spec_round_trips_through_canonical_json(self):
        from repro.service.jobs import CampaignSpec

        spec = CampaignSpec(
            scheme="citadel", trials=8, mode="replay",
            workload="bursty", requests=64, replay_cores=2, shard_size=2,
        )
        document = spec.canonical_dict()
        assert document["mode"] == "replay"
        assert document["replay"]["workload"] == "bursty"
        again = CampaignSpec.from_dict(
            json.loads(json.dumps(document))
        )
        assert again.spec_hash() == spec.spec_hash()
        assert again == spec

    def test_replay_spec_differs_from_reliability_twin(self):
        from repro.service.jobs import CampaignSpec

        rel = CampaignSpec(scheme="citadel", trials=8, shard_size=2)
        rep = CampaignSpec(scheme="citadel", trials=8, shard_size=2,
                           mode="replay")
        assert rel.spec_hash() != rep.spec_hash()

    def test_invalid_replay_fields_rejected(self):
        from repro.service.jobs import CampaignSpec

        with pytest.raises(SpecError):
            CampaignSpec(mode="nope")
        with pytest.raises(SpecError):
            CampaignSpec(mode="replay", workload="nope")
        with pytest.raises(SpecError):
            CampaignSpec(mode="replay", requests=0)
        with pytest.raises(SpecError):
            CampaignSpec(mode="replay", thermal="yes")
        # Replay draws every lifetime naively and has no stopping rule,
        # so settings it would ignore are rejected by name.
        for field, value in (
            ("sampling", "importance"),
            ("sampling", "stratified"),
            ("target_ci_width", 0.5),
            ("modes", True),
        ):
            with pytest.raises(SpecError, match=field):
                CampaignSpec(mode="replay", **{field: value})

    def test_store_round_trips_replay_results(self, geom, tmp_path):
        from repro.service.jobs import CampaignSpec
        from repro.service.store import ResultStore

        spec = CampaignSpec(
            scheme="citadel", trials=2, mode="replay",
            workload="zipfian", requests=64, replay_cores=2, shard_size=2,
        )
        result = make_runner(geom).run(trials=2)
        store = ResultStore(tmp_path / "store")
        key = store.put(spec, result)
        entry = store.entry(key)
        assert entry["kind"] == "replay"
        loaded = store.get(key)
        assert isinstance(loaded, ReplayResult)
        assert json.dumps(loaded.to_dict()) == json.dumps(result.to_dict())
        # A cold store (fresh memory cache) must dispatch off disk too.
        cold = ResultStore(tmp_path / "store").get(key)
        assert isinstance(cold, ReplayResult)

    def test_reliability_entries_carry_no_kind_tag(self, geom, tmp_path):
        from repro.service.jobs import CampaignSpec
        from repro.service.store import ResultStore
        from repro.reliability.results import ReliabilityResult

        spec = CampaignSpec(scheme="citadel", trials=100)
        sim = citadel_sim(geom, seed=0)
        result = sim.run(trials=100)
        store = ResultStore(tmp_path / "store")
        key = store.put(spec, result)
        assert "kind" not in store.entry(key)
        assert isinstance(store.get(key), ReliabilityResult)

    def test_scheduler_executes_replay_jobs(self, tmp_path):
        import time

        from repro.service.jobs import CampaignSpec
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore

        spec = CampaignSpec(
            scheme="citadel", trials=4, mode="replay",
            workload="zipfian", requests=64, replay_cores=2, shard_size=2,
        )
        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(store, slots=1).start()
        try:
            job = scheduler.submit(spec)
            deadline = time.monotonic() + 120.0
            while not scheduler.job(job.id).state.terminal:
                assert time.monotonic() < deadline, "replay job timed out"
                time.sleep(0.05)
            assert scheduler.job(job.id).state.value == "done"
            result = scheduler.result(job.id)
            assert isinstance(result, ReplayResult)
            assert result.trials == 4
            # Resubmission is a pure cache hit.
            again = scheduler.submit(spec)
            assert again.cache_hit
        finally:
            scheduler.shutdown()
