"""Tests for the parallel sharded Monte-Carlo runner.

Covers the shard plan, worker-count independence, checkpoint/resume
round-trips, the wall-clock budget, graceful interrupt draining, stopping
across resume, fault tolerance when a worker crashes mid-campaign, and
campaign errors, which propagate instead.
The campaign-mechanics suites run on reliability shards and, via their
``TestReplay*`` subclasses, on replay shards; each runs in-process and,
via its ``*Pooled*`` subclasses, on pools of 2 and 4 workers.
"""

import json
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, ClassVar

import pytest

import repro.reliability.parallel as parallel_mod
from repro.core.parity3dp import make_1dp
from repro.ecc.base import FromScratch
from repro.errors import CheckpointError, ConfigurationError, ContractViolation
from repro.faults.rates import FailureRates
from repro.faults.types import FaultKind
from repro.reliability import (
    CrashInjection,
    ParallelLifetimeRunner,
    ReliabilityResult,
    ReliabilityWork,
    ShardWork,
    shard_plan,
)
from repro.reliability.montecarlo import EngineConfig
from repro.replay import ReplayConfig, ReplayWork
from repro.rng import derive_seed
from repro.telemetry.tracing import read_trace

#: High-ish fault rates so a few hundred trials produce failures.
RATES = FailureRates.paper_baseline(tsv_device_fit=100.0)

#: The campaign under test; the ``replay_campaign`` fixture switches all
#: three to a small replay campaign for the ``TestReplay*`` suites.
WORK = "reliability"
TRIALS = 800
SHARD = 200
#: The worker count ``make_runner`` defaults to; the ``pooled`` fixture
#: sets it to 2 and to 4.
WORKERS = 1


def make_runner(
    geometry, rates=RATES, collect_metrics=False, from_scratch=False,
    **kwargs,
):
    kwargs.setdefault("root_seed", 42)
    kwargs.setdefault("shard_size", SHARD)
    kwargs.setdefault("workers", WORKERS)
    model = make_1dp(geometry)
    if from_scratch:
        model = FromScratch(model)
    if WORK == "replay":
        work = ReplayWork(
            geometry, rates, model, EngineConfig(),
            ReplayConfig(cores=1, requests_per_core=1),
            collect_metrics=collect_metrics,
        )
    else:
        work = ReliabilityWork(
            geometry, rates, model,
            EngineConfig(collect_metrics=collect_metrics),
        )
    return ParallelLifetimeRunner(work, **kwargs)


def doc(result):
    return json.dumps(result.to_dict())


@pytest.fixture
def replay_campaign(monkeypatch):
    """Run the suite on replay shards: 8 trials in shards of 2 (replay
    trials cost milliseconds each, reliability trials microseconds)."""
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "WORK", "replay")
    monkeypatch.setattr(module, "TRIALS", 8)
    monkeypatch.setattr(module, "SHARD", 2)


@pytest.fixture(params=[2, 4])
def pooled(request, monkeypatch):
    """Run the suite on a process pool of 2, then of 4 workers."""
    monkeypatch.setattr(sys.modules[__name__], "WORKERS", request.param)


class TestShardPlan:
    def test_covers_trials_exactly(self):
        plan = shard_plan(1000, 300, root_seed=7)
        assert [s.trials for s in plan] == [300, 300, 300, 100]
        assert [s.index for s in plan] == [0, 1, 2, 3]

    def test_seeds_derived_from_root(self):
        plan = shard_plan(600, 200, root_seed=7)
        assert [s.seed for s in plan] == [
            derive_seed(7, "shard", i) for i in range(3)
        ]

    def test_independent_of_anything_else(self):
        assert shard_plan(1000, 300, 7) == shard_plan(1000, 300, 7)
        assert shard_plan(1000, 300, 7) != shard_plan(1000, 300, 8)

    def test_zero_trials_empty_plan(self):
        assert shard_plan(0, 100, 1) == []

    def test_invalid_plan_rejected(self):
        with pytest.raises(ContractViolation):
            shard_plan(100, 0, 1)
        with pytest.raises(ContractViolation):
            shard_plan(-1, 100, 1)


class TestWorkerCountIndependence:
    def test_two_workers_match_serial(self, geometry):
        serial = make_runner(geometry, workers=1).run(trials=TRIALS)
        pooled = make_runner(geometry, workers=2).run(trials=TRIALS)
        assert serial == pooled

    def test_matches_merged_per_shard_serial_runs(self, geometry):
        """The runner's aggregate is exactly the merge of the plan's
        shards run one by one through the serial engine."""
        from repro.reliability.montecarlo import LifetimeSimulator

        pooled = make_runner(geometry).run(trials=TRIALS)
        shards = []
        for spec in shard_plan(TRIALS, SHARD, root_seed=42):
            sim = LifetimeSimulator(
                geometry, RATES, make_1dp(geometry), EngineConfig(),
                seed=spec.seed,
            )
            shards.append(
                sim.run(trials=spec.trials, min_faults=pooled.min_faults)
            )
        assert ReliabilityResult.merge_all(shards) == pooled

    def test_zero_trials(self, geometry):
        result = make_runner(geometry).run(trials=0)
        assert result.trials == 0 and result.failures == 0


class TestCheckpointResume:
    def test_checkpoint_written_and_resumable(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        reference = make_runner(geometry).run(trials=TRIALS)
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        assert cp.exists()
        runner = make_runner(
            geometry, checkpoint_path=cp, resume=True
        )
        resumed = runner.run(trials=TRIALS)
        assert resumed == reference
        assert runner.last_report.resumed_shards == TRIALS // SHARD
        assert runner.last_report.completed_shards == 0

    def test_resume_after_crash_equals_uninterrupted(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        crashed = make_runner(
            geometry, checkpoint_path=cp,
            crash_injection=CrashInjection(raise_on=frozenset({1})),
        )
        partial = crashed.run(trials=TRIALS)
        assert partial.trials == TRIALS - SHARD  # shard 1 missing
        assert crashed.last_report.failed_shards == [1]
        assert crashed.last_report.partial

        resumed = make_runner(
            geometry, checkpoint_path=cp, resume=True
        ).run(trials=TRIALS)
        reference = make_runner(geometry).run(trials=TRIALS)
        assert resumed == reference

    def test_resume_after_budget_exhaustion(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        budgeted = make_runner(
            geometry, checkpoint_path=cp, time_budget_s=1e-9
        )
        partial = budgeted.run(trials=TRIALS)
        assert partial.trials == 0
        assert budgeted.last_report.budget_exhausted
        assert budgeted.last_report.partial

        resumed = make_runner(
            geometry, checkpoint_path=cp, resume=True
        ).run(trials=TRIALS)
        assert resumed == make_runner(geometry).run(trials=TRIALS)

    def test_one_checkpoint_write_per_shard(
        self, geometry, tmp_path, monkeypatch
    ):
        """Each merged shard is checkpointed as it completes; the end of
        the run writes again only when no shard completed in it."""
        writes = []
        real_write = parallel_mod.atomic_write_text

        def counting(path, text, **kwargs):
            writes.append(sorted(json.loads(text)["shards"], key=int))
            return real_write(path, text, **kwargs)

        monkeypatch.setattr(parallel_mod, "atomic_write_text", counting)
        cp = tmp_path / "cp.json"
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        shards = [str(i) for i in range(TRIALS // SHARD)]
        assert len(writes) == len(shards)
        assert writes[-1] == shards
        writes.clear()
        make_runner(
            geometry, checkpoint_path=cp, resume=True
        ).run(trials=TRIALS)
        assert writes == [shards]
        writes.clear()
        make_runner(
            geometry, checkpoint_path=tmp_path / "none.json",
            time_budget_s=1e-9,
        ).run(trials=TRIALS)
        assert writes == [[]]

    def test_each_shard_encoded_once(self, geometry, tmp_path, monkeypatch):
        """A write joins cached shard fragments: over a run, each shard
        is encoded once however many writes carry it, and the file still
        reads back as one ``{"fingerprint", "shards"}`` object."""
        encoded = []
        real_fragment = parallel_mod._fragment

        def counting(value):
            if "work" not in value:  # the fingerprint is encoded per write
                encoded.append(value)
            return real_fragment(value)

        monkeypatch.setattr(parallel_mod, "_fragment", counting)
        cp = tmp_path / "cp.json"
        reference = make_runner(geometry).run(trials=TRIALS)
        first = make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        shards = TRIALS // SHARD
        assert len(encoded) == shards
        payload = json.loads(cp.read_text())
        assert sorted(payload) == ["fingerprint", "shards"]
        assert sorted(payload["shards"], key=int) == [
            str(i) for i in range(shards)
        ]
        assert sorted(json.dumps(v, sort_keys=True) for v in encoded) == sorted(
            json.dumps(v, sort_keys=True) for v in payload["shards"].values()
        )
        encoded.clear()
        resumed = make_runner(
            geometry, checkpoint_path=cp, resume=True
        ).run(trials=TRIALS)
        assert len(encoded) == shards
        assert doc(first) == doc(reference) == doc(resumed)

    def test_foreign_checkpoint_rejected(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        other = make_runner(
            geometry, root_seed=43, checkpoint_path=cp, resume=True
        )
        with pytest.raises(CheckpointError):
            other.run(trials=TRIALS)

    def test_corrupt_checkpoint_rejected(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        payload = json.loads(cp.read_text())
        for corrupt in (
            "{not json",
            "[]",  # valid JSON, not an object
            json.dumps({**payload, "shards": []}),  # shard table not an object
        ):
            cp.write_text(corrupt)
            with pytest.raises(CheckpointError):
                make_runner(
                    geometry, checkpoint_path=cp, resume=True
                ).run(trials=TRIALS)

    def test_fingerprint_field_drift_rejected(self, geometry, tmp_path):
        """A checkpoint written before the engine config grew a field:
        field names are fingerprint keys, so it belongs to another
        campaign."""
        cp = tmp_path / "cp.json"
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        payload = json.loads(cp.read_text())
        work = payload["fingerprint"]["work"]
        del work["engine_config" if WORK == "replay" else "config"]["sampling"]
        cp.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="different campaign"):
            make_runner(
                geometry, checkpoint_path=cp, resume=True
            ).run(trials=TRIALS)

    def resume_edited_shard(self, geometry, tmp_path, edit, **kwargs):
        """Checkpoint a campaign, apply ``edit`` to shard 0, resume."""
        cp = tmp_path / "cp.json"
        make_runner(
            geometry, checkpoint_path=cp, **kwargs
        ).run(trials=TRIALS)
        payload = json.loads(cp.read_text())
        edit(payload["shards"]["0"])
        cp.write_text(json.dumps(payload))
        make_runner(
            geometry, checkpoint_path=cp, resume=True, **kwargs
        ).run(trials=TRIALS)

    def test_shard_with_added_key_rejected(self, geometry, tmp_path):
        """A shard written under a result schema with one more field
        does not round-trip through ``from_dict``/``to_dict``."""
        with pytest.raises(CheckpointError, match="round-trip"):
            self.resume_edited_shard(
                geometry, tmp_path, lambda shard: shard.update(extra=0)
            )

    def test_shard_with_removed_key_rejected(self, geometry, tmp_path):
        """A shard written under a result schema with one field fewer:
        ``from_dict`` fills in the default, so the round trip adds the
        key back."""
        with pytest.raises(CheckpointError, match="round-trip"):
            self.resume_edited_shard(
                geometry, tmp_path,
                lambda shard: shard["metrics"].pop("timers"),
                collect_metrics=True,
            )

    @pytest.mark.parametrize("written, resumed", [(False, True), (True, False)])
    def test_resume_under_other_collect_metrics_rejected(
        self, geometry, tmp_path, written, resumed
    ):
        """Telemetry adds ``metrics`` to every shard, so a checkpoint
        written with it off cannot finish a campaign with it on, nor the
        reverse."""
        cp = tmp_path / "cp.json"
        make_runner(
            geometry, checkpoint_path=cp, collect_metrics=written
        ).run(trials=TRIALS)
        other = make_runner(
            geometry, checkpoint_path=cp, resume=True,
            collect_metrics=resumed,
        )
        with pytest.raises(CheckpointError, match="different campaign"):
            other.run(trials=TRIALS)

    @pytest.mark.parametrize("written, resumed", [(False, True), (True, False)])
    def test_from_scratch_and_incremental_resume_each_other(
        self, geometry, tmp_path, written, resumed
    ):
        """The from-scratch oracle computes the same campaign, so either
        path finishes the other's checkpoint byte-identically."""
        cp = tmp_path / "cp.json"
        make_runner(
            geometry, checkpoint_path=cp, from_scratch=written,
            crash_injection=CrashInjection(raise_on=frozenset({1})),
        ).run(trials=TRIALS)
        runner = make_runner(
            geometry, checkpoint_path=cp, resume=True,
            from_scratch=resumed,
        )
        resumed_result = runner.run(trials=TRIALS)
        assert runner.last_report.resumed_shards == TRIALS // SHARD - 1
        assert runner.last_report.completed_shards == 1
        reference = make_runner(geometry).run(trials=TRIALS)
        assert doc(resumed_result) == doc(reference)

    def test_checkpoint_is_valid_json_shard_table(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        payload = json.loads(cp.read_text())
        assert sorted(payload["shards"]) == ["0", "1", "2", "3"]
        shard0 = ReliabilityResult.from_dict(payload["shards"]["0"])
        assert shard0.trials == SHARD

    def test_resume_under_other_die_fit_rejected(self, geometry, tmp_path):
        """The fingerprint covers the whole FailureRates, not just the
        TSV FIT: a different die-FIT table is a different campaign."""
        cp = tmp_path / "cp.json"
        make_runner(geometry, checkpoint_path=cp).run(trials=TRIALS)
        die_fit = dict(RATES.die_fit)
        die_fit[FaultKind.BIT] = (0.0, 0.0)
        other = make_runner(
            geometry, rates=replace(RATES, die_fit=die_fit),
            checkpoint_path=cp, resume=True,
        )
        with pytest.raises(CheckpointError):
            other.run(trials=TRIALS)

    def test_concurrent_checkpoint_writes_never_tear(self, geometry, tmp_path):
        cp = tmp_path / "cp.json"
        runner = make_runner(geometry, checkpoint_path=cp)
        shard = runner.run(trials=SHARD)
        errors = []

        def writer(offset):
            try:
                for i in range(100):
                    runner._write_checkpoint({offset + i: shard}, {"w": offset})
            except Exception as exc:  # collected, asserted below
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(n * 1000,)) for n in (1, 2)
        ]
        for thread in threads:
            thread.start()
        while any(thread.is_alive() for thread in threads):
            assert len(json.loads(cp.read_text())["shards"]) == 1
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cp.json"]


class TestFaultTolerance:
    def test_worker_exception_yields_accurate_partial(self, geometry):
        runner = make_runner(
            geometry, crash_injection=CrashInjection(raise_on=frozenset({2})),
        )
        result = runner.run(trials=TRIALS)
        report = runner.last_report
        assert report.failed_shards == [2]
        assert report.merged_shards == 3
        # No double counting, no hang: exactly the three surviving
        # shards' trials are reported.
        assert result.trials == TRIALS - SHARD
        assert result.failures <= result.trials

    def test_hard_worker_death_yields_partial_not_hang(self, geometry):
        runner = make_runner(
            geometry, workers=2,
            crash_injection=CrashInjection(exit_on=frozenset({1})),
        )
        result = runner.run(trials=TRIALS)
        report = runner.last_report
        assert report.pool_broken
        assert report.partial
        assert 1 in report.failed_shards
        # Trial count matches exactly the shards that completed.
        assert result.trials == SHARD * report.merged_shards
        assert result.trials < TRIALS

    @pytest.mark.parametrize("workers", [2, 4])
    def test_broken_pool_fails_only_shards_in_flight(self, geometry, workers):
        """A dead worker fails the shards in flight, at most two per
        worker, never the shards that were still to be dispatched."""
        shard_size = max(1, SHARD // 4)
        runner = make_runner(
            geometry, workers=workers, shard_size=shard_size,
            crash_injection=CrashInjection(exit_on=frozenset({1})),
        )
        result = runner.run(trials=TRIALS)
        report = runner.last_report
        assert report.pool_broken
        assert 1 in report.failed_shards
        assert len(report.failed_shards) <= 2 * workers
        assert result.trials == shard_size * report.merged_shards


@dataclass(frozen=True)
class RejectingWork(ShardWork):
    """Shard 0 raises a campaign error, which is not a worker crash.
    Every shard first leaves a marker file, so a test can count the
    shards that started."""

    result_type: ClassVar[Any] = ReliabilityResult
    marker_dir: str
    label: str = "rejecting"

    def run_shard(self, spec, root_seed, tracer=None):
        Path(self.marker_dir, str(spec.index)).touch()
        if spec.index == 0:
            raise ConfigurationError("shard 0 rejects its configuration")
        time.sleep(0.2)
        return ReliabilityResult(
            scheme_name=self.label, trials=spec.trials, failures=0,
            lifetime_hours=1.0,
        ).to_dict()


class TestCampaignErrors:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_campaign_error_propagates_and_stops_dispatch(
        self, tmp_path, workers
    ):
        runner = ParallelLifetimeRunner(
            RejectingWork(str(tmp_path)), workers=workers, shard_size=1
        )
        with pytest.raises(ConfigurationError, match="rejects"):
            runner.run(trials=40)
        # Only the shards in flight ran: the runner keeps at most two per
        # worker in flight.
        assert len(list(tmp_path.iterdir())) < 10


@dataclass(frozen=True)
class MarkingWork(ShardWork):
    """Every shard sleeps, then leaves a marker file as it finishes, so
    a test can count the shards that ran to the end."""

    result_type: ClassVar[Any] = ReliabilityResult
    marker_dir: str
    label: str = "marking"

    def run_shard(self, spec, root_seed, tracer=None):
        time.sleep(0.05)
        Path(self.marker_dir, str(spec.index)).touch()
        return ReliabilityResult(
            scheme_name=self.label, trials=spec.trials, failures=0,
            lifetime_hours=1.0,
        ).to_dict()


class TestNoWaste:
    """Cancel and budget end dispatch, but every shard that finishes is
    merged: none runs only to be thrown away."""

    def run_marking(self, tmp_path, workers, **kwargs):
        runner = ParallelLifetimeRunner(
            MarkingWork(str(tmp_path)), workers=workers, shard_size=1,
            **kwargs,
        )
        result = runner.run(trials=40)
        report = runner.last_report
        finished = len(list(tmp_path.iterdir()))
        assert finished == report.completed_shards == report.merged_shards
        assert result.trials == report.merged_shards
        return report

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_cancel_wastes_no_shard(self, tmp_path, workers):
        polls = []

        def hook():
            polls.append(True)
            return len(polls) > 1

        report = self.run_marking(tmp_path, workers, cancel_hook=hook)
        assert report.cancelled
        assert report.merged_shards == 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_budget_wastes_no_shard(self, tmp_path, workers):
        # 40 shards of 50 ms take at least 0.5 s on four workers.
        report = self.run_marking(tmp_path, workers, time_budget_s=0.12)
        assert report.budget_exhausted
        assert report.partial


class TestInterrupt:
    def test_keyboard_interrupt_drains_to_partial(self, geometry, monkeypatch):
        real_run_shard = parallel_mod._run_shard
        seen = []

        def interrupting(task):
            if task.spec.index == 2:
                raise KeyboardInterrupt
            seen.append(task.spec.index)
            return real_run_shard(task)

        monkeypatch.setattr(parallel_mod, "_run_shard", interrupting)
        runner = make_runner(geometry, workers=1)
        result = runner.run(trials=TRIALS)
        assert runner.last_report.interrupted
        assert runner.last_report.partial
        assert result.trials == 2 * SHARD
        assert seen == [0, 1]

    def test_interrupt_checkpoints_completed_shards(
        self, geometry, tmp_path, monkeypatch
    ):
        real_run_shard = parallel_mod._run_shard

        def interrupting(task):
            if task.spec.index == 1:
                raise KeyboardInterrupt
            return real_run_shard(task)

        cp = tmp_path / "cp.json"
        monkeypatch.setattr(parallel_mod, "_run_shard", interrupting)
        make_runner(geometry, workers=1, checkpoint_path=cp).run(trials=TRIALS)
        monkeypatch.setattr(parallel_mod, "_run_shard", real_run_shard)
        resumed = make_runner(
            geometry, workers=1, checkpoint_path=cp, resume=True
        ).run(trials=TRIALS)
        assert resumed == make_runner(geometry, workers=1).run(trials=TRIALS)

    def interrupt_waits(self, geometry, tmp_path, monkeypatch, workers,
                        interrupted_calls):
        """Run a checkpointed campaign whose ``interrupted_calls`` (by
        count) of the runner's ``wait`` raise ``KeyboardInterrupt``:
        check the partial result and checkpoint, then resume it."""
        real_wait = parallel_mod.wait
        calls = []

        def interrupting_wait(*args, **kwargs):
            calls.append(True)
            if len(calls) in interrupted_calls:
                raise KeyboardInterrupt
            return real_wait(*args, **kwargs)

        # More shards than three windows of in-flight shards hold.
        shard_size = max(1, SHARD // 10)
        trials = 40 * shard_size
        cp = tmp_path / "cp.json"
        monkeypatch.setattr(parallel_mod, "wait", interrupting_wait)
        runner = make_runner(
            geometry, workers=workers, shard_size=shard_size,
            checkpoint_path=cp,
        )
        result = runner.run(trials=trials)
        monkeypatch.setattr(parallel_mod, "wait", real_wait)
        report = runner.last_report
        assert report.interrupted
        assert report.partial
        assert result.trials == shard_size * report.merged_shards
        checkpointed = json.loads(cp.read_text())["shards"]
        assert len(checkpointed) == report.completed_shards
        assert report.completed_shards == report.merged_shards
        resumed = make_runner(
            geometry, workers=workers, shard_size=shard_size,
            checkpoint_path=cp, resume=True,
        ).run(trials=trials)
        assert resumed == make_runner(
            geometry, shard_size=shard_size
        ).run(trials=trials)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_interrupt_drains_shards_in_flight(
        self, geometry, tmp_path, monkeypatch, workers
    ):
        """An interrupt on the runner's side (here: its third wait for a
        shard) ends dispatch; every shard in flight is still merged and
        checkpointed."""
        self.interrupt_waits(geometry, tmp_path, monkeypatch, workers, {3})

    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_interrupt_ends_the_drain(
        self, geometry, tmp_path, monkeypatch, workers
    ):
        """A second interrupt (the fourth wait, during the drain) ends
        the run, which still returns the partial merge and writes the
        checkpoint."""
        self.interrupt_waits(
            geometry, tmp_path, monkeypatch, workers, {3, 4}
        )


class TestStoppingResume:
    """Anytime-valid stopping x checkpoint/resume (ISSUE 7 satellite).

    A stopped importance-sampled campaign resumed from a checkpoint must
    reach the *same* stopping decision and produce byte-identical results
    as an uninterrupted run.  The stop index is a pure function of the
    contiguous merged prefix, so neither the interrupt point nor the
    worker count may leak into the outcome.
    """

    #: Calibrated so the confidence sequence fires at shard 7 of 20 for
    #: this geometry/rates/seed -- early enough that an interrupt at
    #: shard 2 lands well before the stop.
    WIDTH = 0.02
    TRIALS = 4000

    def make_stopping_runner(self, geometry, **kwargs):
        kwargs.setdefault("root_seed", 42)
        kwargs.setdefault("shard_size", SHARD)
        config = EngineConfig(sampling="importance", target_ci_width=self.WIDTH)
        return ParallelLifetimeRunner(
            ReliabilityWork(geometry, RATES, make_1dp(geometry), config),
            **kwargs,
        )

    def test_stop_fires_mid_campaign(self, geometry):
        runner = self.make_stopping_runner(geometry, workers=1)
        result = runner.run(trials=self.TRIALS)
        report = runner.last_report
        assert report.stopped_early
        assert not report.partial
        assert 0 < result.trials < self.TRIALS
        assert report.merged_shards < self.TRIALS // SHARD

    def test_resume_reaches_same_stopping_decision(
        self, geometry, tmp_path, monkeypatch
    ):
        uninterrupted_runner = self.make_stopping_runner(geometry, workers=1)
        uninterrupted = uninterrupted_runner.run(trials=self.TRIALS)
        assert uninterrupted_runner.last_report.stopped_early

        real_run_shard = parallel_mod._run_shard

        def interrupting(task):
            if task.spec.index == 2:
                raise KeyboardInterrupt
            return real_run_shard(task)

        cp = tmp_path / "cp.json"
        monkeypatch.setattr(parallel_mod, "_run_shard", interrupting)
        interrupted = self.make_stopping_runner(
            geometry, workers=1, checkpoint_path=cp
        )
        interrupted.run(trials=self.TRIALS)
        assert interrupted.last_report.interrupted
        assert not interrupted.last_report.stopped_early

        monkeypatch.setattr(parallel_mod, "_run_shard", real_run_shard)
        resumed_runner = self.make_stopping_runner(
            geometry, workers=1, checkpoint_path=cp, resume=True
        )
        resumed = resumed_runner.run(trials=self.TRIALS)
        report = resumed_runner.last_report
        assert report.stopped_early
        assert report.merged_shards == (
            uninterrupted_runner.last_report.merged_shards
        )
        assert json.dumps(resumed.to_dict(), sort_keys=True) == json.dumps(
            uninterrupted.to_dict(), sort_keys=True
        )

    def test_stopped_campaign_worker_count_independent(self, geometry):
        serial = self.make_stopping_runner(geometry, workers=1)
        pooled = self.make_stopping_runner(geometry, workers=4)
        a = serial.run(trials=self.TRIALS)
        b = pooled.run(trials=self.TRIALS)
        assert serial.last_report.stopped_early
        assert pooled.last_report.stopped_early
        assert serial.last_report.merged_shards == pooled.last_report.merged_shards
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )


class TestValidation:
    def test_bad_worker_count_rejected(self, geometry):
        with pytest.raises(ContractViolation):
            make_runner(geometry, workers=0)


class TestCancelHook:
    """Cooperative cancellation between shards (the campaign service's
    cancel path: the hook polls a job's cancel event)."""

    def test_hook_cancels_between_shards(self, geometry):
        calls = []

        def hook():
            # False before shard 0, True before shard 1: exactly one
            # shard runs, then the campaign drains gracefully.
            calls.append(True)
            return len(calls) > 1

        runner = make_runner(geometry, cancel_hook=hook)
        partial = runner.run(trials=TRIALS)
        report = runner.last_report
        assert report.cancelled
        assert report.partial
        assert report.merged_shards == 1
        assert partial.trials == SHARD
        # The completed shard is byte-identical to the same shard of an
        # uncancelled run (cancellation never corrupts merged work).
        full = make_runner(geometry).run(trials=TRIALS)
        assert partial.trials < full.trials

    def test_hook_true_from_start_runs_nothing(self, geometry):
        runner = make_runner(geometry, cancel_hook=lambda: True)
        result = runner.run(trials=TRIALS)
        assert runner.last_report.cancelled
        assert runner.last_report.merged_shards == 0
        assert result.trials == 0

    def test_no_hook_means_no_cancellation(self, geometry):
        runner = make_runner(geometry)
        runner.run(trials=TRIALS)
        assert runner.last_report.cancelled is False


# ---------------------------------------------------------------------- #
# The same campaign mechanics on replay shards
# ---------------------------------------------------------------------- #
@pytest.mark.usefixtures("replay_campaign")
class TestReplayWorkerCountIndependence(TestWorkerCountIndependence):
    # Compares against LifetimeSimulator runs: reliability only.
    test_matches_merged_per_shard_serial_runs = None


@pytest.mark.usefixtures("replay_campaign")
class TestReplayCheckpointResume(TestCheckpointResume):
    # Parses the shard table as ReliabilityResult: reliability only.
    test_checkpoint_is_valid_json_shard_table = None


@pytest.mark.usefixtures("replay_campaign")
class TestReplayFaultTolerance(TestFaultTolerance):
    pass


@pytest.mark.usefixtures("replay_campaign")
class TestReplayInterrupt(TestInterrupt):
    pass


@pytest.mark.usefixtures("replay_campaign")
class TestReplayCancelHook(TestCancelHook):
    pass


class TestTraceForm:
    """One ``shard_completed`` event per completed shard at any worker
    count; an in-process shard also keeps its ``shard`` span."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_event_per_completed_shard(self, geometry, tmp_path, workers):
        trace = tmp_path / "trace.jsonl"
        runner = make_runner(
            geometry, workers=workers, shard_size=10, trace_path=trace
        )
        runner.run(trials=40)
        records = read_trace(trace)
        completions = [r for r in records if r.name == "shard_completed"]
        assert len(completions) == runner.last_report.completed_shards
        trials = {r.path for r in records if r.name == "trial"}
        if workers == 1:
            assert trials == {"campaign/shard/trial"}
        else:
            assert trials == set()


# ---------------------------------------------------------------------- #
# The campaign mechanics on process pools of 2 and 4 workers
# ---------------------------------------------------------------------- #
@pytest.mark.usefixtures("pooled")
class TestPooledWorkerCountIndependence(TestWorkerCountIndependence):
    # Compares fixed worker counts.
    test_two_workers_match_serial = None


@pytest.mark.usefixtures("pooled")
class TestPooledCheckpointResume(TestCheckpointResume):
    pass


@pytest.mark.usefixtures("pooled")
class TestPooledFaultTolerance(TestFaultTolerance):
    # Pool-only tests that fix their own worker counts.
    test_hard_worker_death_yields_partial_not_hang = None
    test_broken_pool_fails_only_shards_in_flight = None


@pytest.mark.usefixtures("pooled")
class TestPooledCancelHook(TestCancelHook):
    pass


class TestReplayPooledWorkerCountIndependence(
    TestPooledWorkerCountIndependence, TestReplayWorkerCountIndependence
):
    pass


class TestReplayPooledCheckpointResume(
    TestPooledCheckpointResume, TestReplayCheckpointResume
):
    pass


class TestReplayPooledFaultTolerance(
    TestPooledFaultTolerance, TestReplayFaultTolerance
):
    pass


class TestReplayPooledCancelHook(TestPooledCancelHook, TestReplayCancelHook):
    pass

