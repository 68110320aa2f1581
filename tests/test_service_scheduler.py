"""Tests for the campaign scheduler.

Uses the injectable ``executor`` hook so lifecycle, dedupe, retry,
cancellation, and fair-share behaviour can be exercised without running
Monte-Carlo; the real-executor path (ParallelLifetimeRunner end to end)
is covered in ``test_service_http.py``.  Every test drives a real
worker pool — these are genuine concurrency tests, kept fast by
zero-backoff retries and event-gated stub executors.
"""

import threading

import pytest

from repro.errors import (
    JobFailedError,
    JobNotFoundError,
    ReproError,
    ResultNotReadyError,
    ServiceError,
    StoreError,
)
from repro.reliability.parallel import CampaignReport
from repro.reliability.results import ReliabilityResult
from repro.service.jobs import CampaignSpec, JobState
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore

WAIT_S = 10.0  # generous per-event timeout; tests normally finish in ms


def make_spec(seed=0, **overrides):
    overrides.setdefault("scheme", "secded")
    overrides.setdefault("trials", 500)
    return CampaignSpec(seed=seed, **overrides)


def make_result(spec):
    return ReliabilityResult(
        scheme_name=spec.scheme,
        trials=spec.effective_trials,
        failures=spec.seed % 5,
        lifetime_hours=61320.0,
        failure_times_hours=[50.0 * (i + 1) for i in range(spec.seed % 5)],
    )


class StubExecutor:
    """Scriptable executor: records calls, can block, fail, or crash."""

    def __init__(self, fail_attempts=0, crashed_shards=0, gate=None):
        self.fail_attempts = fail_attempts
        self.crashed_shards = crashed_shards
        self.gate = gate  # threading.Event the executor waits on
        self.calls = []
        self.started = threading.Event()
        self._lock = threading.Lock()

    def __call__(self, spec, workers, cancel_event):
        with self._lock:
            self.calls.append((spec.spec_hash(), workers))
            attempt = len(self.calls)
        self.started.set()
        if self.gate is not None:
            # Simulate a long campaign that polls its cancel hook.
            while not self.gate.wait(timeout=0.01):
                if cancel_event.is_set():
                    report = CampaignReport(planned_shards=1, cancelled=True)
                    return ReliabilityResult.identity(), report
        if attempt <= self.fail_attempts:
            if self.crashed_shards:
                report = CampaignReport(
                    planned_shards=4,
                    merged_shards=4 - self.crashed_shards,
                    failed_shards=list(range(self.crashed_shards)),
                )
                return make_result(spec), report
            raise ReproError(f"injected failure on attempt {attempt}")
        report = CampaignReport(planned_shards=1, merged_shards=1)
        return make_result(spec), report


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def make_scheduler(store, executor, **kwargs):
    kwargs.setdefault("slots", 2)
    kwargs.setdefault("retry_backoff_s", 0.0)
    return CampaignScheduler(store, executor=executor, **kwargs)


def wait_terminal(scheduler, job, timeout_s=WAIT_S):
    deadline_event = threading.Event()
    for _ in range(int(timeout_s / 0.01)):
        if job.state.terminal:
            return job
        deadline_event.wait(timeout=0.01)
    raise AssertionError(f"job {job.id} stuck in {job.state}")


class TestLifecycle:
    def test_submit_run_done(self, store):
        executor = StubExecutor()
        scheduler = make_scheduler(store, executor).start()
        try:
            spec = make_spec(seed=1)
            job = scheduler.submit(spec)
            wait_terminal(scheduler, job)
            assert job.state is JobState.DONE
            assert job.cache_hit is False
            assert job.attempts == 1
            assert store.contains(spec)
            assert scheduler.result(job.id).to_dict() == (
                make_result(spec).to_dict()
            )
        finally:
            scheduler.shutdown()

    def test_result_not_ready_while_queued(self, store):
        gate = threading.Event()
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor, slots=1).start()
        try:
            job = scheduler.submit(make_spec(seed=1))
            executor.started.wait(WAIT_S)
            with pytest.raises(ResultNotReadyError):
                scheduler.result(job.id)
        finally:
            gate.set()
            scheduler.shutdown()

    def test_unknown_job_rejected(self, store):
        scheduler = make_scheduler(store, StubExecutor())
        with pytest.raises(JobNotFoundError):
            scheduler.job("nope")
        with pytest.raises(JobNotFoundError):
            scheduler.result("nope")
        scheduler.shutdown()

    def test_submit_after_shutdown_rejected(self, store):
        scheduler = make_scheduler(store, StubExecutor()).start()
        scheduler.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            scheduler.submit(make_spec())

    def test_evicted_result_raises_store_error(self, tmp_path):
        store = ResultStore(tmp_path / "store", max_disk_entries=1)
        scheduler = make_scheduler(store, StubExecutor()).start()
        try:
            first = scheduler.submit(make_spec(seed=1))
            wait_terminal(scheduler, first)
            second = scheduler.submit(make_spec(seed=2))
            wait_terminal(scheduler, second)
            # seed=1's entry was evicted by seed=2's.
            with pytest.raises(StoreError, match="evicted"):
                scheduler.result(first.id)
        finally:
            scheduler.shutdown()

    def test_counts_tally_states(self, store):
        scheduler = make_scheduler(store, StubExecutor()).start()
        try:
            job = scheduler.submit(make_spec(seed=1))
            wait_terminal(scheduler, job)
            counts = scheduler.counts()
            assert counts["done"] == 1
            assert sum(counts.values()) == 1
        finally:
            scheduler.shutdown()


class TestDedupe:
    def test_resubmit_is_store_hit_without_reexecution(self, store):
        executor = StubExecutor()
        scheduler = make_scheduler(store, executor).start()
        try:
            spec = make_spec(seed=1)
            first = scheduler.submit(spec)
            wait_terminal(scheduler, first)
            second = scheduler.submit(spec)
            assert second.state is JobState.DONE  # instantly, no queueing
            assert second.cache_hit is True
            assert len(executor.calls) == 1
            assert scheduler.result(second.id).to_dict() == (
                scheduler.result(first.id).to_dict()
            )
            counters = scheduler.metrics.to_dict()["counters"]
            assert counters["service/cache_hits"] == 1
            assert counters["service/cache_misses"] == 1
        finally:
            scheduler.shutdown()

    def test_scaled_spec_hits_the_unscaled_entry(self, store):
        """``scale`` only divides ``trials``, so a scaled submission and
        the unscaled one of the same trial count are one campaign."""
        executor = StubExecutor()
        scheduler = make_scheduler(store, executor).start()
        try:
            first = scheduler.submit(make_spec(seed=3, trials=3000, scale=10))
            wait_terminal(scheduler, first)
            second = scheduler.submit(make_spec(seed=3, trials=300))
            assert second.state is JobState.DONE
            assert second.cache_hit is True
            assert len(executor.calls) == 1
        finally:
            scheduler.shutdown()

    def test_concurrent_identical_submissions_execute_once(self, store):
        """The satellite requirement: two simultaneous submissions of
        the same spec yield ONE execution and one cache hit, and both
        jobs serve byte-identical results."""
        gate = threading.Event()
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor).start()
        try:
            spec = make_spec(seed=7)
            primary = scheduler.submit(spec)
            executor.started.wait(WAIT_S)  # primary is mid-execution
            follower = scheduler.submit(spec)
            assert follower.state is JobState.QUEUED
            gate.set()
            wait_terminal(scheduler, primary)
            wait_terminal(scheduler, follower)
            assert primary.state is JobState.DONE
            assert follower.state is JobState.DONE
            assert primary.cache_hit is False
            assert follower.cache_hit is True
            assert len(executor.calls) == 1  # exactly one execution
            assert scheduler.result(primary.id).to_dict() == (
                scheduler.result(follower.id).to_dict()
            )
            counters = scheduler.metrics.to_dict()["counters"]
            assert counters["service/dedup_joins"] == 1
            assert counters["service/cache_hits"] == 1
        finally:
            scheduler.shutdown()

    def test_different_specs_both_execute(self, store):
        executor = StubExecutor()
        scheduler = make_scheduler(store, executor).start()
        try:
            a = scheduler.submit(make_spec(seed=1))
            b = scheduler.submit(make_spec(seed=2))
            wait_terminal(scheduler, a)
            wait_terminal(scheduler, b)
            assert len(executor.calls) == 2
        finally:
            scheduler.shutdown()

    def test_follower_promoted_when_primary_fails(self, store):
        """A follower must not be stranded by its primary's failure —
        it gets promoted and runs on its own retry budget."""
        gate = threading.Event()

        class FlakyExecutor(StubExecutor):
            def __call__(self, executor_spec, workers, cancel_event):
                with self._lock:
                    self.calls.append((executor_spec.spec_hash(), workers))
                    attempt = len(self.calls)
                self.started.set()
                if attempt == 1:
                    gate.wait(WAIT_S)
                    raise ReproError("primary dies")
                report = CampaignReport(planned_shards=1, merged_shards=1)
                return make_result(executor_spec), report

        executor = FlakyExecutor()
        scheduler = make_scheduler(store, executor, slots=1).start()
        try:
            spec = make_spec(seed=3)
            primary = scheduler.submit(spec, max_retries=0)
            executor.started.wait(WAIT_S)
            follower = scheduler.submit(spec, max_retries=0)
            gate.set()
            wait_terminal(scheduler, primary)
            wait_terminal(scheduler, follower)
            assert primary.state is JobState.FAILED
            assert follower.state is JobState.DONE
            assert follower.cache_hit is False  # it ran for real
            assert len(executor.calls) == 2
        finally:
            scheduler.shutdown()


class TestRetries:
    def test_retry_then_success(self, store):
        executor = StubExecutor(fail_attempts=2)
        scheduler = make_scheduler(store, executor).start()
        try:
            job = scheduler.submit(make_spec(seed=1), max_retries=2)
            wait_terminal(scheduler, job)
            assert job.state is JobState.DONE
            assert job.attempts == 3
            counters = scheduler.metrics.to_dict()["counters"]
            assert counters["service/jobs_retried"] == 2
        finally:
            scheduler.shutdown()

    def test_crashed_shards_trigger_retry(self, store):
        """An incomplete campaign (crashed shards) is retried rather
        than filed: the store only ever holds complete campaigns."""
        executor = StubExecutor(fail_attempts=1, crashed_shards=2)
        scheduler = make_scheduler(store, executor).start()
        try:
            spec = make_spec(seed=1)
            job = scheduler.submit(spec, max_retries=1)
            wait_terminal(scheduler, job)
            assert job.state is JobState.DONE
            assert job.attempts == 2
        finally:
            scheduler.shutdown()

    def test_exhausted_retries_fail_the_job(self, store):
        executor = StubExecutor(fail_attempts=99)
        scheduler = make_scheduler(store, executor).start()
        try:
            spec = make_spec(seed=1)
            job = scheduler.submit(spec, max_retries=1)
            wait_terminal(scheduler, job)
            assert job.state is JobState.FAILED
            assert job.attempts == 2
            assert "injected failure" in job.error
            assert not store.contains(spec)
            with pytest.raises(JobFailedError, match="failed"):
                scheduler.result(job.id)
            counters = scheduler.metrics.to_dict()["counters"]
            assert counters["service/jobs_failed"] == 1
        finally:
            scheduler.shutdown()


class TestCancellation:
    def test_cancel_queued_job(self, store):
        gate = threading.Event()
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor, slots=1).start()
        try:
            blocker = scheduler.submit(make_spec(seed=1))
            executor.started.wait(WAIT_S)
            queued = scheduler.submit(make_spec(seed=2))
            cancelled = scheduler.cancel(queued.id)
            assert cancelled.state is JobState.CANCELLED
            gate.set()
            wait_terminal(scheduler, blocker)
            # The cancelled job never reached the executor.
            assert len(executor.calls) == 1
            with pytest.raises(JobFailedError, match="cancelled"):
                scheduler.result(queued.id)
        finally:
            gate.set()
            scheduler.shutdown()

    def test_cancel_running_job_is_cooperative(self, store):
        gate = threading.Event()  # never set: only cancel can end it
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor, slots=1).start()
        try:
            spec = make_spec(seed=1)
            job = scheduler.submit(spec)
            executor.started.wait(WAIT_S)
            scheduler.cancel(job.id)
            wait_terminal(scheduler, job)
            assert job.state is JobState.CANCELLED
            assert not store.contains(spec)  # partial result never filed
            counters = scheduler.metrics.to_dict()["counters"]
            assert counters["service/jobs_cancelled"] == 1
        finally:
            scheduler.shutdown()

    def test_cancel_is_idempotent_on_terminal_jobs(self, store):
        scheduler = make_scheduler(store, StubExecutor()).start()
        try:
            job = scheduler.submit(make_spec(seed=1))
            wait_terminal(scheduler, job)
            assert scheduler.cancel(job.id).state is JobState.DONE
        finally:
            scheduler.shutdown()

    def test_cancelled_primary_promotes_follower(self, store):
        gate = threading.Event()
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor, slots=1).start()
        try:
            blocker = scheduler.submit(make_spec(seed=1))
            executor.started.wait(WAIT_S)
            spec = make_spec(seed=2)
            primary = scheduler.submit(spec)  # queued behind blocker
            follower = scheduler.submit(spec)
            scheduler.cancel(primary.id)
            assert primary.state is JobState.CANCELLED
            gate.set()
            wait_terminal(scheduler, blocker)
            wait_terminal(scheduler, follower)
            assert follower.state is JobState.DONE
        finally:
            gate.set()
            scheduler.shutdown()


class TestScheduling:
    def test_priority_order(self, store):
        gate = threading.Event()
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor, slots=1).start()
        try:
            blocker = scheduler.submit(make_spec(seed=0))
            executor.started.wait(WAIT_S)
            low = scheduler.submit(make_spec(seed=1), priority=0)
            high = scheduler.submit(make_spec(seed=2), priority=10)
            gate.set()
            for job in (blocker, low, high):
                wait_terminal(scheduler, job)
            order = [call[0] for call in executor.calls]
            assert order.index(high.spec_hash) < order.index(low.spec_hash)
        finally:
            scheduler.shutdown()

    def test_fair_share_process_budget(self, store):
        """Two concurrent jobs on a budget of 8 get 4 workers each,
        capped at what each job asked for."""
        gate = threading.Event()
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(
            store, executor, slots=2, process_budget=8
        ).start()
        try:
            a = scheduler.submit(make_spec(seed=1), workers=8)
            b = scheduler.submit(make_spec(seed=2), workers=2)
            for _ in range(int(WAIT_S / 0.01)):
                if len(executor.calls) >= 2:
                    break
                executor.started.wait(timeout=0.01)
            gate.set()
            wait_terminal(scheduler, a)
            wait_terminal(scheduler, b)
            allotted = dict(executor.calls)
            assert allotted[a.spec_hash] <= 8
            assert allotted[b.spec_hash] <= 2  # never above its request
            assert all(workers >= 1 for workers in allotted.values())
        finally:
            scheduler.shutdown()

    def test_graceful_drain_finishes_queued_work(self, store):
        executor = StubExecutor()
        scheduler = make_scheduler(store, executor, slots=1).start()
        jobs = [scheduler.submit(make_spec(seed=i)) for i in range(4)]
        scheduler.shutdown(drain=True)
        assert all(job.state is JobState.DONE for job in jobs)
        assert len(executor.calls) == 4

    def test_no_drain_cancels_queued_and_running_jobs(self, store):
        gate = threading.Event()  # never set: only cancellation ends it
        executor = StubExecutor(gate=gate)
        scheduler = make_scheduler(store, executor, slots=1).start()
        running = scheduler.submit(make_spec(seed=0))
        executor.started.wait(WAIT_S)
        queued = scheduler.submit(make_spec(seed=1))
        scheduler.shutdown(drain=False, cancel_running=True)
        assert running.state is JobState.CANCELLED
        assert queued.state is JobState.CANCELLED
        assert len(executor.calls) == 1  # the queued job never started

    def test_metrics_snapshot_refreshes_gauges(self, store):
        scheduler = make_scheduler(store, StubExecutor()).start()
        try:
            job = scheduler.submit(make_spec(seed=1))
            wait_terminal(scheduler, job)
            snapshot = scheduler.metrics_snapshot().to_dict()
            assert snapshot["gauges"]["service/queue_depth"] == 0.0
            assert "service/job_seconds" in snapshot["histograms"]
            assert snapshot["counters"]["service/jobs_submitted"] == 1
        finally:
            scheduler.shutdown()


class TestReplayJobs:
    """Replay jobs run on the same runner as reliability jobs, so they
    cancel and fail the same way."""

    @staticmethod
    def replay_spec(trials):
        return CampaignSpec(
            scheme="citadel", trials=trials, mode="replay",
            workload="zipfian", requests=1, replay_cores=1, shard_size=1,
        )

    def test_cancel_running_replay_job(self, store):
        # Over a minute of work uncancelled (far past WAIT_S); the
        # cancel hook ends it at the next shard boundary.
        spec = self.replay_spec(trials=20000)
        scheduler = CampaignScheduler(store, slots=1).start()
        try:
            job = scheduler.submit(spec)
            for _ in range(int(WAIT_S / 0.01)):
                if job.state is JobState.RUNNING:
                    break
                threading.Event().wait(timeout=0.01)
            scheduler.cancel(job.id)
            wait_terminal(scheduler, job)
            assert job.state is JobState.CANCELLED
            assert not store.contains(spec)
        finally:
            scheduler.shutdown()

    def test_crashed_replay_shard_is_never_stored(self, store):
        from repro.reliability.parallel import (
            CrashInjection,
            ParallelLifetimeRunner,
        )

        def executor(spec, workers, cancel_event):
            runner = ParallelLifetimeRunner(
                spec.work(),
                root_seed=spec.seed,
                shard_size=spec.shard_size,
                crash_injection=CrashInjection(raise_on=frozenset({1})),
                cancel_hook=cancel_event.is_set,
            )
            return runner.run(trials=spec.effective_trials), runner.last_report

        scheduler = make_scheduler(
            store, executor, default_max_retries=0
        ).start()
        try:
            spec = self.replay_spec(trials=3)
            job = scheduler.submit(spec)
            wait_terminal(scheduler, job)
            assert job.state is JobState.FAILED
            assert "campaign incomplete" in job.error
            assert not store.contains(spec)
        finally:
            scheduler.shutdown()
