"""Campaign scheduler: worker pool, dedupe, retries, fair-share budget.

The scheduler multiplexes submitted jobs onto ``slots`` worker threads,
each of which drives a :class:`ParallelLifetimeRunner` for one job at a
time.  The *process* budget is shared fairly: a job is allotted
``max(1, process_budget // running_jobs)`` worker processes (capped at
its own request) when it starts, so two concurrent campaigns on an
8-process budget get 4 each instead of oversubscribing the machine.
Merged results are worker-count independent, so fair-share allocation
never changes what a campaign computes — only how fast.

Deduplication happens at two levels, keyed by the spec's content
address (:meth:`CampaignSpec.spec_hash`):

* a submission whose spec is already in the :class:`ResultStore`
  completes instantly as a **cache hit**;
* a submission identical to a queued/running job becomes a **follower**
  of that primary job — it never executes, and resolves (as a cache
  hit) the moment the primary completes.

Failure handling: a job whose campaign reports crashed shards, or whose
execution raises, is retried up to ``max_retries`` times with
exponential backoff.  Retries resume from the campaign checkpoint kept
under ``<store>/wip/``, so only the missing shards re-run.  Cancellation
is cooperative — :meth:`cancel` sets the job's event, which the runner
polls between shards (``cancel_hook``) — and graceful: no worker process
is killed mid-shard.  A follower whose primary fails or is cancelled
after :meth:`shutdown` closed the queue cannot start any more, so it is
cancelled with an error that names the drain.

Every transition to a terminal state notifies one condition on the
scheduler lock, so :meth:`wait` (the ``GET /jobs/{id}?wait=S``
long-poll) returns the moment a job ends instead of being polled.

Everything is instrumented through one :class:`MetricsRegistry`
(``service/*`` and ``store/*`` namespaces) rendered by ``GET /metrics``.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import contracts
from repro.errors import (
    JobFailedError,
    JobNotFoundError,
    ReproError,
    ResultNotReadyError,
    ServiceError,
    StoreError,
)
from repro.reliability.parallel import CampaignReport, ParallelLifetimeRunner
from repro.reliability.results import ReliabilityResult
from repro.service.jobs import CampaignSpec, Job, JobState
from repro.service.queue import JobQueue
from repro.service.store import ResultStore
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceWriter

#: Bucket edges (seconds) of the ``service/job_seconds`` histogram.
JOB_SECONDS_EDGES = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: Spec-hash prefix baked into job ids for log readability.
SPEC_HASH_PREFIX_LEN = 8

#: An executor maps ``(spec, workers, cancel event)`` to a result and an
#: optional campaign report — injectable so scheduler tests can model
#: slow, crashing, or cancellable jobs without running Monte-Carlo.
Executor = Callable[
    [CampaignSpec, int, threading.Event],
    Tuple[ReliabilityResult, Optional[CampaignReport]],
]


class CampaignScheduler:
    """Runs campaign jobs on a bounded worker/process budget."""

    def __init__(
        self,
        store: ResultStore,
        *,
        slots: int = 2,
        process_budget: Optional[int] = None,
        retry_backoff_s: float = 0.5,
        default_max_retries: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[TraceWriter] = None,
        executor: Optional[Executor] = None,
    ) -> None:
        contracts.require(slots >= 1, "slots must be >= 1, got %r", slots)
        contracts.require(
            process_budget is None or process_budget >= 1,
            "process_budget must be >= 1, got %r",
            process_budget,
        )
        contracts.require(
            retry_backoff_s >= 0,
            "retry_backoff_s must be >= 0, got %r",
            retry_backoff_s,
        )
        contracts.check_non_negative(default_max_retries, "default_max_retries")
        self.store = store
        self.slots = slots
        self.process_budget = (
            process_budget if process_budget is not None
            else (os.cpu_count() or 1)
        )
        self.retry_backoff_s = retry_backoff_s
        self.default_max_retries = default_max_retries
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        store.attach_metrics(self.metrics)
        self.tracer = tracer
        self._executor = executor
        self.queue = JobQueue()
        self._lock = threading.RLock()
        #: Notified at every transition to a terminal state (and by
        #: :meth:`release_waiters`); :meth:`wait` sleeps on it.
        self._changed = threading.Condition(self._lock)
        #: Set by :meth:`release_waiters`: every hold ends at once.
        self._released = False
        self._jobs: Dict[str, Job] = {}
        #: spec_hash -> primary job id, for every queued/running campaign.
        self._inflight: Dict[str, str] = {}
        #: spec_hash -> follower job ids resolved when the primary ends.
        self._followers: Dict[str, List[str]] = {}
        self._running = 0
        self._seq = 0
        self._closed = False
        #: True from :meth:`begin_drain` (SIGTERM received, finishing
        #: in-flight work) until the process exits; ``/readyz`` reports
        #: 503 for the whole window so load balancers stop routing here.
        self._draining = False
        self._threads: List[threading.Thread] = []

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "CampaignScheduler":
        """Spawn the worker threads (idempotent)."""
        with self._lock:
            if self._threads:
                return self
            for index in range(self.slots):
                thread = threading.Thread(
                    target=self._worker_loop,
                    name=f"campaign-worker-{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)
        return self

    def begin_drain(self) -> None:
        """Flip readiness off and stop accepting submissions.

        Queued and running jobs keep executing — this is the SIGTERM
        half of a graceful shutdown; the follow-up
        :meth:`shutdown`\\ ``(drain=True)`` joins the pool.  Idempotent.
        """
        with self._lock:
            self._draining = True
            self._closed = True
        self._refresh_gauges()

    def is_ready(self) -> bool:
        """Readiness (the ``/readyz`` predicate): worker threads are up
        and the scheduler is neither shut down nor draining.  Liveness
        (``/healthz``) is deliberately weaker — a draining service is
        still alive and serving reads."""
        with self._lock:
            return bool(self._threads) and not self._closed

    def readiness(self) -> Dict[str, Any]:
        """The ``/readyz`` document: ready flag plus lifecycle phase."""
        with self._lock:
            if self._closed:
                phase = "draining"
            elif not self._threads:
                phase = "starting"
            else:
                phase = "serving"
            return {"ready": phase == "serving", "phase": phase}

    def shutdown(
        self,
        *,
        drain: bool = True,
        cancel_running: bool = False,
        timeout_s: Optional[float] = None,
    ) -> None:
        """Stop accepting jobs and wind the pool down (idempotent).

        ``drain=True`` lets queued and running jobs finish; with
        ``drain=False`` queued jobs are cancelled (running jobs still
        finish unless ``cancel_running`` also sets their cancel events).
        """
        with self._lock:
            self._closed = True
            self._draining = True
            if not drain:
                for job_id in list(self._jobs):
                    job = self._jobs[job_id]
                    if job.state is JobState.QUEUED:
                        self._cancel_locked(job)
            if cancel_running:
                for job in self._jobs.values():
                    if job.state is JobState.RUNNING:
                        job.cancel_event.set()
        self.queue.close()
        for thread in self._threads:
            thread.join(timeout=timeout_s)
        self._refresh_gauges()

    # ------------------------------------------------------------------ #
    # Submission / queries
    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: CampaignSpec,
        *,
        priority: int = 0,
        workers: int = 1,
        max_retries: Optional[int] = None,
    ) -> Job:
        """Submit one campaign; dedupes against the store and in-flight
        jobs.  Returns the :class:`Job` (possibly already ``done``)."""
        with self._lock:
            if self._closed:
                raise ServiceError("scheduler is shut down; not accepting jobs")
            key = spec.spec_hash()
            # Look the spec up first: a corrupt store entry raises
            # StoreError before any job is registered, so none is left
            # queued with nothing to run it.
            cached = self.store.get(key)
            self._seq += 1
            job = Job(
                id=f"j{self._seq:06d}-{key[:SPEC_HASH_PREFIX_LEN]}",
                spec=spec,
                priority=priority,
                workers=workers,
                max_retries=(
                    self.default_max_retries
                    if max_retries is None
                    else max_retries
                ),
            )
            self._jobs[job.id] = job
            self.metrics.inc("service/jobs_submitted")
            if cached is not None:
                job.state = JobState.DONE
                job.cache_hit = True
                self.metrics.inc("service/cache_hits")
                self._trace("job_cache_hit", id=job.id, spec_hash=key)
                return job
            self.metrics.inc("service/cache_misses")
            primary_id = self._inflight.get(key)
            if primary_id is not None:
                self._followers.setdefault(key, []).append(job.id)
                self.metrics.inc("service/dedup_joins")
                self._trace(
                    "job_joined", id=job.id, primary=primary_id, spec_hash=key
                )
                return job
            self._inflight[key] = job.id
            self.queue.push(job)
            self._refresh_gauges()
            self._trace("job_queued", id=job.id, spec_hash=key)
            return job

    def job(self, job_id: str) -> Job:
        with self._lock:
            found = self._jobs.get(job_id)
            if found is None:
                raise JobNotFoundError(f"unknown job id {job_id!r}")
            return found

    def wait(self, job_id: str, timeout_s: float) -> Job:
        """The job once it is terminal, or as it stands after
        ``timeout_s`` seconds or a :meth:`release_waiters` call."""
        with self._changed:
            found = self.job(job_id)
            self._changed.wait_for(
                lambda: found.state.terminal or self._released, timeout_s
            )
            return found

    def release_waiters(self) -> None:
        """End every :meth:`wait` now and every later one at once (the
        HTTP server is closing and will answer no further hold)."""
        with self._changed:
            self._released = True
            self._changed.notify_all()

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (the ``/healthz`` payload)."""
        with self._lock:
            tally = {state.value: 0 for state in JobState}
            for job in self._jobs.values():
                tally[job.state.value] += 1
            return tally

    def result(self, job_id: str) -> ReliabilityResult:
        """The stored result of a completed job.

        Raises :class:`ResultNotReadyError` while the job is in flight,
        :class:`JobFailedError` for failed/cancelled jobs, and
        :class:`StoreError` if the entry was evicted from the store.
        """
        job = self.job(job_id)
        if job.state in (JobState.FAILED, JobState.CANCELLED):
            raise JobFailedError(
                f"job {job_id} is {job.state.value}"
                + (f": {job.error}" if job.error else "")
            )
        if job.state is not JobState.DONE:
            raise ResultNotReadyError(
                f"job {job_id} is {job.state.value}; result not ready"
            )
        found = self.store.get(job.spec_hash)
        if found is None:
            raise StoreError(
                f"result of job {job_id} ({job.spec_hash}) was evicted "
                f"from the store"
            )
        return found

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: queued jobs drop out of the queue immediately,
        running jobs stop cooperatively at the next shard boundary,
        terminal jobs are left untouched (idempotent)."""
        with self._lock:
            job = self.job(job_id)
            if job.state.terminal:
                return job
            if job.state is JobState.RUNNING:
                job.cancel_event.set()
                return job
            self._cancel_locked(job)
            return job

    def _cancel_locked(self, job: Job) -> None:
        """Cancel a queued primary or follower (lock held)."""
        key = job.spec_hash
        job.cancel_event.set()
        job.state = JobState.CANCELLED
        self._changed.notify_all()
        self.metrics.inc("service/jobs_cancelled")
        followers = self._followers.get(key, [])
        if job.id in followers:
            followers.remove(job.id)
            return
        if self._inflight.get(key) == job.id:
            self.queue.remove(job.id)
            del self._inflight[key]
            self._promote_follower(key)
        self._refresh_gauges()

    def _promote_follower(self, key: str) -> None:
        """Make the oldest live follower the new primary (lock held).
        Once a drain has closed the queue no job can start, so each live
        follower is cancelled instead."""
        for follower_id in list(self._followers.get(key, [])):
            follower = self._jobs[follower_id]
            self._followers[key].remove(follower_id)
            if follower.state is not JobState.QUEUED:
                continue
            try:
                self.queue.push(follower)
            except RuntimeError:  # closed by shutdown(): draining
                follower.error = (
                    "the service is draining and its primary ended"
                )
                self._cancel_locked(follower)
                continue
            self._inflight[key] = follower.id
            return

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def metrics_snapshot(self) -> MetricsRegistry:
        """The live registry with freshly updated gauges."""
        self._refresh_gauges()
        return self.metrics

    def _refresh_gauges(self) -> None:
        self.metrics.gauge_set(
            "service/queue_depth", float(self.queue.depth()), volatile=True
        )
        with self._lock:
            running = self._running
            inflight = len(self._inflight)
            now = time.monotonic()
            ages = [
                now - job.enqueued_at
                for job in self._jobs.values()
                if not job.state.terminal
            ]
        self.metrics.gauge_set(
            "service/running_jobs", float(running), volatile=True
        )
        self.metrics.gauge_set(
            "service/inflight_jobs", float(inflight), volatile=True
        )
        self.metrics.gauge_set(
            "service/oldest_job_age_seconds",
            max(ages) if ages else 0.0,
            volatile=True,
        )

    def _fold_campaign_metrics(
        self, campaign: Optional[MetricsRegistry]
    ) -> None:
        """Surface the runner's stopping-layer observability (CI width,
        effective failures, trials saved) on the service registry so
        ``/metrics`` and ``repro top`` can see campaign progress."""
        if campaign is None:
            return
        for name in ("campaign/ci_width", "campaign/effective_failures"):
            value = campaign.gauge(name)
            if value is not None:
                self.metrics.gauge_set(name, value, volatile=True)
        saved = campaign.counter("campaign/trials_saved")
        if saved:
            self.metrics.inc("campaign/trials_saved", saved, volatile=True)

    def _trace(self, name: str, **attrs: Any) -> None:
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    # ------------------------------------------------------------------ #
    # Worker side
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            job = self.queue.pop(timeout_s=0.25)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        with self._lock:
            if job.state is not JobState.QUEUED or job.cancel_event.is_set():
                if not job.state.terminal:
                    self._cancel_locked(job)
                return
            job.state = JobState.RUNNING
            self._running += 1
            active = self._running
        self._refresh_gauges()
        allotted = min(job.workers, max(1, self.process_budget // active))
        self._trace(
            "job_started", id=job.id, workers=allotted,
            attempt=job.attempts + 1,
        )
        started = time.monotonic()
        outcome: JobState = JobState.FAILED
        result: Optional[ReliabilityResult] = None
        while True:
            job.attempts += 1
            error: Optional[str] = None
            report: Optional[CampaignReport] = None
            try:
                result, report = self._execute(job, allotted)
            except ReproError as exc:
                error = str(exc)
            except Exception as exc:  # worker code must never kill the pool
                error = f"{type(exc).__name__}: {exc}"
            cancelled = job.cancel_event.is_set() or (
                report is not None and report.cancelled
            )
            if cancelled:
                outcome = JobState.CANCELLED
                job.error = "cancelled"
                break
            if error is None and not self._incomplete(report):
                outcome = JobState.DONE
                break
            if error is None:
                assert report is not None
                error = (
                    f"campaign incomplete: {len(report.failed_shards)} "
                    f"crashed shard(s), "
                    f"{report.merged_shards}/{report.planned_shards} merged"
                )
            if job.attempts > job.max_retries:
                outcome = JobState.FAILED
                job.error = error
                break
            self.metrics.inc("service/jobs_retried")
            self._trace("job_retry", id=job.id, attempt=job.attempts,
                        error=error)
            backoff = self.retry_backoff_s * (2 ** (job.attempts - 1))
            if job.cancel_event.wait(timeout=backoff):
                outcome = JobState.CANCELLED
                job.error = "cancelled"
                break
        job.elapsed_seconds = time.monotonic() - started
        self._finish(job, outcome, result)

    @staticmethod
    def _incomplete(report: Optional[CampaignReport]) -> bool:
        """A campaign is incomplete when shards crashed or were skipped;
        only complete campaigns may enter the content-addressed store."""
        if report is None:
            return False
        return bool(report.failed_shards) or report.partial or report.cancelled

    def _execute(
        self, job: Job, workers: int
    ) -> Tuple[Any, Optional[CampaignReport]]:
        if self._executor is not None:
            return self._executor(job.spec, workers, job.cancel_event)
        spec = job.spec
        checkpoint = self._checkpoint_path(job)
        runner = ParallelLifetimeRunner(
            spec.work(),
            root_seed=spec.seed,
            workers=workers,
            shard_size=spec.shard_size,
            checkpoint_path=checkpoint,
            resume=checkpoint.exists(),
            cancel_hook=job.cancel_event.is_set,
        )
        merged = runner.run(trials=spec.effective_trials)
        self._fold_campaign_metrics(runner.last_campaign_metrics)
        return merged, runner.last_report

    def _checkpoint_path(self, job: Job):  # -> Path
        wip = self.store.root / "wip"
        wip.mkdir(parents=True, exist_ok=True)
        return wip / f"{job.spec_hash}.ckpt.json"

    def _finish(
        self,
        job: Job,
        outcome: JobState,
        result: Optional[ReliabilityResult],
    ) -> None:
        key = job.spec_hash
        if outcome is JobState.DONE and result is not None:
            self.store.put(job.spec, result)
            if self._executor is None:
                self._checkpoint_path(job).unlink(missing_ok=True)
            # Throughput counter for `repro top` (trials/s is the delta
            # between polls).  Volatile: it measures service load, not
            # any campaign's answer.
            self.metrics.inc(
                "service/trials_executed", result.trials, volatile=True
            )
        with self._lock:
            job.state = outcome
            self._running -= 1
            if self._inflight.get(key) == job.id:
                del self._inflight[key]
            followers = self._followers.pop(key, [])
            if outcome is JobState.DONE:
                self.metrics.inc("service/jobs_completed")
                for follower_id in followers:
                    follower = self._jobs[follower_id]
                    if follower.state is JobState.QUEUED:
                        follower.state = JobState.DONE
                        follower.cache_hit = True
                        self.metrics.inc("service/cache_hits")
            else:
                if outcome is JobState.CANCELLED:
                    self.metrics.inc("service/jobs_cancelled")
                else:
                    self.metrics.inc("service/jobs_failed")
                # The primary died; give waiting followers their own shot.
                self._followers[key] = followers
                self._promote_follower(key)
                if not self._followers[key]:
                    del self._followers[key]
            self._changed.notify_all()
        self.metrics.observe(
            "service/job_seconds",
            job.elapsed_seconds,
            edges=JOB_SECONDS_EDGES,
            volatile=True,
        )
        self._refresh_gauges()
        self._trace(
            "job_finished", id=job.id, state=outcome.value,
            seconds=job.elapsed_seconds,
        )
