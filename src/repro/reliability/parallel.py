"""Parallel sharded Monte-Carlo campaigns with checkpoint/resume.

:class:`ParallelLifetimeRunner` splits a campaign into fixed-size
*shards* and fans them out over ``multiprocessing`` workers.  The shard
plan is a pure function of ``(trials, shard_size)`` and each shard draws
from its own generator seeded with ``derive_seed(root_seed, "shard",
index)``, so the merged result is identical for any worker count —
``workers=1`` and ``workers=8`` produce byte-identical aggregates.
One dispatch loop serves every worker count, with one shard in flight
in-process or two per pool worker.  A stop, a cancel, the budget, a
broken pool or an interrupt only ends dispatch: the shards in flight are
always drained, merged and checkpointed.

It is the one sharded runner of the package, and a :class:`ShardWork`
is the one way to describe a campaign to it: lifetime reliability
(:class:`ReliabilityWork`) or trace replay
(:class:`repro.replay.ReplayWork`).  Every campaign kind gets the same
robustness features:

* **Checkpointing** — completed shards are appended to a JSON checkpoint
  (unique temp file + atomic rename) after every completion; a killed
  campaign resumes with ``resume=True`` and re-runs only missing shards.
  Each shard is encoded once, at its first write, and every write joins
  the cached fragments, so a write costs the file's bytes, not a
  re-encoding of every shard.
  A fingerprint of the shard plan and the whole work guards against
  resuming someone else's checkpoint, and every resumed shard must
  survive a ``from_dict``/``to_dict`` round trip unchanged
  (:class:`~repro.errors.CheckpointError` otherwise).
* **Wall-clock budget** — ``time_budget_s`` stops dispatching new shards
  once exceeded; completed shards are merged into an accurate partial
  result.
* **Graceful interrupt** — ``KeyboardInterrupt`` drains the shards in
  flight, checkpoints them, and returns the partial aggregate instead of
  losing the campaign; a second interrupt during the drain ends it.
* **Worker-crash containment** — a shard whose worker crashes
  (``RuntimeError``, ``OSError``) is recorded as failed and excluded
  from the merge (trial counts stay accurate); a hard worker death
  (``BrokenProcessPool``) fails only the shards in flight, stops
  dispatch and still returns what completed.  Any other exception,
  every ``ReproError`` included, propagates.
* **Cooperative cancel** — ``cancel_hook`` is polled before each
  dispatch; the campaign stops dispatching and returns the partial
  merge.

Reliability campaigns may also stop early: the work's anytime-valid
:class:`~repro.reliability.stopping.StoppingRule` (set by
``EngineConfig.target_ci_width``) is evaluated on the *contiguous shard
prefix* (never on whichever shards happened to finish first), which
keeps the stopped result deterministic across worker counts.

Observability (all opt-in, none of it feeds back into the simulation):

* ``progress=True`` — a throttled stderr heartbeat with shards done,
  trial throughput, ETA and remaining wall-clock budget.
* ``trace_path`` — a structured JSONL trace: one ``campaign`` span and
  one ``shard_completed`` event per completed shard at any worker
  count.  An in-process shard also gets a ``shard`` span, and the
  tracer reaches its trial loop for sampled ``trial`` spans and
  ``correction`` events.  Pool workers do not trace (a trace sink does
  not cross process boundaries).
* ``last_campaign_metrics`` — wall-clock campaign metrics (shard latency
  histogram, completion counters).  Deliberately kept *outside* the
  merged result, whose ``metrics`` sidecar only ever carries the
  deterministic per-shard snapshots, so the merged result stays
  byte-identical for any worker count.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Executor, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import (
    IO,
    Any,
    Callable,
    ClassVar,
    ContextManager,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro import contracts
from repro.ecc.base import CorrectionModel
from repro.errors import CheckpointError
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig, LifetimeSimulator
from repro.reliability.results import ReliabilityResult
from repro.reliability.stopping import StoppingRule
from repro.rng import derive_seed
from repro.stack.geometry import StackGeometry
from repro.telemetry.files import atomic_write_text
from repro.telemetry.manifest import RunManifest, schemes_registry_hash
from repro.telemetry.progress import ProgressReporter
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.tracing import TraceWriter

#: Bucket edges (seconds) of the wall-clock shard-latency histogram kept
#: in ``last_campaign_metrics`` (volatile: never merged into results).
SHARD_SECONDS_EDGES = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: Default trials per shard: small enough that an 8-worker run of a
#: 20k-trial bench balances well, large enough that per-shard overhead
#: (process dispatch, injector setup) stays negligible.
DEFAULT_SHARD_SIZE = 2500


@dataclass(frozen=True)
class ShardSpec:
    """One unit of the campaign: ``trials`` lifetimes from one seed."""

    index: int
    seed: int
    trials: int


def shard_plan(trials: int, shard_size: int, root_seed: int) -> List[ShardSpec]:
    """The deterministic shard decomposition of a campaign.

    Depends only on ``(trials, shard_size, root_seed)`` — never on the
    worker count — which is what makes merged results reproducible on
    any machine shape.
    """
    contracts.require(trials >= 0, "trials must be >= 0, got %r", trials)
    contracts.require(
        shard_size > 0, "shard_size must be positive, got %r", shard_size
    )
    shards: List[ShardSpec] = []
    done = 0
    while done < trials:
        size = min(shard_size, trials - done)
        index = len(shards)
        shards.append(
            ShardSpec(
                index=index,
                seed=derive_seed(root_seed, "shard", index),
                trials=size,
            )
        )
        done += size
    return shards


class ShardWork:
    """What one kind of campaign computes per shard.

    The runner owns the shard plan, the pool, checkpoints and the merge;
    a work object supplies the rest.  It must pickle (pool workers
    receive it with every shard), and it is a frozen dataclass whose
    fields are everything a shard's result depends on: the checkpoint
    fingerprint is their JSON form.

    * ``result_type`` — the result monoid: ``from_dict``/``to_dict``,
      ``identity`` and ``merge_all``;
    * :meth:`run_shard` — one shard, returned as the monoid's dict;
    * :meth:`empty` — the result reported when no shard was merged;
    * :meth:`finish` — an optional hook on the merged result;
    * :meth:`stopping_rule` — the campaign's early-stopping rule, if any.
    """

    result_type: ClassVar[Any]
    #: Campaign label (progress output and trace spans).
    label: str

    def run_shard(
        self,
        spec: ShardSpec,
        root_seed: int,
        tracer: Optional[TraceWriter] = None,
    ) -> Dict[str, Any]:
        raise NotImplementedError

    def empty(self) -> Any:
        raise NotImplementedError

    def finish(
        self, merged: Any, trials: int, root_seed: int, shard_size: int
    ) -> None:
        """Post-merge hook; the default does nothing."""

    def stopping_rule(self) -> Optional[StoppingRule]:
        """The anytime-valid rule the runner consults on contiguous shard
        prefixes; the default (None) runs every planned shard."""
        return None


@dataclass(frozen=True)
class ReliabilityWork(ShardWork):
    """Lifetime-reliability shards; ``min_faults`` and ``label`` default
    to the engine's (:meth:`LifetimeSimulator.default_min_faults`,
    :meth:`LifetimeSimulator.scheme_label`)."""

    result_type: ClassVar[Any] = ReliabilityResult

    geometry: StackGeometry
    rates: FailureRates
    model: CorrectionModel
    config: EngineConfig
    min_faults: Optional[int] = None
    label: str = ""

    def __post_init__(self) -> None:
        template = LifetimeSimulator(
            self.geometry, self.rates, self.model, self.config, seed=0
        )
        if self.min_faults is None:
            object.__setattr__(
                self, "min_faults", template.default_min_faults()
            )
        if not self.label:
            object.__setattr__(self, "label", template.scheme_label())

    def stopping_rule(self) -> Optional[StoppingRule]:
        width = self.config.target_ci_width
        return None if width is None else StoppingRule(width)

    def run_shard(
        self,
        spec: ShardSpec,
        root_seed: int,
        tracer: Optional[TraceWriter] = None,
    ) -> Dict[str, Any]:
        sim = LifetimeSimulator(
            self.geometry,
            self.rates,
            self.model,
            self.config,
            seed=spec.seed,
            tracer=tracer,
        )
        result = sim.run(
            trials=spec.trials, min_faults=self.min_faults, label=self.label
        )
        return result.to_dict()

    def empty(self) -> ReliabilityResult:
        # An empty-but-labelled result rather than the bare identity, so
        # downstream summaries stay readable.
        assert self.min_faults is not None  # filled in by __post_init__
        return ReliabilityResult(
            scheme_name=self.label,
            trials=0,
            failures=0,
            stratum_weight=1.0,
            lifetime_hours=self.config.lifetime_hours,
            min_faults=self.min_faults,
        )

    def finish(
        self, merged: Any, trials: int, root_seed: int, shard_size: int
    ) -> None:
        """Attach the run-provenance manifest: a pure function of the
        campaign configuration (worker count and wall clock excluded), so
        merged results stay byte-identical for any worker count."""
        from repro import __version__

        merged.manifest = RunManifest(
            scheme=self.label,
            seed=root_seed,
            trials=trials,
            shard_size=shard_size,
            sampling=self.config.sampling,
            target_ci_width=self.config.target_ci_width,
            schemes_hash=schemes_registry_hash(),
            package_version=__version__,
        )


def _fragment(value: Any) -> str:
    """``value`` as one compact, key-sorted JSON fragment of a
    checkpoint."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _json_form(value: Any) -> Any:
    """``value`` as it reads back from JSON: dataclasses become field
    dicts, correction models their ``name``, enums their values, tuples
    lists, mapping keys strings — so a saved fingerprint compares equal
    to a freshly computed one.

    Field names are keys, so a field added to, removed from or renamed
    in any dataclass of the work makes an old checkpoint fail the
    comparison loudly; the fingerprint is only compared, never rebuilt.
    """
    if isinstance(value, CorrectionModel):
        return value.name
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(_json_form(k)): _json_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_form(v) for v in value]
    return value


#: What a crashed shard raises (``BrokenProcessPool`` is a
#: ``RuntimeError``); any other exception propagates.
_SHARD_CRASHES = (RuntimeError, OSError)


@dataclass(frozen=True)
class CrashInjection:
    """Fault-injection hooks for the runner's own fault-tolerance tests.

    ``raise_on`` makes the worker raise ``RuntimeError`` for those shard
    indices (a contained per-shard failure); ``exit_on`` makes the worker
    process die with ``os._exit`` (an uncontained crash that breaks the
    pool).  Production campaigns leave both empty.
    """

    raise_on: FrozenSet[int] = frozenset()
    exit_on: FrozenSet[int] = frozenset()

    def __bool__(self) -> bool:
        return bool(self.raise_on or self.exit_on)


@dataclass
class CampaignReport:
    """Bookkeeping for one :meth:`ParallelLifetimeRunner.run` call."""

    planned_shards: int = 0
    completed_shards: int = 0
    resumed_shards: int = 0
    failed_shards: List[int] = field(default_factory=list)
    merged_shards: int = 0
    elapsed_seconds: float = 0.0
    stopped_early: bool = False
    interrupted: bool = False
    budget_exhausted: bool = False
    pool_broken: bool = False
    cancelled: bool = False

    @property
    def partial(self) -> bool:
        """True when the campaign ran fewer shards than planned for any
        reason other than a deterministic early stop."""
        return (
            self.merged_shards < self.planned_shards
            and not self.stopped_early
        )


@dataclass(frozen=True)
class _ShardTask:
    """Everything a worker process needs to run one shard."""

    spec: ShardSpec
    work: ShardWork
    root_seed: int
    crash: CrashInjection
    #: The campaign tracer, on in-process tasks only.
    tracer: Optional[TraceWriter] = None


#: What a shard returns: ``(shard index, result dict, wall seconds)``.
_Outcome = Tuple[int, Dict[str, Any], float]


def _run_shard(task: _ShardTask) -> _Outcome:
    """Worker entry point (module-level so it pickles).

    The elapsed time feeds the parent's volatile campaign metrics only;
    the result dict carries nothing wall-clock-derived.  A task that
    carries a tracer runs inside a ``shard`` span.
    """
    spec, tracer = task.spec, task.tracer
    if spec.index in task.crash.exit_on:
        os._exit(17)
    if spec.index in task.crash.raise_on:
        raise RuntimeError(
            f"injected crash in shard {spec.index} (CrashInjection)"
        )
    started = time.monotonic()
    with (
        tracer.span("shard", index=spec.index, trials=spec.trials)
        if tracer is not None
        else nullcontext()
    ):
        payload = task.work.run_shard(spec, task.root_seed, tracer)
    return spec.index, payload, time.monotonic() - started


class _InlineExecutor(Executor):
    """The ``workers=1`` executor: ``submit`` runs the shard at once, in
    this process, and returns its finished future.  An interrupt is not
    a result: it propagates from ``submit`` itself."""

    def submit(
        self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future[Any]:
        future: Future[Any] = Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except Exception as exc:
            future.set_exception(exc)
        return future


class ParallelLifetimeRunner:
    """Sharded, resumable, multi-process campaigns.

    ``work`` is the campaign: what every shard computes, and its
    stopping rule.  The other parameters fix the shard plan
    (``root_seed``, ``shard_size``) and how it executes; :meth:`run`
    returns the work's result type.
    """

    def __init__(
        self,
        work: ShardWork,
        *,
        root_seed: int = 0,
        workers: int = 1,
        shard_size: int = DEFAULT_SHARD_SIZE,
        checkpoint_path: Optional[Union[str, Path]] = None,
        resume: bool = False,
        time_budget_s: Optional[float] = None,
        crash_injection: Optional[CrashInjection] = None,
        progress: bool = False,
        progress_interval_s: float = 1.0,
        progress_stream: Optional[IO[str]] = None,
        trace_path: Optional[Union[str, Path]] = None,
        trace_sample_every: int = 1,
        cancel_hook: Optional[Callable[[], bool]] = None,
    ) -> None:
        contracts.require(workers >= 1, "workers must be >= 1, got %r", workers)
        contracts.require(
            shard_size > 0, "shard_size must be positive, got %r", shard_size
        )
        contracts.require(
            time_budget_s is None or time_budget_s > 0,
            "time_budget_s must be positive, got %r",
            time_budget_s,
        )
        self.work = work
        self.root_seed = root_seed
        self.workers = workers
        self.shard_size = shard_size
        self.checkpoint_path = (
            Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.resume = resume
        self.time_budget_s = time_budget_s
        self.crash_injection = (
            crash_injection if crash_injection is not None else CrashInjection()
        )
        self.progress = progress
        self.progress_interval_s = progress_interval_s
        self.progress_stream = progress_stream
        self.trace_path = Path(trace_path) if trace_path is not None else None
        self.trace_sample_every = trace_sample_every
        #: Cooperative cancellation: polled before each dispatch.  When it
        #: returns True the campaign stops dispatching, drains and
        #: checkpoints the shards in flight, and returns the partial
        #: merge with ``report.cancelled`` set — the embedding the
        #: campaign service uses to cancel running jobs without killing
        #: worker processes mid-shard.
        self.cancel_hook = cancel_hook
        self.last_report: Optional[CampaignReport] = None
        #: Wall-clock campaign observability (shard latency, completion
        #: counters).  Kept runner-side, never merged into the result.
        self.last_campaign_metrics: Optional[MetricsRegistry] = None
        self._stopping = work.stopping_rule()
        self._reporter: Optional[ProgressReporter] = None
        self._tracer: Optional[TraceWriter] = None
        self._campaign: Optional[MetricsRegistry] = None
        #: Shards in the checkpoint last written by this run; None
        #: before the first write.
        self._checkpointed: Optional[int] = None
        #: This run's checkpoint fragment of each written shard, by index.
        self._shard_json: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    def run(self, trials: int) -> Any:
        """Run (or resume) the campaign and return the merged result.

        ``self.last_report`` carries the campaign bookkeeping
        (shard counts, early-stop / interrupt / budget flags).
        """
        started = time.monotonic()
        work = self.work
        shards = shard_plan(trials, self.shard_size, self.root_seed)
        report = CampaignReport(planned_shards=len(shards))
        fingerprint = self._fingerprint(trials)

        completed: Dict[int, Any] = {}
        self._checkpointed = None
        self._shard_json = {}
        if self.resume and self.checkpoint_path is not None:
            completed = self._load_checkpoint(fingerprint)
            report.resumed_shards = len(completed)
        pending = [s for s in shards if s.index not in completed]

        self._campaign = MetricsRegistry()
        self._reporter = (
            ProgressReporter(
                total_shards=len(shards),
                total_trials=trials,
                label=work.label,
                stream=self.progress_stream,
                min_interval_s=self.progress_interval_s,
                time_budget_s=self.time_budget_s,
            )
            if self.progress
            else None
        )
        self._tracer = (
            TraceWriter(self.trace_path, sample_every=self.trace_sample_every)
            if self.trace_path is not None
            else None
        )
        campaign_span: ContextManager[Any] = (
            self._tracer.span(
                "campaign",
                label=work.label,
                trials=trials,
                shards=len(shards),
                workers=self.workers,
            )
            if self._tracer is not None
            else nullcontext()
        )
        try:
            with campaign_span:
                self._dispatch(pending, completed, report, fingerprint, started)
        except KeyboardInterrupt:
            # The loop re-raises a second interrupt: the run ends here.
            report.interrupted = True
        finally:
            if self._reporter is not None:
                self._reporter.finish(
                    len(completed), sum(r.trials for r in completed.values())
                )
            if self._tracer is not None:
                self._tracer.close()
            self._campaign.inc("campaign/shards_completed",
                               report.completed_shards)
            self._campaign.inc("campaign/shards_failed",
                               len(report.failed_shards))
            if report.pool_broken:
                self._campaign.inc("campaign/pool_broken")
            self.last_campaign_metrics = self._campaign
            self._reporter = None
            self._tracer = None
            self._campaign = None
        if self._checkpointed != len(completed):
            # Each completed shard was checkpointed as it merged; only a
            # run that completed none (or lost a write to an interrupt)
            # writes here.
            self._write_checkpoint(completed, fingerprint)

        merged = self._merge(completed, report)
        if merged.is_identity:
            # Nothing completed (0 trials, or everything crashed/stopped).
            merged = work.empty()
        work.finish(merged, trials, self.root_seed, self.shard_size)
        self._record_campaign_outcome(trials, merged, report)
        report.elapsed_seconds = time.monotonic() - started
        self.last_report = report
        return merged

    def _record_campaign_outcome(
        self,
        planned_trials: int,
        merged: Any,
        report: CampaignReport,
    ) -> None:
        """Volatile campaign observability for the stopping layer: trials
        saved by stopping early, final anytime-valid CI width, and the
        effective (importance-weighted) failure count of the merge."""
        registry = self.last_campaign_metrics
        if registry is None:
            return
        if report.stopped_early:
            registry.inc(
                "campaign/trials_saved",
                max(0, planned_trials - merged.trials),
            )
        if self._stopping is not None:
            lo, hi = self._stopping.interval(merged)
            registry.gauge_set("campaign/ci_width", hi - lo, volatile=True)
        if isinstance(merged, ReliabilityResult):
            registry.gauge_set(
                "campaign/effective_failures",
                merged.effective_failures(),
                volatile=True,
            )

    # ------------------------------------------------------------------ #
    def _dispatch(
        self,
        pending: Sequence[ShardSpec],
        completed: Dict[int, Any],
        report: CampaignReport,
        fingerprint: Dict[str, Any],
        started: float,
    ) -> None:
        """The one shard loop: keep a window of shards in flight until
        none is pending or dispatch ends, then drain.  Only a second
        interrupt, during the drain, propagates."""
        inline = self.workers == 1
        window = 1 if inline else 2 * self.workers
        tracer = self._tracer if inline else None
        queue = deque(pending)
        inflight: Dict[Future[_Outcome], ShardSpec] = {}
        with (
            _InlineExecutor()
            if inline
            else ProcessPoolExecutor(max_workers=self.workers)
        ) as executor:
            while True:
                try:
                    while queue and len(inflight) < window:
                        if self._halt(completed, report, started):
                            queue.clear()
                            break
                        spec = queue.popleft()
                        task = _ShardTask(spec, self.work, self.root_seed,
                                          self.crash_injection, tracer)
                        try:
                            inflight[executor.submit(_run_shard, task)] = spec
                        except BrokenProcessPool:
                            report.pool_broken = True
                    if not inflight:
                        return
                    done, _ = wait(inflight, return_when=FIRST_COMPLETED)
                    for future in done:
                        self._complete(future, inflight.pop(future),
                                       completed, report, fingerprint)
                except KeyboardInterrupt:
                    if report.interrupted:
                        raise
                    report.interrupted = True
                    queue.clear()

    def _halt(
        self,
        completed: Dict[int, Any],
        report: CampaignReport,
        started: float,
    ) -> bool:
        """Whether to dispatch no more shards: the pool broke, or the
        stopping rule, the cancel hook or the budget fired (checked in
        that order; the first to fire sets its report flag)."""
        if report.pool_broken:
            return True
        if self._stop_index(completed, report.failed_shards) is not None:
            report.stopped_early = True
        elif self.cancel_hook is not None and self.cancel_hook():
            report.cancelled = True
        elif (
            self.time_budget_s is not None
            and time.monotonic() - started >= self.time_budget_s
        ):
            report.budget_exhausted = True
        else:
            return False
        return True

    def _complete(
        self,
        future: Future[_Outcome],
        spec: ShardSpec,
        completed: Dict[int, Any],
        report: CampaignReport,
        fingerprint: Dict[str, Any],
    ) -> None:
        """A finished shard either merges or fails."""
        try:
            index, payload, seconds = future.result()
        except _SHARD_CRASHES as exc:
            report.failed_shards.append(spec.index)
            report.pool_broken |= isinstance(exc, BrokenProcessPool)
            return
        completed[index] = self.work.result_type.from_dict(payload)
        report.completed_shards += 1
        if self._campaign is not None:
            # Wall-clock shard latency (volatile campaign metrics).
            self._campaign.observe(
                "campaign/shard_seconds",
                seconds,
                edges=SHARD_SECONDS_EDGES,
                volatile=True,
            )
            self._campaign.record_seconds("campaign/shard_time", seconds)
        if self._reporter is not None:
            self._reporter.update(
                len(completed), sum(r.trials for r in completed.values())
            )
        if self._tracer is not None:
            self._tracer.event(
                "shard_completed",
                index=index,
                trials=spec.trials,
                seconds=seconds,
            )
        self._write_checkpoint(completed, fingerprint)

    def _stop_index(
        self,
        completed: Dict[int, Any],
        failed: Sequence[int],
    ) -> Optional[int]:
        """Smallest shard index k such that the stopping rule holds on
        the contiguous prefix 0..k — or None.

        Only contiguous prefixes are considered so the decision depends
        on the shard plan, never on completion order; a failed shard
        breaks the prefix and disables stopping past it.
        """
        rule = self._stopping
        if rule is None or not completed:
            return None
        failed_set = set(failed)
        prefix = self.work.result_type.identity()
        k = 0
        while k in completed:
            if k in failed_set:
                return None
            prefix = prefix.merge(completed[k])
            if rule.satisfied(prefix):
                return k
            k += 1
        return None

    def _merge(
        self,
        completed: Dict[int, Any],
        report: CampaignReport,
    ) -> Any:
        stop = self._stop_index(completed, report.failed_shards)
        indices = sorted(completed)
        if stop is not None:
            report.stopped_early = True
            indices = [i for i in indices if i <= stop]
        report.merged_shards = len(indices)
        return self.work.result_type.merge_all(completed[i] for i in indices)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def _fingerprint(self, trials: int) -> Dict[str, Any]:
        """Identity of the shard plan and every field of its work; a
        checkpoint from a different campaign must never be silently
        merged into this one."""
        return _json_form({
            "root_seed": self.root_seed,
            "trials": trials,
            "shard_size": self.shard_size,
            "work": self.work,
        })

    def _write_checkpoint(
        self,
        completed: Dict[int, Any],
        fingerprint: Dict[str, Any],
    ) -> None:
        """Write the checkpoint: one ``{"fingerprint", "shards"}`` JSON
        object joined from fragments.  A shard is encoded the first time
        it is written and its fragment kept (results are never mutated:
        merges build new objects), so a write re-encodes only the
        fingerprint."""
        if self.checkpoint_path is None:
            return
        fragments = self._shard_json
        for index in completed.keys() - fragments.keys():
            fragments[index] = _fragment(completed[index].to_dict())
        shards = ",".join(f'"{i}":{fragments[i]}' for i in sorted(completed))
        atomic_write_text(
            self.checkpoint_path,
            f'{{"fingerprint":{_fragment(fingerprint)},'
            f'"shards":{{{shards}}}}}\n',
        )
        self._checkpointed = len(completed)

    def _load_checkpoint(self, fingerprint: Dict[str, Any]) -> Dict[int, Any]:
        path = self.checkpoint_path
        assert path is not None
        if not path.exists():
            return {}
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CheckpointError(f"checkpoint {path} is not a JSON object")
        saved = payload.get("fingerprint")
        if saved != fingerprint:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different campaign: "
                f"saved fingerprint {saved!r} != expected {fingerprint!r}"
            )
        completed: Dict[int, Any] = {}
        try:
            for index, shard in payload["shards"].items():
                result = self.work.result_type.from_dict(shard)
                # A shard written under another result schema cannot
                # reproduce itself: a key added or removed since shows up.
                if _json_form(result.to_dict()) != shard:
                    raise CheckpointError(
                        f"shard {index} of checkpoint {path} does not "
                        f"round-trip; it was written under another "
                        f"{self.work.result_type.__name__} schema"
                    )
                completed[int(index)] = result
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"malformed shard table in checkpoint {path}: {exc}"
            ) from exc
        return completed
