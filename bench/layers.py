"""Outside-in per-layer tracing for the benchmark's traced run.

Every wrap point lives in :data:`WRAP_POINTS`: a public function or
method of the program, the layer its host time belongs to, and the
per-layer metrics it feeds.  :func:`install` replaces each wrap point
with a timing wrapper; nothing under ``src/`` knows it is being traced.
A wrap point whose name no longer resolves (a later refactor renamed or
removed it) is reported as missing, and every metric it feeds is
reported as ``missing`` (``None``) instead of crashing the run.

Only the traced run imports this module.  The end-to-end run never
does, so its timings carry no wrapper cost.

Recording
---------
Span stacks are per thread.  A call's *self time* is its duration minus
the time of the wrapped calls nested inside it.

* ``span=True`` points (campaign-, shard- and request-level calls) keep
  one full span record each: layer, name, start, end, parent span and
  the root span they share with the rest of their request or campaign.
* The per-fault points (fault sampling, TSV-Swap, DDS, the ECC verdict)
  only accumulate call counts and self time per (wrap point, parent
  layer), which keeps the tracing overhead bounded.
* Probe points (``clock=None``) take no time at all; they only feed
  counters (queue push/pop timestamps, HTTP status codes).

Everything stays in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import importlib
import json
import re
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

_JOB_STATUS_PATH = re.compile(r"^/jobs/(?P<id>[^/]+)/?$")


@dataclass(frozen=True)
class WrapPoint:
    """One wrapped public name and the per-layer metrics it feeds."""

    layer: str
    module: str
    #: ``function`` or ``Class.method``, resolved on ``module``.
    qualname: str
    #: Metric the call's self time is added to; ``None`` makes a probe
    #: that takes no time and only runs ``count``.
    clock: Optional[str]
    #: Metric counting the calls, if any.
    calls: Optional[str] = None
    #: Keep a full span per call (campaign/shard/request level).
    span: bool = False
    #: ``count(recorder, parent_layer, args, result)`` records counters
    #: from a completed call.
    count: Optional[Callable[["Recorder", Optional[str], tuple, Any], None]] = None
    #: Metrics that ``count`` feeds (for ``missing`` reporting).
    counts: Tuple[str, ...] = ()


def _faults_sampled_lifetime(recorder, parent, args, result):
    recorder.add("faults.injector.faults_sampled", len(result[0]))


def _faults_sampled_specs(recorder, parent, args, result):
    recorder.add("faults.injector.faults_sampled", len(result))


def _tsv_absorbed(recorder, parent, args, result):
    recorder.add("core.tsv_swap.absorbed", len(args[0]) - len(result[0]))


def _dds_spared(recorder, parent, args, result):
    report = result[1]
    recorder.add("core.dds.spared",
                 len(report.row_spared) + len(report.bank_spared))


def _batch_trials(recorder, parent, args, result):
    # make_batch_runner builds a fresh kernel per run, so the instance
    # counters after run() are that run's counts.
    kernel = args[0]
    recorder.add("reliability.batch.fast_trials", kernel.fast_trials)
    recorder.add("reliability.batch.fallback_trials", kernel.fallback_trials)


def _montecarlo_trials(recorder, parent, args, result):
    recorder.add("reliability.montecarlo.trials", result.trials)
    if parent == "reliability.parallel":
        recorder.add("reliability.parallel.shards", 1)


def _perf_requests(recorder, parent, args, result):
    recorder.add("perf.requests", result.demand_reads + result.demand_writes)


def _timeline_events(recorder, parent, args, result):
    recorder.add("replay.events", len(result.events))


def _job_polled(recorder, parent, args, result):
    match = _JOB_STATUS_PATH.match(args[0].path.split("?", 1)[0])
    if match is not None:
        recorder.job_polled(match.group("id"))


def _http_status(recorder, parent, args, result):
    if int(args[1]) >= 400:
        recorder.add("service.http.errors", 1)


def _job_submitted(recorder, parent, args, result):
    if not result.cache_hit:
        recorder.job_missed(result.id)


def _job_pushed(recorder, parent, args, result):
    recorder.job_pushed(args[1].id)


def _job_popped(recorder, parent, args, result):
    if result is not None:
        recorder.job_popped(result.id)


def _ecc(module: str, cls: str, methods: Tuple[str, ...]) -> Tuple[WrapPoint, ...]:
    calls = {"observe": "ecc.observe_calls", "rebuild": "ecc.rebuild_calls"}
    return tuple(
        WrapPoint("ecc", module, f"{cls}.{method}", "ecc.busy_s",
                  calls=calls.get(method))
        for method in methods
    )


_VERDICT = ("begin_trial", "observe", "rebuild", "is_uncorrectable")
_FALLBACK = ("reliability.batch.fast_trials", "reliability.batch.fallback_trials")
_POLLS = ("service.http.polls_per_miss",)

#: The one table of wrap points.  Base classes come before subclasses so
#: a subclass that inherits a wrapped method is never wrapped twice.
WRAP_POINTS: Tuple[WrapPoint, ...] = (
    # faults: the Poisson arrival process and fault placement.
    WrapPoint("faults.injector", "repro.faults.injector",
              "FaultInjector.sample_lifetime", "faults.injector.busy_s",
              calls="faults.injector.calls", count=_faults_sampled_lifetime,
              counts=("faults.injector.faults_sampled",)),
    WrapPoint("faults.injector", "repro.faults.injector",
              "FaultInjector.sample_count", "faults.injector.busy_s",
              calls="faults.injector.calls"),
    WrapPoint("faults.injector", "repro.faults.injector",
              "FaultInjector.sample_specs", "faults.injector.busy_s",
              calls="faults.injector.calls", count=_faults_sampled_specs,
              counts=("faults.injector.faults_sampled",)),
    # TSV-Swap, under the name the trial loop calls it by.
    WrapPoint("core.tsv_swap", "repro.reliability.montecarlo",
              "apply_tsv_swap", "core.tsv_swap.busy_s",
              calls="core.tsv_swap.calls", count=_tsv_absorbed,
              counts=("core.tsv_swap.absorbed",)),
    WrapPoint("core.dds", "repro.core.dds", "DDSController.process_scrub",
              "core.dds.busy_s", calls="core.dds.scrub_calls",
              count=_dds_spared, counts=("core.dds.spared",)),
    # The correctability verdict, on the classes that define it.
    *_ecc("repro.ecc.base", "CorrectionModel",
          ("begin_trial", "observe", "rebuild")),
    *_ecc("repro.core.parity3dp", "ParityND", _VERDICT),
    *_ecc("repro.ecc.incremental", "IncrementalPairwiseModel", _VERDICT),
    *_ecc("repro.ecc.bch", "BCHCode", _VERDICT),
    # The vectorized batch path.
    WrapPoint("reliability.batch", "repro.reliability.batch",
              "BatchTrialKernel.run", "reliability.batch.busy_s",
              span=True, count=_batch_trials,
              counts=(*_FALLBACK, "reliability.batch.fallback_frac")),
    WrapPoint("reliability.batch", "repro.core.parity3dp",
              "ParityPeelBatchKernel.survives", "reliability.batch.busy_s"),
    WrapPoint("reliability.batch", "repro.ecc.batch_kernels",
              "PairwiseBatchKernel.survives", "reliability.batch.busy_s"),
    # Shard and campaign level.
    WrapPoint("reliability.montecarlo", "repro.reliability.montecarlo",
              "LifetimeSimulator.run", "reliability.montecarlo.self_s",
              span=True, count=_montecarlo_trials,
              counts=("reliability.montecarlo.trials",
                      "reliability.parallel.shards")),
    WrapPoint("reliability.parallel", "repro.reliability.parallel",
              "ParallelLifetimeRunner.run", "reliability.parallel.self_s",
              span=True),
    WrapPoint("reliability.parallel", "repro.reliability.results",
              "ReliabilityResult.to_dict", "reliability.parallel.serialize_s"),
    WrapPoint("reliability.parallel", "repro.reliability.results",
              "ReliabilityResult.from_dict",
              "reliability.parallel.serialize_s"),
    WrapPoint("reliability.parallel", "repro.reliability.results",
              "ReliabilityResult.merge_all", "reliability.parallel.merge_s"),
    # Trace replay: workload generation, the perf/power models, timelines.
    WrapPoint("workloads", "repro.replay.engine", "ReplayEngine.build_traces",
              "workloads.trace_gen_s"),
    WrapPoint("perf", "repro.perf.system", "SystemSimulator.run",
              "perf.busy_s", calls="perf.runs", span=True,
              count=_perf_requests, counts=("perf.requests",)),
    WrapPoint("perf", "repro.perf.power", "PowerModel.active_energy_nj",
              "perf.busy_s"),
    WrapPoint("replay", "repro.replay.engine", "ReplayEngine.run_shard",
              "replay.self_s", span=True),
    WrapPoint("replay", "repro.replay.engine", "build_timeline",
              "replay.timeline_s", count=_timeline_events,
              counts=("replay.events",)),
    # The campaign service.
    WrapPoint("service.http", "repro.service.http",
              "ServiceRequestHandler.do_GET", "service.http.busy_s",
              calls="service.http.requests", span=True, count=_job_polled,
              counts=_POLLS),
    WrapPoint("service.http", "repro.service.http",
              "ServiceRequestHandler.do_POST", "service.http.busy_s",
              calls="service.http.requests", span=True),
    WrapPoint("service.http", "repro.service.http",
              "ServiceRequestHandler.send_response", None,
              count=_http_status, counts=("service.http.errors",)),
    WrapPoint("service.scheduler", "repro.service.scheduler",
              "CampaignScheduler.submit", "service.scheduler.submit_s",
              span=True, count=_job_submitted, counts=_POLLS),
    WrapPoint("service.scheduler", "repro.service.queue", "JobQueue.push",
              None, count=_job_pushed,
              counts=("service.scheduler.queue_wait_s",)),
    WrapPoint("service.scheduler", "repro.service.queue", "JobQueue.pop",
              None, count=_job_popped,
              counts=("service.scheduler.queue_wait_s",)),
    WrapPoint("service.store", "repro.service.store", "ResultStore.get",
              "service.store.get_s"),
    WrapPoint("service.store", "repro.service.store", "ResultStore.put",
              "service.store.put_s"),
)


class _ThreadState:
    __slots__ = ("stack", "agg", "counters", "spans")

    def __init__(self) -> None:
        #: Frames: [child seconds, layer, span id or None].
        self.stack: List[list] = []
        #: (wrap point index, parent layer) -> [calls, self seconds].
        self.agg: Dict[Tuple[int, Optional[str]], List[float]] = {}
        self.counters: Dict[str, float] = {}
        self.spans: List[Dict[str, Any]] = []


class Recorder:
    """Per-thread span stacks, merged when the run dumps its trace."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._next_span = 0
        #: Service jobs: push time by id, polls by id, ids that missed.
        self._pushed: Dict[str, float] = {}
        self._polls: Counter[str] = Counter()
        self._missed: Set[str] = set()
        #: Indices of wrap points that did not resolve, with the reason.
        self.missing: Dict[int, str] = {}

    # ------------------------------------------------------------------ #
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def _span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    def add(self, name: str, amount: float) -> None:
        counters = self._state().counters
        counters[name] = counters.get(name, 0.0) + amount

    def job_pushed(self, job_id: str) -> None:
        with self._lock:
            self._pushed[job_id] = time.perf_counter()

    def job_popped(self, job_id: str) -> None:
        with self._lock:
            pushed = self._pushed.pop(job_id, None)
        if pushed is not None:
            self.add("service.scheduler.queue_wait_s",
                     time.perf_counter() - pushed)

    def job_polled(self, job_id: str) -> None:
        with self._lock:
            self._polls[job_id] += 1

    def job_missed(self, job_id: str) -> None:
        with self._lock:
            self._missed.add(job_id)

    # ------------------------------------------------------------------ #
    def wrap(self, index: int, point: WrapPoint, fn: Callable) -> Callable:
        recorder = self
        clock = time.perf_counter
        count = point.count

        if point.clock is None:
            def probe(*args, **kwargs):
                result = fn(*args, **kwargs)
                stack = recorder._state().stack
                count(recorder, stack[-1][1] if stack else None, args, result)
                return result
            probe.bench_wrapped = True
            return probe

        def wrapper(*args, **kwargs):
            state = recorder._state()
            stack = state.stack
            parent = stack[-1][1] if stack else None
            span_id = recorder._span_id() if point.span else None
            frame = [0.0, point.layer, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                cell = state.agg.get((index, parent))
                if cell is None:
                    cell = state.agg[(index, parent)] = [0, 0.0]
                cell[0] += 1
                cell[1] += duration - frame[0]
                if span_id is not None:
                    enclosing = [f[2] for f in stack if f[2] is not None]
                    state.spans.append({
                        "id": span_id,
                        "parent": enclosing[-1] if enclosing else None,
                        "root": enclosing[0] if enclosing else span_id,
                        "layer": point.layer,
                        "name": point.qualname,
                        "thread": threading.get_ident(),
                        "start": start,
                        "end": end,
                        "self_s": duration - frame[0],
                    })
            if count is not None:
                count(recorder, parent, args, result)
            return result

        wrapper.bench_wrapped = True
        return wrapper

    # ------------------------------------------------------------------ #
    def _merged(self) -> Tuple[Dict[Tuple[int, Optional[str]], List[float]],
                               Dict[str, float], List[Dict[str, Any]]]:
        with self._lock:
            states = list(self._states)
        agg: Dict[Tuple[int, Optional[str]], List[float]] = {}
        counters: Dict[str, float] = {}
        spans: List[Dict[str, Any]] = []
        for state in states:
            for key, (calls, self_s) in list(state.agg.items()):
                cell = agg.setdefault(key, [0, 0.0])
                cell[0] += calls
                cell[1] += self_s
            for name, amount in list(state.counters.items()):
                counters[name] = counters.get(name, 0.0) + amount
            spans.extend(list(state.spans))
        return agg, counters, spans

    def metrics(self) -> Dict[str, Optional[float]]:
        """Every per-layer metric the table feeds; ``None`` = missing."""
        agg, counters, _ = self._merged()
        values: Dict[str, float] = {}
        missing: Set[str] = set()
        for index, point in enumerate(WRAP_POINTS):
            for name in (point.clock, point.calls, *point.counts):
                if name is not None:
                    values.setdefault(name, 0.0)
                    if index in self.missing:
                        missing.add(name)
        for (index, _parent), (calls, self_s) in agg.items():
            point = WRAP_POINTS[index]
            values[point.clock] += self_s
            if point.calls is not None:
                values[point.calls] += calls
        values.update(counters)
        batch_trials = sum(values[name] for name in _FALLBACK)
        values["reliability.batch.fallback_frac"] = (
            values["reliability.batch.fallback_trials"] / batch_trials
            if batch_trials else 0.0
        )
        with self._lock:
            miss_polls = sum(self._polls[job] for job in self._missed)
            misses = len(self._missed)
        values["service.http.polls_per_miss"] = (
            miss_polls / misses if misses else 0.0
        )
        return {
            name: None if name in missing else value
            for name, value in values.items()
        }

    def dump(self, path: Path, **header: Any) -> None:
        """Write the metrics, the per-parent breakdown and the spans."""
        agg, _, spans = self._merged()
        document = {
            **header,
            "missing": {
                f"{WRAP_POINTS[i].module}.{WRAP_POINTS[i].qualname}": reason
                for i, reason in sorted(self.missing.items())
            },
            "metrics": self.metrics(),
            "breakdown": [
                {
                    "layer": WRAP_POINTS[index].layer,
                    "name": WRAP_POINTS[index].qualname,
                    "parent": parent,
                    "calls": int(calls),
                    "self_s": self_s,
                }
                for (index, parent), (calls, self_s) in sorted(
                    agg.items(), key=lambda item: (item[0][0], str(item[0][1]))
                )
            ],
            "spans": sorted(spans, key=lambda span: span["id"]),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def install() -> Recorder:
    """Wrap every resolvable point of :data:`WRAP_POINTS`."""
    recorder = Recorder()
    for index, point in enumerate(WRAP_POINTS):
        try:
            owner: Any = importlib.import_module(point.module)
            *path, name = point.qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = (
                owner.__dict__[name]
                if isinstance(owner, type) and name in owner.__dict__
                else getattr(owner, name)
            )
        except (ImportError, AttributeError) as exc:
            recorder.missing[index] = f"{type(exc).__name__}: {exc}"
            continue
        if getattr(raw, "bench_wrapped", False):
            continue  # inherited from a base class wrapped earlier
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped: Any = type(raw)(recorder.wrap(index, point, raw.__func__))
        else:
            wrapped = recorder.wrap(index, point, raw)
        setattr(owner, name, wrapped)
    return recorder
