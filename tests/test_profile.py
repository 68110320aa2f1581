"""Tests for the profiling layer: deterministic span collapse, Chrome
trace export, and the wall-clock sampling profiler.

The split personality matters: :func:`collapse_spans` and
:func:`trace_to_chrome` are pure functions of the trace (asserted
byte-for-byte), while :class:`SamplingProfiler` is volatile by
construction — its tests assert mechanics (start/stop, folded-stack
shape) and, critically, that running it never changes campaign results.
"""

import json
import threading
import time

import pytest

from repro.errors import TelemetryError
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import ParallelLifetimeRunner, ReliabilityWork
from repro.schemes import SCHEMES
from repro.stack.geometry import StackGeometry
from repro.telemetry.profile import (
    SamplingProfiler,
    collapse_spans,
    normalize_scope,
    profile_callable,
    trace_to_chrome,
    write_collapsed,
)
from repro.telemetry.tracing import TraceRecord, TraceWriter, read_trace


def record(kind, name, path, t=0.0, **attrs):
    return TraceRecord(kind=kind, name=name, path=path, t=t, attrs=attrs)


class TestNormalizeScope:
    def test_strips_trailing_index(self):
        assert normalize_scope("shard-3") == "shard"
        assert normalize_scope("trial-17") == "trial"

    def test_keeps_plain_names(self):
        assert normalize_scope("campaign") == "campaign"
        assert normalize_scope("shard-x") == "shard-x"


class TestCollapseSpans:
    RECORDS = [
        record("meta", "trace", "", 0.0),
        record("begin", "campaign", "campaign", 0.0),
        record("begin", "shard-0", "campaign/shard-0", 0.1),
        record("end", "shard-0", "campaign/shard-0", 0.2),
        record("begin", "shard-1", "campaign/shard-1", 0.2),
        record("end", "shard-1", "campaign/shard-1", 0.3),
        record("event", "merge", "campaign/merge", 0.3),
        record("end", "campaign", "campaign", 0.4),
    ]

    def test_weights_one_per_end_record(self):
        assert collapse_spans(self.RECORDS) == [
            "campaign 1",
            "campaign;shard 2",
        ]

    def test_normalization_can_be_disabled(self):
        lines = collapse_spans(self.RECORDS, normalize=False)
        assert "campaign;shard-0 1" in lines
        assert "campaign;shard-1 1" in lines

    def test_deterministic(self):
        assert collapse_spans(self.RECORDS) == collapse_spans(self.RECORDS)

    def test_write_collapsed_round_trips(self, tmp_path):
        out = tmp_path / "spans.folded"
        write_collapsed(collapse_spans(self.RECORDS), out)
        assert out.read_text() == "campaign 1\ncampaign;shard 2\n"

    def test_real_trace_collapse_is_trial_weighted(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        writer = TraceWriter(trace_path, sample_every=1)
        with writer.span("campaign"):
            for shard in range(2):
                with writer.span(f"shard-{shard}"):
                    for _ in range(3):
                        with writer.span("trial"):
                            pass
        writer.close()
        lines = collapse_spans(read_trace(trace_path))
        assert "campaign;shard;trial 6" in lines
        assert "campaign;shard 2" in lines


class TestTraceToChrome:
    def test_document_shape(self):
        document = trace_to_chrome(TestCollapseSpans.RECORDS)
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert events[0]["ph"] == "M"  # process_name metadata
        phases = [e["ph"] for e in events[1:]]
        assert phases == ["B", "B", "E", "B", "E", "i", "E"]

    def test_timestamps_in_microseconds(self):
        document = trace_to_chrome([record("event", "x", "x", t=0.25)])
        (meta, instant) = document["traceEvents"]
        assert instant["ts"] == 0.25 * 1e6
        assert instant["s"] == "t"

    def test_meta_records_are_skipped(self):
        document = trace_to_chrome([record("meta", "trace", "")])
        assert len(document["traceEvents"]) == 1  # only process_name

    def test_attrs_become_args(self):
        document = trace_to_chrome(
            [record("event", "x", "x", t=0.0, shard=3)]
        )
        assert document["traceEvents"][1]["args"] == {"shard": 3}

    def test_document_is_json_serializable_and_deterministic(self):
        a = json.dumps(trace_to_chrome(TestCollapseSpans.RECORDS),
                       sort_keys=True)
        b = json.dumps(trace_to_chrome(TestCollapseSpans.RECORDS),
                       sort_keys=True)
        assert a == b


class TestSamplingProfiler:
    def busy_wait(self, seconds):
        deadline = time.monotonic() + seconds
        total = 0
        while time.monotonic() < deadline:
            total += sum(range(200))
        return total

    def test_samples_the_calling_thread(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with profiler:
            self.busy_wait(0.08)
        assert profiler.sample_count > 0
        lines = profiler.collapsed()
        assert lines
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) >= 1
        assert ";" in stack  # module:func chain, outermost first

    def test_folded_stacks_name_this_test(self):
        profiler = SamplingProfiler(interval_s=0.001)
        with profiler:
            self.busy_wait(0.08)
        assert any("busy_wait" in line for line in profiler.collapsed())

    def test_double_start_raises(self):
        profiler = SamplingProfiler(interval_s=0.01)
        profiler.start()
        try:
            with pytest.raises(TelemetryError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()

    def test_stop_is_idempotent(self):
        profiler = SamplingProfiler(interval_s=0.01)
        profiler.start()
        profiler.stop()
        profiler.stop()  # no-op

    def test_can_target_another_thread(self):
        stop = threading.Event()

        def spin():
            while not stop.is_set():
                sum(range(100))

        worker = threading.Thread(target=spin, daemon=True)
        worker.start()
        profiler = SamplingProfiler(
            interval_s=0.001, thread_id=worker.ident
        )
        profiler.start()
        time.sleep(0.05)
        profiler.stop()
        stop.set()
        worker.join(timeout=5.0)
        assert any("spin" in line for line in profiler.collapsed())

    def test_rejects_non_positive_interval(self):
        with pytest.raises(Exception):
            SamplingProfiler(interval_s=0.0)

    def test_profile_callable_wraps_result(self):
        report = profile_callable(lambda: 42, interval_s=0.001)
        assert report["result"] == 42
        assert report["samples"] >= 0
        assert report["wall_seconds"] >= 0.0


class TestProfilerNeverChangesResults:
    """The observability invariant, profiler edition: a campaign run
    while being sampled is byte-identical to one that never imported
    the profiler machinery."""

    def run_campaign(self):
        geometry = StackGeometry()
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geometry,
                FailureRates.paper_baseline(tsv_device_fit=0.0),
                SCHEMES["secded"](geometry),
                EngineConfig(collect_metrics=True),
            ),
            root_seed=11,
            workers=1,
            shard_size=50,
        )
        return runner.run(trials=100)

    def test_sampled_campaign_is_byte_identical(self):
        baseline = self.run_campaign().to_dict()
        profiler = SamplingProfiler(interval_s=0.001)
        with profiler:
            sampled = self.run_campaign().to_dict()
        assert json.dumps(sampled, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )
