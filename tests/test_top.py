"""Tests for the `repro top` dashboard.

Rendering is a pure function of two :class:`TopSample` polls, so the
unit tests assert exact dashboard lines from synthetic samples; the e2e
class points the real poll loop at a live in-process service (the same
fixture shape as ``test_service_http.py``) and also exercises the
liveness/readiness split across a drain.
"""

import io
import threading

import pytest

from repro.reliability.results import ReliabilityResult
from repro.reliability.parallel import CampaignReport
from repro.service.client import ServiceClient
from repro.service.http import make_server
from repro.service.jobs import CampaignSpec
from repro.service.scheduler import CampaignScheduler
from repro.service.store import ResultStore
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.top import (
    CLEAR_SCREEN,
    TopSample,
    render_dashboard,
    run_top,
    trials_per_second,
)
from test_service_http import SERVE_POLL_S

WAIT_S = 10.0


def stub_executor(spec, workers, cancel_event):
    result = ReliabilityResult(
        scheme_name=spec.scheme,
        trials=spec.effective_trials,
        failures=spec.seed % 5,
        lifetime_hours=61320.0,
    )
    return result, CampaignReport(planned_shards=1, merged_shards=1)


@pytest.fixture
def service(tmp_path):
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(
        store, slots=2, retry_backoff_s=0.0, executor=stub_executor
    ).start()
    server = make_server(scheduler, quiet=True)
    thread = threading.Thread(
        target=server.serve_forever, args=(SERVE_POLL_S,), daemon=True
    )
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.port}", timeout_s=WAIT_S
    )
    yield client, scheduler, server
    client.close()
    server.shutdown()
    server.server_close()
    scheduler.shutdown()
    thread.join(timeout=WAIT_S)


def make_sample(at=0.0, trials=0, ready=True, ci_width=None, latency=False):
    registry = MetricsRegistry()
    if trials:
        registry.inc("service/trials_executed", trials, volatile=True)
    registry.gauge_set("service/inflight_jobs", 1.0, volatile=True)
    registry.gauge_set("service/oldest_job_age_seconds", 2.5, volatile=True)
    if ci_width is not None:
        registry.gauge_set("campaign/ci_width", ci_width)
        registry.gauge_set("campaign/effective_failures", 9.0)
        registry.inc("campaign/trials_saved", 400)
    if latency:
        registry.inc("http/requests/healthz", 4, volatile=True)
        registry.inc("http/errors/healthz", 1, volatile=True)
        for value in (0.002, 0.004):
            registry.observe(
                "http/latency_seconds/healthz",
                value,
                edges=(0.001, 0.005, 0.025),
                volatile=True,
            )
    healthz = {
        "status": "ok",
        "ready": ready,
        "queue_depth": 3,
        "store_entries": 7,
        "jobs": {"queued": 3, "running": 1, "done": 2, "failed": 0,
                 "cancelled": 0},
    }
    return TopSample(healthz=healthz, metrics=registry, at=at)


class TestTrialsPerSecond:
    def test_none_without_previous_sample(self):
        assert trials_per_second(make_sample(), None) is None

    def test_counter_delta_over_elapsed_time(self):
        previous = make_sample(at=10.0, trials=1000)
        current = make_sample(at=12.0, trials=1500)
        assert trials_per_second(current, previous) == pytest.approx(250.0)

    def test_non_positive_elapsed_returns_none(self):
        previous = make_sample(at=5.0)
        assert trials_per_second(make_sample(at=5.0), previous) is None

    def test_counter_reset_clamps_to_zero(self):
        previous = make_sample(at=0.0, trials=500)
        current = make_sample(at=1.0, trials=100)
        assert trials_per_second(current, previous) == 0.0


class TestRenderDashboard:
    def test_header_and_core_lines(self):
        text = render_dashboard(make_sample())
        lines = text.splitlines()
        assert lines[0] == "repro top — service ok"
        assert lines[1] == (
            "jobs      queued:3  running:1  done:2  failed:0  cancelled:0"
        )
        assert lines[2] == (
            "queue     depth:3  inflight:1  oldest:2.5s  store:7"
        )
        assert lines[3] == "trials    executed:0  rate:-/s"

    def test_not_ready_flagged_in_header(self):
        text = render_dashboard(make_sample(ready=False))
        assert text.splitlines()[0] == "repro top — service ok (NOT READY)"

    def test_rate_from_previous_sample(self):
        previous = make_sample(at=0.0, trials=100)
        current = make_sample(at=2.0, trials=300)
        text = render_dashboard(current, previous)
        assert "trials    executed:300  rate:100/s" in text

    def test_stopping_line_only_with_ci_gauge(self):
        assert "stopping" not in render_dashboard(make_sample())
        text = render_dashboard(make_sample(ci_width=1.25e-3))
        assert (
            "stopping  ci_width:1.250e-03  effective_failures:9.0"
            "  trials_saved:400"
        ) in text

    def test_endpoint_table(self):
        text = render_dashboard(make_sample(latency=True))
        assert (
            "endpoint           reqs  errs    p50      p90      p99"
        ) in text
        # Both observations fall in the (0.001, 0.005] bucket, so every
        # quantile reports that bucket's deterministic edge (clamped to
        # the max observed value 0.004).
        assert "  healthz             4     1  0.00400  0.00400  0.00400" \
            in text

    def test_render_is_pure(self):
        sample = make_sample(latency=True, ci_width=0.5)
        assert render_dashboard(sample) == render_dashboard(sample)


class FakeClient:
    """Duck-typed client: canned healthz/metrics documents per poll."""

    def __init__(self, frames):
        self.frames = list(frames)
        self.calls = 0

    def healthz(self):
        return self.frames[min(self.calls, len(self.frames) - 1)][0]

    def metrics(self):
        frame = self.frames[min(self.calls, len(self.frames) - 1)][1]
        self.calls += 1
        return frame


class TestRunTop:
    def make_frames(self, count):
        frames = []
        for index in range(count):
            sample = make_sample(trials=100 * index or 0)
            frames.append((sample.healthz, sample.metrics.to_dict()))
        return frames

    def test_fixed_iterations_with_injected_clock_and_sleep(self):
        client = FakeClient(self.make_frames(3))
        ticks = iter([0.0, 1.0, 2.0])
        slept = []
        stream = io.StringIO()
        frames = run_top(
            client,
            iterations=3,
            interval_s=1.5,
            stream=stream,
            clock=lambda: next(ticks),
            sleep=slept.append,
        )
        assert frames == 3
        assert slept == [1.5, 1.5]  # no sleep after the final frame
        output = stream.getvalue()
        assert output.count("repro top — service ok") == 3
        assert "rate:100/s" in output  # delta math across frames

    def test_clear_prepends_ansi_sequence(self):
        stream = io.StringIO()
        run_top(
            FakeClient(self.make_frames(2)),
            iterations=2,
            interval_s=0.0,
            stream=stream,
            clock=iter([0.0, 1.0]).__next__,
            sleep=lambda _s: None,
            clear=True,
        )
        assert stream.getvalue().count(CLEAR_SCREEN) == 2


class TestTopAgainstLiveService:
    def test_polls_real_service(self, service):
        client, _, _ = service
        job = client.submit(CampaignSpec(scheme="secded", trials=200, seed=1))
        client.wait(job["id"], timeout_s=WAIT_S)
        stream = io.StringIO()
        frames = run_top(
            client,
            iterations=2,
            interval_s=0.0,
            stream=stream,
            sleep=lambda _s: None,
        )
        assert frames == 2
        output = stream.getvalue()
        assert "repro top — service ok" in output
        assert "executed:200" in output
        # The poll itself shows up in the endpoint latency table.
        assert "endpoint" in output
        assert "healthz" in output

    def test_drain_shows_not_ready(self, service):
        client, scheduler, _ = service
        assert client.readyz()["ready"] is True
        scheduler.begin_drain()
        ready = client.readyz()
        assert ready["ready"] is False
        assert ready["phase"] == "draining"
        # Liveness stays up, and the dashboard surfaces the state.
        stream = io.StringIO()
        run_top(client, iterations=1, stream=stream,
                sleep=lambda _s: None)
        assert "(NOT READY)" in stream.getvalue()
