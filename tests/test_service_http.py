"""Tests for the HTTP API and client.

A real ``ServiceHTTPServer`` is bound to a loopback port for each test
class; :class:`ServiceClient` talks to it over actual sockets, so the
error contract (exception class round-trip through JSON), the endpoint
surface, and the end-to-end byte-identity guarantee are all exercised
exactly as the CLI uses them.  Most tests inject a stub executor; the
end-to-end class runs a real (small) Monte-Carlo campaign and compares
against a direct :class:`ParallelLifetimeRunner` run.
"""

import json
import threading

import pytest

from repro.errors import (
    JobFailedError,
    JobNotFoundError,
    ResultNotReadyError,
    ServiceError,
    ServiceUnavailableError,
    SpecError,
    StoreError,
)
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import (
    CampaignReport,
    ParallelLifetimeRunner,
    ReliabilityWork,
)
from repro.reliability.results import ReliabilityResult
from repro.cli import main
from repro.replay import ReplayResult
from repro.service.client import ServiceClient
from repro.service.http import make_server
from repro.service.jobs import CampaignSpec
from repro.service.scheduler import CampaignScheduler
from repro.schemes import SCHEMES
from repro.service.store import ResultStore
from repro.stack.geometry import StackGeometry

WAIT_S = 10.0


def make_spec(seed=0, **overrides):
    overrides.setdefault("scheme", "secded")
    overrides.setdefault("trials", 500)
    return CampaignSpec(seed=seed, **overrides)


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
    """(client, scheduler, server) against a stub-executor scheduler."""
    store = ResultStore(tmp_path / "store")
    scheduler = CampaignScheduler(
        store, slots=2, retry_backoff_s=0.0, executor=stub_executor
    ).start()
    server = make_server(scheduler, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(
        f"http://127.0.0.1:{server.port}", timeout_s=WAIT_S
    )
    yield client, scheduler, server
    server.shutdown()
    server.server_close()
    scheduler.shutdown()
    thread.join(timeout=WAIT_S)


class TestEndpoints:
    def test_healthz(self, service):
        client, _, _ = service
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["store_entries"] == 0
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed", "cancelled"
        }

    def test_submit_wait_fetch(self, service):
        client, _, _ = service
        spec = make_spec(seed=2)
        job = client.submit(spec)
        assert job["state"] in ("queued", "running", "done")
        assert job["spec_hash"] == spec.spec_hash()
        final = client.wait(job["id"], timeout_s=WAIT_S)
        assert final["state"] == "done"
        result = client.result(job["id"])
        assert result.trials == spec.effective_trials
        document = client.result_document(job["id"])
        assert document["job"]["id"] == job["id"]
        assert document["result"] == result.to_dict()

    def test_submit_accepts_plain_mapping(self, service):
        client, _, _ = service
        job = client.submit({"scheme": "secded", "trials": 100, "seed": 9})
        client.wait(job["id"], timeout_s=WAIT_S)
        assert client.result(job["id"]).trials == 100

    def test_jobs_listing(self, service):
        client, _, _ = service
        first = client.submit(make_spec(seed=1))
        client.wait(first["id"], timeout_s=WAIT_S)
        listed = client.jobs()
        assert [job["id"] for job in listed] == [first["id"]]

    def test_resubmit_reports_cache_hit(self, service):
        client, _, _ = service
        spec = make_spec(seed=3)
        first = client.submit(spec)
        client.wait(first["id"], timeout_s=WAIT_S)
        second = client.submit(spec)
        assert second["state"] == "done"
        assert second["cache_hit"] is True
        assert client.result(second["id"]).to_dict() == (
            client.result(first["id"]).to_dict()
        )

    def test_cancel_endpoint(self, service):
        client, scheduler, _ = service
        spec = make_spec(seed=4)
        job = client.submit(spec)
        client.wait(job["id"], timeout_s=WAIT_S)
        # Terminal jobs: DELETE is idempotent and leaves state alone.
        assert client.cancel(job["id"])["state"] == "done"

    def test_metrics_json_and_text(self, service):
        client, _, server = service
        job = client.submit(make_spec(seed=5))
        client.wait(job["id"], timeout_s=WAIT_S)
        metrics = client.metrics()
        assert metrics["counters"]["service/jobs_submitted"] == 1
        assert metrics["counters"]["service/jobs_completed"] == 1
        assert "service/queue_depth" in metrics["gauges"]
        # ?format=text renders the human-readable table.
        import urllib.request

        url = f"http://127.0.0.1:{server.port}/metrics?format=text"
        with urllib.request.urlopen(url, timeout=WAIT_S) as response:
            text = response.read().decode("utf-8")
        assert "service/jobs_submitted" in text


class TestObservabilityEndpoints:
    """ISSUE 8 surface: liveness/readiness split, OpenMetrics content
    negotiation, and the per-endpoint HTTP instrumentation."""

    def test_healthz_reports_ready(self, service):
        client, _, _ = service
        assert client.healthz()["ready"] is True

    def test_readyz_serving(self, service):
        client, _, _ = service
        ready = client.readyz()
        assert ready["ready"] is True
        assert ready["phase"] == "serving"

    def test_readyz_503_while_draining_healthz_stays_200(self, service):
        client, scheduler, _ = service
        scheduler.begin_drain()
        ready = client.readyz()
        assert ready["ready"] is False
        assert ready["phase"] == "draining"
        # Liveness is unaffected: the pod is alive, just not accepting.
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["ready"] is False

    def test_openmetrics_via_accept_header(self, service):
        from repro.telemetry.exposition import parse_openmetrics

        client, _, _ = service
        job = client.submit(make_spec(seed=6))
        client.wait(job["id"], timeout_s=WAIT_S)
        text = client.metrics_openmetrics()
        assert text.endswith("# EOF\n")
        families = parse_openmetrics(text)  # strict: raises on any drift
        assert families["repro_service_jobs_submitted"]["type"] == "counter"
        samples = families["repro_service_jobs_submitted"]["samples"]
        assert samples[0][2] == 1

    def test_openmetrics_via_query_format(self, service):
        import urllib.request

        from repro.telemetry.exposition import (
            OPENMETRICS_CONTENT_TYPE,
            parse_openmetrics,
        )

        client, _, server = service
        url = f"http://127.0.0.1:{server.port}/metrics?format=openmetrics"
        with urllib.request.urlopen(url, timeout=WAIT_S) as response:
            assert response.headers["Content-Type"] == (
                OPENMETRICS_CONTENT_TYPE
            )
            parse_openmetrics(response.read().decode("utf-8"))

    def test_http_requests_and_latency_instrumented(self, service):
        client, _, _ = service
        client.healthz()
        client.healthz()
        metrics = client.metrics()
        assert metrics["counters"]["http/requests/healthz"] >= 2
        hist = metrics["histograms"]["http/latency_seconds/healthz"]
        assert hist["count"] >= 2

    def test_errors_counted_per_endpoint(self, service):
        client, _, _ = service
        with pytest.raises(JobNotFoundError):
            client.job("nope")
        metrics = client.metrics()
        assert metrics["counters"]["http/errors/job"] == 1

    def test_endpoint_label_bounded_cardinality(self):
        from repro.service.http import endpoint_label

        assert endpoint_label("GET", "/healthz") == "healthz"
        assert endpoint_label("GET", "/readyz") == "readyz"
        assert endpoint_label("GET", "/metrics") == "metrics"
        assert endpoint_label("POST", "/jobs") == "submit"
        assert endpoint_label("GET", "/jobs") == "jobs"
        assert endpoint_label("GET", "/jobs/abc123") == "job"
        assert endpoint_label("DELETE", "/jobs/abc123") == "cancel"
        assert endpoint_label("GET", "/jobs/abc123/result") == "result"
        # Adversarial paths collapse onto one label.
        assert endpoint_label("GET", "/bogus/zzz") == "other"
        assert endpoint_label("GET", "/bogus/yyy") == "other"


class TestErrorContract:
    def test_unknown_job_raises_not_found(self, service):
        client, _, _ = service
        with pytest.raises(JobNotFoundError, match="nope"):
            client.job("nope")

    def test_unknown_endpoint_raises_not_found(self, service):
        client, _, _ = service
        with pytest.raises(JobNotFoundError):
            client._request("GET", "/bogus")

    def test_invalid_spec_raises_spec_error(self, service):
        client, _, _ = service
        with pytest.raises(SpecError, match="unknown scheme"):
            client._request(
                "POST", "/jobs", {"spec": {"scheme": "not-a-scheme"}}
            )

    def test_missing_spec_raises_spec_error(self, service):
        client, _, _ = service
        with pytest.raises(SpecError, match="spec"):
            client._request("POST", "/jobs", {"priority": 1})

    def test_malformed_stored_result_raises_store_error(
        self, service, tmp_path
    ):
        """A stored result that no longer parses is a StoreError answer
        (not a dropped connection), and no job is left queued for it."""
        client, _, _ = service
        spec = make_spec(seed=3)
        ResultStore(tmp_path / "store").put(
            spec, stub_executor(spec, 1, None)[0]
        )
        path = tmp_path / "store" / f"{spec.spec_hash()}.json"
        entry = json.loads(path.read_text())
        del entry["result"]["trials"]
        path.write_text(json.dumps(entry))
        with pytest.raises(StoreError, match="malformed result"):
            client.submit(spec)
        assert client.healthz()["jobs"]["queued"] == 0
        assert client.jobs() == []

    def test_result_before_done_raises_not_ready(self, tmp_path):
        gate = threading.Event()
        started = threading.Event()

        def gated_executor(spec, workers, cancel_event):
            started.set()
            gate.wait(WAIT_S)
            return stub_executor(spec, workers, cancel_event)

        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(
            store, slots=1, executor=gated_executor
        ).start()
        server = make_server(scheduler, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", timeout_s=WAIT_S
        )
        try:
            job = client.submit(make_spec(seed=1))
            started.wait(WAIT_S)
            with pytest.raises(ResultNotReadyError):
                client.result(job["id"])
        finally:
            gate.set()
            server.shutdown()
            server.server_close()
            scheduler.shutdown()
            thread.join(timeout=WAIT_S)

    def test_failed_job_result_raises_job_failed(self, tmp_path):
        def failing_executor(spec, workers, cancel_event):
            raise ServiceError("boom")

        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(
            store,
            slots=1,
            retry_backoff_s=0.0,
            default_max_retries=0,
            executor=failing_executor,
        ).start()
        server = make_server(scheduler, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", timeout_s=WAIT_S
        )
        try:
            job = client.submit(make_spec(seed=1))
            with pytest.raises(JobFailedError, match="failed"):
                client.wait(job["id"], timeout_s=WAIT_S)
            with pytest.raises(JobFailedError):
                client.result(job["id"])
        finally:
            server.shutdown()
            server.server_close()
            scheduler.shutdown()
            thread.join(timeout=WAIT_S)

    def test_unreachable_service_raises_unavailable(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            client.healthz()


class TestEndToEnd:
    """The acceptance criterion: a campaign run through the service is
    byte-identical to the same campaign run directly."""

    SPEC = dict(scheme="secded", trials=60, seed=5, shard_size=30)

    def direct_run(self, tmp_path):
        geometry = StackGeometry()
        runner = ParallelLifetimeRunner(
            ReliabilityWork(
                geometry,
                FailureRates.paper_baseline(tsv_device_fit=0.0),
                SCHEMES["secded"](geometry),
                EngineConfig(),
            ),
            root_seed=self.SPEC["seed"],
            workers=1,
            shard_size=self.SPEC["shard_size"],
        )
        return runner.run(trials=self.SPEC["trials"])

    def test_service_run_matches_direct_run(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        scheduler = CampaignScheduler(store, slots=1).start()  # real executor
        server = make_server(scheduler, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", timeout_s=60.0
        )
        try:
            job = client.submit(CampaignSpec(**self.SPEC), workers=1)
            client.wait(job["id"], timeout_s=60.0)
            via_service = client.result(job["id"])
            direct = self.direct_run(tmp_path)
            assert via_service.to_dict() == direct.to_dict()
            # Resubmission is a pure store hit, still byte-identical.
            again = client.submit(CampaignSpec(**self.SPEC), workers=2)
            assert again["cache_hit"] is True
            assert client.result(again["id"]).to_dict() == direct.to_dict()
            # The wip checkpoint was cleaned up on completion.
            assert list((tmp_path / "store" / "wip").glob("*.json")) == []
        finally:
            server.shutdown()
            server.server_close()
            scheduler.shutdown()
            thread.join(timeout=WAIT_S)


class TestReplayFetch:
    """A finished replay job reads back as a ReplayResult, and ``repro
    fetch`` prints the report ``repro replay`` prints for that campaign."""

    SPEC = dict(
        scheme="citadel", trials=2, mode="replay", requests=16,
        replay_cores=1, shard_size=2,
    )
    REPLAY_ARGV = [
        "replay", "--trials", "2", "--requests", "16", "--cores", "1",
        "--shard-size", "2",
    ]

    @pytest.fixture
    def replay_job(self, tmp_path):
        """(service URL, id of a finished replay job), real executor."""
        scheduler = CampaignScheduler(ResultStore(tmp_path / "store"),
                                      slots=1).start()
        server = make_server(scheduler, quiet=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{server.port}"
        try:
            client = ServiceClient(url, timeout_s=60.0)
            job = client.submit(CampaignSpec(**self.SPEC))
            client.wait(job["id"], timeout_s=60.0)
            yield url, job["id"]
        finally:
            server.shutdown()
            server.server_close()
            scheduler.shutdown()
            thread.join(timeout=WAIT_S)

    def test_client_result_parses_by_mode(self, replay_job):
        url, job_id = replay_job
        result = ServiceClient(url, timeout_s=WAIT_S).result(job_id)
        assert isinstance(result, ReplayResult)
        assert result.trials == 2

    def test_fetch_prints_the_replay_report(self, replay_job, capsys):
        url, job_id = replay_job
        assert main(["fetch", "--url", url, "--job", job_id]) == 0
        fetched = capsys.readouterr().out
        assert main(self.REPLAY_ARGV) == 0
        assert fetched == capsys.readouterr().out
        assert "mean slowdown" in fetched
