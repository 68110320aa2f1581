"""Tests for the HTTP API and client.

A real ``ServiceHTTPServer`` is bound to a loopback port for each test
class; :class:`ServiceClient` talks to it over actual sockets, so the
error contract (exception class round-trip through JSON), the endpoint
surface, and the end-to-end byte-identity guarantee are all exercised
exactly as the CLI uses them.  Most tests inject a stub executor; the
end-to-end class runs a real (small) Monte-Carlo campaign and compares
against a direct :class:`ParallelLifetimeRunner` run.
"""

import contextlib
import http.client
import json
import socket
import statistics
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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
from repro.service.http import (
    MAX_BODY_BYTES,
    ServiceRequestHandler,
    make_server,
)
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


@contextlib.contextmanager
def serving(store_dir, port=0):
    """(scheduler, server, url) of a stub-executor service on a loopback
    port, shut down and closed on exit."""
    scheduler = CampaignScheduler(
        ResultStore(store_dir),
        slots=2,
        retry_backoff_s=0.0,
        executor=stub_executor,
    ).start()
    server = make_server(scheduler, port=port, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield scheduler, server, f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        scheduler.shutdown()
        thread.join(timeout=WAIT_S)


@pytest.fixture
def service(tmp_path):
    """(client, scheduler, server) against a stub-executor scheduler."""
    with serving(tmp_path / "store") as (scheduler, server, url):
        with ServiceClient(url, timeout_s=WAIT_S) as client:
            yield client, scheduler, server


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
        assert families["repro_http_connections"]["type"] == "counter"

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
            client.close()
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
            client.close()
            server.shutdown()
            server.server_close()
            scheduler.shutdown()
            thread.join(timeout=WAIT_S)

    @pytest.mark.parametrize(
        "status,body,error,message",
        [
            (502, b"<html>bad gateway</html>", ServiceError,
             "service returned HTTP 502"),
            (200, b"not json", ServiceUnavailableError,
             "malformed response from"),
            (200, b"[1, 2]", ServiceUnavailableError,
             "unexpected response shape from"),
        ],
    )
    def test_undecodable_answers(self, status, body, error, message):
        """An answer that is not the service's JSON keeps its error class
        and message, whatever sent it (a proxy page, a truncated body)."""

        class Canned(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):
                self.send_response(status)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Canned)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}"
            with ServiceClient(url, timeout_s=WAIT_S) as client:
                with pytest.raises(error, match=message) as caught:
                    client.healthz()
                assert type(caught.value) is error
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=WAIT_S)

    @pytest.mark.parametrize(
        "option",
        [
            {"priority": "high"},
            {"priority": [1]},
            {"priority": 1.5},
            {"priority": True},
            {"priority": None},
            {"workers": "two"},
            {"workers": 0},
            {"workers": 2.7},
            {"workers": True},
            {"workers": None},
            {"max_retries": -1},
            {"max_retries": "3"},
            {"max_retries": 1.0},
        ],
        ids=lambda option: "{}={!r}".format(*next(iter(option.items()))),
    )
    def test_bad_submit_option_raises_spec_error(self, service, option):
        """Job options must be JSON integers in range: anything else is
        a 400 naming the field, and the connection stays usable."""
        _, scheduler, server = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=WAIT_S
        )
        try:
            body = json.dumps({"spec": make_spec().canonical_dict(), **option})
            status, _, document = exchange(
                connection, "POST", "/jobs", body,
                {"Content-Type": "application/json"},
            )
            assert status == 400
            assert document["error"]["type"] == "SpecError"
            assert document["error"]["message"].startswith(next(iter(option)))
            status, _, document = exchange(connection, "GET", "/healthz")
            assert (status, document["status"]) == (200, "ok")
        finally:
            connection.close()
        assert scheduler.jobs() == []

    def test_submit_options_in_range_are_accepted(self, service):
        client, _, server = service
        job = client.submit(
            make_spec(seed=3), priority=-2, workers=3, max_retries=0
        )
        assert (job["priority"], job["workers"], job["max_retries"]) == (
            -2, 3, 0
        )
        # A null retry budget means the scheduler's default.
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=WAIT_S
        )
        try:
            body = json.dumps(
                {"spec": make_spec(seed=4).canonical_dict(), "max_retries": None}
            )
            status, _, _ = exchange(
                connection, "POST", "/jobs", body,
                {"Content-Type": "application/json"},
            )
            assert status == 202
        finally:
            connection.close()

    def test_unreachable_service_raises_unavailable(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=0.5)
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            client.healthz()


def exchange(connection, method, path, body=None, headers=None):
    """(status, will_close, JSON document) of one raw request."""
    connection.request(method, path, body, headers or {})
    response = connection.getresponse()
    document = json.loads(response.read().decode("utf-8"))
    return response.status, response.will_close, document


class TestTransport:
    """Keep-alive transport: one connection per client, no delayed-ACK
    stall, the request body read whatever the answer, one retry on a
    connection the server closed, and a closed server answers nothing."""

    def test_sequential_calls_reuse_one_connection(self, service):
        client, scheduler, _ = service
        for seed in range(5):
            job = client.submit(make_spec(seed=seed))
            client.wait(job["id"], timeout_s=WAIT_S, poll_interval_s=0.001)
            client.result_document(job["id"])
            client.healthz()
        assert scheduler.metrics.counter("http/connections") == 1
        assert client.metrics()["counters"]["http/connections"] == 1

    def test_kept_alive_requests_are_not_held_back(self, service):
        """Headers and body go out in two sends; with Nagle on, the body
        waits for the client's delayed ACK (about 40 ms on Linux)."""
        _, _, server = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=WAIT_S
        )
        seconds = []
        try:
            for _ in range(11):
                started = time.perf_counter()
                assert exchange(connection, "GET", "/healthz")[0] == 200
                seconds.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020

    @pytest.mark.parametrize("path", ["/bogus", "/jobs/abc"])
    def test_unrouted_body_is_read(self, service, path):
        _, scheduler, server = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=WAIT_S
        )
        try:
            body = json.dumps({"spec": make_spec().canonical_dict()})
            status, will_close, document = exchange(
                connection, "POST", path, body,
                {"Content-Type": "application/json"},
            )
            assert (status, will_close) == (404, False)
            assert document["error"]["type"] == "JobNotFoundError"
            status, _, document = exchange(connection, "GET", "/healthz")
            assert (status, document["status"]) == (200, "ok")
        finally:
            connection.close()
        assert scheduler.metrics.counter("http/connections") == 1

    @pytest.mark.parametrize(
        "headers,body,message",
        [
            ({"Content-Length": str(MAX_BODY_BYTES + 1)}, b"x" * 4096,
             "request body too large"),
            ({"Transfer-Encoding": "chunked"}, b"3\r\n{}x\r\n0\r\n\r\n",
             "request body required"),
            ({"Content-Length": "abc"}, b"{}", "request body required"),
        ],
        ids=["over-limit", "chunked", "unparsable-length"],
    )
    def test_unread_body_closes_the_connection(
        self, service, headers, body, message
    ):
        """A body the server does not read is answered with
        ``Connection: close``; the next request comes on a fresh
        connection and is answered in full."""
        _, scheduler, server = service
        connection = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=WAIT_S
        )
        try:
            connection.putrequest("POST", "/jobs")
            for name, value in headers.items():
                connection.putheader(name, value)
            connection.endheaders(body)
            response = connection.getresponse()
            document = json.loads(response.read().decode("utf-8"))
            assert (response.status, response.will_close) == (400, True)
            assert document["error"]["message"].startswith(message)
            status, _, document = exchange(connection, "GET", "/healthz")
            assert (status, document["status"]) == (200, "ok")
        finally:
            connection.close()
        assert scheduler.metrics.counter("http/connections") == 2

    def test_threads_share_one_client(self, service):
        """Concurrent callers each run on their own connection: nothing
        is serialized, crossed or lost, and connections are reused."""
        client, scheduler, _ = service
        threads_n, per_thread = 8, 25
        submitted = [[] for _ in range(threads_n)]
        errors = []

        def submit_all(index):
            try:
                for i in range(per_thread):
                    spec = make_spec(seed=1000 + index * per_thread + i)
                    submitted[index].append((spec, client.submit(spec)))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submit_all, args=(index,))
                for index in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        pairs = [pair for batch in submitted for pair in batch]
        assert len({job["id"] for _, job in pairs}) == threads_n * per_thread
        assert all(job["spec_hash"] == spec.spec_hash() for spec, job in pairs)
        assert scheduler.metrics.counter("http/requests/submit") == 200
        assert scheduler.metrics.counter("http/connections") <= threads_n

    def test_closed_server_ends_kept_alive_connections(self, tmp_path):
        with serving(tmp_path / "store") as (_, server, url):
            connection = http.client.HTTPConnection(
                "127.0.0.1", server.port, timeout=WAIT_S
            )
            client = ServiceClient(url, timeout_s=WAIT_S)
            assert exchange(connection, "GET", "/healthz")[0] == 200
            assert client.healthz()["status"] == "ok"
        try:
            with pytest.raises((http.client.HTTPException, OSError)):
                exchange(connection, "GET", "/healthz")
            with pytest.raises(ServiceUnavailableError, match="cannot reach"):
                client.healthz()
        finally:
            connection.close()
            client.close()

    def test_restart_on_the_same_port_is_retried_once(self, tmp_path):
        with serving(tmp_path / "a") as (_, server, url):
            port = server.port
            client = ServiceClient(url, timeout_s=WAIT_S)
            assert client.healthz()["status"] == "ok"
        try:
            with serving(tmp_path / "b", port=port) as (scheduler, _, _):
                assert client.healthz()["status"] == "ok"
                assert scheduler.metrics.counter("http/connections") == 1
            with pytest.raises(ServiceUnavailableError, match="cannot reach"):
                client.healthz()
        finally:
            client.close()

    def test_fresh_connection_is_never_retried(self):
        """A server that drops every connection unanswered: the request
        goes out once, on one connection, and fails as unreachable."""
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(0.05)
        stop = threading.Event()
        accepted = []

        def drop_all():
            while not stop.is_set():
                try:
                    connection, _ = listener.accept()
                except socket.timeout:
                    continue
                accepted.append(connection)
                connection.close()

        thread = threading.Thread(target=drop_all, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{listener.getsockname()[1]}"
        try:
            with ServiceClient(url, timeout_s=WAIT_S) as client:
                with pytest.raises(ServiceUnavailableError, match="reach"):
                    client.healthz()
        finally:
            stop.set()
            thread.join(timeout=WAIT_S)
            listener.close()
        assert len(accepted) == 1

    def test_idle_timeout_is_finite(self):
        assert 0 < ServiceRequestHandler.timeout < float("inf")

    def test_idle_connection_is_closed(self, tmp_path, monkeypatch):
        """The server closes a connection left idle, which ends its
        thread, and a client whose kept-alive connection went idle as
        long still answers its next call."""
        monkeypatch.setattr(ServiceRequestHandler, "timeout", 0.2)
        with serving(tmp_path / "store") as (_, server, url):
            with ServiceClient(url, timeout_s=WAIT_S) as client:
                assert client.healthz()["status"] == "ok"
                idle = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=WAIT_S
                )
                try:
                    assert idle.recv(1) == b""  # closed, never answered
                finally:
                    idle.close()
                assert client.healthz()["status"] == "ok"

    def test_base_url_forms(self, service):
        _, _, server = service
        with ServiceClient(f"http://127.0.0.1:{server.port}/") as client:
            assert client.healthz()["status"] == "ok"
        # A path prefix is prepended to every request path.
        prefixed = f"http://127.0.0.1:{server.port}/api/"
        with ServiceClient(prefixed) as client:
            with pytest.raises(JobNotFoundError, match="GET /api/healthz"):
                client.healthz()
        # Default ports (connections are built, not opened).
        assert ServiceClient("http://127.0.0.1")._connect().port == 80
        secure = ServiceClient("https://127.0.0.1/api")._connect()
        assert isinstance(secure, http.client.HTTPSConnection)
        assert secure.port == 443
        with pytest.raises(ServiceUnavailableError, match="cannot reach"):
            ServiceClient("ftp://127.0.0.1:1").healthz()


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
            client.close()
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
            with ServiceClient(url, timeout_s=60.0) as client:
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
        with ServiceClient(url, timeout_s=WAIT_S) as client:
            result = client.result(job_id)
        assert isinstance(result, ReplayResult)
        assert result.trials == 2

    def test_fetch_prints_the_replay_report(self, replay_job, capsys):
        url, job_id = replay_job
        assert main(["fetch", "--url", url, "--job", job_id]) == 0
        fetched = capsys.readouterr().out
        assert main(self.REPLAY_ARGV) == 0
        assert fetched == capsys.readouterr().out
        assert "mean slowdown" in fetched
