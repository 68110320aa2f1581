"""Stdlib-only HTTP API over the campaign scheduler.

Endpoints (all JSON unless negotiated otherwise):

* ``POST /jobs`` — submit ``{"spec": {...}, "priority"?, "workers"?,
  "max_retries"?}``; responds ``202`` with the job document (``200``
  when the submission was an instant cache hit).  The three options are
  JSON integers (``workers >= 1``, ``max_retries >= 0`` or null);
  anything else answers 400.
* ``GET /jobs`` — every known job, newest last.
* ``GET /jobs/{id}`` — one job's lifecycle document.  With
  ``?wait=S`` (a long-poll) the answer is held until the job is terminal
  or S seconds have passed, whichever is first; S is clamped to
  :data:`MAX_WAIT_S`, and a malformed or negative S answers 400.  A held
  request occupies its connection's handler thread.
* ``GET /jobs/{id}/result`` — ``{"job": ..., "result": ...}`` where
  ``result`` is the stored ``ReliabilityResult.to_dict()`` document.
* ``DELETE /jobs/{id}`` — cooperative cancellation.
* ``GET /healthz`` — *liveness*: 200 as long as the process serves
  requests, with job-state tally, readiness flag and store size.
* ``GET /readyz`` — *readiness*: 200 only while the scheduler accepts
  work; 503 during startup and while draining after SIGTERM (the signal
  a load balancer uses to stop routing here before the drain finishes).
* ``GET /metrics`` — the scheduler's :class:`MetricsRegistry`.  Content
  negotiation: ``Accept: application/openmetrics-text`` (or
  ``?format=openmetrics``) returns the deterministic OpenMetrics text
  exposition for Prometheus-compatible scrapers; ``?format=text``
  renders the human table; the default stays JSON.

Every request is measured into the scheduler's registry: per-endpoint
``http/requests/*`` / ``http/errors/*`` counters and an
``http/latency_seconds/*`` histogram, plus an ``http/connections``
counter of accepted connections — all volatile (wall-clock shaped),
so scraping the service never perturbs a deterministic artifact.
Long-polls count under their own ``wait`` label, so hold time never
shows up as slow ``job`` requests.

Transport: HTTP/1.1 with keep-alive, one thread per connection, Nagle
off (a response is sent as headers then body, and Nagle would hold the
body for the client's delayed ACK).  A connection idle for
:data:`IDLE_TIMEOUT_S` is closed, which ends its thread; a client's next
request on it is retried once on a fresh connection.  The declared
request body is read before routing, whatever the answer, so the next
request on the connection starts in step; a body the handler will not
read (over :data:`MAX_BODY_BYTES`, or not length-delimited) is answered
with ``Connection: close``.  :meth:`ServiceHTTPServer.server_close`
ends every hold, lets the answers being written finish, then ends every
open connection, so a closed server answers nothing.  Every JSON
answer is encoded compact (sorted keys, no whitespace).

Error contract: every failure maps a :class:`ReproError` subclass onto
``{"error": {"type": <class name>, "message": <one line>}}`` with a
matching status code, and the client reconstructs the same exception
class — so service errors behave identically in-process and over HTTP.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    JobFailedError,
    JobNotFoundError,
    ReproError,
    ResultNotReadyError,
    ServiceError,
    SpecError,
)
from repro.service.jobs import CampaignSpec
from repro.service.scheduler import CampaignScheduler
from repro.telemetry.console import err
from repro.telemetry.exposition import (
    OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)
from repro.telemetry.registry import monotonic_s

#: Error class -> HTTP status code (client reverses this by class name).
ERROR_STATUS: Dict[type, int] = {
    SpecError: 400,
    JobNotFoundError: 404,
    ResultNotReadyError: 409,
    JobFailedError: 410,
    ServiceError: 500,
}

#: Largest request body accepted, in bytes (a spec is tiny).
MAX_BODY_BYTES = 1 << 20

#: Seconds a kept-alive connection may sit idle before the server closes
#: it and frees its thread (a client reconnects on its next request).
IDLE_TIMEOUT_S = 60.0

#: Longest hold, in seconds, of a ``GET /jobs/{id}?wait=S`` long-poll;
#: a larger S is clamped to it.
MAX_WAIT_S = 10.0

#: Seconds :meth:`ServiceHTTPServer.server_close` gives the answers being
#: written before it ends their connections.
CLOSE_GRACE_S = 2.0

#: Bucket edges (seconds) of the per-endpoint request-latency histograms.
LATENCY_EDGES = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[A-Za-z0-9_.-]+)(?P<rest>/result)?$")


def endpoint_label(
    method: str, path: str, query: Optional[Dict[str, List[str]]] = None
) -> str:
    """Bounded-cardinality endpoint name for per-endpoint metrics (job
    ids collapse onto one label, so the registry cannot grow without
    bound under adversarial paths).  A ``GET /jobs/{id}`` whose parsed
    ``query`` carries ``wait`` is a long-poll, labelled ``wait``."""
    if path in ("/healthz", "/readyz", "/metrics"):
        return path[1:]
    if path == "/jobs":
        return "submit" if method == "POST" else "jobs"
    match = _JOB_PATH.match(path)
    if match is not None:
        if match.group("rest") is not None:
            return "result"
        if method == "DELETE":
            return "cancel"
        return "wait" if query and "wait" in query else "job"
    return "other"


def wait_seconds(query: Dict[str, List[str]]) -> Optional[float]:
    """The hold of a long-poll: ``query``'s ``wait`` as seconds, clamped
    to :data:`MAX_WAIT_S`; None when there is no ``wait``.  A value that
    is not a number, or is negative, is a :class:`SpecError`."""
    values = query.get("wait")
    if values is None:
        return None
    try:
        seconds = float(values[0])
    except ValueError:
        seconds = float("nan")
    if not seconds >= 0:  # also false for NaN
        raise SpecError(
            f"wait must be a number of seconds >= 0, got {values[0]!r}"
        )
    return min(seconds, MAX_WAIT_S)


def submit_option(
    document: Dict[str, Any],
    name: str,
    default: int,
    minimum: Optional[int] = None,
) -> int:
    """``document[name]`` of a ``POST /jobs`` body: a JSON integer (not
    a boolean) of at least ``minimum``, or ``default`` when the key is
    absent.  Anything else is a :class:`SpecError` naming the field."""
    value = document.get(name, default)
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (minimum is not None and value < minimum)
    ):
        wanted = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise SpecError(f"{name} must be {wanted}, got {value!r}")
    return value


def error_payload(exc: ReproError) -> Dict[str, Any]:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


def error_status(exc: ReproError) -> int:
    for cls in type(exc).__mro__:
        if cls in ERROR_STATUS:
            return ERROR_STATUS[cls]
    return 500


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`CampaignScheduler`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        scheduler: CampaignScheduler,
        *,
        quiet: bool = False,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.scheduler = scheduler
        self.quiet = quiet
        self._lock = threading.Condition()
        self._connections: Set[socket.socket] = set()
        #: Requests being answered (held long-polls included).
        self._answering = 0

    @property
    def port(self) -> int:
        return int(self.server_address[1])

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._lock:
            self._connections.add(request)
        self.scheduler.metrics.inc("http/connections", volatile=True)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def answering(self, step: int) -> None:
        """Count a request in (``+1``) or out (``-1``) of being answered."""
        with self._lock:
            self._answering += step
            if not self._answering:
                self._lock.notify_all()

    def server_close(self) -> None:
        """Stop listening, end every long-poll hold, give the answers
        being written up to :data:`CLOSE_GRACE_S` to finish, then end
        every open connection: a kept-alive client must not keep being
        answered by a closed server."""
        super().server_close()
        self.scheduler.release_waiters()
        with self._lock:
            self._lock.wait_for(lambda: not self._answering, CLOSE_GRACE_S)
            connections, self._connections = self._connections, set()
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto the scheduler; all responses are JSON."""

    server: ServiceHTTPServer  # narrowed type
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S
    _body = b""

    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:
        if not self.server.quiet:
            err(f"service: {self.address_string()} {format % args}")

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        self._send(status, body, "application/json")

    def _send_text(
        self,
        status: int,
        text: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        self._send(status, text.encode("utf-8"), content_type)

    def _content_length(self) -> int:
        """The declared body length; -1 when it is not a number."""
        try:
            return int(self.headers.get("Content-Length", 0) or 0)
        except ValueError:
            return -1

    def _consume_body(self) -> None:
        """Read the declared body before routing, so the next request on
        this connection starts where this one ends.  A body that is not
        read (over the limit, or not length-delimited) ends the
        connection after this answer."""
        length = self._content_length()
        if (
            0 <= length <= MAX_BODY_BYTES
            and "Transfer-Encoding" not in self.headers
        ):
            self._body = self.rfile.read(length)
        else:
            self._body = b""
            self.close_connection = True

    def _read_body(self) -> Dict[str, Any]:
        length = self._content_length()
        if length > MAX_BODY_BYTES:
            raise SpecError(f"request body too large ({length} bytes)")
        if not self._body:
            raise SpecError("request body required")
        try:
            document = json.loads(self._body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SpecError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise SpecError("request body must be a JSON object")
        return document

    def _wants_openmetrics(self) -> bool:
        accept = self.headers.get("Accept", "")
        return "application/openmetrics-text" in accept

    def _metrics(self, query: Dict[str, List[str]]) -> None:
        registry = self.server.scheduler.metrics_snapshot()
        fmt = query.get("format", [""])[0] or None
        if fmt == "openmetrics" or (fmt is None and self._wants_openmetrics()):
            self._send_text(
                200,
                render_openmetrics(registry),
                content_type=OPENMETRICS_CONTENT_TYPE,
            )
        elif fmt == "text":
            self._send_text(200, registry.render() + "\n")
        else:
            self._send_json(200, registry.to_dict())

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    def _dispatch(self, method: str) -> None:
        server = self.server
        registry = server.scheduler.metrics
        url = urlsplit(self.path)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query, keep_blank_values=True)
        label = endpoint_label(method, path, query)
        registry.inc(f"http/requests/{label}", volatile=True)
        started = monotonic_s()
        server.answering(1)
        try:
            self._consume_body()
            self._route(method, path, query)
        except ReproError as exc:
            registry.inc(f"http/errors/{label}", volatile=True)
            self._send_json(error_status(exc), error_payload(exc))
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True
        finally:
            server.answering(-1)
            registry.observe(
                f"http/latency_seconds/{label}",
                monotonic_s() - started,
                edges=LATENCY_EDGES,
                volatile=True,
            )

    def _route(
        self, method: str, path: str, query: Dict[str, List[str]]
    ) -> None:
        scheduler = self.server.scheduler
        if method == "GET" and path == "/healthz":
            self._send_json(
                200,
                {
                    "status": "ok",
                    "ready": scheduler.is_ready(),
                    "jobs": scheduler.counts(),
                    "queue_depth": scheduler.queue.depth(),
                    "store_entries": len(scheduler.store),
                },
            )
            return
        if method == "GET" and path == "/readyz":
            readiness = scheduler.readiness()
            self._send_json(200 if readiness["ready"] else 503, readiness)
            return
        if method == "GET" and path == "/metrics":
            self._metrics(query)
            return
        if path == "/jobs":
            if method == "GET":
                self._send_json(
                    200,
                    {"jobs": [job.to_dict() for job in scheduler.jobs()]},
                )
                return
            if method == "POST":
                document = self._read_body()
                spec_doc = document.get("spec")
                if spec_doc is None:
                    raise SpecError('request body must carry a "spec" object')
                spec = CampaignSpec.from_dict(spec_doc)
                job = scheduler.submit(
                    spec,
                    priority=submit_option(document, "priority", 0),
                    workers=submit_option(document, "workers", 1, minimum=1),
                    max_retries=(
                        None
                        if document.get("max_retries") is None
                        else submit_option(
                            document, "max_retries", 0, minimum=0
                        )
                    ),
                )
                status = 200 if job.cache_hit else 202
                self._send_json(status, job.to_dict())
                return
        match = _JOB_PATH.match(path)
        if match is not None:
            job_id = match.group("id")
            wants_result = match.group("rest") is not None
            if method == "GET" and wants_result:
                result = scheduler.result(job_id)
                self._send_json(
                    200,
                    {
                        "job": scheduler.job(job_id).to_dict(),
                        "result": result.to_dict(),
                    },
                )
                return
            if method == "GET":
                hold = wait_seconds(query)
                job = (
                    scheduler.job(job_id)
                    if hold is None
                    else scheduler.wait(job_id, hold)
                )
                self._send_json(200, job.to_dict())
                return
            if method == "DELETE" and not wants_result:
                self._send_json(200, scheduler.cancel(job_id).to_dict())
                return
        raise JobNotFoundError(f"no such endpoint: {method} {path}")


def make_server(
    scheduler: CampaignScheduler,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = False,
) -> ServiceHTTPServer:
    """Bind (``port=0`` picks a free port) without starting to serve."""
    return ServiceHTTPServer((host, port), scheduler, quiet=quiet)
