"""Stdlib HTTP client for the campaign service.

:class:`ServiceClient` keeps its ``http.client`` connections alive
between requests and re-raises the service's error contract as the same
:class:`ReproError` subclasses the in-process API uses — a caller cannot
tell (except by latency) whether the scheduler is local or behind HTTP.
Connection-level failures (refused, reset, timeout, malformed response)
surface as :class:`ServiceUnavailableError`.  The client connects
directly (proxy variables are ignored); close it, or use it as a context
manager, to close its idle connections.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, Union
from urllib.parse import urlsplit

from repro import contracts
from repro.errors import (
    JobFailedError,
    JobNotFoundError,
    ResultNotReadyError,
    ServiceError,
    ServiceUnavailableError,
    SpecError,
    StoreError,
)
from repro.reliability.results import ReliabilityResult
from repro.replay import ReplayResult
from repro.service.jobs import CampaignSpec

#: error ``type`` name (over the wire) -> exception class raised here.
_ERROR_CLASSES: Dict[str, type] = {
    cls.__name__: cls
    for cls in (
        SpecError,
        JobNotFoundError,
        ResultNotReadyError,
        JobFailedError,
        StoreError,
        ServiceError,
    )
}

DEFAULT_TIMEOUT_S = 30.0
DEFAULT_POLL_INTERVAL_S = 0.2

#: Longest hold :meth:`ServiceClient.wait` asks of one long-poll (the
#: server's own bound, ``repro.service.http.MAX_WAIT_S``).
MAX_HOLD_S = 10.0


def parse_result(
    document: Mapping[str, Any]
) -> Union[ReliabilityResult, ReplayResult]:
    """The result in a ``GET /jobs/{id}/result`` document, parsed by its
    job spec's ``mode`` (the store dispatches on its ``kind`` tag)."""
    if document["job"]["spec"].get("mode") == "replay":
        return ReplayResult.from_dict(document["result"])
    return ReliabilityResult.from_dict(document["result"])


#: URL scheme -> connection class.
_CONNECTIONS: Dict[str, Type[http.client.HTTPConnection]] = {
    "http": http.client.HTTPConnection,
    "https": http.client.HTTPSConnection,
}

#: How a reused connection fails when the server closed it while idle:
#: before any status line arrives (``RemoteDisconnected`` is a
#: ``ConnectionResetError``), so the request was never answered.
_STALE = (ConnectionResetError, BrokenPipeError)


class ServiceClient:
    """Typed client for one campaign-service endpoint."""

    def __init__(
        self, base_url: str, *, timeout_s: float = DEFAULT_TIMEOUT_S
    ) -> None:
        contracts.require(
            timeout_s > 0, "timeout_s must be positive, got %r", timeout_s
        )
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        self._url = urlsplit(self.base_url)
        self._lock = threading.Lock()
        self._idle: List[http.client.HTTPConnection] = []

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    def _connect(self) -> http.client.HTTPConnection:
        factory = _CONNECTIONS.get(self._url.scheme)
        if factory is None:
            raise http.client.InvalidURL(
                f"unsupported URL scheme {self._url.scheme!r}"
            )
        return factory(self._url.netloc, timeout=self.timeout_s)

    def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, bytes]:
        """One request/response on a kept-alive connection; returns the
        status and the whole body.  The lock guards only the idle list,
        so concurrent callers each run on their own connection.  A
        request that fails on a reused connection before any status line
        arrives was never answered, and is sent once more on a fresh
        connection; one on a fresh connection is never retried."""
        with self._lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        target = self._url.path + path
        try:
            if connection is None:
                connection = self._connect()
            try:
                connection.request(method, target, body, headers or {})
                response = connection.getresponse()
            except _STALE:
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body, headers or {})
                response = connection.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            if connection is not None:
                connection.close()
            raise ServiceUnavailableError(
                f"cannot reach campaign service at {self.base_url}: {exc}"
            ) from exc
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.append(connection)
        return response.status, data

    def _document(self, path: str, data: bytes) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        try:
            document = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceUnavailableError(
                f"malformed response from {url}: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ServiceUnavailableError(
                f"unexpected response shape from {url}"
            )
        return document

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        status, data = self._exchange(
            method, path, body, {"Content-Type": "application/json"}
        )
        if status >= 400:
            raise self._decode_error(status, data)
        return self._document(path, data)

    @staticmethod
    def _decode_error(status: int, body: bytes) -> ServiceError:
        try:
            info = json.loads(body.decode("utf-8"))["error"]
            cls = _ERROR_CLASSES.get(str(info["type"]), ServiceError)
            return cls(str(info["message"]))
        except Exception:  # non-JSON error page: keep the status line
            return ServiceError(f"service returned HTTP {status}")

    # ------------------------------------------------------------------ #
    def submit(
        self,
        spec: Union[CampaignSpec, Mapping[str, Any]],
        *,
        priority: int = 0,
        workers: int = 1,
        max_retries: Optional[int] = None,
    ) -> Dict[str, Any]:
        """POST the spec; returns the job document (maybe already done)."""
        if isinstance(spec, CampaignSpec):
            spec_doc = spec.canonical_dict()
        else:
            spec_doc = CampaignSpec.from_dict(spec).canonical_dict()
        payload: Dict[str, Any] = {
            "spec": spec_doc,
            "priority": priority,
            "workers": workers,
        }
        if max_retries is not None:
            payload["max_retries"] = max_retries
        return self._request("POST", "/jobs", payload)

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> List[Dict[str, Any]]:
        return list(self._request("GET", "/jobs")["jobs"])

    def result_document(self, job_id: str) -> Dict[str, Any]:
        """The raw ``{"job": ..., "result": ...}`` document."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def result(self, job_id: str) -> Union[ReliabilityResult, ReplayResult]:
        return parse_result(self.result_document(job_id))

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/jobs/{job_id}")

    def healthz(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def readyz(self) -> Dict[str, Any]:
        """The readiness document (``{"ready": ..., "phase": ...}``).

        A 503 means "alive but not ready" (starting up, or draining
        after SIGTERM) — that is an *answer*, not an error, so the body
        is returned either way.
        """
        _, data = self._exchange("GET", "/readyz")
        return self._document("/readyz", data)

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def metrics_openmetrics(self) -> str:
        """Scrape ``/metrics`` as OpenMetrics text (content-negotiated)."""
        status, data = self._exchange(
            "GET",
            "/metrics",
            headers={"Accept": "application/openmetrics-text"},
        )
        if status >= 400:
            raise self._decode_error(status, data)
        return data.decode("utf-8")

    # ------------------------------------------------------------------ #
    def wait(
        self,
        job_id: str,
        *,
        timeout_s: Optional[float] = None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
    ) -> Dict[str, Any]:
        """Wait until the job reaches a terminal state.

        Each request is a long-poll, ``GET /jobs/{id}?wait=S``: the
        server answers once the job is terminal or S seconds have
        passed.  S is at most :data:`MAX_HOLD_S`, half the socket
        timeout, and the time left before ``timeout_s``.  A non-terminal
        answer that came back before its hold elapsed (from a server
        that ignores ``?wait``, or one that is closing) is followed by a
        pause of ``poll_interval_s`` before the next request.

        Returns the final job document for ``done`` jobs; raises
        :class:`JobFailedError` for failed/cancelled ones and
        :class:`ServiceError` on timeout.
        """
        contracts.require(
            poll_interval_s > 0,
            "poll_interval_s must be positive, got %r",
            poll_interval_s,
        )
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        longest = min(MAX_HOLD_S, self.timeout_s / 2)
        while True:
            asked = time.monotonic()
            hold = longest
            if deadline is not None:
                hold = max(0.0, min(hold, deadline - asked))
            document = self._request("GET", f"/jobs/{job_id}?wait={hold:.3f}")
            state = document.get("state")
            if state == "done":
                return document
            if state in ("failed", "cancelled"):
                raise JobFailedError(
                    f"job {job_id} is {state}"
                    + (
                        f": {document['error']}"
                        if document.get("error")
                        else ""
                    )
                )
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise ServiceError(
                    f"timed out after {timeout_s}s waiting for job {job_id} "
                    f"(last state: {state})"
                )
            if now - asked < hold:
                time.sleep(poll_interval_s)
