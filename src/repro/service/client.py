"""Stdlib HTTP client for the campaign service.

:class:`ServiceClient` wraps ``urllib.request`` and re-raises the
service's error contract as the same :class:`ReproError` subclasses the
in-process API uses — a caller cannot tell (except by latency) whether
the scheduler is local or behind HTTP.  Connection-level failures
(refused, timeout, malformed response) surface as
:class:`ServiceUnavailableError`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Mapping, Optional, Union

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


def parse_result(
    document: Mapping[str, Any]
) -> Union[ReliabilityResult, ReplayResult]:
    """The result in a ``GET /jobs/{id}/result`` document, parsed by its
    job spec's ``mode`` (the store dispatches on its ``kind`` tag)."""
    if document["job"]["spec"].get("mode") == "replay":
        return ReplayResult.from_dict(document["result"])
    return ReliabilityResult.from_dict(document["result"])


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

    # ------------------------------------------------------------------ #
    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        url = f"{self.base_url}{path}"
        data = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        request = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            raise self._decode_error(exc) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise ServiceUnavailableError(
                f"cannot reach campaign service at {self.base_url}: {exc}"
            ) from exc
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceUnavailableError(
                f"malformed response from {url}: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ServiceUnavailableError(
                f"unexpected response shape from {url}"
            )
        return document

    @staticmethod
    def _decode_error(exc: urllib.error.HTTPError) -> ServiceError:
        try:
            document = json.loads(exc.read().decode("utf-8"))
            info = document["error"]
            cls = _ERROR_CLASSES.get(str(info["type"]), ServiceError)
            return cls(str(info["message"]))
        except Exception:  # non-JSON error page: keep the status line
            return ServiceError(f"service returned HTTP {exc.code}")

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
        url = f"{self.base_url}/readyz"
        request = urllib.request.Request(url, method="GET")
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                body = response.read()
        except urllib.error.HTTPError as exc:
            body = exc.read()
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise ServiceUnavailableError(
                f"cannot reach campaign service at {self.base_url}: {exc}"
            ) from exc
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceUnavailableError(
                f"malformed response from {url}: {exc}"
            ) from exc
        if not isinstance(document, dict):
            raise ServiceUnavailableError(
                f"unexpected response shape from {url}"
            )
        return document

    def metrics(self) -> Dict[str, Any]:
        return self._request("GET", "/metrics")

    def metrics_openmetrics(self) -> str:
        """Scrape ``/metrics`` as OpenMetrics text (content-negotiated)."""
        url = f"{self.base_url}/metrics"
        request = urllib.request.Request(
            url,
            method="GET",
            headers={"Accept": "application/openmetrics-text"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise self._decode_error(exc) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise ServiceUnavailableError(
                f"cannot reach campaign service at {self.base_url}: {exc}"
            ) from exc

    # ------------------------------------------------------------------ #
    def wait(
        self,
        job_id: str,
        *,
        timeout_s: Optional[float] = None,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state.

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
        while True:
            document = self.job(job_id)
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
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout_s}s waiting for job {job_id} "
                    f"(last state: {state})"
                )
            time.sleep(poll_interval_s)
