"""Tests for the service error hierarchy and its CLI surface.

Every :class:`ServiceError` subclass must (a) be catchable as both
``ServiceError`` and ``ReproError``, and (b) exit the CLI nonzero with
exactly one ``error:`` line on stderr — the contract scripts rely on
when they drive ``repro submit``/``status``/``fetch``.
"""

import pytest

from repro.cli import main
from repro.errors import (
    JobFailedError,
    JobNotFoundError,
    ReproError,
    ResultNotReadyError,
    ServiceError,
    ServiceUnavailableError,
    SpecError,
    StoreError,
)

SERVICE_ERRORS = [
    SpecError,
    JobNotFoundError,
    ResultNotReadyError,
    JobFailedError,
    StoreError,
    ServiceUnavailableError,
]


class TestHierarchy:
    @pytest.mark.parametrize("cls", SERVICE_ERRORS)
    def test_subclasses_service_and_repro_error(self, cls):
        assert issubclass(cls, ServiceError)
        assert issubclass(cls, ReproError)

    def test_service_error_is_repro_error(self):
        assert issubclass(ServiceError, ReproError)

    @pytest.mark.parametrize("cls", SERVICE_ERRORS)
    def test_distinct_classes_for_wire_contract(self, cls):
        # The HTTP layer serializes errors by class name; names must be
        # unique across the hierarchy for the client to reconstruct them.
        names = [c.__name__ for c in SERVICE_ERRORS]
        assert names.count(cls.__name__) == 1


def one_error_line(capsys):
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ")
    return lines[0], captured.out


class TestCLISurface:
    def test_invalid_spec_exits_nonzero(self, capsys):
        # trials=0 passes argparse but fails CampaignSpec validation.
        rc = main(["submit", "--trials", "0"])
        assert rc == 1
        line, out = one_error_line(capsys)
        assert "trials" in line
        assert out == ""  # stdout stays a clean result channel

    def test_unreachable_service_exits_nonzero(self, capsys):
        # Port 1 is never bound: connection refused, no 30s stall.
        rc = main([
            "fetch", "--url", "http://127.0.0.1:1", "--job", "j000001-abc",
        ])
        assert rc == 1
        line, out = one_error_line(capsys)
        assert "cannot reach campaign service" in line
        assert out == ""

    def test_status_against_dead_service_exits_nonzero(self, capsys):
        rc = main(["status", "--url", "http://127.0.0.1:1"])
        assert rc == 1
        line, _ = one_error_line(capsys)
        assert "cannot reach campaign service" in line

    @pytest.mark.parametrize(
        "cls,message",
        [
            (JobNotFoundError, "unknown job id 'x'"),
            (ResultNotReadyError, "job x is running"),
            (JobFailedError, "job x is failed: boom"),
            (StoreError, "result evicted"),
        ],
    )
    def test_client_errors_render_one_line(
        self, cls, message, capsys, monkeypatch
    ):
        """Whatever error class the client raises, the CLI prints one
        ``error:`` line carrying its message and exits 1."""
        import repro.service.client as client_mod

        class ExplodingClient:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def __getattr__(self, name):
                def raiser(*args, **kwargs):
                    raise cls(message)

                return raiser

        monkeypatch.setattr(client_mod, "ServiceClient", ExplodingClient)
        rc = main(["fetch", "--job", "x"])
        assert rc == 1
        line, _ = one_error_line(capsys)
        assert line == f"error: {message}"
