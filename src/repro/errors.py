"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GeometryError(ReproError):
    """A stack/bank/row/column coordinate is outside the configured geometry."""


class ConfigurationError(ReproError):
    """An object was configured with inconsistent or unsupported parameters."""


class CapacityError(ReproError):
    """A bounded hardware resource (spare rows, spare banks, stand-by TSVs)
    was asked to hold more than it can."""


class UncorrectableError(ReproError):
    """The functional datapath detected an error it could not correct."""


class MergeError(ReproError):
    """Two :class:`~repro.reliability.results.ReliabilityResult` shards with
    incompatible metadata (scheme, stratum weight, lifetime, min-fault
    stratum) were asked to merge."""


class CheckpointError(ReproError):
    """A parallel-campaign checkpoint file is unreadable or belongs to a
    different shard plan than the resuming run."""


class TelemetryError(ReproError):
    """A telemetry artifact (metrics registry, trace file) is malformed:
    histogram edges disagree, a trace record fails schema validation, or
    a metric was recorded inconsistently with its declaration."""


class ServiceError(ReproError):
    """Base class for campaign-service failures (job queue, scheduler,
    result store, HTTP API).  Every service-facing error derives from
    this so CLI entry points can render a one-line message instead of a
    traceback."""


class SpecError(ServiceError):
    """A submitted campaign spec is invalid: unknown scheme, out-of-range
    parameter, unknown field, or malformed JSON document."""


class JobNotFoundError(ServiceError):
    """The requested job id is not known to the scheduler."""


class ResultNotReadyError(ServiceError):
    """A result was requested for a job that has not completed yet."""


class JobFailedError(ServiceError):
    """The job reached a terminal ``failed`` or ``cancelled`` state, so
    no result will ever be available."""


class StoreError(ServiceError):
    """A content-addressed store entry is unreadable or its payload does
    not match the spec hash it is filed under."""


class ServiceUnavailableError(ServiceError):
    """The service endpoint could not be reached (connection refused,
    timeout, or malformed response)."""


class ContractViolation(ReproError):
    """A runtime contract (require/ensure/invariant) was violated.

    Raised by :mod:`repro.contracts` when checking is enabled; indicates a
    bug in the library (or a caller handing it inconsistent state), never
    a recoverable condition.
    """
