"""Job model for the campaign service.

A :class:`CampaignSpec` is the validated, *canonical* description of one
campaign — the knobs ``repro reliability`` and ``repro replay`` expose
(scheme, trials, TSV FIT, mitigations, seed, shard size, ...) plus a
``scale`` divisor for smoke-sized runs (folded into ``trials``) and
optional geometry overrides.
:meth:`CampaignSpec.work` turns it into what the runner executes; the
service and the CLI both run that.
Canonicalization matters because the result store is content-addressed:
two submissions describe *the same campaign* iff their canonical JSON
documents are byte-identical, so :meth:`CampaignSpec.spec_hash` is the
store key and the dedupe key for in-flight jobs.

Execution parameters that provably do not change the merged
:class:`~repro.reliability.results.ReliabilityResult` — the worker
count, priority, retry budget — are deliberately *not* part of the spec:
they live on the :class:`Job`, so a 1-worker and an 8-worker submission
of the same campaign share one cache entry.

A :class:`Job` is one submission's lifecycle:
``queued -> running -> done | failed | cancelled``, with
``attempts``/``max_retries`` bookkeeping for the scheduler's
retry-with-backoff loop and a ``cache_hit`` flag recording whether the
result came from the store (or from piggybacking on an identical
in-flight job) rather than a fresh execution.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import contracts
from repro.errors import ConfigurationError, SpecError
from repro.faults.rates import FailureRates
from repro.reliability.montecarlo import EngineConfig
from repro.reliability.parallel import (
    DEFAULT_SHARD_SIZE,
    ReliabilityWork,
    ShardWork,
)
from repro.reliability.sampling import SAMPLING_METHODS
from repro.replay import ReplayConfig, ReplayWork
from repro.schemes import SCHEMES, scheme_mitigations
from repro.stack.geometry import StackGeometry
from repro.stack.tsv import standby_dtsv_indices
from repro.workloads.profiles import WORKLOADS

SPEC_SCHEMA_VERSION = 1

#: Geometry override keys a spec may carry (``StackGeometry`` fields).
GEOMETRY_FIELDS: Tuple[str, ...] = tuple(
    sorted(StackGeometry.__dataclass_fields__)
)

_SPEC_FIELDS = (
    "scheme",
    "trials",
    "scale",
    "tsv_fit",
    "tsv_swap",
    "dds",
    "scrub_hours",
    "seed",
    "shard_size",
    "modes",
    "telemetry",
    "sampling",
    "target_ci_width",
    "geometry",
    "mode",
    "workload",
    "requests",
    "replay_cores",
    "thermal",
)

#: Campaign kinds a spec may describe.
SPEC_MODES = ("reliability", "replay")

#: How :func:`_check_int` names each lower bound.
_INT_KINDS = {None: "an int", 0: "a non-negative int", 1: "a positive int"}


def _check_int(name: str, value: Any, minimum: Optional[int] = None) -> None:
    """Reject anything but an int of at least ``minimum``; a boolean is
    not an int here (JSON ``true`` would otherwise file a campaign apart
    from the same one spelled ``1``)."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        minimum is not None and value < minimum
    ):
        raise SpecError(
            f"{name} must be {_INT_KINDS[minimum]}, got {value!r}"
        )


def _check_number(
    name: str, value: Any, *, positive: bool, finite: bool = False
) -> float:
    """``value`` as a float: a number but no boolean or NaN, above zero
    if ``positive`` else at least zero, and finite if ``finite``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        (value > 0 if positive else value >= 0)
        and (math.isfinite(value) or not finite)
    ):
        raise SpecError(
            f"{name} must be a {'finite ' if finite else ''}number "
            f"{'> 0' if positive else '>= 0'}, got {value!r}"
        )
    return float(value)


@dataclass(frozen=True)
class CampaignSpec:
    """Canonical, validated description of one reliability campaign."""

    scheme: str = "citadel"
    trials: int = 20000
    #: Trial divisor for smoke-sized runs: the campaign executes
    #: ``max(1, trials // scale)`` trials (the same convention as the
    #: benchmark suite's ``REPRO_BENCH_SCALE``).  Validation folds it
    #: into ``trials`` and leaves ``scale`` at 1, so a scaled spec and
    #: the unscaled spec of the same trial count share one content
    #: address.
    scale: int = 1
    tsv_fit: float = 0.0
    tsv_swap: Optional[int] = None
    dds: bool = False
    scrub_hours: float = 12.0
    seed: int = 0
    shard_size: int = DEFAULT_SHARD_SIZE
    #: Collect failure-mode attribution in the result.
    modes: bool = False
    #: Attach the deterministic engine metrics snapshot to the result.
    telemetry: bool = False
    #: Variance-reduction plan (``EngineConfig.sampling``); changing it
    #: changes the sampled trial stream, so it is part of the content
    #: address.
    sampling: str = "naive"
    #: Anytime-valid CI width at which the campaign stops early (None
    #: runs every planned trial).
    target_ci_width: Optional[float] = None
    #: Overrides applied to the baseline :class:`StackGeometry`.
    geometry: Mapping[str, int] = field(default_factory=dict)
    #: Campaign kind: ``"reliability"`` (the default Monte-Carlo
    #: lifetime study) or ``"replay"`` (trace-replay co-simulation).
    #: The replay-only fields below are canonicalized back to their
    #: defaults for reliability specs, so every pre-existing
    #: reliability spec hash is unchanged by their addition.
    mode: str = "reliability"
    workload: str = "zipfian"
    requests: int = 512
    replay_cores: int = 4
    thermal: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SPEC_MODES:
            raise SpecError(
                f"unknown mode {self.mode!r}; expected one of "
                f"{list(SPEC_MODES)}"
            )
        if self.mode == "replay":
            if self.workload not in WORKLOADS:
                raise SpecError(
                    f"unknown workload {self.workload!r}; "
                    f"expected one of {sorted(WORKLOADS)}"
                )
            _check_int("requests", self.requests, 1)
            _check_int("replay_cores", self.replay_cores, 1)
            if not isinstance(self.thermal, bool):
                raise SpecError(
                    f"thermal must be a boolean, got {self.thermal!r}"
                )
            # Replay shards draw every lifetime naively and run every
            # trial: a spec that asks otherwise would be filed apart from
            # the identical computation.
            for name, ignored in (
                ("sampling", self.sampling != "naive"),
                ("target_ci_width", self.target_ci_width is not None),
                ("modes", self.modes),
            ):
                if ignored:
                    raise SpecError(
                        f"{name} is not supported for replay campaigns, "
                        f"got {getattr(self, name)!r}"
                    )
        else:
            # Replay-only knobs are meaningless for reliability
            # campaigns; pin them to the defaults so they can never
            # perturb a reliability spec's content address.
            object.__setattr__(self, "workload", "zipfian")
            object.__setattr__(self, "requests", 512)
            object.__setattr__(self, "replay_cores", 4)
            object.__setattr__(self, "thermal", False)
        if self.scheme not in SCHEMES:
            raise SpecError(
                f"unknown scheme {self.scheme!r}; "
                f"expected one of {sorted(SCHEMES)}"
            )
        _check_int("trials", self.trials, 1)
        _check_int("scale", self.scale, 1)
        object.__setattr__(self, "trials", max(1, self.trials // self.scale))
        object.__setattr__(self, "scale", 1)
        # A NaN FIT compares false against every bound and would run as
        # FIT 0 under another address; +inf scrub hours means never
        # scrub.
        object.__setattr__(self, "tsv_fit", _check_number(
            "tsv_fit", self.tsv_fit, positive=False, finite=True
        ))
        if self.tsv_swap is not None:
            _check_int("tsv_swap", self.tsv_swap, 0)
        object.__setattr__(self, "scrub_hours", _check_number(
            "scrub_hours", self.scrub_hours, positive=True
        ))
        _check_int("seed", self.seed)
        _check_int("shard_size", self.shard_size, 1)
        if self.sampling not in SAMPLING_METHODS:
            raise SpecError(
                f"unknown sampling method {self.sampling!r}; "
                f"expected one of {list(SAMPLING_METHODS)}"
            )
        if self.target_ci_width is not None:
            object.__setattr__(self, "target_ci_width", _check_number(
                "target_ci_width", self.target_ci_width, positive=True
            ))
        for key, value in dict(self.geometry).items():
            if key not in GEOMETRY_FIELDS:
                raise SpecError(
                    f"unknown geometry override {key!r}; "
                    f"expected one of {list(GEOMETRY_FIELDS)}"
                )
            _check_int(f"geometry override {key!r}", value, 1)
        # The stack the campaign runs on, built once here so that an
        # override it refuses fails the submission, not the job.
        overrides = {k: int(v) for k, v in sorted(dict(self.geometry).items())}
        try:
            geometry = StackGeometry(**overrides)
        except ConfigurationError as exc:
            raise SpecError(
                f"geometry overrides {overrides} do not make a stack: {exc}"
            ) from exc
        # Canonicalize: bake the mitigations a scheme implies (citadel
        # *is* 3DP + TSV-Swap + DDS) into the stored fields — a citadel
        # submission hashes identically however it was phrased, and
        # exactly like the CLI run it describes.
        tsv_swap, dds = scheme_mitigations(self.scheme, self.tsv_swap, self.dds)
        if tsv_swap is not None:
            try:
                standby_dtsv_indices(geometry, tsv_swap)
            except ConfigurationError as exc:
                raise SpecError(
                    f"tsv_swap {tsv_swap} does not fit the geometry: {exc}"
                ) from exc
        object.__setattr__(self, "tsv_swap", tsv_swap)
        object.__setattr__(self, "dds", dds)
        # Freeze the mapping into a plain sorted dict so canonical_json
        # is insertion-order independent.
        object.__setattr__(self, "geometry", overrides)

    # ------------------------------------------------------------------ #
    # Canonical form / content address
    # ------------------------------------------------------------------ #
    @property
    def effective_trials(self) -> int:
        """The trials the campaign runs: ``trials``, with ``scale``
        already folded in."""
        return self.trials

    def canonical_dict(self) -> Dict[str, Any]:
        """The canonical JSON-able form; key order is fixed by sorting.

        The ``mode``/``replay`` keys appear **only** for replay specs:
        a reliability spec's canonical document (and therefore its
        content address) is byte-identical to what it was before the
        replay mode existed, so no stored result is orphaned.
        """
        data: Dict[str, Any] = {
            "schema": SPEC_SCHEMA_VERSION,
            "scheme": self.scheme,
            "trials": self.trials,
            "scale": self.scale,
            "tsv_fit": self.tsv_fit,
            "tsv_swap": self.tsv_swap,
            "dds": bool(self.dds),
            "scrub_hours": self.scrub_hours,
            "seed": self.seed,
            "shard_size": self.shard_size,
            "modes": bool(self.modes),
            "telemetry": bool(self.telemetry),
            "sampling": self.sampling,
            "target_ci_width": self.target_ci_width,
            "geometry": dict(self.geometry),
        }
        if self.mode == "replay":
            data["mode"] = self.mode
            data["replay"] = {
                "workload": self.workload,
                "requests": self.requests,
                "replay_cores": self.replay_cores,
                "thermal": bool(self.thermal),
            }
        return data

    def canonical_json(self) -> str:
        """Byte-stable serialization: sorted keys, no whitespace."""
        return json.dumps(
            self.canonical_dict(), sort_keys=True, separators=(",", ":")
        )

    def spec_hash(self) -> str:
        """Content address of this campaign (sha256 of canonical JSON)."""
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Parse and validate an untrusted spec document."""
        if not isinstance(data, Mapping):
            raise SpecError(f"spec must be a JSON object, got {type(data).__name__}")
        payload = dict(data)
        schema = payload.pop("schema", SPEC_SCHEMA_VERSION)
        if schema != SPEC_SCHEMA_VERSION:
            raise SpecError(
                f"unsupported spec schema {schema!r} "
                f"(expected {SPEC_SCHEMA_VERSION})"
            )
        # canonical_dict() nests the replay-only knobs under "replay";
        # flatten them back so round-tripping a stored spec works.
        replay_block = payload.pop("replay", None)
        if replay_block is not None:
            if not isinstance(replay_block, Mapping):
                raise SpecError(
                    f"replay block must be a JSON object, "
                    f"got {type(replay_block).__name__}"
                )
            for name, value in dict(replay_block).items():
                if name not in ("workload", "requests", "replay_cores",
                                "thermal"):
                    raise SpecError(f"unknown replay field {name!r}")
                payload.setdefault(name, value)
        unknown = set(payload) - set(_SPEC_FIELDS)
        if unknown:
            raise SpecError(f"unknown spec field(s): {sorted(unknown)}")
        try:
            kwargs: Dict[str, Any] = {}
            for name in _SPEC_FIELDS:
                if name in payload:
                    kwargs[name] = payload[name]
            for boolean in ("dds", "modes", "telemetry"):
                if boolean in kwargs and not isinstance(kwargs[boolean], bool):
                    raise SpecError(
                        f"{boolean} must be a boolean, got {kwargs[boolean]!r}"
                    )
            # sampling / target_ci_width validation (including the typed
            # rejection of unknown methods) lives in __post_init__ so it
            # covers direct construction too.
            return cls(**kwargs)
        except SpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise SpecError(f"malformed campaign spec: {exc}") from exc

    # ------------------------------------------------------------------ #
    # Execution (shared by the service and the CLI)
    # ------------------------------------------------------------------ #
    def work(self) -> ShardWork:
        """The campaign as runner work: the one mapping from these
        settings to what every shard computes (run it with
        ``root_seed=seed``, ``shard_size`` and ``effective_trials``).
        Replay shards take only the mitigations of the engine settings."""
        geometry = StackGeometry(**dict(self.geometry))
        model = SCHEMES[self.scheme](geometry)
        rates = FailureRates.paper_baseline(tsv_device_fit=self.tsv_fit)
        config = EngineConfig(
            tsv_swap_standby=self.tsv_swap,
            use_dds=self.dds,
            scrub_interval_hours=self.scrub_hours,
        )
        if self.mode == "replay":
            return ReplayWork(
                geometry,
                rates,
                model,
                config,
                ReplayConfig(
                    workload=self.workload,
                    cores=self.replay_cores,
                    requests_per_core=self.requests,
                    thermal=self.thermal,
                ),
                collect_metrics=self.telemetry,
            )
        return ReliabilityWork(
            geometry,
            rates,
            model,
            replace(
                config,
                collect_failure_modes=self.modes,
                collect_metrics=self.telemetry,
                sampling=self.sampling,
                target_ci_width=self.target_ci_width,
            ),
        )


class JobState(str, Enum):
    """Lifecycle states of a submitted campaign job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


@dataclass
class Job:
    """One submission of a :class:`CampaignSpec` and its lifecycle."""

    id: str
    spec: CampaignSpec
    priority: int = 0
    #: Requested worker processes; the scheduler may allot fewer under
    #: its fair-share process budget (results are identical either way).
    workers: int = 1
    max_retries: int = 2
    state: JobState = JobState.QUEUED
    attempts: int = 0
    error: Optional[str] = None
    #: True when the result came from the store or an identical
    #: in-flight job rather than a fresh execution.
    cache_hit: bool = False
    #: Wall-clock seconds the job spent executing (volatile bookkeeping;
    #: never part of the result).
    elapsed_seconds: float = 0.0
    #: Monotonic creation timestamp feeding the scheduler's
    #: oldest-job-age gauge (volatile bookkeeping; never serialized).
    enqueued_at: float = field(default_factory=time.monotonic, repr=False)
    #: Cooperative cancellation flag polled by the runner between shards.
    cancel_event: threading.Event = field(
        default_factory=threading.Event, repr=False
    )

    def __post_init__(self) -> None:
        contracts.require(bool(self.id), "job id must be non-empty")
        contracts.require(
            self.workers >= 1, "workers must be >= 1, got %r", self.workers
        )
        contracts.check_non_negative(self.max_retries, "max_retries")

    @property
    def spec_hash(self) -> str:
        return self.spec.spec_hash()

    def to_dict(self) -> Dict[str, Any]:
        """JSON document served by ``GET /jobs/{id}``."""
        return {
            "id": self.id,
            "state": self.state.value,
            "spec": self.spec.canonical_dict(),
            "spec_hash": self.spec_hash,
            "priority": self.priority,
            "workers": self.workers,
            "max_retries": self.max_retries,
            "attempts": self.attempts,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "elapsed_seconds": self.elapsed_seconds,
        }
