"""Run-provenance manifests: what produced a campaign result.

A :class:`RunManifest` records everything needed to re-run a campaign
and trust that the bytes will match: the scheme, seed, trial plan,
sampler/stopping configuration, a hash of the schemes registry (so a
renamed or added scheme invalidates provenance), and the package
version.  It is attached to merged
:class:`~repro.reliability.results.ReliabilityResult` documents and to
:class:`~repro.service.store.ResultStore` entries, and printed by
``repro status``.

Determinism boundary: the manifest's serialized core is a pure function
of the campaign configuration — **no** hostname, wall-clock time,
platform string or PID.  Those belong to :func:`volatile_provenance`,
which is only ever called from display paths (``repro status`` output,
profiler reports) and must never feed a serialization sink; reprolint
REPRO008 enforces the reachability side of that contract.

The ``spec_hash`` field is optional and unset on runner-attached
manifests: a direct ``repro reliability`` run has no service spec, and
a service job's spec hashes its *pre-scale* trial count, so embedding
it in the result would break the byte-identity between a service run
and the equivalent direct run.  The result store stamps its own copy
of the manifest with the spec hash instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import TelemetryError

MANIFEST_SCHEMA = 1


def schemes_registry_hash() -> str:
    """Short hash over the sorted scheme-registry names.

    Imported lazily so the telemetry package never depends on the
    simulation packages at import time.
    """
    from repro.schemes import SCHEMES

    digest = hashlib.sha256(",".join(sorted(SCHEMES)).encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Deterministic provenance core of one campaign run."""

    scheme: str
    seed: int
    trials: int
    shard_size: int
    sampling: Optional[str]
    target_ci_width: Optional[float]
    schemes_hash: str
    package_version: str
    spec_hash: Optional[str] = None
    schema: int = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """Stable serialization; ``spec_hash`` is omitted when unset."""
        data: Dict[str, Any] = {
            "schema": self.schema,
            "scheme": self.scheme,
            "seed": self.seed,
            "trials": self.trials,
            "shard_size": self.shard_size,
            "sampling": self.sampling,
            "target_ci_width": self.target_ci_width,
            "schemes_hash": self.schemes_hash,
            "package_version": self.package_version,
        }
        if self.spec_hash is not None:
            data["spec_hash"] = self.spec_hash
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunManifest":
        schema = data.get("schema")
        if schema != MANIFEST_SCHEMA:
            raise TelemetryError(
                f"unsupported manifest schema {schema!r} "
                f"(expected {MANIFEST_SCHEMA})"
            )
        for key in ("scheme", "seed", "trials", "shard_size",
                    "schemes_hash", "package_version"):
            if key not in data:
                raise TelemetryError(f"manifest missing {key!r}: {data!r}")
        sampling = data.get("sampling")
        width = data.get("target_ci_width")
        spec_hash = data.get("spec_hash")
        return cls(
            scheme=str(data["scheme"]),
            seed=int(data["seed"]),
            trials=int(data["trials"]),
            shard_size=int(data["shard_size"]),
            sampling=None if sampling is None else str(sampling),
            target_ci_width=None if width is None else float(width),
            schemes_hash=str(data["schemes_hash"]),
            package_version=str(data["package_version"]),
            spec_hash=None if spec_hash is None else str(spec_hash),
        )

    def with_spec_hash(self, spec_hash: str) -> "RunManifest":
        return replace(self, spec_hash=spec_hash)

    def describe(self) -> List[str]:
        """Human-readable lines for ``repro status``."""
        lines = [
            f"scheme          {self.scheme}",
            f"seed            {self.seed}",
            f"trials          {self.trials} (shard size {self.shard_size})",
            f"sampling        {self.sampling or 'naive'}",
        ]
        if self.target_ci_width is not None:
            lines.append(f"target CI width {self.target_ci_width:g}")
        lines.extend([
            f"schemes hash    {self.schemes_hash}",
            f"package         {self.package_version}",
        ])
        if self.spec_hash is not None:
            lines.append(f"spec hash       {self.spec_hash}")
        return lines


def volatile_provenance() -> Dict[str, Any]:
    """Host/time context for *display only* — never serialized into
    results, manifests, checkpoints or any deterministic artifact.
    """
    import os
    import platform
    import sys
    import time

    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "pid": os.getpid(),
        "unix_time": time.time(),
    }
