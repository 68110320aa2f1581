"""Content-addressed result store with LRU caching.

Every completed campaign is filed under the sha256 of its spec's
canonical JSON (:meth:`CampaignSpec.spec_hash`), one atomic JSON file
per entry under the store root (``results/store/`` by default)::

    results/store/
      d29f...11.json    {"schema": 1, "spec": {...}, "spec_hash": "d29f...",
                         "result": {... ReliabilityResult.to_dict() ...}}

Resubmitting an identical spec is therefore a pure lookup: the stored
``result`` document is exactly what ``ReliabilityResult.to_dict()``
produced at execution time, so a cache hit is *byte-identical* to the
original run.  A bounded in-memory LRU layer keeps hot entries parsed;
an optional disk entry bound evicts the least-recently-used files.  All
writes are write-to-temp-then-rename (the checkpoint discipline), so a
concurrent reader — another scheduler thread, another process — sees
either the complete entry or nothing.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro import contracts
from repro.errors import SpecError, StoreError, TelemetryError
from repro.reliability.results import ReliabilityResult
from repro.replay.results import ReplayResult
from repro.service.jobs import CampaignSpec
from repro.telemetry.files import write_json_atomic
from repro.telemetry.registry import MetricsRegistry

STORE_SCHEMA_VERSION = 1

#: Default bound on parsed entries kept in memory.
DEFAULT_MEMORY_ENTRIES = 64


class ResultStore:
    """Thread-safe content-addressed store of campaign results."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_memory_entries: int = DEFAULT_MEMORY_ENTRIES,
        max_disk_entries: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        contracts.require(
            max_memory_entries >= 1,
            "max_memory_entries must be >= 1, got %r",
            max_memory_entries,
        )
        contracts.require(
            max_disk_entries is None or max_disk_entries >= 1,
            "max_disk_entries must be >= 1 or None, got %r",
            max_disk_entries,
        )
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_memory_entries = max_memory_entries
        self.max_disk_entries = max_disk_entries
        self.metrics = metrics
        self._lock = threading.RLock()
        #: key -> stored entry payload, in LRU order (oldest first).
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: On-disk keys in LRU order (oldest first); seeded from mtimes.
        self._disk_order: List[str] = self._scan_disk()

    # ------------------------------------------------------------------ #
    def _scan_disk(self) -> List[str]:
        entries = [
            (path.stat().st_mtime, path.stem)
            for path in self.root.glob("*.json")
        ]
        return [key for _, key in sorted(entries)]

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def attach_metrics(self, metrics: MetricsRegistry) -> None:
        """Adopt a registry unless one was injected at construction."""
        with self._lock:
            if self.metrics is None:
                self.metrics = metrics

    def _inc(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.inc(name)

    @staticmethod
    def _key_of(spec_or_key: Union[CampaignSpec, str]) -> str:
        if isinstance(spec_or_key, CampaignSpec):
            return spec_or_key.spec_hash()
        return spec_or_key

    # ------------------------------------------------------------------ #
    def _parse_result(
        self, key: str, entry: Dict[str, Any]
    ) -> Union[ReliabilityResult, ReplayResult]:
        """Rebuild the stored result, dispatching on the entry kind.

        Reliability entries carry no ``kind`` key (they predate the
        replay mode and must stay byte-identical); replay entries are
        tagged ``"kind": "replay"``.  A result document that does not
        parse is a corrupt entry (:class:`StoreError`).
        """
        try:
            if entry.get("kind") == "replay":
                return ReplayResult.from_dict(entry["result"])
            return ReliabilityResult.from_dict(entry["result"])
        except (
            AttributeError, KeyError, TypeError, ValueError, TelemetryError
        ) as exc:
            raise StoreError(
                f"malformed result in store entry {self._path(key)}: {exc!r}"
            ) from exc

    def get(
        self, spec_or_key: Union[CampaignSpec, str]
    ) -> Optional[Union[ReliabilityResult, ReplayResult]]:
        """The stored result for this spec (or key), or ``None``.

        Counts a ``store/hits`` or ``store/misses`` metric either way.
        The returned object is rebuilt from the stored document on every
        call, so callers can never mutate the cached entry.
        """
        key = self._key_of(spec_or_key)
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self._touch_disk(key)
                self._inc("store/hits")
                self._inc("store/memory_hits")
                return self._parse_result(key, entry)
            entry = self._load(key)
            if entry is None:
                self._inc("store/misses")
                return None
            self._remember(key, entry)
            self._inc("store/hits")
            self._inc("store/disk_hits")
            return self._parse_result(key, entry)

    def entry(self, spec_or_key: Union[CampaignSpec, str]) -> Optional[Dict[str, Any]]:
        """The raw stored document (spec + result), or ``None``."""
        key = self._key_of(spec_or_key)
        with self._lock:
            found = self._memory.get(key)
            if found is None:
                found = self._load(key)
            return json.loads(json.dumps(found)) if found is not None else None

    def put(
        self,
        spec: CampaignSpec,
        result: Union[ReliabilityResult, ReplayResult],
    ) -> str:
        """File ``result`` under ``spec``'s content address; returns key."""
        key = spec.spec_hash()
        entry = {
            "schema": STORE_SCHEMA_VERSION,
            "spec": spec.canonical_dict(),
            "spec_hash": key,
            "result": result.to_dict(),
        }
        if isinstance(result, ReplayResult):
            # The kind tag drives from_dict dispatch on read; it is
            # written only for replay entries so reliability entries
            # stay byte-identical to pre-replay builds.
            entry["kind"] = "replay"
        if getattr(result, "manifest", None) is not None:
            # The entry-level manifest copy carries the spec hash; the
            # result document's manifest deliberately does not, so a
            # service run stays byte-identical to the equivalent direct
            # run (whose manifest has no spec to hash).
            entry["manifest"] = result.manifest.with_spec_hash(key).to_dict()
        with self._lock:
            write_json_atomic(self._path(key), entry)
            self._remember(key, entry)
            self._inc("store/puts")
        return key

    def contains(self, spec_or_key: Union[CampaignSpec, str]) -> bool:
        key = self._key_of(spec_or_key)
        with self._lock:
            return key in self._memory or self._path(key).exists()

    def __len__(self) -> int:
        with self._lock:
            return len(set(self._disk_order) | set(self._memory))

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(set(self._disk_order) | set(self._memory))

    # ------------------------------------------------------------------ #
    def _load(self, key: str) -> Optional[Dict[str, Any]]:
        path = self._path(key)
        if not path.exists():
            return None
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"unreadable store entry {path}: {exc}") from exc
        if entry.get("schema") != STORE_SCHEMA_VERSION:
            raise StoreError(
                f"store entry {path} has unsupported schema "
                f"{entry.get('schema')!r}"
            )
        # Integrity: the filed spec must hash to the address it is filed
        # under, or the entry was corrupted / tampered with.
        try:
            spec = CampaignSpec.from_dict(entry["spec"])
        except (KeyError, TypeError, SpecError) as exc:
            raise StoreError(f"malformed store entry {path}: {exc}") from exc
        if spec.spec_hash() != key:
            raise StoreError(
                f"store entry {path} does not match its content address: "
                f"spec hashes to {spec.spec_hash()}"
            )
        if "result" not in entry:
            raise StoreError(f"store entry {path} is missing its result")
        return dict(entry)

    def _remember(self, key: str, entry: Dict[str, Any]) -> None:
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)
            self._inc("store/memory_evictions")
        self._touch_disk(key)
        if self.max_disk_entries is not None:
            while len(self._disk_order) > self.max_disk_entries:
                victim = self._disk_order.pop(0)
                self._memory.pop(victim, None)
                self._path(victim).unlink(missing_ok=True)
                self._inc("store/disk_evictions")

    def _touch_disk(self, key: str) -> None:
        if key in self._disk_order:
            self._disk_order.remove(key)
        if self._path(key).exists():
            self._disk_order.append(key)
