"""Last-level cache model for on-demand parity caching (§VI-C).

Citadel keeps Dimension-1 parity lines in the LLC: a writeback looks up
the parity line of its dim-1 group; on a hit the parity update is an
on-chip XOR, on a miss the parity line is fetched from the parity bank
(Figure 12).  The hit rate (Figure 13, ~85% on average) is governed by
the spatial locality of the writeback stream versus the eviction pressure
of demand misses — so this model is a real set-associative LRU cache fed
by both demand lines and parity lines.

Keys are any hashables; a set is chosen by ``hash(key) % num_sets``.
The performance simulator keys lines by integer address, so its cache is
physically indexed (``hash`` of a non-negative int below 2**61 - 1 is
the int itself) and picks the same sets in every process.

Sets are independent: a line only ever competes with the lines of its
own set.  A set that receives at most ``ways`` distinct lines therefore
never evicts, whatever the order of its accesses, and in it a line hits
exactly when it was touched before.  :func:`overflowing_sets` finds, for
the key population a run can ever put in the cache, the sets where that
does not hold; the simulator models only those with an :class:`LRUCache`
and answers every other access from what the run has touched.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from typing import Dict, FrozenSet, Hashable, Iterable, Optional

from repro.errors import ConfigurationError
from repro.telemetry.registry import MetricsRegistry

#: Baseline shared LLC of Table II: 8 MB, 8-way, 64 B lines.
DEFAULT_LLC_CAPACITY_BYTES = 8 << 20
DEFAULT_LLC_WAYS = 8
DEFAULT_LINE_BYTES = 64


class LRUCache:
    """Set-associative LRU cache of line-sized entries."""

    def __init__(self, num_sets: int, ways: int) -> None:
        _check_shape(num_sets, ways)
        self.num_sets = num_sets
        self.ways = ways
        #: Set index -> its lines in LRU order; a set exists once touched.
        self._sets: Dict[int, OrderedDict] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def like_llc(cls, capacity_bytes: int = DEFAULT_LLC_CAPACITY_BYTES,
                 line_bytes: int = DEFAULT_LINE_BYTES,
                 ways: int = DEFAULT_LLC_WAYS) -> "LRUCache":
        """The baseline 8 MB, 8-way shared LLC of Table II."""
        lines = capacity_bytes // line_bytes
        return cls(num_sets=lines // ways, ways=ways)

    # ------------------------------------------------------------------ #
    def access(self, key: Hashable) -> bool:
        """Touch ``key``; returns True on hit.  Misses insert the line
        (LRU eviction)."""
        index = hash(key) % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        elif key in cache_set:
            cache_set.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.ways:
            cache_set.popitem(last=False)
            self.evictions += 1
        cache_set[key] = True
        return False

    def contains(self, key: Hashable) -> bool:
        cache_set = self._sets.get(hash(key) % self.num_sets)
        return cache_set is not None and key in cache_set

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        """Zero the counters without touching cache contents."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def reset(self) -> None:
        """Return the cache to its just-constructed state.

        Clears *both* the counters and the per-set LRU insertion-order
        state: a reused cache whose sets still held lines (and their
        recency order) would give the next run a warmed-up hit rate.
        """
        self.reset_stats()
        self._sets.clear()

    def record_metrics(
        self, registry: Optional[MetricsRegistry], prefix: str = "llc"
    ) -> None:
        """Mirror the counters into ``registry`` under ``prefix/``."""
        if registry is None:
            return
        registry.inc(f"{prefix}/hits", self.hits)
        registry.inc(f"{prefix}/misses", self.misses)
        registry.inc(f"{prefix}/evictions", self.evictions)


#: The dim-1 parity lines live in the ordinary LLC (§VI-C); the "parity
#: cache" of Figure 13 *is* this LRU cache, shared with demand lines.
ParityCache = LRUCache


def overflowing_sets(
    keys: Iterable[Hashable], num_sets: int, ways: int
) -> FrozenSet[int]:
    """The sets of a ``num_sets`` x ``ways`` :class:`LRUCache` that can
    evict when every key it is handed comes from ``keys``.

    A set can evict only if more than ``ways`` distinct keys map to it.
    In every other set nothing is ever evicted, so an access there hits
    exactly when its key was accessed before, and an LRU fed from
    ``keys`` counts, over those sets, one miss per distinct key and one
    hit per further access.
    """
    _check_shape(num_sets, ways)
    load = Counter(hash(key) % num_sets for key in set(keys))
    return frozenset(index for index, lines in load.items() if lines > ways)


def _check_shape(num_sets: int, ways: int) -> None:
    if num_sets <= 0 or ways <= 0:
        raise ConfigurationError("num_sets and ways must be positive")
