"""Memory-trace representation for the performance simulator.

A trace is a per-core sequence of LLC-miss events: the gap (in memory
cycles) since the previous event, whether the event is a writeback, and
the linear address of the cache line.  The address is all a request
carries: the simulator decodes it once, through the checked
:meth:`~repro.stack.address.AddressMapper.decode`, into its Same-Bank
home (striped mappings expand that home into bank accesses), and uses
it as the line's LLC key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class MemoryRequest:
    """One LLC miss or writeback reaching the memory controller."""

    gap_cycles: int       # memory-clock cycles since the previous request
    is_write: bool
    address: int          # linear line address (see AddressMapper)


@dataclass(frozen=True)
class Trace:
    """A per-core request stream plus bookkeeping for reports."""

    name: str
    requests: Sequence[MemoryRequest]
    #: Outstanding misses the generating core can sustain.
    mlp: int = 4

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[MemoryRequest]:
        return iter(self.requests)

    @property
    def write_fraction(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.is_write for r in self.requests) / len(self.requests)

    def total_gap_cycles(self) -> int:
        return sum(r.gap_cycles for r in self.requests)
