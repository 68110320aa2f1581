"""Mapping fault-timeline events onto per-request perturbations.

:class:`ReplayPerturbation` is the :class:`~repro.perf.system.RequestHook`
the replay engine installs on the performance simulator.  A timeline
event at ``t`` hours lands on demand-request ordinal
``floor(t / lifetime * total_requests)`` — a pure rescaling, no extra
RNG — and from that request on changes the service-loop behavior:

* a live fault degrades its (channel, bank) positions: requests homed
  there pay the 3DP erasure-correction latency;
* a DDS remap converts degradation into a one-time sparing-copy burst
  plus a small permanent indirection latency (RRT/BRT lookup);
* a TSV-Swap activation adds the standby-mux latency to every access on
  the affected channel;
* a scrub pass injects a bounded burst of background reads and clears
  transient degradation.

The reliability timeline describes one stack; perturbations apply to
that stack's channels (the first ``geometry.channels`` of the simulated
system).  All latencies are deterministic integers.

The simulator hands the hook each request's ordinal and global home bank
(``channel * banks_per_die + bank``).  The standing delays of the
protection state live in a per-bank table, rebuilt only when the hook
applies events, so a request between events costs one table lookup: the
cached :class:`~repro.perf.system.Perturbation` of its bank, or ``None``,
with nothing allocated.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set, Tuple

from repro.perf.system import Perturbation, RequestHook
from repro.replay.timeline import FaultTimeline, TimelineEvent
from repro.stack.address import LineLocation
from repro.stack.geometry import StackGeometry

#: Standby-mux latency on a channel with an activated TSV swap (§V-B:
#: the swap network adds one mux stage to the TSV path).
TSV_SWAP_MUX_CYCLES = 2

#: Extra read-path latency for a line whose bank carries a live fault:
#: the 3DP overlay reconstructs through parity (a second access), so a
#: degraded read costs roughly one more bank access.
CORRECTION_DELAY_CYCLES = 8

#: RRT/BRT indirection after a DDS remap (an SRAM lookup, §IV).
REMAP_INDIRECTION_CYCLES = 1

#: Background reads injected per recorded scrub pass (bounded so a
#: 7-year timeline's collapsed scrubs cannot swamp a short trace).
SCRUB_READS_PER_PASS = 8

#: Sparing-copy traffic per DDS remap, in (read, write) line pairs.
REMAP_COPY_LINES = {"row": 2, "bank": 8}


class ReplayPerturbation(RequestHook):
    """Stateful request hook driven by one :class:`FaultTimeline`.

    The delay a request pays depends only on its home bank and on the
    protection state, which changes only when events apply: a swapped
    channel adds the mux latency, and a degraded bank the correction
    latency or, once remapped, the indirection latency.
    """

    def __init__(
        self,
        timeline: FaultTimeline,
        geometry: StackGeometry,
        total_requests: int,
    ) -> None:
        self.timeline = timeline
        self.geometry = geometry
        self.total_requests = total_requests
        #: (channel, bank) -> "transient" | "permanent" for live faults.
        self._degraded: Dict[Tuple[int, int], str] = {}
        #: (channel, bank) positions served through a DDS remap.
        self._remapped: Set[Tuple[int, int]] = set()
        #: Channels with an activated TSV swap.
        self._swapped: Set[int] = set()
        #: Event application counts, mirrored into the metrics registry
        #: by the engine after the run.
        self.applied: Dict[str, int] = {}
        self._schedule: List[Tuple[int, TimelineEvent]] = [
            (self._ordinal(event.time_hours), event)
            for event in timeline.events
        ]
        self._cursor = 0
        #: Ordinal of the next event to apply (infinite when none is left).
        self._due = self._schedule[0][0] if self._schedule else math.inf
        #: Global home bank -> the standing perturbation of a request
        #: homed there, for every bank with a nonzero delay.
        self._delays: Dict[int, Perturbation] = {}

    # ------------------------------------------------------------------ #
    def _ordinal(self, time_hours: float) -> int:
        """Request ordinal standing in for lifetime instant ``time_hours``."""
        if self.total_requests <= 0 or self.timeline.lifetime_hours <= 0:
            return 0
        frac = time_hours / self.timeline.lifetime_hours
        ordinal = int(frac * self.total_requests)
        return min(max(ordinal, 0), self.total_requests - 1)

    def _positions(self, event: TimelineEvent) -> List[Tuple[int, int]]:
        """The (channel, bank) positions an event's footprint covers."""
        channels = self.geometry.channels
        positions = []
        for die in event.dies:
            for bank in event.banks:
                positions.append((die % channels, bank))
        return positions

    def _scrub_reads(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        """A bounded, deterministic burst of scrub reads.

        Locations are spread round-robin over channels/banks/rows by the
        event's sequence number, so successive passes touch different
        rows without any RNG.
        """
        g = self.geometry
        reads = []
        for i in range(min(SCRUB_READS_PER_PASS, g.channels * g.banks_per_die)):
            reads.append(
                (
                    LineLocation(
                        channel=(event.seq + i) % g.channels,
                        bank=(event.seq + i) % g.banks_per_die,
                        row=(event.seq * 31 + i) % g.rows_per_bank,
                        slot=0,
                    ),
                    False,
                )
            )
        return reads

    def _copy_traffic(
        self, event: TimelineEvent
    ) -> List[Tuple[LineLocation, bool]]:
        """Sparing-copy burst for a DDS remap (read source, write spare)."""
        g = self.geometry
        lines = REMAP_COPY_LINES.get(event.detail, 2)
        accesses = []
        for channel, bank in self._positions(event):
            for i in range(lines):
                row = (event.seq * 31 + i) % g.rows_per_bank
                home = LineLocation(channel=channel, bank=bank, row=row, slot=0)
                spare = LineLocation(
                    channel=channel,
                    bank=(bank + 1) % g.banks_per_die,
                    row=row,
                    slot=0,
                )
                accesses.append((home, False))
                accesses.append((spare, True))
        return accesses

    # ------------------------------------------------------------------ #
    def _apply(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        """Advance the protection state machine; returns injected traffic."""
        self.applied[event.kind] = self.applied.get(event.kind, 0) + 1
        if event.kind == "fault":
            if event.channel >= 0:
                # An unabsorbed TSV fault degrades the whole channel.
                for bank in range(self.geometry.banks_per_die):
                    self._degraded.setdefault(
                        (event.channel, bank), event.detail or "permanent"
                    )
            for position in self._positions(event):
                self._degraded.setdefault(
                    position, event.detail or "permanent"
                )
            return []
        if event.kind == "tsv_swap":
            if event.channel >= 0:
                self._swapped.add(event.channel)
            return []
        if event.kind == "scrub":
            transient = [
                pos for pos, kind in self._degraded.items()
                if kind == "transient"
            ]
            for position in transient:
                del self._degraded[position]
            return self._scrub_reads(event)
        if event.kind == "dds_remap":
            for position in self._positions(event):
                self._degraded.pop(position, None)
                self._remapped.add(position)
            return self._copy_traffic(event)
        # "failure": the reliability verdict; no extra service traffic.
        return []

    def _rebuild_delays(self) -> None:
        """Recompute the per-bank delay table from the protection state."""
        banks_per_die = self.geometry.banks_per_die
        delays: Dict[int, int] = {}
        for channel in self._swapped:
            for bank in range(banks_per_die):
                delays[channel * banks_per_die + bank] = TSV_SWAP_MUX_CYCLES
        for position in self._degraded.keys() | self._remapped:
            channel, bank = position
            if not 0 <= bank < banks_per_die:
                continue  # no request is homed there
            home = channel * banks_per_die + bank
            delays[home] = delays.get(home, 0) + (
                CORRECTION_DELAY_CYCLES
                if position in self._degraded
                else REMAP_INDIRECTION_CYCLES
            )
        self._delays = {
            home: Perturbation(delay_cycles=delay)
            for home, delay in delays.items()
        }

    def on_request(
        self, index: int, home_bank: int, now: int
    ) -> Optional[Perturbation]:
        if index < self._due:
            return self._delays.get(home_bank)
        schedule, cursor = self._schedule, self._cursor
        extra: List[Tuple[LineLocation, bool]] = []
        while cursor < len(schedule) and schedule[cursor][0] <= index:
            extra.extend(self._apply(schedule[cursor][1]))
            cursor += 1
        self._cursor = cursor
        self._due = schedule[cursor][0] if cursor < len(schedule) else math.inf
        self._rebuild_delays()
        standing = self._delays.get(home_bank)
        if not extra:
            return standing
        return Perturbation(
            delay_cycles=standing.delay_cycles if standing is not None else 0,
            extra_accesses=tuple(extra),
        )
