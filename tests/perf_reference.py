"""Object-based reference for the performance simulator.

This is the service loop :class:`repro.perf.system.SystemSimulator` ran
before it compiled its traces: one :class:`BankState` per bank, one
:class:`ChannelState` per channel, every request decoded into a
:class:`~repro.stack.address.LineLocation` when it is served, and every
line access expanded through :func:`~repro.stack.striping.sub_accesses`
then.  Its LLC keys are the simulator's integer keys (a demand line's
address; ``num_lines + row * lines_per_row + slot`` for a dim-1 parity
line), so the two must agree on every
:class:`~repro.perf.system.PerfResult` field for any configuration.
The reference hands every LLC access to its :class:`LRUCache`, whichever
set it falls in; the cache of its last run is kept as
:attr:`ReferenceSimulator.llc`, so its counters can be held against the
compiled simulator's ``llc/`` telemetry.

:class:`ReferencePerturbation` is likewise the perturbation hook as it
was before it kept a per-bank delay table: it is handed each request's
home location and works its delay out from the protection state on
every call.  :class:`ReferenceSimulator` consults it.  The differential
tests in ``test_perf.py`` and ``test_replay.py`` hold the compiled
simulator and the table-driven hook to these.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import contracts
from repro.errors import ConfigurationError
from repro.perf.llc import LRUCache
from repro.perf.power import EnergyCounters
from repro.perf.system import PerfConfig, PerfResult, Perturbation
from repro.perf.timing import DRAMTimings
from repro.replay.perturb import (
    CORRECTION_DELAY_CYCLES,
    REMAP_COPY_LINES,
    REMAP_INDIRECTION_CYCLES,
    SCRUB_READS_PER_PASS,
    TSV_SWAP_MUX_CYCLES,
)
from repro.replay.timeline import FaultTimeline, TimelineEvent
from repro.stack.address import AddressMapper, LineLocation
from repro.stack.geometry import StackGeometry
from repro.stack.striping import sub_accesses
from repro.workloads.trace import Trace


@dataclass
class BankState:
    """Open-page bank with a single availability horizon."""

    timings: DRAMTimings
    open_row: Optional[int] = None
    busy_until: int = 0
    activations: int = 0
    row_hits: int = 0
    row_misses: int = 0

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.open_row, "open_row")
        contracts.check_non_negative(self.busy_until, "busy_until")

    def access(self, at: int, row: int, is_write: bool) -> int:
        """Serve one column access; returns the cycle data is available.

        ``at`` is the earliest cycle the access may start (request arrival
        at the controller).
        """
        t = self.timings
        start = max(at, self.busy_until)
        if self.open_row == row:
            self.row_hits += 1
            data_at = start + t.row_hit_latency
            self.busy_until = data_at
        else:
            self.row_misses += 1
            self.activations += 1
            act_at = start + t.tRP
            data_at = act_at + t.tRCD + t.tCAS
            # The row must stay active for tRAS before the next precharge,
            # so a conflicting access cannot begin earlier than that.
            self.busy_until = max(data_at, act_at + t.tRAS)
            self.open_row = row
        if is_write:
            self.busy_until += t.tWTR
        return data_at


@dataclass
class ChannelState:
    """One channel: its banks plus the shared data bus."""

    timings: DRAMTimings
    num_banks: int
    banks: List[BankState] = field(default_factory=list)
    bus_free_at: int = 0
    bus_busy_cycles: int = 0

    def __post_init__(self) -> None:
        contracts.require(self.num_banks > 0, "channel needs at least one bank")
        if not self.banks:
            self.banks = [BankState(self.timings) for _ in range(self.num_banks)]

    def reserve_bus(self, at: int) -> int:
        """Claim the next bus slot at or after ``at``; returns transfer end."""
        start = max(at, self.bus_free_at)
        end = start + self.timings.tBURST
        self.bus_free_at = end
        self.bus_busy_cycles += self.timings.tBURST
        return end


class ReferenceSimulator:
    """The object-based FCFS service loop, request by request."""

    def __init__(
        self,
        geometry: StackGeometry,
        config: PerfConfig,
        timings: DRAMTimings = DRAMTimings(),
    ) -> None:
        self.geometry = geometry
        self.config = config
        self.timings = timings
        self.mapper = AddressMapper(geometry, config.stacks)
        #: The LLC of the last :meth:`run`, every access modeled.
        self.llc: Optional[LRUCache] = None

    def run(
        self,
        traces: Sequence[Trace],
        hook: Optional["ReferencePerturbation"] = None,
    ) -> PerfResult:
        if not traces:
            raise ConfigurationError("need at least one core trace")
        geometry, config = self.geometry, self.config
        channels = [
            ChannelState(self.timings, geometry.banks_per_die)
            for _ in range(config.stacks * geometry.channels)
        ]
        llc = self.llc = LRUCache(
            num_sets=config.llc_capacity_bytes
            // geometry.line_bytes
            // config.llc_ways,
            ways=config.llc_ways,
        )
        result = PerfResult(label=config.label(), exec_cycles=0,
                            counters=EnergyCounters())

        positions = [0] * len(traces)
        outstanding: List[List[int]] = [[] for _ in traces]
        clocks = [0] * len(traces)
        finish = [0] * len(traces)
        heap: List[Tuple[int, int]] = []
        for cid, trace in enumerate(traces):
            if len(trace):
                clocks[cid] = trace.requests[0].gap_cycles
                heapq.heappush(heap, (clocks[cid], cid))

        served = 0
        while heap:
            now, cid = heapq.heappop(heap)
            trace = traces[cid]
            request = trace.requests[positions[cid]]
            home = self.mapper.to_location(request.address)
            issue = now
            if hook is not None:
                effect = hook.on_request(served, home, now)
                if effect is not None:
                    for extra_home, is_write in effect.extra_accesses:
                        self._memory_access(
                            extra_home, now, is_write, channels, result
                        )
                        if is_write:
                            result.extra_writes += 1
                        else:
                            result.extra_reads += 1
                    issue = now + effect.delay_cycles
                    result.perturb_delay_cycles += effect.delay_cycles
            served += 1
            completion = self._serve(
                request, home, issue, channels, llc, result
            )
            finish[cid] = max(finish[cid], completion)
            heapq.heappush(outstanding[cid], completion)
            positions[cid] += 1
            if positions[cid] >= len(trace):
                continue
            next_time = now + trace.requests[positions[cid]].gap_cycles
            pending = outstanding[cid]
            window = trace.mlp if trace.mlp else self.config.mlp_per_core
            while pending and pending[0] <= next_time:
                heapq.heappop(pending)
            while len(pending) >= window:
                next_time = max(next_time, heapq.heappop(pending))
            heapq.heappush(heap, (next_time, cid))

        result.core_finish_cycles = finish
        result.exec_cycles = max(finish) if finish else 0
        for channel in channels:
            result.bank_activations.append(
                [bank.activations for bank in channel.banks]
            )
            for bank in channel.banks:
                result.counters.activations += bank.activations
                result.row_hits += bank.row_hits
                result.row_misses += bank.row_misses
        result.counters.exec_cycles = result.exec_cycles
        return result

    def _serve(
        self,
        request,
        home: LineLocation,
        now: int,
        channels: List[ChannelState],
        llc: LRUCache,
        result: PerfResult,
    ) -> int:
        """Serve one demand request homed at ``home``; returns its
        completion cycle."""
        config = self.config
        llc.access(request.address)
        if request.is_write:
            result.demand_writes += 1
        else:
            result.demand_reads += 1

        completion = now
        if config.parity_protection and request.is_write:
            completion = self._memory_access(
                home, now, is_write=False, channels=channels, result=result,
            )
            result.rbw_reads += 1
        completion = self._memory_access(
            home, completion, is_write=request.is_write,
            channels=channels, result=result,
        )
        if config.parity_protection and request.is_write:
            self._update_parity(home, completion, channels, llc, result)
        return completion

    def _memory_access(
        self,
        home: LineLocation,
        at: int,
        is_write: bool,
        channels: List[ChannelState],
        result: PerfResult,
    ) -> int:
        """Expand per the striping policy and reserve banks + buses."""
        completion = at
        per_channel_data: Dict[int, int] = {}
        for sub in sub_accesses(self.config.striping, self.geometry, home):
            bank = channels[sub.channel].banks[sub.bank]
            data_at = bank.access(at, sub.row, is_write)
            prev = per_channel_data.get(sub.channel, 0)
            per_channel_data[sub.channel] = max(prev, data_at)
            if is_write:
                result.counters.write_bytes += sub.bytes
            else:
                result.counters.read_bytes += sub.bytes
        for channel_id, data_at in per_channel_data.items():
            done = channels[channel_id].reserve_bus(data_at)
            completion = max(completion, done)
        return completion

    def _parity_home(self, home: LineLocation) -> LineLocation:
        g = self.geometry
        stack_base = (home.channel // g.channels) * g.channels
        return LineLocation(
            channel=stack_base + (home.row + home.slot) % g.channels,
            bank=(home.row // g.channels) % g.banks_per_die,
            row=home.row,
            slot=home.slot,
        )

    def _update_parity(
        self,
        home: LineLocation,
        at: int,
        channels: List[ChannelState],
        llc: LRUCache,
        result: PerfResult,
    ) -> None:
        """Dim-1 parity update for a writeback (Figure 12)."""
        result.parity_lookups += 1
        group = (
            self.mapper.num_lines
            + home.row * self.geometry.lines_per_row
            + home.slot
        )
        if self.config.parity_caching:
            if llc.access(group):
                result.parity_hits += 1
                return
            parity_home = self._parity_home(home)
            self._memory_access(parity_home, at, False, channels, result)
            result.parity_fetches += 1
            self._memory_access(parity_home, at, True, channels, result)
            result.parity_writebacks += 1
            return
        parity_home = self._parity_home(home)
        done = self._memory_access(parity_home, at, False, channels, result)
        result.parity_fetches += 1
        self._memory_access(parity_home, done, True, channels, result)
        result.parity_writebacks += 1


class ReferencePerturbation:
    """The per-request perturbation hook of one :class:`FaultTimeline`.

    Same protection state machine and answers as
    :class:`repro.replay.perturb.ReplayPerturbation`, but every call is
    handed the request's home :class:`LineLocation` and looks its
    channel and ``(channel, bank)`` position up in the state itself.
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
        self.applied: Dict[str, int] = {}
        self._schedule: List[Tuple[int, TimelineEvent]] = [
            (self._ordinal(event.time_hours), event)
            for event in timeline.events
        ]
        self._cursor = 0

    def _ordinal(self, time_hours: float) -> int:
        if self.total_requests <= 0 or self.timeline.lifetime_hours <= 0:
            return 0
        frac = time_hours / self.timeline.lifetime_hours
        ordinal = int(frac * self.total_requests)
        return min(max(ordinal, 0), self.total_requests - 1)

    def _positions(self, event: TimelineEvent) -> List[Tuple[int, int]]:
        channels = self.geometry.channels
        return [(die % channels, bank) for die in event.dies for bank in event.banks]

    def _scrub_reads(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        g = self.geometry
        return [
            (
                LineLocation(
                    channel=(event.seq + i) % g.channels,
                    bank=(event.seq + i) % g.banks_per_die,
                    row=(event.seq * 31 + i) % g.rows_per_bank,
                    slot=0,
                ),
                False,
            )
            for i in range(min(SCRUB_READS_PER_PASS, g.channels * g.banks_per_die))
        ]

    def _copy_traffic(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        g = self.geometry
        lines = REMAP_COPY_LINES.get(event.detail, 2)
        accesses = []
        for channel, bank in self._positions(event):
            for i in range(lines):
                row = (event.seq * 31 + i) % g.rows_per_bank
                accesses.append(
                    (LineLocation(channel=channel, bank=bank, row=row, slot=0), False)
                )
                accesses.append(
                    (
                        LineLocation(
                            channel=channel,
                            bank=(bank + 1) % g.banks_per_die,
                            row=row,
                            slot=0,
                        ),
                        True,
                    )
                )
        return accesses

    def _apply(self, event: TimelineEvent) -> List[Tuple[LineLocation, bool]]:
        self.applied[event.kind] = self.applied.get(event.kind, 0) + 1
        if event.kind == "fault":
            if event.channel >= 0:
                for bank in range(self.geometry.banks_per_die):
                    self._degraded.setdefault(
                        (event.channel, bank), event.detail or "permanent"
                    )
            for position in self._positions(event):
                self._degraded.setdefault(position, event.detail or "permanent")
            return []
        if event.kind == "tsv_swap":
            if event.channel >= 0:
                self._swapped.add(event.channel)
            return []
        if event.kind == "scrub":
            transient = [
                pos for pos, kind in self._degraded.items() if kind == "transient"
            ]
            for position in transient:
                del self._degraded[position]
            return self._scrub_reads(event)
        if event.kind == "dds_remap":
            for position in self._positions(event):
                self._degraded.pop(position, None)
                self._remapped.add(position)
            return self._copy_traffic(event)
        return []

    def on_request(
        self, index: int, home: LineLocation, now: int
    ) -> Optional[Perturbation]:
        extra: List[Tuple[LineLocation, bool]] = []
        while (
            self._cursor < len(self._schedule)
            and self._schedule[self._cursor][0] <= index
        ):
            extra.extend(self._apply(self._schedule[self._cursor][1]))
            self._cursor += 1
        position = (home.channel, home.bank)
        delay = 0
        if home.channel in self._swapped:
            delay += TSV_SWAP_MUX_CYCLES
        if position in self._degraded:
            delay += CORRECTION_DELAY_CYCLES
        elif position in self._remapped:
            delay += REMAP_INDIRECTION_CYCLES
        if not delay and not extra:
            return None
        return Perturbation(delay_cycles=delay, extra_accesses=tuple(extra))
