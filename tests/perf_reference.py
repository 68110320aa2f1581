"""Object-based reference for the performance simulator.

This is the service loop :class:`repro.perf.system.SystemSimulator` ran
before it compiled its traces: one :class:`BankState` per bank, one
:class:`ChannelState` per channel, and every line access expanded
through :func:`~repro.stack.striping.sub_accesses` when it is served.
Its LLC keys are the simulator's integer keys (a demand line's address;
``num_lines + row * lines_per_row + slot`` for a dim-1 parity line), so
the two must agree on every :class:`~repro.perf.system.PerfResult`
field for any configuration.  The differential tests in
``test_perf.py`` hold them to it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import contracts
from repro.errors import ConfigurationError
from repro.perf.llc import LRUCache
from repro.perf.power import EnergyCounters
from repro.perf.system import PerfConfig, PerfResult, RequestHook
from repro.perf.timing import DRAMTimings
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

    def run(
        self, traces: Sequence[Trace], hook: Optional[RequestHook] = None
    ) -> PerfResult:
        if not traces:
            raise ConfigurationError("need at least one core trace")
        geometry, config = self.geometry, self.config
        channels = [
            ChannelState(self.timings, geometry.banks_per_die)
            for _ in range(config.stacks * geometry.channels)
        ]
        llc = LRUCache(
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
            issue = now
            if hook is not None:
                effect = hook.on_request(served, request, now)
                if effect is not None:
                    for home, is_write in effect.extra_accesses:
                        self._memory_access(home, now, is_write, channels, result)
                        if is_write:
                            result.extra_writes += 1
                        else:
                            result.extra_reads += 1
                    issue = now + effect.delay_cycles
                    result.perturb_delay_cycles += effect.delay_cycles
            served += 1
            completion = self._serve(request, issue, channels, llc, result)
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
        now: int,
        channels: List[ChannelState],
        llc: LRUCache,
        result: PerfResult,
    ) -> int:
        """Serve one demand request; returns its completion cycle."""
        config = self.config
        llc.access(self.mapper.to_address(request.home))
        if request.is_write:
            result.demand_writes += 1
        else:
            result.demand_reads += 1

        completion = now
        if config.parity_protection and request.is_write:
            completion = self._memory_access(
                request.home, now, is_write=False, channels=channels,
                result=result,
            )
            result.rbw_reads += 1
        completion = self._memory_access(
            request.home, completion, is_write=request.is_write,
            channels=channels, result=result,
        )
        if config.parity_protection and request.is_write:
            self._update_parity(request.home, completion, channels, llc, result)
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
