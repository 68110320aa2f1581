"""The system performance simulator (§III-B).

8 cores with limited memory-level parallelism share the stacked-memory
channels; requests are expanded according to the striping policy and
served FCFS (in arrival order — a conservative stand-in for FR-FCFS)
against open-page bank state machines and per-channel data buses.  The
3DP overlay adds, per writeback: a read-before-write (the XOR delta of
Figure 12), a parity-line lookup in the LLC and — on a miss — a parity
fetch from (and eventual writeback to) the parity bank.

Outputs: execution time (max over cores), event counters for the power
model, row-buffer and parity-cache statistics.

A run compiles each request once into a flat record.  The request's
line address is decoded exactly once, through the checked
:meth:`~repro.stack.address.AddressMapper.decode`; the record keeps its
gap, its LLC key, its row, its global home bank, its bank fan-out
grouped by channel and, for a 3DP writeback, the same for its parity
line.  A line's fan-out depends only on its home bank, because striping
spreads a line over banks or channels and never over rows, so each
simulator expands every home bank once, through
:func:`~repro.stack.striping.sub_accesses` (the one striping rule), into
a fan-out table, and compilation only looks lines up in it.  The service
loop then replays the records against flat per-bank and per-channel
integer state.  The LLC is physically indexed: a demand line's key is
its line address, a parity line's key lies past the line address space,
and both are plain ints, so set selection is the same in every process.

Only the LLC sets a plan can overflow are modeled.  Compilation applies
the set rule (:func:`~repro.perf.llc.overflowing_sets`) to every key the
plan can put in the LLC; a set that receives at most ``ways`` distinct
lines never evicts, so in it a demand access has no observable effect
and a parity lookup hits exactly when the run has fetched that parity
line before.  The run hands only the other sets' lines to its
:class:`~repro.perf.llc.LRUCache`, answers parity lookups elsewhere from
the parity lines it has fetched, and adds the skipped sets' fixed hits
and misses to the LRU's counters for ``llc/`` telemetry.

A per-request perturbation hook lets the replay co-simulation engine
(``repro.replay``) inject protection traffic — scrub reads, DDS copy
traffic, TSV-Swap mux delay, degraded-bank correction latency — into the
service loop.  The hook is handed the request's ordinal and global home
bank, both read off the compiled record.  A run without a hook perturbs
nothing.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import contracts
from repro.errors import ConfigurationError
from repro.perf.llc import (
    DEFAULT_LLC_CAPACITY_BYTES,
    DEFAULT_LLC_WAYS,
    LRUCache,
    overflowing_sets,
)
from repro.perf.power import EnergyCounters
from repro.perf.timing import DRAMTimings
from repro.stack.address import AddressMapper, LineLocation
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy, sub_accesses
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.trace import MemoryRequest, Trace

#: A line access's bank fan-out: ``(channel, global bank ids)`` per
#: channel it occupies, in first-touch order.
_Groups = Tuple[Tuple[int, Tuple[int, ...]], ...]
#: Everything striping decides for a line homed in one bank: (fan-out,
#: bytes, banks).
_FanOut = Tuple[_Groups, int, int]
#: One compiled line access: (LLC key, row, fan-out, bytes, banks).
_Line = Tuple[int, int, _Groups, int, int]
#: A 3DP writeback's dim-1 parity line: (LLC key, whether the LRU models
#: its set, row, fan-out, bytes, banks).  Without parity caching the
#: line never enters the LLC and the flag is unused.
_Parity = Tuple[int, bool, int, _Groups, int, int]
#: One compiled request: (gap, is_write, LLC key, or None when its set
#: cannot overflow, row, fan-out, bytes, banks, dim-1 parity line of a
#: 3DP writeback or None, global home bank).
_Record = Tuple[
    int, bool, Optional[int], int, _Groups, int, int, Optional[_Parity], int
]


@dataclass(frozen=True)
class PerfConfig:
    """One simulated memory organization."""

    striping: StripingPolicy = StripingPolicy.SAME_BANK
    #: Enable the 3DP write path (RBW + dim-1 parity updates).
    parity_protection: bool = False
    #: Cache dim-1 parity lines in the LLC (§VI-C); when False every
    #: writeback reads and rewrites the parity line in memory.
    parity_caching: bool = True
    mlp_per_core: int = 4
    llc_capacity_bytes: int = DEFAULT_LLC_CAPACITY_BYTES
    llc_ways: int = DEFAULT_LLC_WAYS
    #: Number of stacks in the system (Table II: 2 x 8 GB).
    stacks: int = 2

    def __post_init__(self) -> None:
        contracts.require(self.mlp_per_core > 0, "mlp_per_core must be positive")
        contracts.require(
            self.llc_capacity_bytes > 0 and self.llc_ways > 0,
            "LLC capacity and associativity must be positive",
        )
        contracts.require(self.stacks > 0, "need at least one stack")

    def label(self) -> str:
        if not self.parity_protection:
            return self.striping.label
        suffix = "with parity caching" if self.parity_caching else "no parity caching"
        return f"3DP ({suffix})"


@dataclass(frozen=True)
class Perturbation:
    """Extra work a reliability event injects around one demand request.

    ``extra_accesses`` are background memory accesses (``(home,
    is_write)`` pairs — scrub reads, sparing copy traffic) issued at the
    request's arrival cycle; they occupy banks and buses, so later
    demand requests observe the contention.  ``delay_cycles`` stalls the
    request itself before service (remap indirection, TSV-Swap mux,
    erasure-correction latency).
    """

    delay_cycles: int = 0
    extra_accesses: Tuple[Tuple[LineLocation, bool], ...] = ()

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.delay_cycles, "delay_cycles")


class RequestHook:
    """Interface consulted once per demand request, in service order.

    ``index`` is the global 0-based ordinal of the request across all
    cores (heap pop order, which is deterministic).  ``home_bank`` is the
    global id ``channel * banks_per_die + bank`` of the request's
    Same-Bank home, where ``channel`` counts across stacks.  Return
    ``None`` for "no perturbation" — the common case — or a
    :class:`Perturbation`.
    """

    def on_request(
        self, index: int, home_bank: int, now: int
    ) -> Optional[Perturbation]:
        raise NotImplementedError


@dataclass
class PerfResult:
    """Measurements from one simulation run."""

    label: str
    exec_cycles: int
    counters: EnergyCounters
    demand_reads: int = 0
    demand_writes: int = 0
    rbw_reads: int = 0
    parity_fetches: int = 0
    parity_writebacks: int = 0
    parity_lookups: int = 0
    parity_hits: int = 0
    row_hits: int = 0
    row_misses: int = 0
    core_finish_cycles: List[int] = field(default_factory=list)
    #: Hook-injected work (zero unless a :class:`RequestHook` ran).
    extra_reads: int = 0
    extra_writes: int = 0
    perturb_delay_cycles: int = 0
    #: Per-channel, per-bank activation counts (activity for the replay
    #: power/thermal models); indexed ``[channel][bank]``.
    bank_activations: List[List[int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.exec_cycles, "exec_cycles")
        contracts.check_non_negative(self.row_hits, "row_hits")
        contracts.check_non_negative(self.row_misses, "row_misses")

    @property
    def parity_hit_rate(self) -> float:
        if not self.parity_lookups:
            return 0.0
        return self.parity_hits / self.parity_lookups

    @property
    def row_buffer_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


class SystemSimulator:
    """Event-ordered FCFS simulation of the full memory system.

    :meth:`run` compiles its traces into a plan once and replays it from
    flat integer state; the plan is reused for as long as the simulator
    is handed the same :class:`Trace` objects (traces are immutable), so
    a baseline run and every perturbed rerun of it share one
    compilation, and one application of the LLC set rule.
    """

    def __init__(
        self,
        geometry: StackGeometry,
        config: PerfConfig,
        timings: DRAMTimings = DRAMTimings(),
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.geometry = geometry
        self.config = config
        self.timings = timings
        #: Observability hook: after every :meth:`run`, the run's event
        #: counters (``perf/``) and LLC statistics (``llc/``) are added
        #: to this registry.  Purely a mirror of :class:`PerfResult` —
        #: the simulation itself never reads it.
        self.metrics = metrics
        self._mapper = AddressMapper(geometry, config.stacks)
        self._llc_sets = (
            config.llc_capacity_bytes // geometry.line_bytes // config.llc_ways
        )
        #: The fan-out of a line by its global home bank.
        self._fan_out: List[_FanOut] = [
            self._expand(channel, bank)
            for channel in range(self._mapper.total_channels)
            for bank in range(geometry.banks_per_die)
        ]
        #: The traces :attr:`_plan` was compiled from, held so that their
        #: identities stay valid, and the plan: one record list per core.
        self._compiled: Tuple[Trace, ...] = ()
        self._plan: List[List[_Record]] = []
        #: The LLC hits and misses of every run of the plan in the sets
        #: the LRU does not model (see :meth:`_compile_plan`).
        self._quiet_counts: Tuple[int, int] = (0, 0)

    # ------------------------------------------------------------------ #
    def run(
        self, traces: Sequence[Trace], hook: Optional[RequestHook] = None
    ) -> PerfResult:
        """Simulate ``traces`` (one per core) from an idle memory system.

        ``hook`` is the per-request perturbation source of the replay
        co-simulation; with ``None`` no request is perturbed.
        """
        if not traces:
            raise ConfigurationError("need at least one core trace")
        plan = self._plan_for(traces)
        geometry, config, timings = self.geometry, self.config, self.timings
        llc = LRUCache(num_sets=self._llc_sets, ways=config.llc_ways)
        llc_access = llc.access
        caching = config.parity_caching
        # Parity lines this run fetched into LLC sets the LRU skips.
        fetched: Set[int] = set()

        # Flat bank and bus state, indexed by global bank id
        # (``channel * banks_per_die + bank``) and by channel.  Rows are
        # non-negative, so -1 marks a closed row buffer.
        total_channels = config.stacks * geometry.channels
        num_banks = total_channels * geometry.banks_per_die
        open_row = [-1] * num_banks
        busy_until = [0] * num_banks
        activations = [0] * num_banks
        bus_free_at = [0] * total_channels
        t_hit = timings.row_hit_latency
        t_rp, t_ras, t_wtr, t_burst = (
            timings.tRP, timings.tRAS, timings.tWTR, timings.tBURST
        )
        t_act_to_data = timings.tRCD + timings.tCAS

        def access(at: int, row: int, groups: _Groups, is_write: bool) -> int:
            """Reserve one line access's banks, then one bus slot per
            channel; returns the cycle its last transfer ends.

            Sub-accesses within one channel gang onto a single bus burst
            (the banks drive disjoint TSV subsets of the same beats,
            §V-A), so an Across-Banks access costs one bus slot on one
            channel while an Across-Channels access costs one slot on
            every channel.  Each bank is open-page: a row hit costs tCAS;
            a miss precharges, activates and holds the row for tRAS; a
            write adds the tWTR turnaround.
            """
            completion = at
            for channel, banks in groups:
                ready = 0
                for bank in banks:
                    start = busy_until[bank]
                    if start < at:
                        start = at
                    if open_row[bank] == row:
                        data_at = free_at = start + t_hit
                    else:
                        activations[bank] += 1
                        open_row[bank] = row
                        act_at = start + t_rp
                        data_at = act_at + t_act_to_data
                        free_at = act_at + t_ras
                        if free_at < data_at:
                            free_at = data_at
                    busy_until[bank] = free_at + t_wtr if is_write else free_at
                    if data_at > ready:
                        ready = data_at
                start = bus_free_at[channel]
                if start < ready:
                    start = ready
                end = bus_free_at[channel] = start + t_burst
                if end > completion:
                    completion = end
            return completion

        # The PerfResult counters, kept in locals until the end of the run.
        # Every bank access is a row hit or a row miss, and every miss
        # activates, so row hits are bank accesses minus activations.
        demand_reads = demand_writes = rbw_reads = 0
        parity_lookups = parity_hits = parity_fetches = 0
        read_bytes = write_bytes = bank_accesses = 0
        extra_reads = extra_writes = perturb_delay = 0

        # Per-core cursors: (next_issue_time, core_id) on a heap.
        cores = len(plan)
        lengths = [len(records) for records in plan]
        windows = [trace.mlp or config.mlp_per_core for trace in traces]
        positions = [0] * cores
        outstanding: List[List[int]] = [[] for _ in range(cores)]
        finish = [0] * cores
        heap = [
            (records[0][0], cid) for cid, records in enumerate(plan) if records
        ]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush

        on_request = hook.on_request if hook is not None else None
        served = 0
        while heap:
            now, cid = heappop(heap)
            records = plan[cid]
            position = positions[cid]
            (_, is_write, key, row, groups, nbytes, nbanks, parity,
             home_bank) = records[position]
            issue = now
            if on_request is not None:
                effect = on_request(served, home_bank, now)
                if effect is not None:
                    # Injected traffic is expanded when it is served.
                    for home, extra_write in effect.extra_accesses:
                        _, x_row, x_groups, x_bytes, x_banks = self._line(
                            home.channel, home.bank, home.row, home.slot
                        )
                        access(now, x_row, x_groups, extra_write)
                        bank_accesses += x_banks
                        if extra_write:
                            write_bytes += x_bytes
                            extra_writes += 1
                        else:
                            read_bytes += x_bytes
                            extra_reads += 1
                    issue = now + effect.delay_cycles
                    perturb_delay += effect.delay_cycles
            served += 1
            # Demand lines occupy (and pressure) the LLC sets that can
            # overflow; in any other set they change nothing.
            if key is not None:
                llc_access(key)
            if parity is None:
                completion = access(issue, row, groups, is_write)
                bank_accesses += nbanks
                if is_write:
                    demand_writes += 1
                    write_bytes += nbytes
                else:
                    demand_reads += 1
                    read_bytes += nbytes
            else:
                # A 3DP writeback (Figure 12): read-before-write for the
                # XOR delta, the write itself, then the dim-1 parity
                # update, which does not delay the request's completion.
                completion = access(issue, row, groups, False)
                completion = access(completion, row, groups, True)
                demand_writes += 1
                rbw_reads += 1
                read_bytes += nbytes
                write_bytes += nbytes
                bank_accesses += 2 * nbanks
                parity_lookups += 1
                p_key, p_lru, p_row, p_groups, p_bytes, p_banks = parity
                # Outside the LRU's sets nothing is evicted, so a parity
                # line hits once this run has fetched it.
                if caching and (
                    llc_access(p_key) if p_lru else p_key in fetched
                ):
                    parity_hits += 1  # on-chip XOR update, no memory traffic
                else:
                    if caching:
                        # Miss: fetch the parity line into the LLC; the
                        # dirty line's eventual writeback is charged now.
                        if not p_lru:
                            fetched.add(p_key)
                        access(completion, p_row, p_groups, False)
                        access(completion, p_row, p_groups, True)
                    else:
                        # No caching: read-modify-write it in memory.
                        done = access(completion, p_row, p_groups, False)
                        access(done, p_row, p_groups, True)
                    parity_fetches += 1
                    read_bytes += p_bytes
                    write_bytes += p_bytes
                    bank_accesses += 2 * p_banks
            if completion > finish[cid]:
                finish[cid] = completion
            # Writebacks also hold a window slot: evictions are produced by
            # the same miss stream, so a stalled core stops emitting them
            # (keeps the request loop closed under saturation).
            pending = outstanding[cid]
            heappush(pending, completion)
            position += 1
            positions[cid] = position
            if position >= lengths[cid]:
                continue
            next_time = now + records[position][0]
            # Retire completions that happened by then.
            while pending and pending[0] <= next_time:
                heappop(pending)
            # Window full: stall until the oldest miss returns.
            window = windows[cid]
            while len(pending) >= window:
                oldest = heappop(pending)
                if oldest > next_time:
                    next_time = oldest
            heappush(heap, (next_time, cid))

        banks_per_die = geometry.banks_per_die
        row_misses = sum(activations)
        exec_cycles = max(finish)
        result = PerfResult(
            label=config.label(),
            exec_cycles=exec_cycles,
            counters=EnergyCounters(
                activations=row_misses,
                read_bytes=read_bytes,
                write_bytes=write_bytes,
                exec_cycles=exec_cycles,
            ),
            demand_reads=demand_reads,
            demand_writes=demand_writes,
            rbw_reads=rbw_reads,
            parity_fetches=parity_fetches,
            # Every fetched parity line is written back.
            parity_writebacks=parity_fetches,
            parity_lookups=parity_lookups,
            parity_hits=parity_hits,
            row_hits=bank_accesses - row_misses,
            row_misses=row_misses,
            core_finish_cycles=finish,
            extra_reads=extra_reads,
            extra_writes=extra_writes,
            perturb_delay_cycles=perturb_delay,
            bank_activations=[
                activations[base:base + banks_per_die]
                for base in range(0, num_banks, banks_per_die)
            ],
        )
        self._record_metrics(result, llc)
        return result

    def _record_metrics(self, result: PerfResult, llc: LRUCache) -> None:
        registry = self.metrics
        if registry is None:
            return
        # The sets the LRU skipped score the same hits and misses in every
        # run of the plan, and never evict.
        quiet_hits, quiet_misses = self._quiet_counts
        llc.hits += quiet_hits
        llc.misses += quiet_misses
        llc.record_metrics(registry, prefix="llc")
        registry.inc("perf/demand_reads", result.demand_reads)
        registry.inc("perf/demand_writes", result.demand_writes)
        registry.inc("perf/rbw_reads", result.rbw_reads)
        registry.inc("perf/parity_lookups", result.parity_lookups)
        registry.inc("perf/parity_hits", result.parity_hits)
        registry.inc("perf/parity_fetches", result.parity_fetches)
        registry.inc("perf/parity_writebacks", result.parity_writebacks)
        registry.inc("perf/row_hits", result.row_hits)
        registry.inc("perf/row_misses", result.row_misses)
        registry.gauge_set("perf/exec_cycles", float(result.exec_cycles))
        if result.extra_reads or result.extra_writes or result.perturb_delay_cycles:
            # Only present for hooked (replay) runs, so unhooked metric
            # snapshots stay byte-identical to pre-hook output.
            registry.inc("perf/extra_reads", result.extra_reads)
            registry.inc("perf/extra_writes", result.extra_writes)
            registry.inc("perf/perturb_delay_cycles", result.perturb_delay_cycles)

    # ------------------------------------------------------------------ #
    def _plan_for(self, traces: Sequence[Trace]) -> List[List[_Record]]:
        """The compiled plan of ``traces``, compiled on first sight."""
        if len(traces) != len(self._compiled) or not all(
            map(operator.is_, traces, self._compiled)
        ):
            self._plan, self._quiet_counts = self._compile_plan(traces)
            self._compiled = tuple(traces)
        return self._plan

    def _compile_plan(
        self, traces: Sequence[Trace]
    ) -> Tuple[List[List[_Record]], Tuple[int, int]]:
        """Compile ``traces`` into one record list per core, with the LLC
        set rule applied.

        Every address is decoded first, once, through the checked
        :meth:`~repro.stack.address.AddressMapper.decode`.  Only demand
        lines and, with parity caching, dim-1 parity lines ever enter the
        LLC; traffic a :class:`RequestHook` injects (scrub reads, sparing
        copies) is served from memory and never touches it.  The plan's
        own keys are therefore every key any run of it, hooked or not,
        hands the LLC, and a set they do not overflow
        (:func:`~repro.perf.llc.overflowing_sets`) evicts in no run.
        Lines in such quiet sets are compiled out of the LRU.

        Also returns the ``(hits, misses)`` the quiet sets score in every
        run of the plan: one miss per distinct key and one hit per
        further access.
        """
        config = self.config
        decode = self._mapper.decode
        homes = [
            [decode(request.address) for request in trace.requests]
            for trace in traces
        ]
        keys = [
            request.address for trace in traces for request in trace.requests
        ]
        if config.parity_protection and config.parity_caching:
            keys += [
                self._parity_key(row, slot)
                for trace, trace_homes in zip(traces, homes)
                for request, (_, _, row, slot) in zip(
                    trace.requests, trace_homes
                )
                if request.is_write
            ]
        num_sets = self._llc_sets
        overflowing = overflowing_sets(keys, num_sets, config.llc_ways)
        # Keys are non-negative ints below 2**61 - 1, so ``hash(key)`` is
        # ``key`` and this is the LRU's set index.
        quiet = [key for key in keys if key % num_sets not in overflowing]
        skipped = set(quiet)
        plan = [
            [
                self._compile(request, home, skipped)
                for request, home in zip(trace.requests, trace_homes)
            ]
            for trace, trace_homes in zip(traces, homes)
        ]
        return plan, (len(quiet) - len(skipped), len(skipped))

    def _compile(
        self,
        request: MemoryRequest,
        home: Tuple[int, int, int, int],
        skipped: Set[int],
    ) -> _Record:
        """One request's record: everything its service needs but time.

        ``home`` is the request's decoded ``(channel, bank, row, slot)``;
        its address is the line's LLC key.  ``skipped`` holds the keys
        whose LLC sets cannot overflow: such a demand line gets no LLC
        key, and such a parity line is marked as outside the LRU.
        """
        address = request.address
        channel, bank, row, slot = home
        home_bank = channel * self.geometry.banks_per_die + bank
        groups, nbytes, nbanks = self._fan_out[home_bank]
        parity: Optional[_Parity] = None
        if request.is_write and self.config.parity_protection:
            key = self._parity_key(row, slot)
            parity = (key, key not in skipped) + self._line(
                *self._parity_home(channel, row, slot)
            )[1:]
        return (request.gap_cycles, request.is_write,
                None if address in skipped else address, row, groups,
                nbytes, nbanks, parity, home_bank)

    def _expand(self, channel: int, bank: int) -> _FanOut:
        """The fan-out of a line homed in ``(channel, bank)``, from the
        striping rule: its banks grouped by channel, bytes and banks."""
        banks_per_die = self.geometry.banks_per_die
        by_channel: Dict[int, List[int]] = {}
        nbytes = 0
        subs = sub_accesses(
            self.config.striping,
            self.geometry,
            LineLocation(channel=channel, bank=bank, row=0, slot=0),
        )
        for sub in subs:
            by_channel.setdefault(sub.channel, []).append(
                sub.channel * banks_per_die + sub.bank
            )
            nbytes += sub.bytes
        groups = tuple(
            (group_channel, tuple(banks))
            for group_channel, banks in by_channel.items()
        )
        return groups, nbytes, len(subs)

    def _line(self, channel: int, bank: int, row: int, slot: int) -> _Line:
        """One line access: its address, which is also its LLC key (range
        checked), and its bank fan-out under the striping policy."""
        key = self._mapper.encode(channel, bank, row, slot)
        groups, nbytes, nbanks = self._fan_out[
            channel * self.geometry.banks_per_die + bank
        ]
        return key, row, groups, nbytes, nbanks

    def _parity_key(self, row: int, slot: int) -> int:
        """LLC key of the dim-1 parity line of the ``(row, slot)`` group.

        Parity keys sit just past the line address space, one per (row,
        slot) group, so they never collide with a demand line.
        """
        lines_per_row = self.geometry.lines_per_row
        return self._mapper.num_lines + row * lines_per_row + slot

    def _parity_home(
        self, channel: int, row: int, slot: int
    ) -> Tuple[int, int, int, int]:
        """Physical home ``(channel, bank, row, slot)`` of the dim-1
        parity line for the group of a line homed on ``channel``.

        The parity bank is an address range spread over physical banks by
        swapping bank/channel bits (paper footnote 4), so parity traffic
        does not bottleneck one bank.
        """
        g = self.geometry
        stack_base = (channel // g.channels) * g.channels
        return (
            stack_base + (row + slot) % g.channels,
            (row // g.channels) % g.banks_per_die,
            row,
            slot,
        )
