"""Tests for the performance/power substrate: bank timing, LLC, power
accounting and the system simulator's qualitative behaviors, plus the
differential against the object-based reference loop
(``perf_reference.py``)."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from perf_reference import (
    BankState,
    ChannelState,
    ReferencePerturbation,
    ReferenceSimulator,
)
from repro.errors import ConfigurationError, ContractViolation, GeometryError
from repro.perf.llc import LRUCache, overflowing_sets
from repro.perf.power import EnergyCounters, PowerModel, PowerParams
from repro.perf.system import PerfConfig, SystemSimulator
from repro.perf.timing import DRAMTimings
from repro.replay.perturb import ReplayPerturbation
from repro.replay.timeline import FaultTimeline, TimelineEvent
from repro.stack.address import AddressMapper
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy
from repro.telemetry.registry import MetricsRegistry
from repro.workloads.generator import rate_mode_traces
from repro.workloads.trace import MemoryRequest, Trace


@pytest.fixture
def geom():
    return StackGeometry()


T = DRAMTimings()


class TestDRAMTimings:
    def test_paper_values(self):
        assert (T.tWTR, T.tCAS, T.tRCD, T.tRP, T.tRAS) == (7, 9, 9, 9, 36)

    def test_derived(self):
        assert T.row_miss_penalty == 27
        assert T.row_hit_latency == 9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DRAMTimings(tCAS=0)
        with pytest.raises(ConfigurationError):
            DRAMTimings(tRAS=5, tRCD=9)


class TestBankState:
    def test_first_access_is_row_miss(self):
        bank = BankState(T)
        data_at = bank.access(0, row=5, is_write=False)
        assert data_at == T.tRP + T.tRCD + T.tCAS
        assert bank.row_misses == 1 and bank.activations == 1

    def test_second_access_same_row_hits(self):
        bank = BankState(T)
        first = bank.access(0, 5, False)
        second = bank.access(first, 5, False)
        assert bank.row_hits == 1
        assert second - first >= T.tCAS

    def test_row_conflict_pays_tras(self):
        bank = BankState(T)
        bank.access(0, 5, False)
        busy_after_first = bank.busy_until
        assert busy_after_first >= T.tRP + T.tRAS  # row held open for tRAS
        bank.access(0, 6, False)
        assert bank.activations == 2

    def test_write_adds_turnaround(self):
        rd, wr = BankState(T), BankState(T)
        rd.access(0, 5, False)
        wr.access(0, 5, True)
        assert wr.busy_until == rd.busy_until + T.tWTR

    def test_requests_serialize_on_bank(self):
        bank = BankState(T)
        a = bank.access(0, 1, False)
        b = bank.access(0, 2, False)
        assert b > a


class TestChannelBus:
    def test_bus_serializes(self):
        ch = ChannelState(T, num_banks=8)
        first = ch.reserve_bus(10)
        second = ch.reserve_bus(10)
        assert first == 10 + T.tBURST
        assert second == first + T.tBURST
        assert ch.bus_busy_cycles == 2 * T.tBURST


class TestLRUCache:
    def test_hit_after_insert(self):
        c = LRUCache(num_sets=4, ways=2)
        assert not c.access("a")
        assert c.access("a")
        assert c.hit_rate == 0.5

    def test_lru_eviction(self):
        c = LRUCache(num_sets=1, ways=2)
        c.access("a")
        c.access("b")
        c.access("a")   # a is now MRU
        c.access("c")   # evicts b
        assert c.contains("a") and c.contains("c")
        assert not c.contains("b")

    def test_llc_shape(self):
        llc = LRUCache.like_llc()
        assert llc.num_sets * llc.ways * 64 == 8 << 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LRUCache(num_sets=0, ways=2)

    def test_reset_stats(self):
        c = LRUCache(4, 2)
        c.access("a")
        c.reset_stats()
        assert c.hits == 0 and c.misses == 0


class TestPowerModel:
    def test_energy_accumulates(self, geom):
        model = PowerModel(geom, stacks=1)
        counters = EnergyCounters(
            activations=10, read_bytes=640, write_bytes=0, exec_cycles=800
        )
        expected_nj = 10 * 18.0 + 10 * 4.0
        refresh = 25.0 * 9 * (800 / 800e6) * 1e6
        assert model.active_energy_nj(counters) == pytest.approx(
            expected_nj + refresh
        )

    def test_power_requires_positive_time(self, geom):
        with pytest.raises(ConfigurationError):
            PowerModel(geom).active_power_mw(EnergyCounters())

    def test_params_validated(self):
        with pytest.raises(ConfigurationError):
            PowerParams(e_act_nj=-1)

    def test_striped_access_costs_more_activation_energy(self, geom):
        """8 activates per miss vs 1: the root of Figure 5's power gap."""
        model = PowerModel(geom)
        sb = EnergyCounters(activations=100, read_bytes=6400, exec_cycles=1000)
        striped = EnergyCounters(
            activations=800, read_bytes=6400, exec_cycles=1000
        )
        assert model.active_energy_nj(striped) > 3 * model.active_energy_nj(sb)


def _flat_trace(n, gap, write_every=0, mlp=4, stride=1):
    mapper = AddressMapper(StackGeometry(), stacks=2)
    reqs = []
    for i in range(n):
        reqs.append(
            MemoryRequest(
                gap_cycles=gap,
                is_write=bool(write_every and i % write_every == 0),
                address=(i * stride) % mapper.num_lines,
            )
        )
    return Trace(name="flat", requests=tuple(reqs), mlp=mlp)


class TestSystemSimulator:
    def test_requires_traces(self, geom):
        sim = SystemSimulator(geom, PerfConfig())
        with pytest.raises(ConfigurationError):
            sim.run([])

    def test_exec_time_positive(self, geom):
        result = SystemSimulator(geom, PerfConfig()).run([_flat_trace(100, 10)])
        assert result.exec_cycles > 0
        assert result.demand_reads == 100

    def test_striping_never_faster(self, geom):
        traces = [_flat_trace(500, 2, stride=997) for _ in range(4)]
        base = SystemSimulator(geom, PerfConfig()).run(traces)
        for policy in (StripingPolicy.ACROSS_BANKS, StripingPolicy.ACROSS_CHANNELS):
            striped = SystemSimulator(
                geom, PerfConfig(striping=policy)
            ).run(traces)
            assert striped.exec_cycles >= base.exec_cycles
            assert striped.counters.activations > base.counters.activations

    def test_striped_activations_multiply(self, geom):
        trace = _flat_trace(200, 50, stride=997)  # random-ish, low load
        base = SystemSimulator(geom, PerfConfig()).run([trace])
        striped = SystemSimulator(
            geom, PerfConfig(striping=StripingPolicy.ACROSS_BANKS)
        ).run([trace])
        assert striped.counters.activations == pytest.approx(
            8 * base.counters.activations, rel=0.05
        )

    def test_parity_traffic_only_for_writes(self, geom):
        reads = _flat_trace(200, 10)
        cfg = PerfConfig(parity_protection=True)
        result = SystemSimulator(geom, cfg).run([reads])
        assert result.parity_lookups == 0 and result.rbw_reads == 0

    def test_parity_protection_adds_rbw(self, geom):
        trace = _flat_trace(200, 10, write_every=2)
        result = SystemSimulator(
            geom, PerfConfig(parity_protection=True)
        ).run([trace])
        assert result.rbw_reads == result.demand_writes
        assert result.parity_lookups == result.demand_writes

    def test_no_caching_always_fetches_parity(self, geom):
        trace = _flat_trace(200, 10, write_every=2)
        result = SystemSimulator(
            geom, PerfConfig(parity_protection=True, parity_caching=False)
        ).run([trace])
        assert result.parity_fetches == result.demand_writes
        assert result.parity_hits == 0

    def test_sequential_writes_hit_parity_cache(self, geom):
        """Consecutive lines share a dim-1 parity group: high hit rate."""
        trace = _flat_trace(512, 10, write_every=1)
        result = SystemSimulator(
            geom, PerfConfig(parity_protection=True)
        ).run([trace])
        assert result.parity_hit_rate > 0.8

    def test_row_buffer_hit_rate_tracks_locality(self, geom):
        streaming = _flat_trace(500, 10, stride=1)
        random_ish = _flat_trace(500, 10, stride=524287)
        r_stream = SystemSimulator(geom, PerfConfig()).run([streaming])
        r_random = SystemSimulator(geom, PerfConfig()).run([random_ish])
        assert r_stream.row_buffer_hit_rate > r_random.row_buffer_hit_rate

    def test_mlp_throttles_throughput(self, geom):
        heavy = [_flat_trace(400, 0, stride=997, mlp=1) for _ in range(2)]
        wide = [_flat_trace(400, 0, stride=997, mlp=8) for _ in range(2)]
        slow = SystemSimulator(geom, PerfConfig()).run(heavy)
        fast = SystemSimulator(geom, PerfConfig()).run(wide)
        assert fast.exec_cycles < slow.exec_cycles

    def test_labels(self, geom):
        assert PerfConfig().label() == "Same Bank"
        assert "parity caching" in PerfConfig(parity_protection=True).label()


class TestPerfEdgeCases:
    """Boundary behavior of the LLC and power models (replay-PR
    satellite): empty traces, writeback-only streams, cache reuse."""

    def test_empty_trace_list_rejected(self, geom):
        with pytest.raises(ConfigurationError):
            SystemSimulator(geom, PerfConfig()).run([])

    def test_zero_length_trace_runs_to_zero_cycles(self, geom):
        empty = Trace(name="empty", requests=(), mlp=4)
        result = SystemSimulator(geom, PerfConfig()).run([empty])
        assert result.exec_cycles == 0
        assert result.demand_reads == 0 and result.demand_writes == 0
        assert result.counters.activations == 0

    def test_zero_cycle_power_rejected_but_energy_defined(self, geom):
        empty = Trace(name="empty", requests=(), mlp=4)
        result = SystemSimulator(geom, PerfConfig()).run([empty])
        model = PowerModel(geom)
        assert model.active_energy_nj(result.counters) == 0.0
        with pytest.raises(ConfigurationError):
            model.active_power_mw(result.counters)

    def test_writeback_only_stream(self, geom):
        trace = _flat_trace(64, 4, write_every=1)
        result = SystemSimulator(
            geom, PerfConfig(parity_protection=True, parity_caching=True)
        ).run([trace])
        assert result.demand_reads == 0
        assert result.demand_writes == 64
        assert result.parity_lookups == 64
        assert result.exec_cycles > 0
        # Demand writebacks plus parity-miss fills; never less than the
        # demand bytes themselves.
        assert result.counters.write_bytes >= 64 * 64
        assert PowerModel(geom).active_energy_nj(result.counters) > 0

    def test_lru_reset_then_reuse_matches_fresh_cache(self):
        used = LRUCache(num_sets=4, ways=2)
        for key in range(32):
            used.access(key)
        used.reset()
        fresh = LRUCache(num_sets=4, ways=2)
        keys = [0, 1, 0, 9, 1, 17, 0]
        replayed = [used.access(k) for k in keys]
        reference = [fresh.access(k) for k in keys]
        assert replayed == reference
        assert (used.hits, used.misses, used.evictions) == (
            fresh.hits, fresh.misses, fresh.evictions
        )

    def test_reset_stats_keeps_contents_warm(self):
        c = LRUCache(num_sets=4, ways=2)
        c.access("a")
        c.reset_stats()
        assert c.access("a")  # still resident: only counters were zeroed
        assert c.hits == 1 and c.misses == 0


class TestSetRule:
    """:func:`overflowing_sets` against a full :class:`LRUCache`: an LRU
    that models only the sets the rule names, with every other access
    answered by "touched before", gives the same hit on every access, and
    its counters plus one miss per distinct skipped key and one hit per
    further skipped access are the full cache's."""

    @given(
        num_sets=st.integers(min_value=1, max_value=64),
        ways=st.integers(min_value=1, max_value=8),
        keys=st.lists(st.integers(min_value=0, max_value=511), max_size=300),
    )
    @settings(max_examples=200, deadline=None)
    def test_rule_reproduces_a_full_lru(self, num_sets, ways, keys):
        full = LRUCache(num_sets, ways)
        expected = [full.access(key) for key in keys]
        overflowing = overflowing_sets(keys, num_sets, ways)
        modeled = LRUCache(num_sets, ways)
        touched = set()
        skipped = []
        hits = []
        for key in keys:
            if hash(key) % num_sets in overflowing:
                hits.append(modeled.access(key))
            else:
                hits.append(key in touched)
                touched.add(key)
                skipped.append(key)
        assert hits == expected
        distinct = len(set(skipped))
        assert (
            modeled.hits + len(skipped) - distinct,
            modeled.misses + distinct,
            modeled.evictions,
        ) == (full.hits, full.misses, full.evictions)

    def test_only_sets_with_more_distinct_keys_than_ways(self):
        # Set 0 gets keys 0, 4, 8 (three distinct), set 1 gets 1 and 5
        # (two, one of them twice), set 2 gets 2 alone.
        keys = [0, 4, 8, 0, 1, 5, 5, 2]
        assert overflowing_sets(keys, 4, 2) == {0}
        assert overflowing_sets(keys, 4, 3) == frozenset()
        assert overflowing_sets(keys, 4, 1) == {0, 1}

    def test_shape_validated(self):
        with pytest.raises(ConfigurationError):
            overflowing_sets([1], 0, 2)
        with pytest.raises(ConfigurationError):
            overflowing_sets([1], 4, 0)


class TestCompileDecodesOnce:
    """Compilation decodes every request's address through the one
    checked decode, so its range check and its round-trip contract still
    run on every address the simulator reads."""

    def test_one_encode_per_request(self, geom, encode_calls):
        trace = _flat_trace(300, 4, write_every=3, stride=997)
        SystemSimulator(geom, PerfConfig()).run([trace])
        assert len(encode_calls) == len(trace)

    def test_out_of_range_address_raises_at_compile(self, geom):
        mapper = AddressMapper(geom, stacks=2)
        for address in (mapper.num_lines, -1):
            trace = Trace(
                name="bad",
                requests=(MemoryRequest(gap_cycles=1, is_write=False,
                                        address=address),),
            )
            with pytest.raises(GeometryError):
                SystemSimulator(geom, PerfConfig()).run([trace])

    def test_broken_address_map_raises_at_compile(self, geom, monkeypatch):
        """A decode that ``encode`` no longer inverts breaks the
        round-trip contract on the first compiled request."""
        encode = AddressMapper.encode

        def skewed(self, channel, bank, row, slot):
            return (encode(self, channel, bank, row, slot) + 1) % self.num_lines

        monkeypatch.setattr(AddressMapper, "encode", skewed)
        with pytest.raises(ContractViolation, match="round-trip"):
            SystemSimulator(geom, PerfConfig()).run([_flat_trace(10, 4)])


# ---------------------------------------------------------------------- #
# LLC determinism across processes
# ---------------------------------------------------------------------- #
_HASH_SEED_SCRIPT = """
import json
from dataclasses import asdict
from repro.perf.system import PerfConfig, SystemSimulator
from repro.stack.geometry import StackGeometry
from repro.workloads.generator import rate_mode_traces

geometry = StackGeometry()
traces = rate_mode_traces(
    "zipfian", geometry, cores=4, requests_per_core=1024, seed=0
)
config = PerfConfig(
    parity_protection=True, parity_caching=True, llc_capacity_bytes=1 << 10
)
result = SystemSimulator(geometry, config).run(traces)
print(json.dumps(asdict(result), sort_keys=True))
"""


def _run_under_hash_seed(seed: str) -> dict:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    def test_overflowing_llc_gives_same_answer_in_every_process(self):
        """A 1 KB LLC has two sets, so set selection decides every
        eviction; the integer line keys make it independent of
        ``PYTHONHASHSEED``."""
        first = _run_under_hash_seed("0")
        assert first["parity_lookups"] > first["parity_hits"] > 0
        assert _run_under_hash_seed("1") == first


# ---------------------------------------------------------------------- #
# Differential: compiled plan + flat state vs the object-based loop
# ---------------------------------------------------------------------- #
#: (lifetime hours, events): one of each perturbation kind, spread over
#: the trace, including a transient fault for the scrub to clear and an
#: unabsorbed TSV fault that degrades a whole channel.
_LIFETIME = 100.0
_EVENTS = (
    TimelineEvent(seq=0, time_hours=5.0, kind="fault", fault_kind="row",
                  dies=(0,), banks=(1,), detail="transient"),
    TimelineEvent(seq=1, time_hours=10.0, kind="fault", fault_kind="bank",
                  dies=(1,), banks=(3,), detail="permanent"),
    TimelineEvent(seq=2, time_hours=20.0, kind="tsv_swap",
                  fault_kind="data_tsv", channel=2),
    TimelineEvent(seq=3, time_hours=30.0, kind="fault",
                  fault_kind="data_tsv", channel=5, detail="permanent"),
    TimelineEvent(seq=4, time_hours=40.0, kind="scrub", dropped=1),
    TimelineEvent(seq=5, time_hours=60.0, kind="dds_remap",
                  fault_kind="bank", dies=(1,), banks=(3,), detail="bank"),
    TimelineEvent(seq=6, time_hours=75.0, kind="scrub"),
    TimelineEvent(seq=7, time_hours=90.0, kind="dds_remap", fault_kind="row",
                  dies=(0,), banks=(6,), detail="row"),
)


def _hook(geometry, traces, hook_type=ReplayPerturbation):
    """A fresh perturbation (hooks are stateful) over the hand-built
    timeline."""
    timeline = FaultTimeline(
        lifetime_hours=_LIFETIME, events=_EVENTS, weight=1.0,
        num_faults=3, failed=False, failure_time_hours=None,
    )
    return hook_type(
        timeline, geometry, sum(len(trace) for trace in traces)
    )


def _both(geometry, config, traces, hooked, timings=T):
    """``asdict`` of the compiled run under the table-driven hook and of
    the reference run under the reference hook, each with its LLC
    counters under ``"llc"``: the compiled run's ``llc/`` telemetry and
    the counters of the reference's own :class:`LRUCache`, which models
    every set."""
    metrics = MetricsRegistry()
    compiled = SystemSimulator(geometry, config, timings, metrics).run(
        traces, hook=_hook(geometry, traces) if hooked else None
    )
    simulator = ReferenceSimulator(geometry, config, timings)
    reference = simulator.run(
        traces,
        hook=(
            _hook(geometry, traces, ReferencePerturbation) if hooked else None
        ),
    )
    llc = simulator.llc
    return (
        dict(asdict(compiled), llc=metrics.counters_with_prefix("llc/")),
        dict(asdict(reference), llc={
            "llc/evictions": llc.evictions,
            "llc/hits": llc.hits,
            "llc/misses": llc.misses,
        }),
    )


def _llc_keys(geometry, config, traces):
    """Every key a run of ``traces`` hands the LLC, once per access: the
    demand addresses and, with parity caching, each writeback's dim-1
    parity key (the reference's formula)."""
    mapper = AddressMapper(geometry, config.stacks)
    keys = []
    for trace in traces:
        for request in trace.requests:
            keys.append(request.address)
            if request.is_write and config.parity_protection and (
                config.parity_caching
            ):
                home = mapper.to_location(request.address)
                keys.append(
                    mapper.num_lines
                    + home.row * geometry.lines_per_row
                    + home.slot
                )
    return keys


@pytest.fixture(scope="module")
def grid_traces():
    geometry = StackGeometry()
    return {
        name: rate_mode_traces(
            name, geometry, cores=2, requests_per_core=300, seed=11
        )
        for name in ("zipfian", "bursty", "mcf")
    }


_PARITY_MODES = {
    "no-parity": dict(parity_protection=False),
    "3dp-cached": dict(parity_protection=True, parity_caching=True),
    "3dp-uncached": dict(parity_protection=True, parity_caching=False),
}


#: Grid LLC sizes.  On the grid's 2 x 300-request traces no set of the
#: 8 MB LLC overflows, some sets of the 64 KB LLC do, and every touched
#: set of the 1 KB LLC does (``test_llc_sizes_cover_every_kind_of_set``).
_LLC_SIZES = {"llc-8MB": 8 << 20, "llc-64KB": 64 << 10, "llc-1KB": 1 << 10}


class TestCompiledMatchesReference:
    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    @pytest.mark.parametrize("llc_bytes", list(_LLC_SIZES.values()),
                             ids=list(_LLC_SIZES))
    @pytest.mark.parametrize("parity", sorted(_PARITY_MODES))
    @pytest.mark.parametrize("striping", list(StripingPolicy),
                             ids=lambda policy: policy.value)
    def test_grid(self, geom, grid_traces, striping, parity, llc_bytes,
                  hooked):
        config = PerfConfig(
            striping=striping, llc_capacity_bytes=llc_bytes,
            **_PARITY_MODES[parity],
        )
        for name, traces in grid_traces.items():
            compiled, reference = _both(geom, config, traces, hooked)
            assert compiled == reference, name

    @pytest.mark.parametrize("size", sorted(_LLC_SIZES))
    def test_llc_sizes_cover_every_kind_of_set(self, geom, grid_traces,
                                               size):
        """The grid is not vacuous about the LLC set rule: at 8 MB it
        skips every set, at 1 KB it models every set, and at 64 KB it
        does both, and the modeled sets evict."""
        config = PerfConfig(parity_protection=True,
                            llc_capacity_bytes=_LLC_SIZES[size])
        num_sets = config.llc_capacity_bytes // geom.line_bytes // (
            config.llc_ways
        )
        traces = grid_traces["zipfian"]
        keys = _llc_keys(geom, config, traces)
        touched = {hash(key) % num_sets for key in keys}
        overflowing = overflowing_sets(keys, num_sets, config.llc_ways)
        compiled, reference = _both(geom, config, traces, hooked=False)
        assert compiled == reference
        evictions = compiled["llc"]["llc/evictions"]
        if size == "llc-8MB":
            assert not overflowing and evictions == 0
        elif size == "llc-1KB":
            assert overflowing == touched and evictions > 0
        else:
            assert 0 < len(overflowing) < len(touched) and evictions > 0

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_mlp_zero_takes_the_config_window(self, geom, grid_traces,
                                              hooked):
        zipf, mcf = grid_traces["zipfian"][0], grid_traces["mcf"][1]
        traces = [Trace(name="mlp0", requests=zipf.requests, mlp=0), mcf]
        config = PerfConfig(parity_protection=True, mlp_per_core=2)
        compiled, reference = _both(geom, config, traces, hooked)
        assert compiled == reference

    @pytest.mark.parametrize("hooked", [False, True], ids=["plain", "hooked"])
    def test_zero_length_trace_beside_a_busy_one(self, geom, grid_traces,
                                                 hooked):
        traces = [Trace(name="empty", requests=(), mlp=4),
                  grid_traces["bursty"][0]]
        config = PerfConfig(parity_protection=True, parity_caching=False)
        compiled, reference = _both(geom, config, traces, hooked)
        assert compiled == reference
        assert compiled["core_finish_cycles"][0] == 0

    @pytest.mark.parametrize("striping", list(StripingPolicy),
                             ids=lambda policy: policy.value)
    def test_one_stack(self, geom, striping):
        traces = rate_mode_traces(
            "zipfian", geom, cores=2, requests_per_core=300, seed=5, stacks=1
        )
        config = PerfConfig(striping=striping, parity_protection=True,
                            llc_capacity_bytes=1 << 10, stacks=1)
        for hooked in (False, True):
            compiled, reference = _both(geom, config, traces, hooked)
            assert compiled == reference
            assert len(compiled["bank_activations"]) == geom.channels

    @pytest.mark.parametrize("striping", list(StripingPolicy),
                             ids=lambda policy: policy.value)
    def test_other_timings(self, geom, grid_traces, striping):
        """tRAS below tRCD + tCAS (data, not tRAS, frees the bank) and a
        two-cycle burst."""
        timings = DRAMTimings(tWTR=3, tCAS=11, tRCD=10, tRP=4, tRAS=12,
                              tBURST=2)
        config = PerfConfig(striping=striping, parity_protection=True)
        for hooked in (False, True):
            compiled, reference = _both(
                geom, config, grid_traces["mcf"], hooked, timings
            )
            assert compiled == reference

    def test_reused_simulator_matches_a_fresh_one(self, geom, grid_traces):
        """One simulator keeps its compiled plan while it is handed the
        same traces and recompiles when they change."""
        config = PerfConfig(parity_protection=True,
                            llc_capacity_bytes=1 << 10)
        a, b = grid_traces["zipfian"], grid_traces["mcf"]
        simulator = SystemSimulator(geom, config)
        for traces, hooked in ((a, False), (b, False), (a, False),
                               (a, True)):
            hook = _hook(geom, traces) if hooked else None
            reused = simulator.run(traces, hook=hook)
            fresh = SystemSimulator(geom, config).run(
                traces, hook=_hook(geom, traces) if hooked else None
            )
            assert asdict(reused) == asdict(fresh)

    def test_hook_changes_the_answer(self, geom, grid_traces):
        """The hooked grid is not vacuous: the timeline perturbs."""
        traces = grid_traces["mcf"]
        config = PerfConfig(parity_protection=True)
        plain, _ = _both(geom, config, traces, hooked=False)
        hooked, _ = _both(geom, config, traces, hooked=True)
        assert hooked["extra_reads"] > 0 and hooked["extra_writes"] > 0
        assert hooked["perturb_delay_cycles"] > 0
        assert hooked["exec_cycles"] >= plain["exec_cycles"]
