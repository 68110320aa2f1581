"""Tests for workload profiles and synthetic trace generation."""

import pytest

from repro.errors import ConfigurationError
from repro.stack.address import AddressMapper
from repro.stack.geometry import StackGeometry
from repro.workloads.generator import TraceGenerator, rate_mode_traces
from repro.workloads.profiles import (
    PROFILES,
    SUITES,
    WorkloadProfile,
    by_suite,
    memory_intensive,
    suite_of,
)


@pytest.fixture
def geom():
    return StackGeometry()


class TestProfiles:
    def test_all_38_benchmarks_present(self):
        """§III-B: 29 SPEC CPU2006 + 7 PARSEC + 2 BioBench."""
        assert len(PROFILES) == 38
        assert len(by_suite("SPEC-FP")) + len(by_suite("SPEC-INT")) == 29
        assert len(by_suite("PARSEC")) == 7
        assert len(by_suite("BIOBENCH")) == 2

    def test_paper_benchmarks_named(self):
        for name in ("mcf", "lbm", "libquantum", "povray", "tigr", "mummer",
                     "stream", "black", "CactusADM".replace("C", "c", 1)):
            assert name in PROFILES, name

    def test_suite_lookup(self):
        assert suite_of("mcf") == "SPEC-INT"
        assert suite_of("lbm") == "SPEC-FP"
        with pytest.raises(ConfigurationError):
            by_suite("NOPE")

    def test_biobench_is_read_dominated(self):
        """Figure 13's explanation: BioBench mostly reads."""
        for profile in by_suite("BIOBENCH"):
            assert profile.write_fraction <= 0.10

    def test_memory_intensive_contains_the_usual_suspects(self):
        names = {p.name for p in memory_intensive()}
        assert {"mcf", "lbm", "libquantum", "milc"} <= names
        assert "povray" not in names

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", "S", mpki=0, write_fraction=0.1, locality=0.5)
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", "S", mpki=1, write_fraction=1.5, locality=0.5)
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", "S", mpki=1, write_fraction=0.1, locality=1.0)
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", "S", 1, 0.1, 0.5, mlp=0)


class TestTraceGenerator:
    def test_length_and_determinism(self, geom):
        gen_a = TraceGenerator(PROFILES["gcc"], geom, seed=3)
        gen_b = TraceGenerator(PROFILES["gcc"], geom, seed=3)
        a, b = gen_a.generate(500), gen_b.generate(500)
        assert len(a) == 500
        assert a.requests == b.requests

    def test_write_fraction_approximates_profile(self, geom):
        profile = PROFILES["lbm"]
        trace = TraceGenerator(profile, geom, seed=1).generate(20000)
        assert trace.write_fraction == pytest.approx(
            profile.write_fraction, abs=0.08
        )

    def test_mean_gap_tracks_mpki(self, geom):
        profile = PROFILES["mcf"]
        gen = TraceGenerator(profile, geom, seed=2)
        trace = gen.generate(20000)
        mean = trace.total_gap_cycles() / len(trace)
        assert mean == pytest.approx(gen.mean_gap_cycles, rel=0.1)

    def test_intensity_ordering(self, geom):
        heavy = TraceGenerator(PROFILES["mcf"], geom, seed=1).generate(2000)
        light = TraceGenerator(PROFILES["povray"], geom, seed=1).generate(2000)
        assert heavy.total_gap_cycles() < light.total_gap_cycles()

    def test_addresses_within_capacity(self, geom):
        mapper = AddressMapper(geom, stacks=2)
        trace = TraceGenerator(PROFILES["milc"], geom, seed=4).generate(2000)
        for req in trace:
            assert 0 <= req.address < mapper.num_lines

    def test_locality_produces_sequential_runs(self, geom):
        trace = TraceGenerator(PROFILES["libquantum"], geom, seed=5).generate(4000)
        reads = [r.address for r in trace if not r.is_write]
        sequential = sum(
            1 for a, b in zip(reads, reads[1:]) if b == a + 1
        ) / max(1, len(reads) - 1)
        assert sequential > 0.6  # libquantum streams (locality 0.92)

    def test_writebacks_come_in_runs(self, geom):
        trace = TraceGenerator(PROFILES["lbm"], geom, seed=6).generate(4000)
        writes = [r.address for r in trace if r.is_write]
        sequential = sum(
            1 for a, b in zip(writes, writes[1:]) if b == a + 1
        ) / max(1, len(writes) - 1)
        assert sequential > 0.6

    def test_mlp_propagated(self, geom):
        trace = TraceGenerator(PROFILES["mcf"], geom, seed=1).generate(10)
        assert trace.mlp == PROFILES["mcf"].mlp

    def test_negative_count_rejected(self, geom):
        with pytest.raises(ConfigurationError):
            TraceGenerator(PROFILES["gcc"], geom).generate(-1)


class TestRateMode:
    def test_eight_copies(self, geom):
        traces = rate_mode_traces("gcc", geom, requests_per_core=100)
        assert len(traces) == 8
        assert all(t.name == "gcc" for t in traces)
        assert all(len(t) == 100 for t in traces)
        # Different cores use different seeds.
        assert traces[0].requests != traces[1].requests

    def test_unknown_benchmark(self, geom):
        with pytest.raises(ConfigurationError):
            rate_mode_traces("nope", geom)
