"""Property-based tests on the functional Citadel datapath: any single
DRAM fault anywhere, with any data, must be survivable (the fail-in-place
guarantee), writes must round-trip under fault-free operation, and the
datapath's TSV BIST must rewire exactly the TSVs the engine's TSV-Swap
filter absorbs."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.datapath import CitadelDatapath
from repro.core.memory_array import FaultyMemoryArray
from repro.core.tsv_swap import apply_tsv_swap
from repro.errors import UncorrectableError
from repro.faults.types import (
    FaultKind,
    Permanence,
    make_addr_tsv_fault,
    make_bank_fault,
    make_bit_fault,
    make_column_fault,
    make_data_tsv_fault,
    make_row_fault,
    make_subarray_fault,
    make_word_fault,
)
from repro.stack.geometry import StackGeometry
from repro.stack.tsv import standby_dtsv_indices

GEOM = StackGeometry.small()
P = Permanence.PERMANENT


@st.composite
def dram_faults(draw):
    kind = draw(st.sampled_from(
        ["bit", "word", "row", "column", "subarray", "bank"]
    ))
    die = draw(st.integers(0, GEOM.data_dies - 1))
    bank = draw(st.integers(0, GEOM.banks_per_die - 1))
    row = draw(st.integers(0, GEOM.rows_per_bank - 1))
    col = draw(st.integers(0, GEOM.row_bits - 1))
    if kind == "bit":
        return make_bit_fault(GEOM, die, bank, row, col, P)
    if kind == "word":
        word = draw(st.integers(0, GEOM.row_bits // 32 - 1))
        return make_word_fault(GEOM, die, bank, row, word, P)
    if kind == "row":
        return make_row_fault(GEOM, die, bank, row, P)
    if kind == "column":
        return make_column_fault(GEOM, die, bank, col, P)
    if kind == "subarray":
        sub = draw(st.integers(0, GEOM.subarrays_per_bank - 1))
        return make_subarray_fault(GEOM, die, bank, sub, P)
    return make_bank_fault(GEOM, die, bank, P)


def payload(seed: int) -> bytes:
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(64))


class TestFailInPlaceProperty:
    @given(dram_faults(), st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_any_single_dram_fault_survivable(self, fault, seed):
        """3DP (+ DDS) corrects every single DRAM fault the paper's
        taxonomy can produce, for arbitrary data."""
        dp = CitadelDatapath(geometry=GEOM, rng=random.Random(0))
        addresses = [(seed + i * 977) % dp.num_lines for i in range(24)]
        addresses = sorted(set(addresses))
        for a in addresses:
            dp.write(a, payload(a ^ seed))
        dp.inject(fault)
        for a in addresses:
            assert dp.read(a) == payload(a ^ seed)
        assert dp.stats.uncorrectable == 0

    @given(st.integers(0, 2**31), st.binary(min_size=64, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_fault_free_roundtrip(self, raw_addr, data):
        dp = CitadelDatapath(geometry=GEOM, rng=random.Random(0))
        address = raw_addr % dp.num_lines
        dp.write(address, data)
        assert dp.read(address) == data
        assert dp.stats.crc_mismatches == 0

    @given(st.integers(0, 2**31), st.binary(min_size=64, max_size=64),
           st.binary(min_size=64, max_size=64))
    @settings(max_examples=25, deadline=None)
    def test_overwrite_keeps_parity_consistent(self, raw_addr, first, second):
        """Overwriting a line must keep all three parity dimensions
        consistent: a subsequent row fault on that line is recoverable."""
        dp = CitadelDatapath(geometry=GEOM, rng=random.Random(0))
        address = raw_addr % dp.num_lines
        dp.write(address, first)
        dp.write(address, second)
        die, bank, row, _ = dp._locate(address)
        dp.inject(make_row_fault(GEOM, die, bank, row, P))
        assert dp.read(address) == second


@st.composite
def cell_and_dtsv_faults(draw):
    if draw(st.booleans()):
        return draw(dram_faults())
    channel = draw(st.integers(0, GEOM.data_dies - 1))
    index = draw(st.integers(0, GEOM.data_tsvs_per_channel - 1))
    return make_data_tsv_fault(GEOM, channel, index)


class TestStuckColumns:
    @given(
        st.lists(cell_and_dtsv_faults(), min_size=1, max_size=3),
        st.integers(0, 2**31),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_read_row_matches_the_bitwise_reference(self, faults, seed, data):
        """``read_row`` sticks a fault's columns through one mask; the
        reference sticks each column its ``RangeMask`` enumerates."""
        array = FaultyMemoryArray(GEOM)
        array.cells[...] = np.random.default_rng(seed).integers(
            0, 256, size=array.cells.shape, dtype=np.uint8
        )
        for fault in faults:
            array.inject(fault)
        hit = faults[0].footprint
        die = data.draw(st.sampled_from(sorted(hit.dies)))
        bank = data.draw(st.sampled_from(sorted(hit.banks)))
        row = data.draw(st.sampled_from(list(hit.rows.iter_values())))
        bits = np.unpackbits(array.cells[die, bank, row], bitorder="little")
        for fault in faults:
            fp = fault.footprint
            if die in fp.dies and bank in fp.banks and row in fp.rows:
                for col in fp.cols.iter_values():
                    bits[col] = 0
        expected = np.packbits(bits, bitorder="little")
        assert np.array_equal(array.read_row(die, bank, row), expected)


#: Stand-by DTSVs per channel of the datapath's TSV-Swap controller.
DATAPATH_STANDBY = 2


@st.composite
def clustered_tsv_faults(draw):
    """TSV faults clustered around the datapath's stand-by pool, in
    arrival order: in one or two channels, about ``DATAPATH_STANDBY``
    distinct faulty TSVs at adjacent indices (the data run often starts
    at a stand-by DTSV), data and address TSVs mixed, plus repeats of
    faulty TSVs (an address TSV's at either stuck value)."""
    tsvs = []  # (kind, channel, index, stuck value)
    channels = draw(
        st.lists(
            st.integers(0, GEOM.channels - 1),
            min_size=1, max_size=2, unique=True,
        )
    )
    for channel in channels:
        distinct = draw(st.integers(1, DATAPATH_STANDBY + 2))
        addr = draw(st.integers(0, min(distinct, GEOM.addr_tsvs_per_channel)))
        start = draw(
            st.sampled_from(standby_dtsv_indices(GEOM, DATAPATH_STANDBY))
            | st.integers(0, GEOM.data_tsvs_per_channel - 1)
        )
        tsvs += [
            (
                FaultKind.DATA_TSV, channel,
                (start + offset) % GEOM.data_tsvs_per_channel, 0,
            )
            for offset in range(distinct - addr)
        ]
        start = draw(st.integers(0, GEOM.addr_tsvs_per_channel - 1))
        tsvs += [
            (
                FaultKind.ADDR_TSV, channel,
                (start + offset) % GEOM.addr_tsvs_per_channel,
                draw(st.integers(0, 1)),
            )
            for offset in range(addr)
        ]
    for kind, channel, index, stuck in draw(
        st.lists(st.sampled_from(tsvs), max_size=3)
    ):
        if kind is FaultKind.ADDR_TSV:
            stuck = draw(st.integers(0, 1))
        tsvs.append((kind, channel, index, stuck))
    faults = []
    for time, (kind, channel, index, stuck) in enumerate(
        draw(st.permutations(tsvs))
    ):
        if kind is FaultKind.DATA_TSV:
            faults.append(
                make_data_tsv_fault(GEOM, channel, index, P, float(time))
            )
        else:
            faults.append(
                make_addr_tsv_fault(
                    GEOM, channel, index, stuck, P, float(time)
                )
            )
    return faults


def affected_row(fault):
    """A row whose reads the TSV fault corrupts: any row for a data TSV,
    a row the stuck address bit cannot reach for an address TSV."""
    if fault.kind is FaultKind.DATA_TSV:
        return 0
    return next(iter(fault.footprint.rows.iter_values()))


class TestBistAgreesWithTsvSwap:
    @given(clustered_tsv_faults())
    @settings(max_examples=100, deadline=None)
    def test_bist_rewires_what_the_engine_absorbs(self, faults):
        """Faults injected in arrival order, then one read per channel of
        a written line the channel's first fault corrupts: the CRC
        mismatch runs BIST over every faulty TSV of the channel, and the
        controller's rewiring (which TSV each stand-by carries, in
        order) equals that of ``apply_tsv_swap`` at the same pool."""
        dp = CitadelDatapath(geometry=GEOM, enable_dds=False)
        assert dp.tsv_swap.standby_count == DATAPATH_STANDBY
        line = bytes([0xFF]) * GEOM.line_bytes
        reads = {}
        for fault in faults:
            if fault.channel not in reads:
                address = dp._address(fault.channel, 0, affected_row(fault), 0)
                reads[fault.channel] = address
                dp.write(address, line)
        for fault in faults:
            dp.inject(fault)
        for address in reads.values():
            try:
                dp.read(address)
            except UncorrectableError:
                pass  # an exhausted pool leaves the line to 3DP
        _, engine = apply_tsv_swap(faults, GEOM, DATAPATH_STANDBY)
        rewired = {
            channel: state.trr for channel, state in dp.tsv_swap.channels.items()
        }
        absorbed = {
            channel: state.trr for channel, state in engine.channels.items()
        }
        assert rewired == absorbed
        assert dp.stats.tsv_repairs == sum(map(len, absorbed.values()))
