"""Property-based tests (hypothesis) on cross-cutting invariants of the
correctability models and mitigation filters."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dds import DDSController
from repro.core.parity3dp import make_1dp, make_2dp, make_3dp
from repro.core.tsv_swap import apply_tsv_swap
from repro.ecc import BCHCode, RAID5, SECDED, SymbolCode, TwoDimECC
from repro.faults.types import (
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
from repro.stack.striping import StripingPolicy

GEOM = StackGeometry()


@st.composite
def faults(draw):
    """One random fault of any kind, anywhere in the stack."""
    kind = draw(st.sampled_from(
        ["bit", "word", "row", "column", "subarray", "bank", "dtsv", "atsv"]
    ))
    perm = draw(st.sampled_from([Permanence.TRANSIENT, Permanence.PERMANENT]))
    die = draw(st.integers(0, GEOM.total_dies - 1))
    bank = draw(st.integers(0, GEOM.banks_per_die - 1))
    row = draw(st.integers(0, GEOM.rows_per_bank - 1))
    col = draw(st.integers(0, GEOM.row_bits - 1))
    if kind == "bit":
        return make_bit_fault(GEOM, die, bank, row, col, perm)
    if kind == "word":
        word = draw(st.integers(0, GEOM.row_bits // 32 - 1))
        return make_word_fault(GEOM, die, bank, row, word, perm)
    if kind == "row":
        return make_row_fault(GEOM, die, bank, row, perm)
    if kind == "column":
        return make_column_fault(GEOM, die, bank, col, perm)
    if kind == "subarray":
        sub = draw(st.integers(0, GEOM.subarrays_per_bank - 1))
        return make_subarray_fault(GEOM, die, bank, sub, perm)
    if kind == "bank":
        return make_bank_fault(GEOM, die, bank, perm)
    channel = draw(st.integers(0, GEOM.channels - 1))
    if kind == "dtsv":
        idx = draw(st.integers(0, GEOM.data_tsvs_per_channel - 1))
        return make_data_tsv_fault(GEOM, channel, idx)
    idx = draw(st.integers(0, GEOM.addr_tsvs_per_channel - 1))
    return make_addr_tsv_fault(GEOM, channel, idx, draw(st.integers(0, 1)))


ALL_MODELS = [
    make_1dp(GEOM),
    make_2dp(GEOM),
    make_3dp(GEOM),
    SymbolCode(GEOM, StripingPolicy.SAME_BANK),
    SymbolCode(GEOM, StripingPolicy.ACROSS_BANKS),
    SymbolCode(GEOM, StripingPolicy.ACROSS_CHANNELS),
    BCHCode(GEOM),
    RAID5(GEOM),
    SECDED(GEOM),
    TwoDimECC(GEOM),
]


class TestMonotonicity:
    """Adding a fault can never make an uncorrectable set correctable."""

    @given(st.lists(faults(), min_size=1, max_size=5), faults())
    @settings(max_examples=60, deadline=None)
    def test_uncorrectable_is_monotone(self, fault_set, extra):
        for model in ALL_MODELS:
            if model.is_uncorrectable(fault_set):
                assert model.is_uncorrectable(fault_set + [extra]), model.name

    @given(st.lists(faults(), min_size=2, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_subsets_of_correctable_are_correctable(self, fault_set):
        for model in ALL_MODELS:
            if not model.is_uncorrectable(fault_set):
                for i in range(len(fault_set)):
                    subset = fault_set[:i] + fault_set[i + 1:]
                    assert not model.is_uncorrectable(subset), model.name


class TestEmptyAndSingle:
    def test_empty_set_is_always_correctable(self):
        for model in ALL_MODELS:
            assert not model.is_uncorrectable([])

    @given(faults())
    @settings(max_examples=60, deadline=None)
    def test_min_faults_honest(self, fault):
        """A model claiming min_faults_to_fail()==2 must never fail on a
        single fault."""
        for model in ALL_MODELS:
            if model.min_faults_to_fail(tsv_possible=True) >= 2:
                assert not model.is_uncorrectable([fault]), model.name


class TestDimensionHierarchy:
    @given(st.lists(faults(), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_more_dimensions_never_hurt(self, fault_set):
        one = make_1dp(GEOM).is_uncorrectable(fault_set)
        two = make_2dp(GEOM).is_uncorrectable(fault_set)
        three = make_3dp(GEOM).is_uncorrectable(fault_set)
        if not one:
            assert not two
        if not two:
            assert not three


class TestTSVSwapFilter:
    @given(st.lists(faults(), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_filter_only_removes_tsv_faults(self, fault_set):
        visible, _ = apply_tsv_swap(fault_set, GEOM)
        visible_uids = {f.uid for f in visible}
        for fault in fault_set:
            if not fault.kind.is_tsv:
                assert fault.uid in visible_uids
        for fault in visible:
            assert fault.uid in {f.uid for f in fault_set}

    @given(st.lists(faults(), min_size=0, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_filter_is_deterministic(self, fault_set):
        a, _ = apply_tsv_swap(fault_set, GEOM)
        b, _ = apply_tsv_swap(fault_set, GEOM)
        assert [f.uid for f in a] == [f.uid for f in b]


class TestDDSInvariants:
    @given(st.lists(faults(), min_size=0, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_scrub_output_subset_of_input(self, fault_set):
        permanent = [f for f in fault_set if f.is_permanent]
        dds = DDSController(GEOM)
        still_live, report = dds.process_scrub(permanent)
        input_uids = {f.uid for f in permanent}
        assert {f.uid for f in still_live} <= input_uids
        # Every input fault is accounted for exactly once.
        accounted = (
            len(report.row_spared) + len(report.bank_spared)
            + len(report.not_spared)
        )
        meta_only = sum(
            1 for f in permanent
            if all(GEOM.is_metadata_die(d) for d in f.footprint.dies)
        )
        assert accounted == len(permanent) - meta_only

    @given(st.lists(faults(), min_size=0, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_bank_spares_never_exceed_budget(self, fault_set):
        permanent = [f for f in fault_set if f.is_permanent]
        dds = DDSController(GEOM, spare_banks=2)
        dds.process_scrub(permanent)
        assert dds.brt_slots_free >= 0
        assert sum(1 for owner in dds._brt if owner is not None) <= 2
