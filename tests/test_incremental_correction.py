"""Differential tests for the incremental correctability protocol.

Every registered scheme must answer ``observe()`` exactly as a fresh
model answers ``is_uncorrectable()`` on the same prefix, for random
fault sequences — and ``rebuild()`` (the scrub/DDS path) must leave the
kernel answering as if the surviving set had been observed from
scratch.  The strategies deliberately squeeze faults into a few dies,
banks and rows so that pair predicates, the monotone short-circuit,
BCH's line pools, the 3DP column-block index and its component merges
are all exercised, not just the lone-fault fast paths.
Two hand-built 3DP rebuilds cover the edits a scrub makes to a
component: removing the fault that bridged its two halves, and
re-exposing a fault that aliases a component left intact.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parity3dp import COL_BLOCK_BITS, ParityND, make_1dp, make_3dp
from repro.faults.types import (
    WORD_BITS,
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
from repro.schemes import SCHEMES
from repro.stack.geometry import StackGeometry
from repro.telemetry.registry import MetricsRegistry

GEOM = StackGeometry()

#: Small coordinate pools force overlaps: with the full address space the
#: chance of two random faults aliasing is negligible and the pairwise
#: branches would never run.
DIES = st.integers(0, min(3, GEOM.total_dies - 1))
ALL_DIES = st.integers(0, GEOM.total_dies - 1)
BANKS = st.integers(0, min(2, GEOM.banks_per_die - 1))
ROWS = st.integers(0, 7)
COLS = st.integers(0, min(127, GEOM.row_bits - 1))
PERM = st.sampled_from([Permanence.TRANSIENT, Permanence.PERMANENT])


@st.composite
def crowded_faults(draw):
    """One random fault drawn from a deliberately small address pool."""
    kind = draw(
        st.sampled_from(
            ["bit", "word", "row", "column", "subarray", "bank", "dtsv", "atsv"]
        )
    )
    perm = draw(PERM)
    die = draw(DIES if kind in ("bit", "word", "row") else ALL_DIES)
    bank = draw(BANKS)
    row = draw(ROWS)
    if kind == "bit":
        return make_bit_fault(GEOM, die, bank, row, draw(COLS), perm)
    if kind == "word":
        word = draw(st.integers(0, min(3, GEOM.row_bits // 32 - 1)))
        return make_word_fault(GEOM, die, bank, row, word, perm)
    if kind == "row":
        return make_row_fault(GEOM, die, bank, row, perm)
    if kind == "column":
        return make_column_fault(GEOM, die, bank, draw(COLS), perm)
    if kind == "subarray":
        sub = draw(st.integers(0, min(1, GEOM.subarrays_per_bank - 1)))
        return make_subarray_fault(GEOM, die, bank, sub, perm)
    if kind == "bank":
        return make_bank_fault(GEOM, die, bank, perm)
    channel = draw(st.integers(0, GEOM.channels - 1))
    if kind == "dtsv":
        idx = draw(st.integers(0, min(7, GEOM.data_tsvs_per_channel - 1)))
        return make_data_tsv_fault(GEOM, channel, idx)
    idx = draw(st.integers(0, min(3, GEOM.addr_tsvs_per_channel - 1)))
    return make_addr_tsv_fault(GEOM, channel, idx)


FAULT_SEQS = st.lists(crowded_faults(), min_size=0, max_size=7)

#: Both sides of every block edge of the 3DP kernel's column index.
BLOCK_EDGE_COLS = [
    edge + side
    for edge in range(COL_BLOCK_BITS, GEOM.row_bits, COL_BLOCK_BITS)
    for side in (-1, 0)
]
ROW_COLS = st.one_of(
    st.integers(0, GEOM.row_bits - 1), st.sampled_from(BLOCK_EDGE_COLS)
)


@st.composite
def cross_block_seqs(draw):
    """Fault sequences spread over the whole row width.

    ``crowded_faults`` keeps every column in the first two blocks of the
    3DP column index.  Here a few anchor columns are drawn anywhere in a
    row or next to a block edge, and each fault lands on an anchor or
    one column beside it: faults share far-apart blocks, or sit just
    across an edge.  Some sequences also carry a data-TSV fault, whose
    columns span every block, arriving after the first narrow faults.
    """
    anchors = draw(st.lists(ROW_COLS, min_size=1, max_size=3))
    seq = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(
            st.sampled_from(["bit", "word", "column", "row", "subarray"])
        )
        die, bank, row, perm = draw(DIES), draw(BANKS), draw(ROWS), draw(PERM)
        col = draw(st.sampled_from(anchors)) + draw(st.integers(-1, 1))
        col = min(max(col, 0), GEOM.row_bits - 1)
        if kind == "bit":
            seq.append(make_bit_fault(GEOM, die, bank, row, col, perm))
        elif kind == "word":
            seq.append(
                make_word_fault(GEOM, die, bank, row, col // WORD_BITS, perm)
            )
        elif kind == "column":
            seq.append(make_column_fault(GEOM, die, bank, col, perm))
        elif kind == "row":
            seq.append(make_row_fault(GEOM, die, bank, row, perm))
        else:
            sub = draw(st.integers(0, 1))
            seq.append(make_subarray_fault(GEOM, die, bank, sub, perm))
    if draw(st.booleans()):
        tsv = draw(st.sampled_from(anchors)) % GEOM.data_tsvs_per_channel
        at = draw(st.integers(len(seq) // 2, len(seq)))
        seq.insert(at, make_data_tsv_fault(GEOM, draw(DIES), tsv))
    return seq


KEEP_MASKS = st.lists(st.booleans(), min_size=7, max_size=7)


def check_prefix_verdicts(factory, seq):
    incremental = factory(GEOM)
    reference = factory(GEOM)
    incremental.begin_trial()
    live = []
    for fault in seq:
        live.append(fault)
        assert incremental.observe(fault) == reference.is_uncorrectable(
            live
        ), f"{incremental.name} diverged at prefix length {len(live)}"


def check_rebuild_with_subset(factory, seq, keep_mask):
    """Scrub path: drop a random subset, then keep observing.

    Mirrors the engine: every fault handed to ``rebuild`` was observed
    earlier (scrubs remove transients / DDS spares, and re-exposure only
    ever returns previously observed faults).
    """
    if len(seq) < 2:
        return
    split = len(seq) // 2
    head, tail = seq[:split], seq[split:]

    incremental = factory(GEOM)
    incremental.begin_trial()
    for fault in head:
        incremental.observe(fault)
    survivors = [f for f, keep in zip(head, keep_mask) if keep]
    incremental.rebuild(survivors)

    reference = factory(GEOM)
    live = list(survivors)
    for fault in tail:
        live.append(fault)
        assert incremental.observe(fault) == reference.is_uncorrectable(
            live
        ), f"{incremental.name} diverged after rebuild at size {len(live)}"


def check_rebuild_with_reexposed(factory, seq, keep_mask):
    """DDS re-exposure: a second rebuild re-adds previously dropped
    faults, so ``rebuild`` must also handle additions."""
    if len(seq) < 2:
        return
    incremental = factory(GEOM)
    incremental.begin_trial()
    for fault in seq:
        incremental.observe(fault)
    survivors = [f for f, keep in zip(seq, keep_mask) if keep]
    incremental.rebuild(survivors)
    # Re-expose everything that was dropped (all observed earlier).
    incremental.rebuild(list(seq))

    reference = factory(GEOM)
    probe = make_bit_fault(GEOM, 0, 0, 0, 0, Permanence.TRANSIENT)
    assert incremental.observe(probe) == reference.is_uncorrectable(
        list(seq) + [probe]
    )


def check_peel_event_streams(factory, seq):
    """The ``parity/*`` counters of ``observe`` after each arrival equal
    those of ``is_uncorrectable`` on each prefix."""
    model = factory(GEOM)
    assert isinstance(model, ParityND)
    model.metrics = MetricsRegistry()
    model.begin_trial()
    for fault in seq:
        model.observe(fault)

    reference = factory(GEOM)
    reference.metrics = MetricsRegistry()
    live = []
    for fault in seq:
        live.append(fault)
        reference.is_uncorrectable(live)

    assert (
        model.metrics.deterministic_snapshot()
        == reference.metrics.deterministic_snapshot()
    )


def check_rebuilds_against_scratch(factory, observed, rebuilds, tail):
    """Observe ``observed``, hand each live set of ``rebuilds`` to
    ``rebuild`` in turn, then observe ``tail``.  Every verdict, and the
    ``parity/*`` counters of the whole sequence, equal those of
    ``is_uncorrectable`` on each observed prefix, then on the last live
    set plus each tail prefix."""
    model = factory(GEOM)
    model.metrics = MetricsRegistry()
    model.begin_trial()
    reference = factory(GEOM)
    reference.metrics = MetricsRegistry()
    live = []
    for fault in observed:
        live.append(fault)
        assert model.observe(fault) == reference.is_uncorrectable(live)
    for edited in rebuilds:
        model.rebuild(edited)
    live = list(rebuilds[-1])
    for fault in tail:
        live.append(fault)
        assert model.observe(fault) == reference.is_uncorrectable(
            live
        ), f"diverged after rebuild at size {len(live)}"
    assert (
        model.metrics.deterministic_snapshot()
        == reference.metrics.deterministic_snapshot()
    )


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
class TestObserveMatchesFromScratch:
    """observe() after each arrival == is_uncorrectable() on the prefix."""

    @settings(max_examples=30, deadline=None)
    @given(seq=FAULT_SEQS)
    def test_prefix_verdicts_identical(self, scheme, seq):
        check_prefix_verdicts(SCHEMES[scheme], seq)

    @settings(max_examples=30, deadline=None)
    @given(seq=FAULT_SEQS, keep_mask=KEEP_MASKS)
    def test_rebuild_with_subset_then_observe(self, scheme, seq, keep_mask):
        check_rebuild_with_subset(SCHEMES[scheme], seq, keep_mask)

    @settings(max_examples=20, deadline=None)
    @given(seq=FAULT_SEQS, keep_mask=KEEP_MASKS)
    def test_rebuild_with_reexposed_faults(self, scheme, seq, keep_mask):
        check_rebuild_with_reexposed(SCHEMES[scheme], seq, keep_mask)


#: Every non-empty subset of {1, 2, 3}.  ``SCHEMES`` registers only {1},
#: {1, 2} and {1, 2, 3}, so no scheme runs ``ParityND`` without dimension 1.
DIMENSION_SUBSETS = [
    frozenset(dims)
    for size in (1, 2, 3)
    for dims in itertools.combinations((1, 2, 3), size)
]

#: Fault pools for the ``ParityND`` differentials.
PARITY_SEQS = {"crowded": FAULT_SEQS, "cross_block": cross_block_seqs()}


@pytest.mark.parametrize("pool", sorted(PARITY_SEQS))
@pytest.mark.parametrize(
    "dims",
    DIMENSION_SUBSETS,
    ids=lambda dims: "dims" + "".join(str(d) for d in sorted(dims)),
)
class TestParityNDDimensionSubsets:
    """The incremental peel equals the from-scratch peel for every
    dimension subset, on crowded and on row-wide fault pools."""

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_prefix_verdicts_identical(self, dims, pool, data):
        check_prefix_verdicts(
            lambda g: ParityND(g, dims), data.draw(PARITY_SEQS[pool])
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), keep_mask=KEEP_MASKS)
    def test_rebuild_with_subset_then_observe(
        self, dims, pool, data, keep_mask
    ):
        check_rebuild_with_subset(
            lambda g: ParityND(g, dims),
            data.draw(PARITY_SEQS[pool]),
            keep_mask,
        )

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), keep_mask=KEEP_MASKS)
    def test_rebuild_with_reexposed_faults(self, dims, pool, data, keep_mask):
        check_rebuild_with_reexposed(
            lambda g: ParityND(g, dims),
            data.draw(PARITY_SEQS[pool]),
            keep_mask,
        )

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_peel_event_streams_identical(self, dims, pool, data):
        check_peel_event_streams(
            lambda g: ParityND(g, dims), data.draw(PARITY_SEQS[pool])
        )


class TestParityRebuildEdits:
    """The two scrub edits a 3DP ``rebuild`` must get right by hand: a
    component losing the fault that bridged its two halves, and a
    re-exposed fault joining a component that stayed intact."""

    def test_bridge_removed(self):
        model = make_3dp(GEOM)
        left = make_column_fault(GEOM, 0, 0, 5, Permanence.PERMANENT)
        right = make_column_fault(GEOM, 1, 1, 9, Permanence.PERMANENT)
        bridge = make_row_fault(GEOM, 0, 0, 3, Permanence.TRANSIENT)
        assert model._alias_any(left, bridge)
        assert model._alias_any(bridge, right)
        assert not model._alias_any(left, right)
        check_rebuilds_against_scratch(
            make_3dp,
            [left, bridge, right],
            [[left, right]],
            [
                # Peels through dimension 2, then ``left`` through 1 ...
                make_bit_fault(GEOM, 2, 0, 7, 5, Permanence.PERMANENT),
                # ... until a second column blocks ``left`` in dim 1.
                make_column_fault(GEOM, 2, 2, 5, Permanence.PERMANENT),
            ],
        )

    def test_reexposed_fault_joins_an_intact_component(self):
        model = make_3dp(GEOM)
        column = make_column_fault(GEOM, 0, 0, 5, Permanence.PERMANENT)
        spared = make_bit_fault(GEOM, 1, 0, 2, 5, Permanence.PERMANENT)
        apart = make_column_fault(GEOM, 1, 1, 70, Permanence.PERMANENT)
        assert model._alias_any(column, spared)
        assert not model._alias_any(column, apart)
        check_rebuilds_against_scratch(
            make_3dp,
            [column, spared, apart],
            # DDS spares the bit, then re-exposes it: ``column`` and
            # ``apart`` each stay one intact component meanwhile.
            [[column, apart], [column, apart, spared]],
            [
                make_bit_fault(GEOM, 3, 1, 4, 70, Permanence.TRANSIENT),
                make_column_fault(GEOM, 2, 2, 5, Permanence.PERMANENT),
            ],
        )


    def test_events_merged_away_inside_a_rebuild_leave_no_counter(self):
        """A re-absorbed fault that peels alone, then loses its peel to
        the next re-absorbed fault, leaves a zero running total for its
        kind; that total must not be emitted, since ``inc(name, 0)``
        would create a counter the from-scratch path never creates."""
        model = make_1dp(GEOM)
        column = make_column_fault(GEOM, 1, 1, 5, Permanence.PERMANENT)
        bit = make_bit_fault(GEOM, 0, 0, 3, 5, Permanence.PERMANENT)
        transient = make_bit_fault(GEOM, 2, 2, 9, 5, Permanence.TRANSIENT)
        assert model._alias_any(bit, column)
        assert model._alias_any(transient, column)
        check_rebuilds_against_scratch(
            make_1dp,
            # ``bit`` never peels before the scrub, so no bit peel is
            # ever counted ...
            [column, bit, transient],
            # ... and after it ``bit`` is re-absorbed first, peels
            # alone, then merges with ``column`` and stops peeling.
            [[bit, column]],
            [make_column_fault(GEOM, 3, 3, 200, Permanence.PERMANENT)],
        )


class TestParityPeelMetrics:
    """The 3DP kernel must emit the same parity/* counters as the
    from-scratch path (the engine folds these into the deterministic
    snapshot, so any drift breaks result byte-identity)."""

    @settings(max_examples=25, deadline=None)
    @given(seq=FAULT_SEQS)
    def test_peel_event_streams_identical(self, seq):
        check_peel_event_streams(make_3dp, seq)

    def test_peel_reuse_counter_is_volatile(self):
        model = make_3dp(GEOM)
        model.metrics = MetricsRegistry()
        model.begin_trial()
        # Two faults in unrelated components: the second arrival reuses
        # the first fault's cached component.
        model.observe(make_row_fault(GEOM, 0, 0, 1, Permanence.PERMANENT))
        model.observe(make_row_fault(GEOM, 3, 3, 9, Permanence.PERMANENT))
        assert model.metrics.counter("parity/peel_reuse") > 0
        snapshot = model.metrics.deterministic_snapshot()
        assert snapshot.counter("parity/peel_reuse") == 0
