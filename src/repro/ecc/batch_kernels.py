"""Array-shaped correctability kernels for the batch trial path.

The batch engine (:mod:`repro.reliability.batch`) evaluates thousands of
trials at once: each chunk's sampled faults become column vectors (one row
per fault) and the scheme's kernel decides — with numpy predicates only —
which trials *provably survive* their whole lifetime.  A kernel verdict of
``True`` is a proof: the trial is correctable after every arrival under
the engine's scrub interval and DDS setting.  ``False`` only means "not
proven here"; the engine re-runs those trials through the exact scalar
simulator, so kernels may be conservative but never optimistic.

The soundness argument shared by every kernel:

* The scalar engine's live set at any instant is a *subset* of the trial's
  arrivals — scrubbing drops transients, DDS only removes (or re-exposes
  previously-arrived) permanents, and TSV-Swap filtering happens before
  the loop.  Two faults can only be simultaneously live if the pair is
  *possibly co-live*: the earlier one may outlive the scrub after its
  arrival (``TrialBatch.outlives_scrub``), or both arrivals fall within
  neighbouring scrub epochs (:meth:`TrialBatch.pairs` keeps a two-epoch
  slack over the float-exact boundary arithmetic of
  ``LifetimeSimulator._scrub_epoch_at``, so the mask over-approximates).
* A fault that does not outlive that scrub is a transient, or a
  permanent fault DDS is certain to retire there
  (:func:`repro.core.dds.outlives_scrub`).  ``LifetimeSimulator._simulate``
  runs the scrub of a later epoch, handing the live permanent faults to
  ``DDSController.process_scrub``, before it adds any fault of that
  epoch.  In a trial with DDS on, no permanent fault on a metadata die,
  no TSV fault in the loop and at most ``spare_banks`` distinct
  ``(die, bank)`` positions among its permanent faults, no fault reaches
  ``_degrade_spare_area``: no BRT slot dies, row sparing stays on and
  nothing is re-exposed.  Every fault is single-bank, so ``_spare`` never
  refuses it as multi-bank, and a fault row sparing cannot take finds a
  free slot in ``_spare_bank``: each position takes at most one slot and
  keeps it.  So that scrub spares each of the trial's permanent faults
  for good, and such a fault is co-live only with the arrivals of its own
  epoch, like a transient; the same slack covers both.
* A kernel judges a trial on its possibly-co-live pairs, and what it
  proves there holds for every live set drawn from them: pairwise
  fatality is monotone in the live set, and the 3DP peel's argument is
  an induction over peel rounds (``ParityPeelBatchKernel``).  So "proven
  on the possibly-co-live superset" implies "correctable at every
  prefix".
* A kernel need not see every pair.  :meth:`TrialBatch.pairs` takes the
  kernel's column-block width and leaves out the pairs of narrow faults
  in different aligned column blocks, whose column sets cannot meet.
  The pairwise kernels pass a width that puts every fault in one block,
  so they see every intra-trial pair; the 3DP kernel passes
  ``COL_BLOCK_BITS``, sound because every parity group contains the
  column.

All set algebra happens on the FaultSim address+mask representation
(:mod:`repro.faults.footprint`) flattened to int64 columns; the formulas
below mirror ``RangeMask.intersects``/``covers`` bit-for-bit and the
batch-vs-scalar differential tests hold the two in lock-step.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from numpy import ndarray

from repro.ecc.symbol_code import same_bank_check_rows
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy

#: Scrub-epoch slack of the possibly-co-live pair mask.  The engine's
#: epoch bookkeeping uses exact ``(k + 1) * interval <= t`` comparisons;
#: ``int(t // interval)`` can round one epoch either way near a boundary,
#: so two epochs of slack keeps the mask a strict over-approximation.
COLIVE_EPOCH_SLACK = 2

#: Block of a wide fault in :func:`column_blocks`.
WIDE = -1

#: Word size of the SECDED code (matches ``repro.ecc.secded._WORD_BITS``).
_SECDED_WORD_BITS = 64


class TrialBatch:
    """Column-oriented view of one chunk of sampled trials.

    One row per *live-relevant* fault (TSV faults fully absorbed by
    TSV-Swap are excluded by the engine before assembly).  Faults of a
    trial appear contiguously in arrival-time order.  ``die`` holds the
    channel and ``bank`` is -1 for TSV faults, mirroring
    :data:`repro.faults.injector.FaultRecord`.  ``outlives_scrub`` marks
    the faults that may still be live after the scrub that follows their
    arrival: the engine computes it with
    :func:`repro.core.dds.outlives_scrub`, and only the co-live mask of
    :meth:`pairs` reads it.
    """

    def __init__(
        self,
        geometry: StackGeometry,
        counts: List[int],
        outlives_scrub: List[bool],
        is_tsv: List[bool],
        is_bank_kind: List[bool],
        die: List[int],
        bank: List[int],
        row_base: List[int],
        row_mask: List[int],
        col_base: List[int],
        col_mask: List[int],
        epoch: List[int],
    ) -> None:
        self.geometry = geometry
        self.counts = np.asarray(counts, dtype=np.int64)
        self.n_trials = int(self.counts.size)
        self.offsets = np.cumsum(self.counts) - self.counts
        self.trial = np.repeat(
            np.arange(self.n_trials, dtype=np.int64), self.counts
        )
        self.n_faults = int(self.trial.size)
        self.outlives_scrub = np.asarray(outlives_scrub, dtype=bool)
        self.is_tsv = np.asarray(is_tsv, dtype=bool)
        self.is_bank_kind = np.asarray(is_bank_kind, dtype=bool)
        self.die = np.asarray(die, dtype=np.int64)
        self.bank = np.asarray(bank, dtype=np.int64)
        self.row_base = np.asarray(row_base, dtype=np.int64)
        self.row_mask = np.asarray(row_mask, dtype=np.int64)
        self.col_base = np.asarray(col_base, dtype=np.int64)
        self.col_mask = np.asarray(col_mask, dtype=np.int64)
        self.epoch = np.asarray(epoch, dtype=np.int64)

    # ------------------------------------------------------------------ #
    def pairs(self, col_block_bits: int) -> Tuple[ndarray, ndarray, ndarray]:
        """The intra-trial fault pairs whose column sets can meet.

        Faults are placed by :func:`column_blocks`: a narrow fault pairs
        with the narrow faults of its trial in the same aligned
        ``col_block_bits``-column block, and a wide fault with every
        other fault of its trial.  At a width of ``geometry.row_bits``
        or more every fault is narrow and in block 0, so every
        intra-trial pair is returned.

        Returns ``(first, second, colive)``: each pair once, ``first``
        arriving no later than ``second``, plus the possibly-co-live mask
        described in the module docstring.
        """
        blocks = column_blocks(self.col_base, self.col_mask, col_block_bits)
        wide = blocks == WIDE
        # Index of the first fault of each fault's trial.
        starts = self.offsets[self.trial]
        # A wide fault pairs with every fault of its trial before it ...
        wide_idx = np.flatnonzero(wide)
        before = wide_idx - starts[wide_idx]
        first_wide = _ranges(starts[wide_idx], before)
        second_wide = np.repeat(wide_idx, before)
        # ... a narrow fault with the wide faults of its trial before it
        # (``wide_before[i]``: wide faults at indices below ``i``) ...
        narrow_idx = np.flatnonzero(~wide)
        wide_before = np.concatenate(([0], np.cumsum(wide)))
        low = wide_before[starts[narrow_idx]]
        before = wide_before[narrow_idx] - low
        first_mixed = wide_idx[_ranges(low, before)]
        second_mixed = np.repeat(narrow_idx, before)
        # ... and with its block-mates before it: sort the narrow faults
        # by (trial, block), stably, so each group keeps arrival order.
        order = narrow_idx[
            np.lexsort((blocks[narrow_idx], self.trial[narrow_idx]))
        ]
        position = np.arange(order.size, dtype=np.int64)
        group_head = np.ones(order.size, dtype=bool)
        group_head[1:] = (
            self.trial[order[1:]] != self.trial[order[:-1]]
        ) | (blocks[order[1:]] != blocks[order[:-1]])
        group_start = np.maximum.accumulate(
            np.where(group_head, position, 0)
        )
        before = position - group_start
        first_mates = order[_ranges(group_start, before)]
        second_mates = np.repeat(order, before)
        first = np.concatenate((first_wide, first_mixed, first_mates))
        second = np.concatenate((second_wide, second_mixed, second_mates))
        colive = self.outlives_scrub[first] | (
            self.epoch[second] <= self.epoch[first] + COLIVE_EPOCH_SLACK
        )
        return first, second, colive

    def trials_where_none(self, fault_flag: ndarray) -> ndarray:
        """Per-trial mask: no fault of the trial has ``fault_flag`` set."""
        hits = np.bincount(
            self.trial[fault_flag], minlength=self.n_trials
        )
        return hits == 0


def column_blocks(
    col_base: ndarray, col_mask: ndarray, col_block_bits: int
) -> ndarray:
    """The aligned ``col_block_bits``-column block holding each fault's
    columns, or :data:`WIDE` for a fault whose columns span several.

    This is the one rule behind the pair index: :meth:`TrialBatch.pairs`
    and :func:`candidate_pair_count` both place faults with it.  Two
    narrow faults in different blocks have disjoint column sets.
    ``ParityND``'s incremental index places ``Fault`` objects by the
    same rule.
    """
    shift = col_block_bits.bit_length() - 1
    return np.where(col_mask >> shift == 0, col_base >> shift, WIDE)


def candidate_pair_count(
    col_base: ndarray, col_mask: ndarray, col_block_bits: int
) -> int:
    """How many pairs :meth:`TrialBatch.pairs` indexes for one trial
    whose faults have these column ``(base, mask)`` forms."""
    blocks = column_blocks(
        np.asarray(col_base, dtype=np.int64),
        np.asarray(col_mask, dtype=np.int64),
        col_block_bits,
    )
    narrow = blocks != WIDE
    wide = blocks.size - int(np.count_nonzero(narrow))
    mates = np.bincount(blocks[narrow])
    return (
        wide * (blocks.size - wide)
        + wide * (wide - 1) // 2
        + int((mates * (mates - 1)).sum()) // 2
    )


def _ranges(starts: ndarray, lengths: ndarray) -> ndarray:
    """``starts[i] .. starts[i] + lengths[i] - 1`` for every ``i``,
    concatenated."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - (ends - lengths), lengths) + np.arange(
        ends[-1] if ends.size else 0, dtype=np.int64
    )


# ---------------------------------------------------------------------- #
# RangeMask / footprint algebra over int64 columns
# ---------------------------------------------------------------------- #
def rm_intersects(
    base_a: ndarray, mask_a: ndarray, base_b: ndarray, mask_b: ndarray
) -> ndarray:
    """Vector form of ``RangeMask.intersects``."""
    return ((base_a ^ base_b) & ~(mask_a | mask_b)) == 0


def rm_covers(
    base_a: ndarray, mask_a: ndarray, base_b: ndarray, mask_b: ndarray
) -> ndarray:
    """Vector form of ``RangeMask.covers`` (``a`` is a superset of ``b``)."""
    return ((mask_b & ~mask_a) == 0) & ((base_b & ~mask_a) == base_a)


def banks_intersect(
    batch: TrialBatch, first: ndarray, second: ndarray
) -> ndarray:
    """Do the two faults' bank sets share a bank?  (TSV = all banks.)"""
    if batch.geometry.banks_per_die == 1:
        return np.ones(first.shape, dtype=bool)
    return (
        batch.is_tsv[first]
        | batch.is_tsv[second]
        | (batch.bank[first] == batch.bank[second])
    )


def banks_equal(
    batch: TrialBatch, first: ndarray, second: ndarray
) -> ndarray:
    """Are the two faults' bank sets *equal*?"""
    if batch.geometry.banks_per_die == 1:
        return np.ones(first.shape, dtype=bool)
    tsv_a, tsv_b = batch.is_tsv[first], batch.is_tsv[second]
    return (tsv_a & tsv_b) | (
        ~tsv_a & ~tsv_b & (batch.bank[first] == batch.bank[second])
    )


def footprint_covers(
    batch: TrialBatch, a: ndarray, b: ndarray
) -> ndarray:
    """Vector form of ``Footprint.covers`` (``a`` covers ``b``)."""
    tsv_a, tsv_b = batch.is_tsv[a], batch.is_tsv[b]
    if batch.geometry.banks_per_die == 1:
        banks_sup = np.ones(a.shape, dtype=bool)
    else:
        banks_sup = tsv_a | (~tsv_b & (batch.bank[a] == batch.bank[b]))
    return (
        (batch.die[a] == batch.die[b])
        & banks_sup
        & rm_covers(
            batch.row_base[a], batch.row_mask[a],
            batch.row_base[b], batch.row_mask[b],
        )
        & rm_covers(
            batch.col_base[a], batch.col_mask[a],
            batch.col_base[b], batch.col_mask[b],
        )
    )


def rows_intersect(
    batch: TrialBatch, first: ndarray, second: ndarray
) -> ndarray:
    return rm_intersects(
        batch.row_base[first], batch.row_mask[first],
        batch.row_base[second], batch.row_mask[second],
    )


def cols_intersect(
    batch: TrialBatch, first: ndarray, second: ndarray
) -> ndarray:
    return rm_intersects(
        batch.col_base[first], batch.col_mask[first],
        batch.col_base[second], batch.col_mask[second],
    )


# ---------------------------------------------------------------------- #
# Kernels
# ---------------------------------------------------------------------- #
class BatchCorrectionKernel:
    """Array-shaped correctability check for one scheme.

    ``survives(batch)`` returns one bool per trial: ``True`` proves the
    trial correctable at every prefix of its arrival sequence (the engine
    skips the scalar simulation), ``False`` sends it to the exact scalar
    path.  The boundary is deliberately data-only (int64/bool columns in,
    bool vector out) so a native backend can implement the same contract.

    ``col_block_bits`` is the column-block width the kernel passes to
    :meth:`TrialBatch.pairs`; the engine charges each trial the pairs
    that width indexes against its chunk budget.
    """

    col_block_bits: int

    def survives(self, batch: TrialBatch) -> ndarray:
        raise NotImplementedError


class PairwiseBatchKernel(BatchCorrectionKernel):
    """Shared shape of the pairwise schemes (SECDED, 2D-ECC, RAID-5 and
    the symbol codes): every ``IncrementalPairwiseModel`` subclass.

    A trial survives when no single fault is fatal alone and no possibly-
    co-live pair is fatal together — the vectorized mirror of
    ``IncrementalPairwiseModel``'s monotone verdict.  Subclasses mirror
    the model's ``_fatal_alone`` and ``_fatal_pair`` hooks rule for rule.
    Their pair rules need no column overlap (RAID-5 and 2D-ECC fire on a
    shared row, the Same Bank metadata rule on a check row), so the
    kernel's one column block spans the whole row: every intra-trial
    pair.
    """

    def __init__(self, geometry: StackGeometry) -> None:
        self.geometry = geometry
        self.col_block_bits = geometry.row_bits

    def survives(self, batch: TrialBatch) -> ndarray:
        ok = batch.trials_where_none(self._fatal_alone(batch))
        first, second, colive = batch.pairs(self.col_block_bits)
        if first.size:
            fatal = self._fatal_pair(batch, first, second) & colive
            pair_bad = np.bincount(
                batch.trial[first[fatal]], minlength=batch.n_trials
            )
            ok &= pair_bad == 0
        return ok

    def _fatal_alone(self, batch: TrialBatch) -> ndarray:
        raise NotImplementedError

    def _fatal_pair(
        self, batch: TrialBatch, first: ndarray, second: ndarray
    ) -> ndarray:
        raise NotImplementedError


class SECDEDBatchKernel(PairwiseBatchKernel):
    """Vector mirror of ``repro.ecc.secded.SECDED``."""

    def _fatal_alone(self, batch: TrialBatch) -> ndarray:
        # > 1 bit per aligned 64-bit word <=> the column mask has
        # don't-care bits inside the word offset.
        return (batch.col_mask & (_SECDED_WORD_BITS - 1)) != 0

    def _fatal_pair(
        self, batch: TrialBatch, first: ndarray, second: ndarray
    ) -> ndarray:
        nested = footprint_covers(batch, first, second) | footprint_covers(
            batch, second, first
        )
        word_low = _SECDED_WORD_BITS - 1
        share_word = (
            (batch.col_base[first] ^ batch.col_base[second])
            & ~(batch.col_mask[first] | batch.col_mask[second] | word_low)
        ) == 0
        return (
            ~nested
            & (batch.die[first] == batch.die[second])
            & banks_intersect(batch, first, second)
            & rows_intersect(batch, first, second)
            & share_word
        )


class TwoDimBatchKernel(PairwiseBatchKernel):
    """Vector mirror of ``repro.ecc.parity2d.TwoDimECC``."""

    def __init__(self, geometry: StackGeometry, tile: int) -> None:
        super().__init__(geometry)
        #: ``2**popcount(mask) > tile`` <=> ``popcount(mask) >= this``.
        self._popcount_over_tile = tile.bit_length()

    def _fatal_alone(self, batch: TrialBatch) -> ndarray:
        multi_bank = batch.is_tsv & (self.geometry.banks_per_die > 1)
        area = (
            np.bitwise_count(batch.row_mask) >= self._popcount_over_tile
        ) & (np.bitwise_count(batch.col_mask) >= self._popcount_over_tile)
        return batch.is_bank_kind | multi_bank | area

    def _fatal_pair(
        self, batch: TrialBatch, first: ndarray, second: ndarray
    ) -> ndarray:
        nested = footprint_covers(batch, first, second) | footprint_covers(
            batch, second, first
        )
        return (
            ~nested
            & (batch.die[first] == batch.die[second])
            & banks_intersect(batch, first, second)
            & (
                rows_intersect(batch, first, second)
                | cols_intersect(batch, first, second)
            )
        )


class RAID5BatchKernel(PairwiseBatchKernel):
    """Vector mirror of ``repro.ecc.raid5.RAID5``."""

    def _fatal_alone(self, batch: TrialBatch) -> ndarray:
        # spans_multiple_banks(): only TSV faults touch more than one
        # (die, bank) instance, and only when a die has several banks.
        return batch.is_tsv & (self.geometry.banks_per_die > 1)

    def _fatal_pair(
        self, batch: TrialBatch, first: ndarray, second: ndarray
    ) -> ndarray:
        same_strip = (batch.die[first] == batch.die[second]) & banks_equal(
            batch, first, second
        )
        return ~same_strip & rows_intersect(batch, first, second)


class SymbolBatchKernel(PairwiseBatchKernel):
    """Vector mirror of ``repro.ecc.symbol_code.SymbolCode``.

    Every fault touches one die, and only TSV faults (always on a data
    die) touch more than one bank; a fault on a die at or above
    ``data_dies`` sits in the metadata die and holds check symbols only.
    """

    def __init__(
        self, geometry: StackGeometry, policy: StripingPolicy, symbol_bits: int
    ) -> None:
        super().__init__(geometry)
        self.policy = policy
        self._symbol_bits = symbol_bits
        self._line_low = geometry.line_bits - 1

    def _fatal_alone(self, batch: TrialBatch) -> ndarray:
        data = batch.die < self.geometry.data_dies
        if self.policy is StripingPolicy.SAME_BANK:
            # _line_slice() is None: don't-care bits reach the slice index.
            within = batch.col_mask & self._line_low
            return data & (within >= self._symbol_bits)
        if self.policy is StripingPolicy.ACROSS_BANKS:
            # spans_multiple_banks(): a TSV fault on a multi-bank die.
            return data & batch.is_tsv & (self.geometry.banks_per_die > 1)
        # Across Channels: a single-die fault stays in one symbol unit.
        return np.zeros(batch.n_faults, dtype=bool)

    def _fatal_pair(
        self, batch: TrialBatch, first: ndarray, second: ndarray
    ) -> ndarray:
        data_dies = self.geometry.data_dies
        meta_first = batch.die[first] >= data_dies
        meta_second = batch.die[second] >= data_dies
        # Two metadata faults sit in the one check unit: never fatal.
        fatal = ~(meta_first | meta_second) & self._data_pair_fatal(
            batch, first, second
        )
        mixed = np.flatnonzero(meta_first != meta_second)
        if mixed.size:
            meta_is_first = meta_first[mixed]
            fatal[mixed] = self._meta_data_fatal(
                batch,
                np.where(meta_is_first, first[mixed], second[mixed]),
                np.where(meta_is_first, second[mixed], first[mixed]),
            )
        return fatal

    def _data_pair_fatal(
        self, batch: TrialBatch, first: ndarray, second: ndarray
    ) -> ndarray:
        same_die = batch.die[first] == batch.die[second]
        if self.policy is StripingPolicy.SAME_BANK:
            line_low = self._line_low
            base_a, base_b = batch.col_base[first], batch.col_base[second]
            # share_line_slot(): the faults can reach one line slot ...
            share_slot = (
                (base_a ^ base_b)
                & ~(batch.col_mask[first] | batch.col_mask[second] | line_low)
            ) == 0
            # ... through different 64-bit slices of it.
            other_slice = (base_a & line_low) // self._symbol_bits != (
                base_b & line_low
            ) // self._symbol_bits
            return (
                same_die
                & banks_intersect(batch, first, second)
                & rows_intersect(batch, first, second)
                & share_slot
                & other_slice
            )
        overlap = rows_intersect(batch, first, second) & cols_intersect(
            batch, first, second
        )
        if self.policy is StripingPolicy.ACROSS_BANKS:
            # One symbol unit per bank of a die.
            return same_die & ~banks_equal(batch, first, second) & overlap
        # Across Channels: one symbol unit per die.
        return ~same_die & banks_intersect(batch, first, second) & overlap

    def _meta_data_fatal(
        self, batch: TrialBatch, meta: ndarray, data: ndarray
    ) -> ndarray:
        """Does the metadata fault hit the check of a line the data fault
        also corrupts?"""
        if self.policy is StripingPolicy.ACROSS_CHANNELS:
            # The metadata die is the ninth unit, at the same coordinates.
            return (
                banks_intersect(batch, meta, data)
                & rows_intersect(batch, meta, data)
                & cols_intersect(batch, meta, data)
            )
        # Metadata bank d serves data die d.
        serves = batch.bank[meta] == batch.die[data]
        if self.policy is StripingPolicy.ACROSS_BANKS:
            return (
                serves
                & rows_intersect(batch, meta, data)
                & cols_intersect(batch, meta, data)
            )
        # Same Bank: the check rows of the data fault's lines, bank by bank
        # (every bank of the die for a TSV fault).
        meta_base, meta_mask = batch.row_base[meta], batch.row_mask[meta]
        data_base, data_mask = batch.row_base[data], batch.row_mask[data]

        def check_row_hit(bank: ndarray) -> ndarray:
            base, mask = same_bank_check_rows(
                self.geometry, bank, data_base, data_mask
            )
            return rm_intersects(meta_base, meta_mask, base, mask)

        hit = check_row_hit(batch.bank[data])
        tsv = batch.is_tsv[data]
        if tsv.any():
            any_bank = np.zeros(data.shape, dtype=bool)
            for bank in range(self.geometry.banks_per_die):
                any_bank |= check_row_hit(np.full(data.shape, bank))
            hit = np.where(tsv, any_bank, hit)
        return serves & hit
