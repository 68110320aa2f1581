"""Fault taxonomy of the paper (Figure 2, Table I).

DRAM-die faults: single bit, single word, single column, single row, single
bank.  Stacked-memory-specific faults: data-TSV and address-TSV faults,
which manifest as multi-bank footprints because all banks of a die share
the channel TSVs (§V-A).

Each fault is a :class:`Fault` carrying its kind, permanence, arrival time
and physical :class:`~repro.faults.footprint.Footprint`.  The module-level
``make_*_fault`` constructors build correctly-shaped footprints from
geometry coordinates and are the single source of truth for fault shapes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field, replace
from typing import Optional

from repro import contracts
from repro.errors import ConfigurationError
from repro.faults.footprint import Footprint, RangeMask
from repro.stack.geometry import StackGeometry

#: Number of bits a "word" fault touches (an aligned 32-bit word, matching
#: the Sridharan et al. field-study granularity the paper inherits).
WORD_BITS = 32


class FaultKind(enum.Enum):
    """Granularity classes from Table I plus the TSV fault modes of §V.

    ``SUBARRAY`` is the 3D transposition of the field-measured "single
    bank" failures: the paper scales the 2D bank rate by the subarray
    count (§III-A, "sub-array size remains roughly constant") and its
    Figure 17 places the resulting failures at thousands — not 64K — of
    rows; full-bank/channel losses in a stack come from TSV faults
    (§II-B).  ``BANK`` (a complete bank) is kept for direct injection and
    for the 'full' bank-fault-granularity ablation.
    """

    BIT = "bit"
    WORD = "word"
    COLUMN = "column"
    ROW = "row"
    SUBARRAY = "subarray"
    BANK = "bank"
    DATA_TSV = "data_tsv"
    ADDR_TSV = "addr_tsv"

    @property
    def is_tsv(self) -> bool:
        # Identity checks: this property sits on the sampling hot path.
        return self is FaultKind.DATA_TSV or self is FaultKind.ADDR_TSV


class Permanence(enum.Enum):
    TRANSIENT = "transient"
    PERMANENT = "permanent"


_fault_ids = itertools.count()


@dataclass(frozen=True)
class Fault:
    """One fault event in the lifetime of a stack."""

    kind: FaultKind
    permanence: Permanence
    footprint: Footprint
    time_hours: float = 0.0
    #: Channel the fault's TSV belongs to (TSV faults only).
    channel: Optional[int] = None
    #: Index of the faulty TSV within its channel (TSV faults only).
    tsv_index: Optional[int] = None
    uid: int = field(default_factory=lambda: next(_fault_ids))

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.time_hours, "time_hours")
        contracts.check_non_negative(self.channel, "channel")
        contracts.check_non_negative(self.tsv_index, "tsv_index")
        contracts.require(
            (self.channel is None) == (not self.kind.is_tsv),
            "channel must be set exactly for TSV faults (kind=%s)",
            self.kind.value,
        )

    @property
    def is_transient(self) -> bool:
        return self.permanence is Permanence.TRANSIENT

    @property
    def is_permanent(self) -> bool:
        return self.permanence is Permanence.PERMANENT

    def at_time(self, time_hours: float) -> "Fault":
        return replace(self, time_hours=time_hours)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = (
            f"dies={sorted(self.footprint.dies)} banks={sorted(self.footprint.banks)}"
        )
        return (
            f"Fault({self.kind.value}/{self.permanence.value} t={self.time_hours:.1f}h "
            f"{where})"
        )


# ---------------------------------------------------------------------- #
# Constructors — one per fault shape
# ---------------------------------------------------------------------- #
def make_bit_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    row: int,
    col: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A single faulty cell."""
    geometry.check_col_bit(col)
    footprint = Footprint.build(
        geometry,
        dies=[die],
        banks=[bank],
        rows=RangeMask.single(row, geometry.row_address_bits),
        cols=RangeMask.single(col, geometry.col_address_bits),
    )
    return Fault(FaultKind.BIT, permanence, footprint, time_hours)


def make_word_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    row: int,
    word_index: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A single faulty aligned word (WORD_BITS bits in one row)."""
    word_bits = min(WORD_BITS, geometry.row_bits)
    start = word_index * word_bits
    geometry.check_col_bit(start)
    footprint = Footprint.build(
        geometry,
        dies=[die],
        banks=[bank],
        rows=RangeMask.single(row, geometry.row_address_bits),
        cols=RangeMask.aligned_block(start, word_bits, geometry.col_address_bits),
    )
    return Fault(FaultKind.WORD, permanence, footprint, time_hours)


def make_column_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    col: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A faulty column: one bit position across every row of the bank.

    Column faults originate at the column decoder (§III-A), which serves
    the whole bank, so one bad bit appears in *every* row — this is why
    column faults sit at the 64K-row end of the Figure 17 sparing-demand
    distribution (3.82% of permanent faults = Table I's column share).
    """
    geometry.check_col_bit(col)
    footprint = Footprint.build(
        geometry,
        dies=[die],
        banks=[bank],
        rows=RangeMask.full(geometry.row_address_bits),
        cols=RangeMask.single(col, geometry.col_address_bits),
    )
    return Fault(FaultKind.COLUMN, permanence, footprint, time_hours)


def make_subarray_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    subarray: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A failed subarray: every row of one subarray of the bank.

    This is the 3D transposition of the field study's "single bank"
    failures (§II-B, §III-A): the 8 Gb die keeps the subarray size
    constant and multiplies the failure rate by the subarray count, and
    each event takes out one subarray (the thousands-of-rows peak of
    Figure 17).
    """
    if not 0 <= subarray < geometry.subarrays_per_bank:
        raise ConfigurationError(
            f"subarray {subarray} out of range [0, {geometry.subarrays_per_bank})"
        )
    rows = RangeMask.aligned_block(
        subarray * geometry.rows_per_subarray,
        geometry.rows_per_subarray,
        geometry.row_address_bits,
    )
    footprint = Footprint.build(
        geometry,
        dies=[die],
        banks=[bank],
        rows=rows,
        cols=RangeMask.full(geometry.col_address_bits),
    )
    return Fault(FaultKind.SUBARRAY, permanence, footprint, time_hours)


def make_row_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    row: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A fully faulty row (wordline failure)."""
    footprint = Footprint.build(
        geometry,
        dies=[die],
        banks=[bank],
        rows=RangeMask.single(row, geometry.row_address_bits),
        cols=RangeMask.full(geometry.col_address_bits),
    )
    return Fault(FaultKind.ROW, permanence, footprint, time_hours)


def make_bank_fault(
    geometry: StackGeometry,
    die: int,
    bank: int,
    permanence: Permanence,
    time_hours: float = 0.0,
) -> Fault:
    """A complete single-bank failure."""
    footprint = Footprint.build(
        geometry,
        dies=[die],
        banks=[bank],
        rows=RangeMask.full(geometry.row_address_bits),
        cols=RangeMask.full(geometry.col_address_bits),
    )
    return Fault(FaultKind.BANK, permanence, footprint, time_hours)


def make_data_tsv_fault(
    geometry: StackGeometry,
    channel: int,
    tsv_index: int,
    permanence: Permanence = Permanence.PERMANENT,
    time_hours: float = 0.0,
) -> Fault:
    """A faulty data TSV.

    With a burst length of 2, DTSV ``k`` carries bits ``k`` and ``k + D``
    of every cache line in every bank of its die, where ``D`` is the
    number of data TSVs per channel (§V-B: bits 1 and 257 for DTSV-1).
    Within a row the pattern repeats for every line slot, which is exactly
    the aligned-mask set ``{c : c mod line_bits in {k, k+D}}``.
    """
    if not 0 <= channel < geometry.channels:
        raise ConfigurationError(
            f"channel {channel} out of range [0, {geometry.channels})"
        )
    num_dtsv = geometry.data_tsvs_per_channel
    if not 0 <= tsv_index < num_dtsv:
        raise ConfigurationError(
            f"DTSV index {tsv_index} out of range [0, {num_dtsv})"
        )
    # ``StackGeometry`` guarantees that the DTSVs divide a line, whose bits
    # are a power of two, so the DTSV count and the burst are powers of two.
    line_bits = geometry.line_bits
    burst = line_bits // num_dtsv
    # Bits {tsv_index + j*num_dtsv : j < burst} within a line, repeated for
    # every line in the row: base = tsv_index, don't-care bits = the burst
    # selector bits plus the line-index bits.
    burst_mask = (burst - 1) * num_dtsv if burst > 1 else 0
    line_select_mask = ((1 << geometry.col_address_bits) - 1) & ~(line_bits - 1)
    cols = RangeMask(
        base=tsv_index,
        mask=burst_mask | line_select_mask,
        width=geometry.col_address_bits,
    )
    footprint = Footprint.build(
        geometry,
        dies=[channel],  # one channel per die in the HBM-like layout
        banks=range(geometry.banks_per_die),
        rows=RangeMask.full(geometry.row_address_bits),
        cols=cols,
    )
    return Fault(
        FaultKind.DATA_TSV,
        permanence,
        footprint,
        time_hours,
        channel=channel,
        tsv_index=tsv_index,
    )


def make_addr_tsv_fault(
    geometry: StackGeometry,
    channel: int,
    tsv_index: int,
    stuck_value: int = 0,
    permanence: Permanence = Permanence.PERMANENT,
    time_hours: float = 0.0,
) -> Fault:
    """A faulty address TSV: half the rows of the die become unreachable.

    A stuck address TSV ``k`` makes every row whose address bit ``k``
    differs from the stuck value inaccessible in all banks of the die
    (§V-B, Figure 7).  Address TSVs above the row-address width select
    bank/column bits; we conservatively map those onto row-address bits
    modulo the row width, which preserves the "half the memory" blast
    radius the paper describes.
    """
    if not 0 <= channel < geometry.channels:
        raise ConfigurationError(
            f"channel {channel} out of range [0, {geometry.channels})"
        )
    if not 0 <= tsv_index < geometry.addr_tsvs_per_channel:
        raise ConfigurationError(
            f"ATSV index {tsv_index} out of range "
            f"[0, {geometry.addr_tsvs_per_channel})"
        )
    bit = tsv_index % geometry.row_address_bits
    # The *reachable* half still returns correct data; the unreachable half
    # is the faulty footprint.
    rows = RangeMask.address_bit(
        bit, 1 - stuck_value, geometry.row_address_bits
    )
    footprint = Footprint.build(
        geometry,
        dies=[channel],
        banks=range(geometry.banks_per_die),
        rows=rows,
        cols=RangeMask.full(geometry.col_address_bits),
    )
    return Fault(
        FaultKind.ADDR_TSV,
        permanence,
        footprint,
        time_hours,
        channel=channel,
        tsv_index=tsv_index,
    )
