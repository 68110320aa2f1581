"""Symbol-based (ChipKill-like) correction under the three data mappings.

The paper's baseline for tolerating large-granularity faults is a "strong
8-bit symbol-based code" in which *the size of each symbol equals the
amount of data stored in each bank* (§I, §II-E): the code corrects all
errors confined to a single symbol unit of a codeword.  The hardware unit
backing a symbol depends on the striping policy:

* **Across Channels** — unit = one die's share; the metadata/ECC die is the
  ninth unit.  Any single-die fault (including a whole channel lost to TSV
  faults) is correctable.
* **Across Banks** — unit = one bank's share within the die; the check unit
  lives in the metadata die (bank ``d`` of the metadata die serves die
  ``d``).  Single-bank faults are correctable, but TSV faults span all
  banks of the die and defeat the code.
* **Same Bank** — the whole line is in one bank, so units degenerate to
  aligned 64-bit slices of the line; row, bank and TSV faults corrupt
  several slices of a line and are fatal.

Data loss occurs when two different units of one codeword are faulty:
either a single fault spans multiple units, or two concurrent faults land
in distinct units with intersecting codeword coordinates.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.ecc.base import share_line_slot
from repro.ecc.incremental import IncrementalPairwiseModel
from repro.faults.footprint import RangeMask
from repro.faults.types import Fault
from repro.stack.geometry import StackGeometry
from repro.stack.striping import StripingPolicy

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.ecc.batch_kernels import SymbolBatchKernel

#: The paper's 8+1 layout: eight data symbol units plus one check unit.
DEFAULT_DATA_UNITS = 8

#: Same Bank: one metadata row holds the checks of ``2**shift`` data rows
#: (2 KB rows, 64 check bits per line).
SAME_BANK_CHECK_ROW_SHIFT = 3


def same_bank_check_rows(
    geometry: StackGeometry, bank: Any, row_base: Any, row_mask: Any
) -> Tuple[Any, Any]:
    """Same Bank: the metadata rows holding the checks of data rows
    ``(row_base, row_mask)`` of bank ``bank``, as a ``(base, mask)`` row
    set.  The check of line (die c, bank b, row r) lives in metadata bank
    c at row ``(b << (width - shift)) | (r >> shift)``.  Takes ints (the
    scalar rule) or int64 arrays (the batch kernel's columns) alike."""
    shift = SAME_BANK_CHECK_ROW_SHIFT
    width = geometry.row_address_bits
    base = ((bank << (width - shift)) | (row_base >> shift)) & (
        (1 << width) - 1
    )
    return base, row_mask >> shift


class SymbolCode(IncrementalPairwiseModel):
    """Single-symbol-correct code over a striping policy's units."""

    def __init__(
        self,
        geometry: StackGeometry,
        policy: StripingPolicy,
        data_units: int = DEFAULT_DATA_UNITS,
    ) -> None:
        super().__init__(geometry)
        self.policy = policy
        self.data_units = data_units
        self._symbol_bits = geometry.line_bits // data_units

    @property
    def name(self) -> str:
        return f"8-bit symbol code ({self.policy.label})"

    def storage_overhead_fraction(self) -> float:
        return 1.0 / self.data_units

    def min_faults_to_fail(self, tsv_possible: bool = True) -> int:
        if self.policy is StripingPolicy.SAME_BANK:
            return 1
        if self.policy is StripingPolicy.ACROSS_BANKS:
            return 1 if tsv_possible else 2
        return 2

    def batch_kernel(self) -> "SymbolBatchKernel":
        from repro.ecc.batch_kernels import SymbolBatchKernel

        return SymbolBatchKernel(self.geometry, self.policy, self._symbol_bits)

    # ------------------------------------------------------------------ #
    def _is_meta_fault(self, fault: Fault) -> bool:
        return any(self.geometry.is_metadata_die(d) for d in fault.footprint.dies)

    def _line_slice(self, cols: RangeMask) -> Optional[int]:
        """The single 64-bit slice index a mask stays inside, or None."""
        within_mask = cols.mask & (self.geometry.line_bits - 1)
        if within_mask >= self._symbol_bits:
            return None  # don't-care bits reach into the slice index
        within_base = cols.base & (self.geometry.line_bits - 1)
        return within_base // self._symbol_bits

    def _fatal_alone(self, fault: Fault) -> bool:
        if self._is_meta_fault(fault):
            # The metadata die holds exactly one (check) symbol of any
            # codeword; a lone metadata fault is always correctable.
            return False
        if self.policy is StripingPolicy.SAME_BANK:
            return self._line_slice(fault.footprint.cols) is None
        if self.policy is StripingPolicy.ACROSS_BANKS:
            return fault.footprint.spans_multiple_banks()
        return len(fault.footprint.dies) > 1

    # ------------------------------------------------------------------ #
    def _fatal_pair(self, a: Fault, b: Fault) -> bool:
        a_meta, b_meta = self._is_meta_fault(a), self._is_meta_fault(b)
        if a_meta and b_meta:
            return False  # two faults in the single check unit
        if a_meta or b_meta:
            meta, data = (a, b) if a_meta else (b, a)
            return self._meta_data_fatal(meta, data)
        if self.policy is StripingPolicy.SAME_BANK:
            return self._same_bank_pair_fatal(a, b)
        if self.policy is StripingPolicy.ACROSS_BANKS:
            return self._across_banks_pair_fatal(a, b)
        return self._across_channels_pair_fatal(a, b)

    def _same_bank_pair_fatal(self, a: Fault, b: Fault) -> bool:
        fa, fb = a.footprint, b.footprint
        if not (fa.dies & fb.dies and fa.banks & fb.banks):
            return False
        if not fa.rows.intersects(fb.rows):
            return False
        if not share_line_slot(self.geometry, fa.cols, fb.cols):
            return False
        slice_a = self._line_slice(fa.cols)
        slice_b = self._line_slice(fb.cols)
        # Both survived the single-fault check, so slices are not None.
        return slice_a != slice_b

    def _across_banks_pair_fatal(self, a: Fault, b: Fault) -> bool:
        # Data faults reaching the pair test are single-(die, bank): any
        # multi-bank fault was already fatal on its own under this policy.
        fa, fb = a.footprint, b.footprint
        if not fa.dies & fb.dies:
            return False
        if fa.banks == fb.banks:
            return False  # same single bank: one symbol unit
        return fa.rows.intersects(fb.rows) and fa.cols.intersects(fb.cols)

    def _across_channels_pair_fatal(self, a: Fault, b: Fault) -> bool:
        # One symbol unit per die: only faults in *different* dies can hit
        # two units of one codeword.
        fa, fb = a.footprint, b.footprint
        if fa.dies == fb.dies:
            return False
        if not fa.banks & fb.banks:
            return False
        return fa.rows.intersects(fb.rows) and fa.cols.intersects(fb.cols)

    # ------------------------------------------------------------------ #
    def _meta_data_fatal(self, meta: Fault, data: Fault) -> bool:
        """Does a metadata-die fault hit the check of a line the data fault
        also corrupts?"""
        fm, fd = meta.footprint, data.footprint
        if self.policy is StripingPolicy.ACROSS_CHANNELS:
            # Metadata die is the symmetric ninth unit: same coordinates.
            return (
                bool(fm.banks & fd.banks)
                and fm.rows.intersects(fd.rows)
                and fm.cols.intersects(fd.cols)
            )
        if self.policy is StripingPolicy.ACROSS_BANKS:
            # Metadata-die bank d mirrors die d at the same (row, col).
            return (
                bool(fm.banks & fd.dies)
                and fm.rows.intersects(fd.rows)
                and fm.cols.intersects(fd.cols)
            )
        # Same Bank: the check rows of the data fault's lines, bank by bank.
        if not fm.banks & fd.dies:
            return False
        width = self.geometry.row_address_bits
        for bank in fd.banks:
            base, mask = same_bank_check_rows(
                self.geometry, bank, fd.rows.base, fd.rows.mask
            )
            if fm.rows.intersects(RangeMask(base, mask, width)):
                return True
        return False
