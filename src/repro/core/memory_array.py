"""Fault-corrupting DRAM cell array shared by the functional datapaths.

Cells hold their last-written ("true") values; injected faults corrupt
the *read path*:

* cell faults (bit/word/row/column/subarray/bank) stick their footprint
  bits at 0;
* data-TSV faults stick the TSV's column pairs in every row of the die;
* address-TSV faults make the decoder return the aliased row (the stuck
  address bit forces half the row space onto the other half).

Both the Citadel datapath and the striped-baseline datapath read through
this array, so corruption semantics are identical across designs.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.faults.types import Fault, FaultKind
from repro.stack.geometry import StackGeometry


class FaultyMemoryArray:
    """DRAM cells + active fault set + corrupted read path."""

    def __init__(self, geometry: StackGeometry) -> None:
        self.geometry = geometry
        self.cells = np.zeros(
            (
                geometry.total_dies,
                geometry.banks_per_die,
                geometry.rows_per_bank,
                geometry.row_bytes,
            ),
            dtype=np.uint8,
        )
        self._faults: List[Fault] = []
        #: Optional predicate: faults for which it returns True are
        #: neutralized (used for TSV-Swap redirection).
        self.suppression: Optional[Callable[[Fault], bool]] = None

    # ------------------------------------------------------------------ #
    def inject(self, fault: Fault) -> None:
        self._faults.append(fault)

    @property
    def faults(self) -> List[Fault]:
        return list(self._faults)

    def active_faults(self) -> List[Fault]:
        if self.suppression is None:
            return list(self._faults)
        return [f for f in self._faults if not self.suppression(f)]

    # ------------------------------------------------------------------ #
    def read_row(self, die: int, bank: int, row: int) -> np.ndarray:
        """Read a row through the fault-corrupted path."""
        g = self.geometry
        actual_row = row
        corrupt_cols: List[int] = []
        for fault in self.active_faults():
            fp = fault.footprint
            if die not in fp.dies or bank not in fp.banks:
                continue
            if fault.kind is FaultKind.ADDR_TSV:
                if row in fp.rows:
                    bit = fault.tsv_index % g.row_address_bits
                    actual_row = row ^ (1 << bit)
                continue
            if row not in fp.rows:
                continue
            corrupt_cols.extend(fp.cols.iter_values(limit=1 << 16))
        data = self.cells[die, bank, actual_row].copy()
        if corrupt_cols:
            bits = np.unpackbits(data, bitorder="little")
            for col in corrupt_cols:
                bits[col] = 0  # stuck-at-0 cells / stuck TSV lanes
            data = np.packbits(bits, bitorder="little")
        return data

    def read_line(self, die: int, bank: int, row: int, slot: int) -> bytes:
        g = self.geometry
        start = slot * g.line_bytes
        return bytes(self.read_row(die, bank, row)[start: start + g.line_bytes])
