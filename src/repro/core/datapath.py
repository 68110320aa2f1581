"""Functional (bit-accurate) Citadel datapath on a scaled-down stack.

The Monte-Carlo engine reasons about fault footprints symbolically; this
module *actually moves bytes* so the mechanisms can be validated end to
end on a small geometry:

* cache lines are stored in a numpy array of DRAM cells;
* every line carries CRC-32 computed over (address, data) (§VI);
* dimension-1 parity lives in a real parity bank, dimensions 2/3 in
  controller-side parity rows, all maintained by XOR deltas on writes;
* injected faults corrupt the *read path*: cell faults stick bits at 0,
  data-TSV faults stick their column pairs, and address-TSV faults return
  the aliased row (which is why the CRC must cover the address, §V-C2);
* a CRC mismatch triggers recovery: TSV BIST first (fixed-row check +
  TSV-Swap repair), then 3DP reconstruction through each dimension, with
  the reconstruction reads themselves subject to fault corruption;
* :meth:`scrub` walks the whole memory, corrects what it can (iterating,
  which is peeling in the literal sense) and spares permanent faults via
  DDS row/bank remapping into the metadata die's spare banks.

Cells hold their last-written ("true") values; faults corrupt reads, so a
successful reconstruction recovers exactly the data the host wrote —
matching the paper's fail-in-place semantics.  Sparing moves only what
the controller can read: each written line of the spared row or bank
goes through detection and correction, and the spare receives the
rebuilt line, or the raw read where no dimension rebuilds it.  A line
lost before its region is spared therefore stays lost.  Parity groups
are logical: reconstruction and parity updates address a line by its
home ``(die, bank, row, slot)`` and read its group through the remaps.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import contracts
from repro.core.dds import DDSController
from repro.core.tsv_swap import TSVSwapController
from repro.core.memory_array import FaultyMemoryArray
from repro.ecc.crc import crc32_with_address
from repro.errors import ConfigurationError, GeometryError, UncorrectableError
from repro.faults.types import Fault, FaultKind
from repro.rng import make_rng
from repro.stack.geometry import StackGeometry
from repro.stack.tsv import TSVClass, TSVId
from repro.telemetry.registry import MetricsRegistry


@dataclass
class DatapathStats:
    crc_mismatches: int = 0
    corrections: int = 0
    tsv_repairs: int = 0
    rows_spared: int = 0
    banks_spared: int = 0
    uncorrectable: int = 0

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.tsv_repairs, "tsv_repairs")
        contracts.check_non_negative(self.rows_spared, "rows_spared")
        contracts.check_non_negative(self.banks_spared, "banks_spared")


@dataclass
class ScrubReport:
    lines_checked: int = 0
    lines_corrected: int = 0
    lines_lost: List[int] = field(default_factory=list)


class CitadelDatapath:
    """A functional Citadel-protected stack."""

    def __init__(
        self,
        geometry: Optional[StackGeometry] = None,
        rng: Optional[random.Random] = None,
        enable_tsv_swap: bool = True,
        enable_dds: bool = True,
        seed: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.geometry = geometry if geometry is not None else StackGeometry.small()
        g = self.geometry
        if g.metadata_dies != 1:
            raise ConfigurationError("the datapath needs exactly one metadata die")
        self.rng = make_rng(rng, seed)
        self.enable_tsv_swap = enable_tsv_swap
        self.enable_dds = enable_dds

        # DRAM cells + fault-corrupting read path (data + metadata dies).
        self.array = FaultyMemoryArray(g)
        self.array.suppression = self._fault_suppressed
        self.cells = self.array.cells
        # Dim-1 parity bank: last bank of the last data die (§VI-A).
        self.parity_bank = (g.data_dies - 1, g.banks_per_die - 1)
        # Dims 2/3 parity rows at the controller (§VI-C).
        self.parity_dim2 = np.zeros((g.data_dies, g.row_bytes), dtype=np.uint8)
        self.parity_dim3 = np.zeros((g.banks_per_die, g.row_bytes), dtype=np.uint8)
        # Per-line CRC-32 metadata (the metadata die's CRC banks).
        self._crc: Dict[int, int] = {}

        #: Observability hook mirroring :class:`DatapathStats` into the
        #: shared registry (``crc/`` namespace) when set.
        self.metrics = metrics
        self.tsv_swap = TSVSwapController(g, standby_count=2)
        self.dds = DDSController(g, metrics=metrics)
        self.stats = DatapathStats()
        # DDS remaps: (die, bank) -> coarse spare bank; row remaps.
        self._bank_remap: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._row_remap: Dict[Tuple[int, int, int], int] = {}
        self._spare_rows_used = 0

        # Data address space: every (die, bank) except the parity bank.
        self._data_banks = [
            (d, b)
            for d in range(g.data_dies)
            for b in range(g.banks_per_die)
            if (d, b) != self.parity_bank
        ]
        self.lines_per_bank = g.rows_per_bank * g.lines_per_row
        self.num_lines = len(self._data_banks) * self.lines_per_bank

    # ------------------------------------------------------------------ #
    # Address decomposition
    # ------------------------------------------------------------------ #
    def _locate(self, address: int) -> Tuple[int, int, int, int]:
        """address -> (die, bank, row, slot)."""
        if not 0 <= address < self.num_lines:
            raise GeometryError(
                f"address {address} out of range [0, {self.num_lines})"
            )
        bank_index = address % len(self._data_banks)
        rest = address // len(self._data_banks)
        slot = rest % self.geometry.lines_per_row
        row = rest // self.geometry.lines_per_row
        die, bank = self._data_banks[bank_index]
        return die, bank, row, slot

    def _address(self, die: int, bank: int, row: int, slot: int) -> int:
        """(die, bank, row, slot) -> address; the inverse of :meth:`_locate`."""
        rest = row * self.geometry.lines_per_row + slot
        return rest * len(self._data_banks) + self._data_banks.index((die, bank))

    # ------------------------------------------------------------------ #
    # Fault injection & read-path corruption
    # ------------------------------------------------------------------ #
    def inject(self, fault: Fault) -> None:
        """Make a fault active on the read path."""
        self.array.inject(fault)

    @property
    def _faults(self) -> List[Fault]:
        return self.array.faults

    def _active_faults(self) -> List[Fault]:
        """Faults not yet neutralized by TSV-Swap."""
        return self.array.active_faults()

    def _fault_suppressed(self, fault: Fault) -> bool:
        return fault.kind.is_tsv and self._tsv_repaired(fault)

    def _tsv_repaired(self, fault: Fault) -> bool:
        tsv = TSVId(
            channel=fault.channel,
            tsv_class=(
                TSVClass.DATA
                if fault.kind is FaultKind.DATA_TSV
                else TSVClass.ADDRESS
            ),
            index=fault.tsv_index,
        )
        return self.tsv_swap.redirect(tsv) is not None

    def _read_raw_row(self, die: int, bank: int, row: int) -> np.ndarray:
        """Read a whole row through the fault-corrupted path.

        DDS redirection applies: once a bank (or row) has been spared,
        its live data — including its contribution to parity groups —
        comes from the spare area, so 3DP reconstruction sources the
        relocated copy rather than the dead cells.
        """
        rdie, rbank, rrow, _ = self._remapped(die, bank, row, 0)
        return self.array.read_row(rdie, rbank, rrow)

    def _read_raw_line(self, die: int, bank: int, row: int, slot: int) -> bytes:
        return self.array.read_line(die, bank, row, slot)

    # ------------------------------------------------------------------ #
    # Parity maintenance (XOR deltas at a line's home location)
    # ------------------------------------------------------------------ #
    def _apply_parity_delta(
        self, die: int, bank: int, row: int, slot: int, delta: np.ndarray
    ) -> None:
        g = self.geometry
        start = slot * g.line_bytes
        sl = slice(start, start + g.line_bytes)
        pd, pb = self.parity_bank
        if (die, bank) != self.parity_bank:
            self.cells[pd, pb, row, sl] ^= delta
        self.parity_dim2[die, sl] ^= delta
        self.parity_dim3[bank, sl] ^= delta

    # ------------------------------------------------------------------ #
    # Public read/write API
    # ------------------------------------------------------------------ #
    def write(self, address: int, data: bytes) -> None:
        g = self.geometry
        if len(data) != g.line_bytes:
            raise ConfigurationError(
                f"line must be {g.line_bytes} bytes, got {len(data)}"
            )
        home = self._locate(address)
        die, bank, row, slot = self._remapped(*home)
        start = slot * g.line_bytes
        sl = slice(start, start + g.line_bytes)
        new = np.frombuffer(data, dtype=np.uint8)
        old = self.cells[die, bank, row, sl].copy()
        self.cells[die, bank, row, sl] = new
        self._apply_parity_delta(*home, old ^ new)
        self._crc[address] = crc32_with_address(data, address)

    def read(self, address: int) -> bytes:
        """Read a line, detecting and correcting on the way (§VI-D)."""
        home = self._locate(address)
        data, corrected = self._recover(address, home)
        if data is None:
            self.stats.uncorrectable += 1
            if self.metrics is not None:
                self.metrics.inc("crc/uncorrectable")
            raise UncorrectableError(
                f"line {address} unrecoverable through any parity dimension"
            )
        if corrected and self.enable_dds:
            self._spare_after_correction(*home[:3])
        return data

    def _recover(
        self, address: int, home: Tuple[int, int, int, int]
    ) -> Tuple[Optional[bytes], bool]:
        """Detection and correction of the line at ``address`` (home
        location ``home``): ``(data, corrected)``, where ``data`` is the
        line as read when its CRC matches, as TSV-Swap or a parity
        dimension rebuilt it otherwise (``corrected`` is True for a
        parity rebuild), or None when nothing rebuilds it."""
        die, bank, row, slot = self._remapped(*home)
        data = self._read_raw_line(die, bank, row, slot)
        if self._crc_ok(address, data):
            return data, False
        self.stats.crc_mismatches += 1
        if self.metrics is not None:
            self.metrics.inc("crc/detections")
        # Phase 1: is it a TSV fault?  BIST + TSV-Swap (§V-C2).
        if self.enable_tsv_swap and self._run_tsv_bist(die):
            data = self._read_raw_line(die, bank, row, slot)
            if self._crc_ok(address, data):
                return data, False
        # Phase 2: 3DP reconstruction of the home location's groups.
        recovered = self._reconstruct(address, *home)
        if recovered is None:
            return None, False
        self.stats.corrections += 1
        if self.metrics is not None:
            self.metrics.inc("crc/corrections")
        return recovered, True

    def _crc_ok(self, address: int, data: bytes) -> bool:
        stored = self._crc.get(address)
        if stored is None:
            # Never-written lines are all-zero with no checksum on file.
            return True
        return crc32_with_address(data, address) == stored

    # ------------------------------------------------------------------ #
    # TSV BIST
    # ------------------------------------------------------------------ #
    def _run_tsv_bist(self, die: int) -> bool:
        """Locate and repair faulty TSVs of ``die``'s channel."""
        repaired = False
        for fault in list(self._faults):
            if not fault.kind.is_tsv or fault.channel != die:
                continue
            if self._tsv_repaired(fault):
                continue
            tsv = TSVId(
                channel=fault.channel,
                tsv_class=(
                    TSVClass.DATA
                    if fault.kind is FaultKind.DATA_TSV
                    else TSVClass.ADDRESS
                ),
                index=fault.tsv_index,
            )
            if self.tsv_swap.try_repair(tsv) is not None:
                self.stats.tsv_repairs += 1
                if self.metrics is not None:
                    self.metrics.inc("tsvswap/bist_repairs")
                repaired = True
        return repaired

    # ------------------------------------------------------------------ #
    # 3DP reconstruction (reads other locations through the fault path)
    # ------------------------------------------------------------------ #
    def _reconstruct(
        self, address: int, die: int, bank: int, row: int, slot: int
    ) -> Optional[bytes]:
        for candidate in (
            self._reconstruct_dim2(die, bank, row, slot),
            self._reconstruct_dim3(die, bank, row, slot),
            self._reconstruct_dim1(die, bank, row, slot),
        ):
            if candidate is not None and self._crc_ok(address, candidate):
                return candidate
        return None

    def _line_slice(self, slot: int) -> slice:
        start = slot * self.geometry.line_bytes
        return slice(start, start + self.geometry.line_bytes)

    def _reconstruct_dim1(
        self, die: int, bank: int, row: int, slot: int
    ) -> Optional[bytes]:
        """XOR of the parity bank row with every other bank's line."""
        g = self.geometry
        sl = self._line_slice(slot)
        pd, pb = self.parity_bank
        if (die, bank) == self.parity_bank:
            return None
        acc = self._read_raw_row(pd, pb, row)[sl].copy()
        for d in range(g.data_dies):
            for b in range(g.banks_per_die):
                if (d, b) in ((die, bank), self.parity_bank):
                    continue
                acc ^= self._read_raw_row(d, b, row)[sl]
        return bytes(acc)

    def _reconstruct_dim2(
        self, die: int, bank: int, row: int, slot: int
    ) -> Optional[bytes]:
        """XOR of the die's parity row with every other (bank, row)."""
        g = self.geometry
        sl = self._line_slice(slot)
        acc = self.parity_dim2[die, sl].copy()
        for b in range(g.banks_per_die):
            for r in range(g.rows_per_bank):
                if (b, r) == (bank, row):
                    continue
                acc ^= self._read_raw_row(die, b, r)[sl]
        return bytes(acc)

    def _reconstruct_dim3(
        self, die: int, bank: int, row: int, slot: int
    ) -> Optional[bytes]:
        """XOR of the bank-index parity row with every other (die, row)."""
        g = self.geometry
        sl = self._line_slice(slot)
        acc = self.parity_dim3[bank, sl].copy()
        for d in range(g.data_dies):
            for r in range(g.rows_per_bank):
                if (d, r) == (die, row):
                    continue
                acc ^= self._read_raw_row(d, bank, r)[sl]
        return bytes(acc)

    # ------------------------------------------------------------------ #
    # DDS sparing on the datapath
    # ------------------------------------------------------------------ #
    def _remapped(
        self, die: int, bank: int, row: int, slot: int
    ) -> Tuple[int, int, int, int]:
        """Apply BRT then RRT redirection (§VII-C3: BRT probed first)."""
        if (die, bank) in self._bank_remap:
            die, bank = self._bank_remap[(die, bank)]
            return die, bank, row, slot
        if (die, bank, row) in self._row_remap:
            g = self.geometry
            spare_row = self._row_remap[(die, bank, row)]
            return g.metadata_die, self.dds.fine_spare_bank, spare_row, slot
        return die, bank, row, slot

    def _spare_after_correction(self, die: int, bank: int, row: int) -> None:
        """Relocate the faulty region (row or bank) of a corrected line
        whose home row is ``(die, bank, row)``."""
        if (die, bank) in self._bank_remap or (die, bank, row) in self._row_remap:
            return  # already spared; nothing further to do
        faulty_rows = self._faulty_rows_in_bank(die, bank)
        if faulty_rows > self.dds.spare_rows_per_bank:
            self._spare_bank(die, bank)
        else:
            self._spare_row(die, bank, row)

    def _faulty_rows_in_bank(self, die: int, bank: int) -> int:
        total = 0
        for fault in self._active_faults():
            fp = fault.footprint
            if die in fp.dies and bank in fp.banks and fault.is_permanent:
                total += fp.num_rows
        return total

    def _spare_row(self, die: int, bank: int, row: int) -> None:
        g = self.geometry
        capacity = g.rows_per_bank
        if self._spare_rows_used >= capacity:
            return
        spare_row = self._spare_rows_used
        self._spare_rows_used += 1
        self.cells[g.metadata_die, self.dds.fine_spare_bank, spare_row] = (
            self._salvage_row(die, bank, row)
        )
        self._row_remap[(die, bank, row)] = spare_row
        self.stats.rows_spared += 1

    def _spare_bank(self, die: int, bank: int) -> None:
        g = self.geometry
        used = set(self._bank_remap.values())
        for spare in self.dds.coarse_spare_banks:
            target = (g.metadata_die, spare)
            if target not in used:
                for row in range(g.rows_per_bank):
                    self.cells[target[0], target[1], row] = (
                        self._salvage_row(die, bank, row)
                    )
                self._bank_remap[(die, bank)] = target
                self.stats.banks_spared += 1
                return

    def _salvage_row(self, die: int, bank: int, row: int) -> np.ndarray:
        """What sparing can move of the row at home ``(die, bank, row)``:
        the row as read, with each line whose CRC fails replaced by its
        rebuilt value where a dimension rebuilds it.  A line nothing
        rebuilds moves as read, corrupted; the written ("true") cells
        stay behind, out of the controller's reach."""
        g = self.geometry
        data = self._read_raw_row(die, bank, row)
        for slot in range(g.lines_per_row):
            home = (die, bank, row, slot)
            line, _ = self._recover(self._address(*home), home)
            if line is not None:
                data[self._line_slice(slot)] = np.frombuffer(
                    line, dtype=np.uint8
                )
        return data

    # ------------------------------------------------------------------ #
    # Scrubbing
    # ------------------------------------------------------------------ #
    def scrub(self, max_passes: int = 3) -> ScrubReport:
        """Walk every written line; detect, correct and spare.

        Multiple passes implement peeling: a line that could not be
        rebuilt while a second fault was live may succeed after that
        fault's region has been spared.
        """
        report = ScrubReport()
        addresses = sorted(self._crc)
        for _ in range(max_passes):
            progress = False
            failed: List[int] = []
            for address in addresses:
                report.lines_checked += 1
                try:
                    before = self.stats.corrections
                    self.read(address)
                    if self.stats.corrections > before:
                        report.lines_corrected += 1
                        progress = True
                except UncorrectableError:
                    failed.append(address)
            addresses = failed
            if not failed or not progress:
                break
        report.lines_lost = addresses
        return report
