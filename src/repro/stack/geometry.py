"""Stacked-memory geometry.

The paper evaluates an HBM-like stack (Section II-C, Table II):

* 8 data dies, each die holding one full channel (all banks of a channel
  are on the same die), plus one additional metadata/ECC die;
* 8 banks per die; 64K rows per bank; 2 KB row buffer (so a row holds 32
  64-byte cache lines);
* 256 data TSVs and 24 address/command TSVs per channel.

:class:`StackGeometry` captures these parameters and provides derived
quantities used throughout the library.  A scaled-down geometry (used by the
functional datapath and by many tests) is produced by
:meth:`StackGeometry.small`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, GeometryError

#: Hours in the 7-year lifetime used for all reliability evaluations (§III-B).
LIFETIME_HOURS = 7 * 365 * 24

#: Scrubbing interval used in the paper's FaultSim configuration (§III-B).
SCRUB_INTERVAL_HOURS = 12.0

#: Bits per byte — the one bits-scale constant shared by capacity and
#: SRAM-overhead arithmetic throughout the library (REPRO002 exempts this
#: module, which owns all size constants).
BITS_PER_BYTE = 8


@dataclass(frozen=True)
class StackGeometry:
    """Geometry of one 3D-stacked DRAM device.

    The default values reproduce the paper's baseline configuration
    (Table II): a 2-stack system uses two such devices, but all reliability
    and performance results in the paper are reported per stack.
    """

    data_dies: int = 8
    metadata_dies: int = 1
    banks_per_die: int = 8
    rows_per_bank: int = 65536
    row_bytes: int = 2048
    line_bytes: int = 64
    subarrays_per_bank: int = 8
    data_tsvs_per_channel: int = 256
    addr_tsvs_per_channel: int = 24

    def __post_init__(self) -> None:
        for name in (
            "data_dies",
            "banks_per_die",
            "rows_per_bank",
            "row_bytes",
            "line_bytes",
            "subarrays_per_bank",
            "data_tsvs_per_channel",
            "addr_tsvs_per_channel",
        ):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.metadata_dies < 0:
            raise ConfigurationError("metadata_dies must be >= 0")
        if self.row_bytes % self.line_bytes:
            raise ConfigurationError(
                f"row_bytes ({self.row_bytes}) must be a multiple of "
                f"line_bytes ({self.line_bytes})"
            )
        if self.rows_per_bank % self.subarrays_per_bank:
            raise ConfigurationError(
                f"rows_per_bank ({self.rows_per_bank}) must be a multiple of "
                f"subarrays_per_bank ({self.subarrays_per_bank})"
            )
        if self.line_bits % self.data_tsvs_per_channel:
            raise ConfigurationError(
                f"data_tsvs_per_channel ({self.data_tsvs_per_channel}) must "
                f"divide line_bits ({self.line_bits})"
            )
        if self.rows_per_bank & (self.rows_per_bank - 1):
            raise ConfigurationError("rows_per_bank must be a power of two")
        if self.row_bits & (self.row_bits - 1):
            raise ConfigurationError("row_bytes*8 must be a power of two")

    # ------------------------------------------------------------------ #
    # Derived sizes
    # ------------------------------------------------------------------ #
    @property
    def total_dies(self) -> int:
        """Data dies plus metadata/ECC dies."""
        return self.data_dies + self.metadata_dies

    @property
    def channels(self) -> int:
        """One channel per data die in the HBM-like organization (§II-C)."""
        return self.data_dies

    @property
    def row_bits(self) -> int:
        return self.row_bytes * 8

    @property
    def line_bits(self) -> int:
        return self.line_bytes * 8

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def rows_per_subarray(self) -> int:
        return self.rows_per_bank // self.subarrays_per_bank

    @property
    def data_banks(self) -> int:
        """Number of banks across all data dies."""
        return self.data_dies * self.banks_per_die

    @property
    def total_banks(self) -> int:
        """Number of banks across all dies, including the metadata die."""
        return self.total_dies * self.banks_per_die

    @property
    def bank_bytes(self) -> int:
        return self.rows_per_bank * self.row_bytes

    @property
    def die_bytes(self) -> int:
        return self.bank_bytes * self.banks_per_die

    @property
    def data_bytes(self) -> int:
        """Usable data capacity of the stack (data dies only)."""
        return self.die_bytes * self.data_dies

    @property
    def row_address_bits(self) -> int:
        return (self.rows_per_bank - 1).bit_length()

    @property
    def col_address_bits(self) -> int:
        """Bits needed to address a single bit offset within a row."""
        return (self.row_bits - 1).bit_length()

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #
    def check_die(self, die: int, *, allow_metadata: bool = True) -> None:
        limit = self.total_dies if allow_metadata else self.data_dies
        if not 0 <= die < limit:
            raise GeometryError(f"die {die} out of range [0, {limit})")

    def check_bank(self, bank: int) -> None:
        if not 0 <= bank < self.banks_per_die:
            raise GeometryError(
                f"bank {bank} out of range [0, {self.banks_per_die})"
            )

    def check_row(self, row: int) -> None:
        if not 0 <= row < self.rows_per_bank:
            raise GeometryError(
                f"row {row} out of range [0, {self.rows_per_bank})"
            )

    def check_col_bit(self, col: int) -> None:
        if not 0 <= col < self.row_bits:
            raise GeometryError(
                f"column bit {col} out of range [0, {self.row_bits})"
            )

    def is_metadata_die(self, die: int) -> bool:
        """Metadata dies occupy the highest die indices."""
        self.check_die(die)
        return die >= self.data_dies

    @property
    def metadata_die(self) -> int:
        """Index of the (first) metadata die."""
        if not self.metadata_dies:
            raise ConfigurationError("geometry has no metadata die")
        return self.data_dies

    def subarray_of_row(self, row: int) -> int:
        self.check_row(row)
        return row // self.rows_per_subarray

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def small(cls, **overrides: int) -> "StackGeometry":
        """A scaled-down geometry for functional simulation and tests.

        4 data dies x 4 banks x 64 rows x 256-byte rows (64-byte lines), 16
        data TSVs + 6 address TSVs.  All structural relationships (power-of-
        two rows, metadata die, subarrays) match the full geometry.
        """
        params = dict(
            data_dies=4,
            metadata_dies=1,
            banks_per_die=4,
            rows_per_bank=64,
            row_bytes=256,
            line_bytes=64,
            subarrays_per_bank=4,
            data_tsvs_per_channel=16,
            addr_tsvs_per_channel=6,
        )
        params.update(overrides)
        return cls(**params)

    def with_(self, **overrides: int) -> "StackGeometry":
        """Return a copy of this geometry with selected fields replaced."""
        return replace(self, **overrides)
