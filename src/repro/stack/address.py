"""Physical addressing of cache lines within a stack.

The performance simulator works with linear cache-line addresses; the
:class:`AddressMapper` translates them into physical coordinates using a
parallelism-friendly interleaving (channel bits lowest, then bank, then
line-slot within the row, then row) that matches the baseline "Same Bank"
organization of §II-D: every cache line lives entirely inside one bank.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import contracts
from repro.errors import GeometryError
from repro.stack.geometry import StackGeometry


@dataclass(frozen=True, order=True)
class LineLocation:
    """Physical home of one 64-byte cache line (Same-Bank placement)."""

    channel: int
    bank: int
    row: int
    slot: int  # line index within the 2 KB row (0..lines_per_row-1)

    def __post_init__(self) -> None:
        contracts.check_non_negative(self.channel, "channel")
        contracts.check_non_negative(self.bank, "bank")
        contracts.check_non_negative(self.row, "row")
        contracts.check_non_negative(self.slot, "slot")


class AddressMapper:
    """Bijective map between linear line addresses and physical locations.

    ``stacks`` extends the channel space across multiple identical stacks
    (Table II's system has two 8 GB stacks = 16 channels); channel indices
    ``[s * channels, (s+1) * channels)`` belong to stack ``s``.
    """

    def __init__(self, geometry: StackGeometry, stacks: int = 1) -> None:
        if stacks < 1:
            raise GeometryError(f"stacks must be >= 1, got {stacks}")
        self.geometry = geometry
        self.stacks = stacks
        self.total_channels = stacks * geometry.channels
        self._lines_per_bank = geometry.rows_per_bank * geometry.lines_per_row
        self.num_lines = (
            self.total_channels * geometry.banks_per_die * self._lines_per_bank
        )

    def to_location(self, line_address: int) -> LineLocation:
        """Decode ``line_address`` into (channel, bank, row, slot)."""
        if not 0 <= line_address < self.num_lines:
            raise GeometryError(
                f"line address {line_address} out of range [0, {self.num_lines})"
            )
        geometry = self.geometry
        channel = line_address % self.total_channels
        rest = line_address // self.total_channels
        bank = rest % geometry.banks_per_die
        rest //= geometry.banks_per_die
        slot = rest % geometry.lines_per_row
        row = rest // geometry.lines_per_row
        location = LineLocation(channel=channel, bank=bank, row=row, slot=slot)
        if contracts.enabled():
            contracts.ensure(
                self.to_address(location) == line_address,
                "address map round-trip broken: %d -> %r -> %d",
                line_address,
                location,
                self.to_address(location),
            )
        return location

    def to_address(self, location: LineLocation) -> int:
        """Encode a physical location back into a linear line address."""
        geometry = self.geometry
        if not 0 <= location.channel < self.total_channels:
            raise GeometryError(
                f"channel {location.channel} out of range "
                f"[0, {self.total_channels})"
            )
        geometry.check_bank(location.bank)
        geometry.check_row(location.row)
        if not 0 <= location.slot < geometry.lines_per_row:
            raise GeometryError(
                f"slot {location.slot} out of range [0, {geometry.lines_per_row})"
            )
        rest = location.row * geometry.lines_per_row + location.slot
        rest = rest * geometry.banks_per_die + location.bank
        address = rest * self.total_channels + location.channel
        contracts.ensure(
            0 <= address < self.num_lines,
            "encoded address %d outside [0, %d)",
            address,
            self.num_lines,
        )
        return address
