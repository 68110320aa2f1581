"""Physical addressing of cache lines within a stack.

The performance simulator works with linear cache-line addresses; the
:class:`AddressMapper` translates them into physical coordinates using a
parallelism-friendly interleaving (channel bits lowest, then bank, then
line-slot within the row, then row) that matches the baseline "Same Bank"
organization of §II-D: every cache line lives entirely inside one bank.

Traces carry line addresses, and the simulator turns each one into
coordinates exactly once, through :meth:`AddressMapper.decode`: it
range-checks the address, splits it into ``(channel, bank, row, slot)``
ints and, while contracts are on, re-encodes them once through
:meth:`AddressMapper.encode` to check the round trip.
:meth:`~AddressMapper.to_location` and :meth:`~AddressMapper.to_address`
are the :class:`LineLocation` faces of the same two maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

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
        self._banks_per_die = geometry.banks_per_die
        self._rows_per_bank = geometry.rows_per_bank
        self._lines_per_row = geometry.lines_per_row
        self._lines_per_bank = geometry.rows_per_bank * geometry.lines_per_row
        self.num_lines = (
            self.total_channels * geometry.banks_per_die * self._lines_per_bank
        )

    def decode(self, line_address: int) -> Tuple[int, int, int, int]:
        """Decode ``line_address`` into ``(channel, bank, row, slot)``.

        The one checked decode: the address is range-checked, and the
        round trip through :meth:`encode` is a contract, so it is
        re-encoded once per call while contracts are on.
        """
        if not 0 <= line_address < self.num_lines:
            raise GeometryError(
                f"line address {line_address} out of range [0, {self.num_lines})"
            )
        channel = line_address % self.total_channels
        rest = line_address // self.total_channels
        bank = rest % self._banks_per_die
        rest //= self._banks_per_die
        slot = rest % self._lines_per_row
        row = rest // self._lines_per_row
        if contracts.enabled():
            encoded = self.encode(channel, bank, row, slot)
            contracts.ensure(
                encoded == line_address,
                "address map round-trip broken: %d -> %r -> %d",
                line_address,
                (channel, bank, row, slot),
                encoded,
            )
        return channel, bank, row, slot

    def encode(self, channel: int, bank: int, row: int, slot: int) -> int:
        """Encode physical coordinates into a linear line address."""
        if not (
            0 <= channel < self.total_channels
            and 0 <= bank < self._banks_per_die
            and 0 <= row < self._rows_per_bank
            and 0 <= slot < self._lines_per_row
        ):
            self._reject(channel, bank, row, slot)
        rest = row * self._lines_per_row + slot
        rest = rest * self._banks_per_die + bank
        address = rest * self.total_channels + channel
        contracts.ensure(
            0 <= address < self.num_lines,
            "encoded address %d outside [0, %d)",
            address,
            self.num_lines,
        )
        return address

    def _reject(self, channel: int, bank: int, row: int, slot: int) -> None:
        """Raise the :class:`GeometryError` naming the first coordinate
        out of range."""
        geometry = self.geometry
        if not 0 <= channel < self.total_channels:
            raise GeometryError(
                f"channel {channel} out of range [0, {self.total_channels})"
            )
        geometry.check_bank(bank)
        geometry.check_row(row)
        raise GeometryError(
            f"slot {slot} out of range [0, {geometry.lines_per_row})"
        )

    def to_location(self, line_address: int) -> LineLocation:
        """Decode ``line_address`` into a :class:`LineLocation`."""
        return LineLocation(*self.decode(line_address))

    def to_address(self, location: LineLocation) -> int:
        """Encode a physical location back into a linear line address."""
        return self.encode(
            location.channel, location.bank, location.row, location.slot
        )
