"""Tests for address mapping and the three striping policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import contracts
from repro.errors import GeometryError
from repro.stack.address import AddressMapper, LineLocation
from repro.stack.geometry import StackGeometry
from repro.stack.striping import (
    StripingPolicy,
    banks_touched,
    channels_touched,
    sub_accesses,
)


@pytest.fixture
def geom():
    return StackGeometry()


class TestAddressMapper:
    def test_roundtrip_exhaustive_small(self):
        geom = StackGeometry.small()
        mapper = AddressMapper(geom)
        for addr in range(0, mapper.num_lines, 97):
            loc = mapper.to_location(addr)
            assert mapper.to_address(loc) == addr

    @given(st.integers(min_value=0))
    @settings(max_examples=200)
    def test_roundtrip_property(self, raw):
        geom = StackGeometry()
        mapper = AddressMapper(geom, stacks=2)
        addr = raw % mapper.num_lines
        assert mapper.to_address(mapper.to_location(addr)) == addr

    def test_capacity(self, geom):
        mapper = AddressMapper(geom)
        assert mapper.num_lines * geom.line_bytes == geom.data_bytes

    def test_two_stacks_doubles_lines(self, geom):
        assert AddressMapper(geom, stacks=2).num_lines == (
            2 * AddressMapper(geom).num_lines
        )

    def test_channel_interleaving(self, geom):
        """Consecutive lines round-robin the channels (then banks) so that
        streams exploit all the parallelism and share parity groups."""
        mapper = AddressMapper(geom)
        locs = [mapper.to_location(a) for a in range(64)]
        assert [loc.channel for loc in locs[:8]] == list(range(8))
        assert len({(loc.row, loc.slot) for loc in locs}) == 1
        assert len({(loc.channel, loc.bank) for loc in locs}) == 64

    def test_out_of_range_rejected(self, geom):
        mapper = AddressMapper(geom)
        with pytest.raises(GeometryError):
            mapper.to_location(mapper.num_lines)
        with pytest.raises(GeometryError):
            mapper.to_location(-1)
        with pytest.raises(GeometryError):
            mapper.to_address(LineLocation(channel=8, bank=0, row=0, slot=0))

    def test_rejects_zero_stacks(self, geom):
        with pytest.raises(GeometryError):
            AddressMapper(geom, stacks=0)

    def test_decode_matches_to_location(self, geom):
        mapper = AddressMapper(geom, stacks=2)
        for addr in range(0, mapper.num_lines, 7919):
            loc = mapper.to_location(addr)
            assert mapper.decode(addr) == (
                loc.channel, loc.bank, loc.row, loc.slot
            )
            assert mapper.encode(*mapper.decode(addr)) == addr

    def test_decode_rejects_out_of_range(self, geom):
        mapper = AddressMapper(geom, stacks=2)
        for addr in (mapper.num_lines, -1):
            with pytest.raises(GeometryError):
                mapper.decode(addr)

    def test_round_trip_contract_encodes_once_per_decode(
        self, geom, encode_calls
    ):
        """The contract re-encodes each decoded address exactly once;
        nothing re-encodes it again for a message that is only read on
        failure."""
        mapper = AddressMapper(geom, stacks=2)
        addresses = range(0, mapper.num_lines, mapper.num_lines // 64)
        for addr in addresses:
            mapper.to_location(addr)
        assert len(encode_calls) == len(addresses)
        for addr in addresses:
            mapper.decode(addr)
        assert len(encode_calls) == 2 * len(addresses)
        with contracts.disabled():
            mapper.decode(addresses[1])
        assert len(encode_calls) == 2 * len(addresses)


class TestStriping:
    HOME = LineLocation(channel=3, bank=5, row=77, slot=9)

    def test_same_bank_single_access(self, geom):
        subs = sub_accesses(StripingPolicy.SAME_BANK, geom, self.HOME)
        assert len(subs) == 1
        assert subs[0].channel == 3 and subs[0].bank == 5
        assert subs[0].bytes == 64

    def test_across_banks_covers_all_banks_one_channel(self, geom):
        subs = sub_accesses(StripingPolicy.ACROSS_BANKS, geom, self.HOME)
        assert len(subs) == 8
        assert {s.bank for s in subs} == set(range(8))
        assert {s.channel for s in subs} == {3}
        assert all(s.bytes == 8 for s in subs)
        assert sum(s.bytes for s in subs) == 64

    def test_across_channels_covers_all_channels_one_bank(self, geom):
        subs = sub_accesses(StripingPolicy.ACROSS_CHANNELS, geom, self.HOME)
        assert len(subs) == 8
        assert {s.channel for s in subs} == set(range(8))
        assert {s.bank for s in subs} == {5}
        assert sum(s.bytes for s in subs) == 64

    def test_across_channels_stays_in_home_stack(self, geom):
        home = LineLocation(channel=11, bank=2, row=0, slot=0)  # stack 1
        subs = sub_accesses(StripingPolicy.ACROSS_CHANNELS, geom, home)
        assert {s.channel for s in subs} == set(range(8, 16))

    def test_row_slot_preserved(self, geom):
        for policy in StripingPolicy:
            for sub in sub_accesses(policy, geom, self.HOME):
                assert sub.row == 77 and sub.slot == 9

    def test_banks_channels_touched(self, geom):
        assert banks_touched(StripingPolicy.SAME_BANK, geom) == 1
        assert banks_touched(StripingPolicy.ACROSS_BANKS, geom) == 8
        assert banks_touched(StripingPolicy.ACROSS_CHANNELS, geom) == 8
        assert channels_touched(StripingPolicy.SAME_BANK, geom) == 1
        assert channels_touched(StripingPolicy.ACROSS_BANKS, geom) == 1
        assert channels_touched(StripingPolicy.ACROSS_CHANNELS, geom) == 8

    def test_labels(self):
        assert StripingPolicy.SAME_BANK.label == "Same Bank"
        assert StripingPolicy.ACROSS_BANKS.label == "Across Banks"
        assert StripingPolicy.ACROSS_CHANNELS.label == "Across Channels"
