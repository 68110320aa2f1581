"""End-to-end tests of the functional Citadel datapath: real bytes, real
CRC-32, real XOR parity reconstruction, real TSV swap and DDS remaps."""

import random

import pytest

from repro.core.datapath import CitadelDatapath
from repro.core.parity3dp import make_3dp
from repro.errors import ConfigurationError, GeometryError, UncorrectableError
from repro.faults.types import (
    Permanence,
    make_addr_tsv_fault,
    make_bank_fault,
    make_bit_fault,
    make_column_fault,
    make_data_tsv_fault,
    make_row_fault,
    make_subarray_fault,
)
from repro.stack.geometry import StackGeometry

P = Permanence.PERMANENT


@pytest.fixture
def dp():
    return CitadelDatapath(rng=random.Random(7))


def payload(address, nbytes=64):
    rng = random.Random(address * 2654435761 % (1 << 32))
    return bytes(rng.randrange(256) for _ in range(nbytes))


def fill(dp, addresses):
    for a in addresses:
        dp.write(a, payload(a))


class TestFaultFreePath:
    def test_write_read_roundtrip(self, dp):
        fill(dp, range(50))
        for a in range(50):
            assert dp.read(a) == payload(a)
        assert dp.stats.crc_mismatches == 0

    def test_overwrite(self, dp):
        dp.write(3, b"\xAA" * 64)
        dp.write(3, b"\x55" * 64)
        assert dp.read(3) == b"\x55" * 64

    def test_rejects_bad_sizes_and_addresses(self, dp):
        with pytest.raises(ConfigurationError):
            dp.write(0, b"short")
        with pytest.raises(GeometryError):
            dp.write(dp.num_lines, b"\x00" * 64)

    def test_unwritten_lines_read_zero(self, dp):
        assert dp.read(9) == b"\x00" * 64

    def test_parity_bank_not_addressable(self, dp):
        assert dp.parity_bank not in dp._data_banks


class TestCellFaultCorrection:
    def _home(self, dp, address):
        return dp._locate(address)

    def test_bit_fault_corrected(self, dp):
        fill(dp, range(20))
        die, bank, row, slot = self._home(dp, 5)
        # Stick a bit inside that line's col range.
        col = slot * dp.geometry.line_bits + 13
        dp.inject(make_bit_fault(dp.geometry, die, bank, row, col, P))
        assert dp.read(5) == payload(5)
        assert dp.stats.corrections >= 1 or dp.stats.crc_mismatches == 0

    def test_row_fault_corrected_and_row_spared(self, dp):
        fill(dp, range(20))
        die, bank, row, slot = self._home(dp, 7)
        dp.inject(make_row_fault(dp.geometry, die, bank, row, P))
        data = dp.read(7)
        assert data == payload(7)
        if dp.stats.corrections:
            assert dp.stats.rows_spared >= 1
            # Re-read now goes through the spare row: clean.
            before = dp.stats.crc_mismatches
            assert dp.read(7) == payload(7)
            assert dp.stats.crc_mismatches == before

    def test_bank_fault_corrected_and_bank_spared(self, dp):
        fill(dp, range(40))
        die, bank, _, _ = self._home(dp, 11)
        dp.inject(make_bank_fault(dp.geometry, die, bank, P))
        assert dp.read(11) == payload(11)
        assert dp.stats.banks_spared == 1
        # Every line of the spared bank reads clean afterwards.
        for a in range(40):
            assert dp.read(a) == payload(a)

    def test_column_fault_corrected(self, dp):
        fill(dp, range(30))
        die, bank, row, slot = self._home(dp, 3)
        col = slot * dp.geometry.line_bits + 100
        dp.inject(make_column_fault(dp.geometry, die, bank, col, P))
        assert dp.read(3) == payload(3)

    def test_two_overlapping_bank_faults_are_data_loss(self, dp):
        dp_nodds = CitadelDatapath(enable_dds=False)
        # Populate several rows of every bank so the corruption of both
        # failed banks is visible to every parity dimension.
        fill(dp_nodds, range(150))
        d0, b0, _, _ = dp_nodds._locate(0)
        other = next(
            a for a in range(150)
            if dp_nodds._locate(a)[:2] not in ((d0, b0), dp_nodds.parity_bank)
        )
        d1, b1, _, _ = dp_nodds._locate(other)
        dp_nodds.inject(make_bank_fault(dp_nodds.geometry, d0, b0, P))
        dp_nodds.inject(make_bank_fault(dp_nodds.geometry, d1, b1, P))
        with pytest.raises(UncorrectableError):
            dp_nodds.read(0)

    def test_reconstruction_reads_spared_banks_through_remap(self, dp):
        """After DDS spares a bank, 3DP reconstruction must source the
        relocated copy: a second same-row-index bank failure one scrub
        later is then fully recoverable (regression test)."""
        fill(dp, range(150))
        d0, b0, _, _ = dp._locate(0)
        dp.inject(make_bank_fault(dp.geometry, d0, b0, P))
        assert dp.scrub().lines_lost == []
        other = next(
            a for a in range(150)
            if dp._locate(a)[:2] not in ((d0, b0), dp.parity_bank)
        )
        d1, b1, _, _ = dp._locate(other)
        dp.inject(make_bank_fault(dp.geometry, d1, b1, P))
        report = dp.scrub()
        assert report.lines_lost == []
        for a in range(150):
            assert dp.read(a) == payload(a)

    def test_dds_isolates_sequential_bank_faults(self, dp):
        """With DDS, the first bank fault is spared, so a later second
        bank fault remains correctable — the accumulation-prevention
        claim of §VII."""
        fill(dp, range(40))
        d0, b0, _, _ = dp._locate(0)
        dp.inject(make_bank_fault(dp.geometry, d0, b0, P))
        assert dp.read(0) == payload(0)  # corrected + bank spared
        other = next(
            a for a in range(40)
            if dp._locate(a)[:2] not in ((d0, b0), dp.parity_bank)
        )
        d1, b1, _, _ = dp._locate(other)
        dp.inject(make_bank_fault(dp.geometry, d1, b1, P))
        assert dp.read(other) == payload(other)
        assert dp.stats.banks_spared == 2


class TestSparingMovesWhatItReads:
    """DDS can move only what the controller reads and corrects: a line
    no dimension rebuilds moves corrupted, and stays lost."""

    def faulty_pair(self, enable_dds):
        """All lines all-ones (every stuck-at-0 bit shows), then a column
        fault at (d0, b0, col 5) and a subarray fault at (d1, b0, s0),
        which 3DP cannot correct together."""
        dp = CitadelDatapath(enable_dds=enable_dds, rng=random.Random(7))
        g = dp.geometry
        for address in range(dp.num_lines):
            dp.write(address, b"\xff" * g.line_bytes)
        faults = [
            make_column_fault(g, 0, 0, 5, P),
            make_subarray_fault(g, 1, 0, 0, P),
        ]
        assert make_3dp(g).is_uncorrectable(faults)
        for fault in faults:
            dp.inject(fault)
        return dp

    @pytest.mark.parametrize("region", ["row", "bank"])
    def test_a_line_nothing_rebuilds_moves_as_read(self, region):
        """Line (d0, b0, row 0, slot 0) holds both faults' bits in every
        dimension's group; sparing its row or bank leaves it lost."""
        dp = self.faulty_pair(enable_dds=True)
        address = 0
        assert dp._locate(address) == (0, 0, 0, 0)
        with pytest.raises(UncorrectableError):
            dp.read(address)
        if region == "row":
            dp._spare_row(0, 0, 0)
        else:
            dp._spare_bank(0, 0)
        with pytest.raises(UncorrectableError):
            dp.read(address)

    def test_sparing_does_not_heal_lost_lines(self):
        without = self.faulty_pair(enable_dds=False).scrub()
        dp = self.faulty_pair(enable_dds=True)
        report = dp.scrub()
        assert dp.stats.banks_spared == 2
        assert report.lines_lost
        assert report.lines_lost == without.lines_lost
        lost = set(report.lines_lost)
        for address in range(dp.num_lines):
            if address in lost:
                # Rebuilt through the home location's groups, read
                # through the remaps: still no dimension recovers it.
                with pytest.raises(UncorrectableError):
                    dp.read(address)
            else:
                assert dp.read(address) == b"\xff" * dp.geometry.line_bytes

    def test_writes_to_a_spared_bank_keep_parity(self):
        """A line rewritten after its bank was spared updates its home
        location's parity groups, so a later fault in another bank of
        the same dimension-1 group is still rebuilt from it."""
        dp = CitadelDatapath(rng=random.Random(7))
        fill(dp, range(150))
        d0, b0, row, slot = dp._locate(0)
        dp.inject(make_bank_fault(dp.geometry, d0, b0, P))
        assert dp.read(0) == payload(0)
        assert dp.stats.banks_spared == 1
        dp.write(0, payload(999))
        # Line 1 shares line 0's row and slot in the next bank.
        d1, b1, row1, slot1 = dp._locate(1)
        assert (row1, slot1) == (row, slot) and (d1, b1) != (d0, b0)
        dp.inject(make_bank_fault(dp.geometry, d1, b1, P))
        assert dp.read(1) == payload(1)
        assert dp.read(0) == payload(999)


class TestTSVPath:
    def test_data_tsv_detected_and_swapped(self, dp):
        fill(dp, range(30))
        die, bank, row, slot = dp._locate(2)
        dp.inject(make_data_tsv_fault(dp.geometry, die, 3))
        assert dp.read(2) == payload(2)
        assert dp.stats.tsv_repairs == 1
        # Whole die reads clean after the swap, without corrections.
        corrections = dp.stats.corrections
        for a in range(30):
            assert dp.read(a) == payload(a)
        assert dp.stats.corrections == corrections

    def test_addr_tsv_wrong_row_detected_by_address_crc(self, dp):
        """An ATSV fault returns a self-consistent but *wrong* row; only
        the address-mixed CRC catches it (§V-C2)."""
        fill(dp, range(dp.num_lines // 4))
        fault = make_addr_tsv_fault(dp.geometry, 0, 0, stuck_value=0)
        dp.inject(fault)
        # Pick an address whose row is unreachable (row bit 0 == 1).
        victim = next(
            a for a in range(dp.num_lines // 4)
            if dp._locate(a)[0] == 0 and dp._locate(a)[2] in
            fault.footprint.rows
        )
        assert dp.read(victim) == payload(victim)
        assert dp.stats.tsv_repairs == 1

    def test_tsv_swap_disabled_makes_tsv_fatal(self):
        dp = CitadelDatapath(enable_tsv_swap=False, enable_dds=False)
        fill(dp, range(20))
        dp.inject(make_data_tsv_fault(dp.geometry, 0, 3))
        victims = [a for a in range(20) if dp._locate(a)[0] == 0]
        with pytest.raises(UncorrectableError):
            for v in victims:
                dp.read(v)

    def test_swap_pool_exhaustion(self, dp):
        fill(dp, range(10))
        for idx in (1, 2, 3):  # pool holds 2 stand-by TSVs in the datapath
            dp.inject(make_data_tsv_fault(dp.geometry, 0, idx))
        victims = [a for a in range(10) if dp._locate(a)[0] == 0]
        outcomes = []
        for v in victims:
            try:
                outcomes.append(dp.read(v) == payload(v))
            except UncorrectableError:
                outcomes.append(False)
        assert dp.stats.tsv_repairs == 2  # pool exhausted after two


class TestScrub:
    def test_scrub_clean_memory(self, dp):
        fill(dp, range(25))
        report = dp.scrub()
        assert report.lines_checked >= 25
        assert report.lines_corrected == 0
        assert report.lines_lost == []

    def test_scrub_corrects_and_spares(self, dp):
        fill(dp, range(25))
        die, bank, row, _ = dp._locate(4)
        dp.inject(make_row_fault(dp.geometry, die, bank, row, P))
        report = dp.scrub()
        assert report.lines_lost == []
        # After scrubbing, all data is intact.
        for a in range(25):
            assert dp.read(a) == payload(a)

    def test_scrub_reports_losses(self):
        dp = CitadelDatapath(enable_dds=False, enable_tsv_swap=False)
        fill(dp, range(20))
        dp.inject(make_data_tsv_fault(dp.geometry, 0, 5))
        report = dp.scrub()
        assert report.lines_lost  # unswapped TSV faults are data loss
