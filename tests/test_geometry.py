"""Unit tests for repro.stack.geometry."""

import pytest

from repro.errors import ConfigurationError, GeometryError
from repro.stack.geometry import (
    LIFETIME_HOURS,
    SCRUB_INTERVAL_HOURS,
    StackGeometry,
)


class TestBaselineGeometry:
    """The defaults must match the paper's Table II configuration."""

    def test_eight_data_dies_one_metadata_die(self, geometry):
        assert geometry.data_dies == 8
        assert geometry.metadata_dies == 1
        assert geometry.total_dies == 9

    def test_one_channel_per_data_die(self, geometry):
        assert geometry.channels == 8

    def test_eight_banks_per_die(self, geometry):
        assert geometry.banks_per_die == 8
        assert geometry.data_banks == 64
        assert geometry.total_banks == 72

    def test_row_dimensions(self, geometry):
        assert geometry.rows_per_bank == 64 * 1024
        assert geometry.row_bytes == 2048
        assert geometry.row_bits == 16384

    def test_cache_line_packing(self, geometry):
        assert geometry.line_bytes == 64
        assert geometry.line_bits == 512
        assert geometry.lines_per_row == 32

    def test_die_capacity_is_8gb(self, geometry):
        assert geometry.die_bytes == 1 << 30  # 8 Gb = 1 GiB per die

    def test_stack_data_capacity_is_8gib(self, geometry):
        assert geometry.data_bytes == 8 << 30

    def test_tsv_counts(self, geometry):
        assert geometry.data_tsvs_per_channel == 256
        assert geometry.addr_tsvs_per_channel == 24

    def test_address_bit_widths(self, geometry):
        assert geometry.row_address_bits == 16
        assert geometry.col_address_bits == 14

    def test_subarrays(self, geometry):
        assert geometry.subarrays_per_bank == 8
        assert geometry.rows_per_subarray == 8192

    def test_lifetime_is_seven_years(self):
        assert LIFETIME_HOURS == 7 * 365 * 24

    def test_scrub_interval_is_12_hours(self):
        assert SCRUB_INTERVAL_HOURS == 12.0


class TestValidation:
    def test_rejects_non_power_of_two_rows(self):
        with pytest.raises(ConfigurationError):
            StackGeometry(rows_per_bank=1000)

    def test_rejects_row_not_multiple_of_line(self):
        with pytest.raises(ConfigurationError):
            StackGeometry(row_bytes=2048, line_bytes=100)

    def test_rejects_rows_not_divisible_by_subarrays(self):
        with pytest.raises(ConfigurationError):
            StackGeometry(rows_per_bank=65536, subarrays_per_bank=7)

    @pytest.mark.parametrize("dtsvs", [3, 384, 1024])
    def test_rejects_dtsvs_that_do_not_divide_a_line(self, dtsvs):
        with pytest.raises(ConfigurationError, match="data_tsvs_per_channel"):
            StackGeometry(data_tsvs_per_channel=dtsvs)

    def test_accepts_dtsvs_that_divide_a_line(self):
        for dtsvs in (1, 2, 128, 512):
            assert StackGeometry(data_tsvs_per_channel=dtsvs).line_bits == 512

    def test_rejects_zero_dies(self):
        with pytest.raises(ConfigurationError):
            StackGeometry(data_dies=0)

    def test_rejects_negative_metadata_dies(self):
        with pytest.raises(ConfigurationError):
            StackGeometry(metadata_dies=-1)

    def test_check_die_bounds(self, geometry):
        geometry.check_die(0)
        geometry.check_die(8)  # the metadata die
        with pytest.raises(GeometryError):
            geometry.check_die(9)
        with pytest.raises(GeometryError):
            geometry.check_die(8, allow_metadata=False)
        with pytest.raises(GeometryError):
            geometry.check_die(-1)

    def test_check_bank_row_col(self, geometry):
        geometry.check_bank(7)
        geometry.check_row(65535)
        geometry.check_col_bit(16383)
        with pytest.raises(GeometryError):
            geometry.check_bank(8)
        with pytest.raises(GeometryError):
            geometry.check_row(65536)
        with pytest.raises(GeometryError):
            geometry.check_col_bit(16384)


class TestMetadataDie:
    def test_metadata_die_is_highest_index(self, geometry):
        assert geometry.metadata_die == 8
        assert geometry.is_metadata_die(8)
        assert not geometry.is_metadata_die(0)
        assert not geometry.is_metadata_die(7)

    def test_no_metadata_die_raises(self):
        geom = StackGeometry(metadata_dies=0)
        with pytest.raises(ConfigurationError):
            _ = geom.metadata_die


class TestSmallGeometry:
    def test_small_is_consistent(self, small_geometry):
        assert small_geometry.data_dies == 4
        assert small_geometry.total_dies == 5
        assert small_geometry.lines_per_row == 4
        assert small_geometry.rows_per_subarray == 16

    def test_small_accepts_overrides(self):
        geom = StackGeometry.small(banks_per_die=2)
        assert geom.banks_per_die == 2

    def test_with_returns_modified_copy(self, geometry):
        changed = geometry.with_(data_dies=4)
        assert changed.data_dies == 4
        assert geometry.data_dies == 8

    def test_subarray_of_row(self, small_geometry):
        assert small_geometry.subarray_of_row(0) == 0
        assert small_geometry.subarray_of_row(15) == 0
        assert small_geometry.subarray_of_row(16) == 1
        assert small_geometry.subarray_of_row(63) == 3
