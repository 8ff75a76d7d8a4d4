"""Tests for the DRAM address mapping, including permutation interleaving."""

from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.address import AddressMapping
from repro.params import DRAMConfig


class Coords(NamedTuple):
    channel: int
    bank: int
    row: int
    column: int


def decode(mapping, line):
    return Coords(*mapping.decode_coords(line))


def make_mapping(channels=1, banks=8, permutation=False):
    return AddressMapping(
        DRAMConfig(
            num_channels=channels,
            banks_per_channel=banks,
            permutation_interleaving=permutation,
        )
    )


class TestBasicMapping:
    def test_consecutive_lines_share_a_row(self):
        mapping = make_mapping()
        first = decode(mapping, 0)
        second = decode(mapping, 1)
        assert first.row == second.row
        assert first.bank == second.bank
        assert second.column == first.column + 1

    def test_row_crossing_changes_bank(self):
        """Consecutive rows interleave across banks (open-row friendly)."""
        mapping = make_mapping()
        last_of_row = decode(mapping, 63)
        first_of_next = decode(mapping, 64)
        assert first_of_next.column == 0
        assert first_of_next.bank == (last_of_row.bank + 1) % 8

    def test_row_index_increments_after_all_banks(self):
        mapping = make_mapping()
        assert decode(mapping, 0).row == 0
        assert decode(mapping, 64 * 8).row == 1

    def test_channel_interleaving(self):
        mapping = make_mapping(channels=2)
        assert decode(mapping, 0).channel == 0
        assert decode(mapping, 64).channel == 1
        assert decode(mapping, 128).channel == 0

    def test_non_power_of_two_banks_rejected(self):
        with pytest.raises(ValueError):
            make_mapping(banks=6)

    def test_lines_per_row_exposed(self):
        assert make_mapping().lines_per_row == 64


class TestPermutation:
    def test_permutation_changes_bank_by_row_xor(self):
        plain = make_mapping(permutation=False)
        permuted = make_mapping(permutation=True)
        line = 64 * 8 * 3  # row 3, bank 0, column 0
        assert decode(plain, line).bank == 0
        assert decode(permuted, line).bank == 3 ^ 0

    def test_permutation_preserves_row_and_column(self):
        plain = make_mapping(permutation=False)
        permuted = make_mapping(permutation=True)
        for line in (0, 17, 64 * 5 + 3, 64 * 8 * 11 + 40):
            a, b = decode(plain, line), decode(permuted, line)
            assert a.row == b.row
            assert a.column == b.column
            assert a.channel == b.channel

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=200, deadline=None)
    def test_permutation_is_a_bank_bijection_per_row(self, base_line):
        """Within one row's bank group, permutation must not collide."""
        permuted = make_mapping(permutation=True)
        row_base = (base_line // (64 * 8)) * (64 * 8)
        banks = {
            decode(permuted, row_base + bank * 64).bank for bank in range(8)
        }
        assert len(banks) == 8


class TestMappingProperties:
    @given(st.integers(min_value=0, max_value=2**48))
    @settings(max_examples=300, deadline=None)
    def test_decode_is_deterministic_and_in_range(self, line):
        mapping = make_mapping(channels=2)
        decoded = decode(mapping, line)
        assert decoded == decode(mapping, line)
        assert 0 <= decoded.channel < 2
        assert 0 <= decoded.bank < 8
        assert 0 <= decoded.column < 64
        assert decoded.row >= 0

    @given(st.integers(min_value=0, max_value=2**40))
    @settings(max_examples=200, deadline=None)
    def test_decode_is_injective_over_coordinates(self, line):
        """Two distinct lines never map to identical coordinates."""
        mapping = make_mapping()
        a = decode(mapping, line)
        b = decode(mapping, line + 1)
        assert (a.channel, a.bank, a.row, a.column) != (
            b.channel,
            b.bank,
            b.row,
            b.column,
        )
