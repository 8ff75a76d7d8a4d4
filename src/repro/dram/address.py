"""Physical address mapping from cache-line addresses to DRAM coordinates.

The simulator works in units of cache-line addresses (byte address divided
by the line size).  The mapping interleaves consecutive lines within a DRAM
row (column bits), then across channels, then across banks, with the row
index in the high bits — the conventional open-row-friendly layout.

``permutation`` enables the permutation-based page-interleaving scheme of
Zhang, Zhu and Zhang [38]: the bank index is XORed with the low bits of the
row index, spreading row-conflicting addresses across banks.
"""

from __future__ import annotations

from repro.params import DRAMConfig


class AddressMapping:
    """Decode line addresses into (channel, bank, row, column) tuples."""

    def __init__(self, config: DRAMConfig):
        self._lines_per_row = config.lines_per_row
        self._num_channels = config.num_channels
        self._num_banks = config.banks_per_channel
        self._permutation = config.permutation_interleaving
        self._bank_mask = self._num_banks - 1
        if self._num_banks & self._bank_mask:
            raise ValueError("banks_per_channel must be a power of two")

    def decode_coords(self, line_addr: int):
        """Decode into a plain ``(channel, bank, row, column)`` tuple.

        The request-construction hot path uses this form: a frozen
        dataclass costs an allocation plus four ``object.__setattr__``
        calls per request (DESIGN.md §10).
        """
        column = line_addr % self._lines_per_row
        rest = line_addr // self._lines_per_row
        channel = rest % self._num_channels
        rest //= self._num_channels
        bank = rest % self._num_banks
        row = rest // self._num_banks
        if self._permutation:
            bank = (bank ^ row) & self._bank_mask
        return channel, bank, row, column

    @property
    def lines_per_row(self) -> int:
        return self._lines_per_row
