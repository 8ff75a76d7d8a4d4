"""DRAM substrate: address mapping, banks with row buffers, channels.

This package models the memory-system half of the paper's testbed: a
DDR3-style SDRAM with per-bank row buffers and a shared data bus per
channel, plus the physical address mapping (including permutation-based
page interleaving from Zhang et al. [38]).
"""

from repro.dram.address import AddressMapping
from repro.dram.bank import Bank, RowBufferState
from repro.dram.channel import Channel

__all__ = [
    "AddressMapping",
    "Bank",
    "RowBufferState",
    "Channel",
]
