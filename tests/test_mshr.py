"""Tests for the MSHR file."""

import pytest

from repro.cache.mshr import MSHR
from repro.controller.request import MemRequest


def request(line=0x10, is_prefetch=True):
    return MemRequest(
        line_addr=line,
        core_id=0,
        is_prefetch=is_prefetch,
        arrival=0,
        channel=0,
        bank=0,
        row=0,
    )


class TestAllocation:
    def test_allocate_and_get(self):
        mshr = MSHR(4)
        entry = mshr.allocate(0x10, request(0x10))
        assert entry is not None
        assert mshr.get(0x10) is entry
        assert mshr.contains(0x10)
        assert mshr.occupancy == 1

    def test_allocate_full_returns_none(self):
        mshr = MSHR(2)
        assert mshr.allocate(1, request(1)) is not None
        assert mshr.allocate(2, request(2)) is not None
        assert mshr.full
        assert mshr.allocate(3, request(3)) is None
        assert mshr.occupancy == 2

    def test_duplicate_allocation_raises(self):
        mshr = MSHR(4)
        mshr.allocate(1, request(1))
        with pytest.raises(ValueError):
            mshr.allocate(1, request(1))

    def test_free_releases_entry(self):
        mshr = MSHR(1)
        mshr.allocate(1, request(1))
        entry = mshr.free(1)
        assert entry is not None
        assert not mshr.contains(1)
        assert mshr.allocate(2, request(2)) is not None

    def test_free_missing_returns_none(self):
        assert MSHR(1).free(99) is None


class TestEntrySemantics:
    def test_entry_records_prefetch_origin(self):
        mshr = MSHR(4)
        entry = mshr.allocate(1, request(1, is_prefetch=True))
        assert entry.request.is_prefetch
        assert entry.waiters == []

    def test_waiters_accumulate(self):
        mshr = MSHR(4)
        entry = mshr.allocate(1, request(1))
        entry.waiters.append(0)
        entry.waiters.append(2)
        assert mshr.get(1).waiters == [0, 2]


class TestCheapViews:
    """DESIGN.md §15 regression pins: entries() is a view, occupancy O(1).

    The pre-optimization ``entries()`` materialized a fresh list per
    call, which the validate-mode checker turned into an O(n) allocation
    on every scan.  These tests pin the cheap-view contract so a future
    refactor that quietly reintroduces copying fails loudly.
    """

    def test_entries_is_a_live_view_not_a_copy(self):
        from collections.abc import ValuesView

        mshr = MSHR(4)
        view = mshr.entries()
        assert isinstance(view, ValuesView)
        assert len(view) == 0
        entry = mshr.allocate(1, request(1))
        # The same view object observes the mutation: no re-call, no copy.
        assert len(view) == 1
        assert entry in view
        mshr.free(1)
        assert len(view) == 0

    def test_occupancy_matches_entries_without_scanning(self):
        mshr = MSHR(8)
        for line in range(5):
            mshr.allocate(line, request(line))
        assert mshr.occupancy == 5 == len(mshr.entries())
        assert not mshr.full
        for line in range(5, 8):
            mshr.allocate(line, request(line))
        assert mshr.full
        assert mshr.occupancy == 8 == len(mshr.entries())
