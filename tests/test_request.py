"""Tests for memory-request-buffer entries."""

from repro.controller.request import MemRequest


def make_request(**kwargs):
    defaults = dict(
        line_addr=0x100,
        core_id=0,
        is_prefetch=True,
        arrival=1000,
        channel=0,
        bank=2,
        row=7,
    )
    defaults.update(kwargs)
    return MemRequest(**defaults)


class TestPromotion:
    def test_promote_clears_p_bit(self):
        request = make_request()
        request.promote()
        assert not request.is_prefetch
        assert request.promoted

    def test_promote_demand_is_noop(self):
        request = make_request(is_prefetch=False)
        request.promote()
        assert not request.promoted

    def test_double_promote_is_idempotent(self):
        request = make_request()
        request.promote()
        request.promote()
        assert request.promoted
        assert not request.is_prefetch


class TestDefaults:
    def test_initial_flags(self):
        request = make_request()
        assert request.row_hit_service is None
        assert request.completion is None
        assert not request.dropped
        assert not request.is_runahead

    def test_repr_mentions_kind(self):
        assert "P" in repr(make_request())
        assert "D" in repr(make_request(is_prefetch=False))
