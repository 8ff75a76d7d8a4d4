"""Unit tests for configuration dataclasses and the baseline builder."""

import dataclasses

import pytest

from repro.params import (
    ALL_POLICIES,
    CacheConfig,
    DRAMConfig,
    DRAMTimings,
    PrefetcherConfig,
    SystemConfig,
    baseline_config,
)


class TestDRAMTimings:
    def test_row_hit_latency_is_cl(self, timings):
        assert timings.row_hit_latency == timings.cl

    def test_row_closed_latency(self, timings):
        assert timings.row_closed_latency == timings.t_rcd + timings.cl

    def test_row_conflict_latency(self, timings):
        assert (
            timings.row_conflict_latency
            == timings.t_rp + timings.t_rcd + timings.cl
        )

    def test_paper_latency_ratio(self, timings):
        """Hit : closed : conflict should approximate the paper's 1:2:3."""
        hit = timings.row_hit_latency
        assert timings.row_closed_latency == 2 * hit
        assert timings.row_conflict_latency == 3 * hit

    def test_frozen(self, timings):
        with pytest.raises(dataclasses.FrozenInstanceError):
            timings.cl = 10


class TestDRAMConfig:
    def test_lines_per_row(self):
        assert DRAMConfig().lines_per_row == 64

    def test_lines_per_row_scales_with_row_buffer(self):
        config = DRAMConfig(row_buffer_bytes=8 * 1024)
        assert config.lines_per_row == 128


class TestCacheConfig:
    def test_num_sets_baseline(self):
        config = CacheConfig(size_bytes=512 * 1024, associativity=8)
        assert config.num_sets == 1024

    def test_num_sets_small(self):
        config = CacheConfig(size_bytes=8 * 1024, associativity=2)
        assert config.num_sets == 64


class TestPrefetcherConfig:
    def test_enabled(self):
        assert PrefetcherConfig(kind="stream").enabled
        assert not PrefetcherConfig(kind="none").enabled


class TestSystemConfig:
    def test_with_policy_returns_copy(self):
        config = SystemConfig()
        other = config.with_policy("padc")
        assert other.policy == "padc"
        assert config.policy == "demand-first"

    def test_with_policy_padc_overrides(self):
        config = SystemConfig().with_policy("padc", use_ranking=True)
        assert config.padc.use_ranking


class TestBaselineConfig:
    def test_single_core_has_1mb_l2(self):
        config = baseline_config(1)
        assert config.cache.size_bytes == 1024 * 1024

    def test_multicore_has_512kb_l2(self):
        for cores in (2, 4, 8):
            assert baseline_config(cores).cache.size_bytes == 512 * 1024

    @pytest.mark.parametrize(
        "cores,buffer", [(1, 64), (2, 64), (4, 128), (8, 256)]
    )
    def test_request_buffer_scales_like_table4(self, cores, buffer):
        assert baseline_config(cores).dram.request_buffer_size == buffer

    def test_shared_cache_aggregates_capacity(self):
        config = baseline_config(4, shared_cache=True)
        assert config.cache.shared
        assert config.cache.size_bytes == 4 * 512 * 1024
        assert config.cache.associativity == 16

    def test_dual_channel(self):
        assert baseline_config(4, num_channels=2).dram.num_channels == 2

    def test_row_buffer_override(self):
        config = baseline_config(4, row_buffer_kb=64)
        assert config.dram.row_buffer_bytes == 64 * 1024

    def test_closed_row_override(self):
        assert not baseline_config(4, open_row=False).dram.open_row_policy

    def test_runahead_override(self):
        assert baseline_config(4, runahead=True).core.runahead

    def test_filter_kind(self):
        assert baseline_config(4, filter_kind="ddpf").prefetcher.filter_kind == "ddpf"

    @pytest.mark.parametrize(
        "kwargs,error,message",
        [
            ({"num_channels": "two"}, TypeError, "num_channels must be an integer"),
            ({"num_channels": 2.0}, TypeError, "num_channels must be an integer"),
            ({"row_buffer_kb": True}, TypeError, "row_buffer_kb must be an integer"),
            ({"num_channels": 0}, ValueError, "num_channels must be positive, got 0"),
            ({"cache_kb_per_core": -1}, ValueError, "cache_kb_per_core must be"),
            ({"open_row": "no"}, TypeError, "open_row must be a boolean, got 'no'"),
            ({"use_ranking": 1}, TypeError, "use_ranking must be a boolean, got 1"),
            ({"prefetcher_kind": "strem"}, ValueError, "unknown prefetcher_kind"),
            ({"filter_kind": "fpd"}, ValueError, "unknown filter_kind 'fpd'"),
        ],
    )
    def test_bad_argument_is_named(self, kwargs, error, message):
        with pytest.raises(error) as excinfo:
            baseline_config(2, **kwargs)
        assert str(excinfo.value).startswith(message)

    def test_all_policies_constant(self):
        assert "padc" in ALL_POLICIES
        assert "demand-first" in ALL_POLICIES
