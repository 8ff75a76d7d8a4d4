"""Unit tests for experiment-module helpers (no big simulations)."""

from repro.campaign import CampaignSpec, expand
from repro.experiments.fig04 import HISTOGRAM_EDGES, _bucket
from repro.experiments.fig19_20 import RANK_POLICIES
from repro.experiments.fig21_22 import DUAL_CHANNEL
from repro.experiments.fig24 import VARIANTS as FIG24_VARIANTS
from repro.experiments.fig26_27 import SHARED_L2
from repro.experiments.fig29_30 import FIG29_VARIANTS, FIG30_VARIANTS
from repro.experiments.fig31 import VARIANTS as FIG31_VARIANTS
from repro.experiments.fig32 import VARIANTS as FIG32_VARIANTS
from repro.experiments.single_core import FIG6_BENCHMARKS, _bench_list
from repro.experiments.runner import Scale


class TestHistogramBuckets:
    def test_bucket_boundaries(self):
        assert _bucket(1) == "1-200"
        assert _bucket(200) == "1-200"
        assert _bucket(201) == "201-400"
        assert _bucket(1600) == "1401-1600"
        assert _bucket(1601) == "1601+"

    def test_edges_are_increasing(self):
        assert list(HISTOGRAM_EDGES) == sorted(HISTOGRAM_EDGES)


class TestDeclarativeConfigVariants:
    """The figures' PolicyVariant/override declarations expand to the
    SystemConfigs of the paper's points."""

    def _grid_configs(self, policies, overrides, cores=4):
        spec = CampaignSpec.build(
            "helper-test",
            [["swim"] * cores],
            policies,
            500,
            variants={"base": dict(overrides)},
            include_alone=False,
        )
        return {job.policy: job.job.config for job in expand(spec)}

    def test_rank_variant(self):
        configs = self._grid_configs(RANK_POLICIES, {})
        assert configs["padc-rank"].policy == "padc"
        assert configs["padc-rank"].padc.use_ranking
        assert not configs["padc"].padc.use_ranking

    def test_dual_channel_override(self):
        configs = self._grid_configs(("padc",), DUAL_CHANNEL, cores=8)
        assert configs["padc"].dram.num_channels == 2

    def test_shared_cache_override(self):
        configs = self._grid_configs(("aps",), SHARED_L2)
        config = configs["aps"]
        assert config.cache.shared
        assert config.cache.size_bytes == 4 * 512 * 1024

    def test_filter_variants_reach_filter_kind_and_policy(self):
        for variants in (FIG29_VARIANTS, FIG30_VARIANTS):
            configs = self._grid_configs(variants, {})
            assert list(configs) == [variant.label for variant in variants]
            for variant in variants:
                config = configs[variant.label]
                expected = dict(variant.overrides).get("filter_kind")
                assert config.prefetcher.filter_kind == expected
                assert config.policy == variant.policy
        configs = self._grid_configs(FIG29_VARIANTS, {})
        assert configs["aps-ddpf"].prefetcher.filter_kind == "ddpf"
        assert configs["aps-ddpf"].policy == "aps"
        assert configs["demand-first-fdp"].prefetcher.filter_kind == "fdp"
        assert configs["demand-first-apd"].prefetcher.filter_kind is None
        assert configs["aps-apd (PADC)"].policy == "padc"

    def test_permutation_variants(self):
        configs = self._grid_configs(FIG31_VARIANTS, {})
        assert len(configs) == 8
        for label, config in configs.items():
            assert config.dram.permutation_interleaving == label.endswith("-perm")
            assert config.policy == label.replace("-perm", "")

    def test_runahead_variants(self):
        configs = self._grid_configs(FIG32_VARIANTS, {})
        assert len(configs) == 8
        for label, config in configs.items():
            assert config.core.runahead == label.endswith("-ra")
            assert config.policy == label.replace("-ra", "")

    def test_row_policy_variants(self):
        configs = self._grid_configs(FIG24_VARIANTS, {})
        assert len(configs) == 6
        for label, config in configs.items():
            policy, _, row_policy = label.rpartition("-")
            assert config.dram.open_row_policy == (row_policy == "open")
            assert config.policy == policy


class TestBenchList:
    def test_truncates_to_scale(self):
        assert _bench_list(Scale(single_core_benches=5)) == FIG6_BENCHMARKS[:5]

    def test_extends_to_population(self):
        names = _bench_list(Scale(single_core_benches=55))
        assert len(names) == 55
        assert len(set(names)) >= 50  # FIG6 uses short aliases, allow overlap

    def test_default_is_fig6_set(self):
        assert tuple(_bench_list(Scale())) == FIG6_BENCHMARKS
