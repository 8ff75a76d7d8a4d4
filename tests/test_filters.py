"""Tests for the DDPF prefetch filter and the FDP throttle."""

from repro.prefetch.ddpf import DDPFFilter
from repro.prefetch.fdp import AGGRESSIVENESS_LEVELS, FDPController, PollutionFilter
from repro.prefetch.stream import StreamPrefetcher


class TestDDPF:
    def test_initially_optimistic(self):
        ddpf = DDPFFilter()
        assert ddpf.allow(0x100)
        assert ddpf.allowed == 1

    def test_repeated_useless_outcomes_filter_address(self):
        ddpf = DDPFFilter()
        for _ in range(3):
            ddpf.train(0x100, useful=False)
        assert not ddpf.allow(0x100)
        assert ddpf.filtered == 1

    def test_useful_training_restores(self):
        ddpf = DDPFFilter()
        for _ in range(3):
            ddpf.train(0x100, useful=False)
        ddpf.train(0x100, useful=True)
        assert ddpf.allow(0x100)

    def test_counters_saturate(self):
        ddpf = DDPFFilter()
        for _ in range(10):
            ddpf.train(0x100, useful=True)
        index = ddpf._index(0x100, 0)
        assert ddpf.table[index] == 3
        for _ in range(10):
            ddpf.train(0x100, useful=False)
        assert ddpf.table[index] == 0

    def test_pc_affects_index(self):
        ddpf = DDPFFilter()
        assert ddpf._index(0x100, 1) != ddpf._index(0x100, 2)

    def test_aliasing_can_filter_innocent_addresses(self):
        """The finite PHT aliases — the paper's stated DDPF weakness."""
        ddpf = DDPFFilter(table_bits=4)
        victim_index = ddpf._index(0x5, 0)
        aliases = [
            addr for addr in range(10_000) if ddpf._index(addr, 0) == victim_index
        ]
        for addr in aliases[:5]:
            ddpf.train(addr, useful=False)
        assert not ddpf.allow(0x5)


class TestPollutionFilter:
    def test_records_and_clears(self):
        filt = PollutionFilter()
        filt.record_eviction(0x42)
        assert filt.check_miss(0x42)
        assert not filt.check_miss(0x42)  # cleared after the hit

    def test_unrelated_miss_not_flagged(self):
        filt = PollutionFilter()
        filt.record_eviction(0x42)
        assert not filt.check_miss(0x43)


class TestFDP:
    def make(self, level=4):
        prefetcher = StreamPrefetcher()
        return FDPController(prefetcher, initial_level=level), prefetcher

    def test_initial_level_applied(self):
        fdp, prefetcher = self.make(level=2)
        assert (prefetcher.degree, prefetcher.distance) == AGGRESSIVENESS_LEVELS[2]

    def test_low_accuracy_throttles_down(self):
        fdp, prefetcher = self.make(level=4)
        fdp.sent, fdp.used = 100, 10  # 10% accuracy
        assert fdp.adjust() == 3
        assert (prefetcher.degree, prefetcher.distance) == AGGRESSIVENESS_LEVELS[3]

    def test_high_accuracy_and_late_boosts(self):
        fdp, _ = self.make(level=2)
        fdp.sent, fdp.used, fdp.late = 100, 95, 50
        assert fdp.adjust() == 3

    def test_high_accuracy_not_late_holds(self):
        fdp, _ = self.make(level=2)
        fdp.sent, fdp.used, fdp.late = 100, 95, 0
        assert fdp.adjust() == 2

    def test_mid_accuracy_polluting_throttles(self):
        fdp, _ = self.make(level=3)
        fdp.sent, fdp.used = 100, 60
        fdp.pollution_misses, fdp.demand_misses = 10, 100
        assert fdp.adjust() == 2

    def test_no_samples_holds_level(self):
        fdp, _ = self.make(level=3)
        assert fdp.adjust() == 3

    def test_level_bounded_below(self):
        fdp, _ = self.make(level=0)
        fdp.sent, fdp.used = 100, 0
        assert fdp.adjust() == 0

    def test_level_bounded_above(self):
        fdp, _ = self.make(level=4)
        fdp.sent, fdp.used, fdp.late = 100, 95, 50
        assert fdp.adjust() == 4

    def test_counters_reset_after_adjust(self):
        fdp, _ = self.make()
        fdp.sent, fdp.used, fdp.late = 10, 5, 1
        fdp.adjust()
        assert (fdp.sent, fdp.used, fdp.late) == (0, 0, 0)

    def test_slow_phase_reaction(self):
        """FDP moves one level per interval — the paper's noted weakness."""
        fdp, _ = self.make(level=0)
        for expected in (1, 2, 3):
            fdp.sent, fdp.used, fdp.late = 100, 95, 50
            assert fdp.adjust() == expected
