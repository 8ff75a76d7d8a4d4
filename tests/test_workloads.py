"""Tests for benchmark profiles and the synthetic trace generator."""

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.profiles import (
    ALL_BENCHMARKS,
    BenchmarkProfile,
    get_profile,
    profiles_by_class,
)
from repro.workloads.suite import make_trace, named_mix, random_mix, workload_mixes
from repro.workloads.synthetic import SyntheticTraceGenerator
from tests.test_writes import STORE_HEAVY

TRACE_GOLDEN = Path(__file__).parent / "golden" / "trace_digests.json"


class TestProfileTable:
    def test_population_is_55(self):
        assert len(ALL_BENCHMARKS) == 55

    def test_class_balance_roughly_matches_paper(self):
        """The paper has 29 class-1 benchmarks out of 55."""
        assert 25 <= len(profiles_by_class(1)) <= 33
        assert len(profiles_by_class(2)) >= 6
        assert len(profiles_by_class(0)) >= 10

    def test_named_benchmarks_present(self):
        for name in ("libquantum_06", "swim_00", "art_00", "milc_06"):
            assert get_profile(name).name == name

    def test_short_alias(self):
        assert get_profile("swim").name == "swim_00"
        assert get_profile("libquantum").name == "libquantum_06"

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_profile("doom3")

    def test_unique_names(self):
        names = [profile.name for profile in ALL_BENCHMARKS]
        assert len(names) == len(set(names))

    def test_unfriendly_runs_shorter_than_prefetch_distance(self):
        """Class-2 profiles rely on runs shorter than the 64-line distance."""
        short_runs = [
            profile
            for profile in profiles_by_class(2)
            if profile.run_length <= 100 or profile.phase_period
        ]
        assert len(short_runs) == len(profiles_by_class(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", pf_class=1, apki=0, stream_fraction=0.5, run_length=8)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", pf_class=1, apki=1, stream_fraction=1.5, run_length=8)
        with pytest.raises(ValueError):
            BenchmarkProfile(name="x", pf_class=1, apki=1, stream_fraction=0.5, run_length=1)


def take(generator, count):
    return list(itertools.islice(generator, count))


class TestGenerator:
    def test_deterministic_for_same_seed(self):
        profile = get_profile("swim")
        first = take(SyntheticTraceGenerator(profile, seed=3).generate(), 500)
        second = take(SyntheticTraceGenerator(profile, seed=3).generate(), 500)
        assert first == second

    def test_different_seeds_differ(self):
        profile = get_profile("swim")
        first = take(SyntheticTraceGenerator(profile, seed=3).generate(), 200)
        second = take(SyntheticTraceGenerator(profile, seed=4).generate(), 200)
        assert first != second

    def test_gap_mean_tracks_apki(self):
        profile = get_profile("libquantum")  # apki 24 -> mean gap ~ 41
        entries = take(SyntheticTraceGenerator(profile, seed=0).generate(), 5000)
        mean_gap = sum(entry.gap for entry in entries) / len(entries)
        expected = 1000.0 / profile.apki
        assert 0.7 * expected < mean_gap + 1 < 1.3 * expected

    def test_streaming_profile_is_mostly_sequential(self):
        profile = get_profile("bwaves")
        entries = take(SyntheticTraceGenerator(profile, seed=0).generate(), 3000)
        sequential = sum(
            1
            for previous, current in zip(entries, entries[1:])
            if 0 < current.line_addr - previous.line_addr <= 1
        )
        # Interleaved streams: consecutive entries rarely belong to the
        # same stream, so check per-address-neighbourhood instead.
        addresses = {entry.line_addr for entry in entries}
        with_successor = sum(1 for a in addresses if a + 1 in addresses)
        assert with_successor / len(addresses) > 0.8

    def test_random_profile_is_not_sequential(self):
        profile = get_profile("omnetpp")
        entries = take(SyntheticTraceGenerator(profile, seed=0).generate(), 3000)
        addresses = {entry.line_addr for entry in entries}
        with_successor = sum(1 for a in addresses if a + 1 in addresses)
        assert with_successor / len(addresses) < 0.75

    def test_phased_profile_changes_behaviour(self):
        profile = get_profile("milc")
        assert profile.phase_period > 0
        entries = take(
            SyntheticTraceGenerator(profile, seed=0).generate(),
            profile.phase_period * (1 + profile.bad_phase_ratio),
        )
        # Both phases must be represented: long runs early, short later.
        good = entries[: profile.phase_period]
        bad = entries[profile.phase_period :]
        good_addresses = {entry.line_addr for entry in good}
        bad_addresses = {entry.line_addr for entry in bad}
        good_seq = sum(1 for a in good_addresses if a + 1 in good_addresses)
        bad_seq = sum(1 for a in bad_addresses if a + 1 in bad_addresses)
        assert good_seq / len(good_addresses) > bad_seq / len(bad_addresses)

    def test_hot_set_profile_revisits_lines(self):
        profile = get_profile("galgel")
        entries = take(SyntheticTraceGenerator(profile, seed=0).generate(), 6000)
        addresses = [entry.line_addr for entry in entries]
        assert len(set(addresses)) < len(addresses)

    def test_entries_are_nonnegative(self):
        profile = get_profile("ammp")
        for entry in take(SyntheticTraceGenerator(profile, seed=0).generate(), 1000):
            assert entry.gap >= 0
            assert entry.line_addr >= 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_produces_a_trace(self, seed):
        profile = get_profile("soplex")
        entries = take(SyntheticTraceGenerator(profile, seed=seed).generate(), 50)
        assert len(entries) == 50


class TestLazySlices:
    @pytest.mark.parametrize("n", [1, 65, 250, 1_500, 4_096, 5_000])
    def test_builds_at_most_twice_what_it_hands_out(self, n):
        """Handing out n entries of a chunk builds at most max(64, 2n) of them."""
        from repro.workloads.synthetic import _CHUNK

        batches = SyntheticTraceGenerator(get_profile("milc_06"), seed=0).generate_batches()
        built = 0
        while built < n:
            built += len(next(batches))
        chunk_start = (n - 1) // _CHUNK * _CHUNK
        assert built - chunk_start <= max(64, 2 * (n - chunk_start))


class TestSuiteHelpers:
    def test_make_trace_accepts_names_and_profiles(self):
        assert take(make_trace("swim", seed=1), 10)
        assert take(make_trace(get_profile("swim"), seed=1), 10)

    def test_random_mix_size_and_uniqueness(self):
        mix = random_mix(4, seed=5)
        assert len(mix) == 4
        assert len({profile.name for profile in mix}) == 4

    def test_random_mix_deterministic(self):
        assert [p.name for p in random_mix(4, seed=5)] == [
            p.name for p in random_mix(4, seed=5)
        ]

    def test_workload_mixes_count(self):
        mixes = workload_mixes(2, 5, seed=0)
        assert len(mixes) == 5
        assert all(len(mix) == 2 for mix in mixes)

    def test_named_mix(self):
        mix = named_mix(["swim", "art_00"])
        assert [profile.name for profile in mix] == ["swim_00", "art_00"]


# The trace streams are the input of every simulation, so they are pinned
# as stored data: the sha256 of the first 10,000 entries of one profile of
# each kind (phases, hot set, streaming, writes, and two of perfbench's
# L2-resident profiles, where temporal reuse dominates) at two seeds.  10,000
# entries cross two chunk boundaries, and the nonzero offset is core 0's
# address offset in System.  Only a deliberate change to the streams may
# regenerate the file (``PYTHONPATH=src python -m tests.test_workloads``),
# together with a ``repro.runtime.store.CACHE_VERSION`` bump.
TRACE_PROFILES = {
    "milc_06": get_profile("milc_06"),
    "art_00": get_profile("art_00"),
    "libquantum_06": get_profile("libquantum_06"),
    "storeheavy": STORE_HEAVY,
    **{
        f"{base}_res": dataclasses.replace(
            get_profile(base), name=f"{base}_res", stream_fraction=0.02
        )
        for base in ("eon_00", "crafty_00")
    },
}
TRACE_SEEDS = (0, 7)
TRACE_ENTRIES = 10_000
TRACE_OFFSET = 1 << 54


def trace_digest(profile, seed):
    entries = SyntheticTraceGenerator(profile, seed=seed).generate(offset=TRACE_OFFSET)
    text = "".join(
        f"{entry.gap} {entry.line_addr} {entry.pc} {int(entry.is_write)}\n"
        for entry in itertools.islice(entries, TRACE_ENTRIES)
    )
    return hashlib.sha256(text.encode()).hexdigest()


TRACE_CASES = [f"{name}-seed{seed}" for name in TRACE_PROFILES for seed in TRACE_SEEDS]


class TestLargeOffsets:
    def test_offset_past_int64_shifts_every_line(self):
        """An offset past 2**63 (core 599's) moves the stream by exactly itself."""
        offset = 600 << 54
        assert offset >= 1 << 63
        for profile in (TRACE_PROFILES["eon_00_res"], TRACE_PROFILES["milc_06"]):
            generator = SyntheticTraceGenerator(profile, seed=7)
            base = take(generator.generate(), 5_000)
            moved = take(generator.generate(offset=offset), 5_000)
            assert [entry.line_addr for entry in moved] == [
                entry.line_addr + offset for entry in base
            ]
            assert [entry[:1] + entry[2:] for entry in moved] == [
                entry[:1] + entry[2:] for entry in base
            ]


    def test_working_set_past_2_62_lines_is_rejected(self):
        """Lines are built in int64: a profile that could wrap them is refused."""
        profile = dataclasses.replace(get_profile("mcf_06"), ws_lines=1 << 62)
        with pytest.raises(ValueError, match="past 2\\*\\*62"):
            next(SyntheticTraceGenerator(profile, seed=0).generate())


class TestStoredTraceDigests:
    def test_golden_file_covers_every_case(self):
        assert sorted(json.loads(TRACE_GOLDEN.read_text())) == sorted(TRACE_CASES)

    @pytest.mark.parametrize("case", TRACE_CASES)
    def test_stream_matches_stored_digest(self, case):
        name, seed = case.rsplit("-seed", 1)
        stored = json.loads(TRACE_GOLDEN.read_text())[case]
        assert trace_digest(TRACE_PROFILES[name], int(seed)) == stored


def _regenerate_trace_digests():
    digests = {}
    for case in TRACE_CASES:
        name, seed = case.rsplit("-seed", 1)
        digests[case] = trace_digest(TRACE_PROFILES[name], int(seed))
    TRACE_GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _regenerate_trace_digests()
