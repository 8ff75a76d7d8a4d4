"""Converters: ChampSim / gem5 / legacy-text dumps into ``.rtr`` traces."""

import gzip
from pathlib import Path

import pytest

from repro.core.trace import TraceEntry
from repro.trace.convert import (
    ConvertError,
    convert,
    iter_champsim,
    iter_gem5,
    sniff_dialect,
)
from repro.trace.format import read_trace, validate_trace

FIXTURES = Path(__file__).parent / "fixtures"

# Content digests of the checked-in fixtures.  These are part of the
# format contract: if an encoder or converter change moves them, that
# change breaks cache-key stability for every existing trace and must
# ship with a FORMAT_VERSION (and CACHE_VERSION) bump.
CHAMPSIM_SMALL_DIGEST = (
    "a6348bb87f59969b03f7aee2bdc32d7fb1f6c923e0a990d17c3b930ddd568bd2"
)
GEM5_SMALL_DIGEST = (
    "b66f3db112c59118ca2bc81653c369d57c1d12e371491e691bf315f151dfc820"
)


def test_champsim_fixture_golden(tmp_path):
    out = tmp_path / "champsim_small.rtr"
    header = convert(FIXTURES / "champsim_small.txt", out, "champsim")
    assert header.entries == 200
    assert header.digest == CHAMPSIM_SMALL_DIGEST
    validate_trace(out)
    entries = list(read_trace(out))
    # First data lines of the fixture:
    #   1041 0x10000040 L 0x400a10
    #   1056 0x10000080 L 0x400a10
    assert entries[0] == TraceEntry(0, 0x10000040 >> 6, 0x400A10, False)
    assert entries[1] == TraceEntry(15, 0x10000080 >> 6, 0x400A10, False)
    assert any(entry.is_write for entry in entries)
    assert all(entry.gap >= 0 for entry in entries)


def test_gem5_fixture_golden(tmp_path):
    out = tmp_path / "gem5_small.rtr"
    header = convert(FIXTURES / "gem5_small.csv", out, "gem5")
    assert header.entries == 150
    assert header.digest == GEM5_SMALL_DIGEST
    validate_trace(out)
    entries = list(read_trace(out))
    # First data row: 501084,ReadReq,0x9a8cfa00,0x4000
    assert entries[0] == TraceEntry(0, 0x9A8CFA00 >> 6, 0x4000, False)
    assert any(entry.is_write for entry in entries)


def test_champsim_parses_types_and_hex(tmp_path):
    dump = tmp_path / "d.txt"
    dump.write_text(
        "# comment\n"
        "\n"
        "100 0x1000 L 0x10\n"
        "110 4096 W\n"  # decimal address, no pc, write
        "115 0x1040 RFO 20\n"  # decimal pc
        "115 1a40 r 0x30\n"  # bare hex, lowercase type, same instr id
    )
    entries = list(iter_champsim(dump))
    assert entries == [
        TraceEntry(0, 0x1000 >> 6, 0x10, False),
        TraceEntry(10, 4096 >> 6, 0, True),
        TraceEntry(5, 0x1040 >> 6, 20, True),
        TraceEntry(0, 0x1A40 >> 6, 0x30, False),
    ]


def test_champsim_gap_clamps_on_reordered_ids(tmp_path):
    dump = tmp_path / "d.txt"
    dump.write_text("100 0x40 L\n90 0x80 L\n")
    assert [entry.gap for entry in iter_champsim(dump)] == [0, 0]


@pytest.mark.parametrize(
    "line, match",
    [
        ("100 0x40", "expected"),  # too few fields
        ("100 0x40 L 0x1 extra", "expected"),  # too many fields
        ("abcxyz 0x40 L", "not a number"),
        ("100 0x40 Q", "unknown access type"),
    ],
)
def test_champsim_malformed_lines(tmp_path, line, match):
    dump = tmp_path / "d.txt"
    dump.write_text(line + "\n")
    with pytest.raises(ConvertError, match=match):
        list(iter_champsim(dump))


def test_champsim_line_bytes_must_be_power_of_two(tmp_path):
    dump = tmp_path / "d.txt"
    dump.write_text("100 0x40 L\n")
    with pytest.raises(ConvertError, match="power of two"):
        list(iter_champsim(dump, line_bytes=48))


def test_gem5_column_order_and_ticks(tmp_path):
    dump = tmp_path / "d.csv"
    dump.write_text(
        "# leading comment\n"
        "addr,tick,cmd\n"  # any column order
        "0x1000,1000,ReadReq\n"
        "0x1040,2000,WritebackDirty\n"
        "0x1080,2100,ReadExReq\n"
    )
    entries = list(iter_gem5(dump, ticks_per_instr=100))
    assert entries == [
        TraceEntry(0, 0x1000 >> 6, 0, False),
        TraceEntry(10, 0x1040 >> 6, 0, True),
        TraceEntry(1, 0x1080 >> 6, 0, False),
    ]


def test_gem5_missing_column_rejected(tmp_path):
    dump = tmp_path / "d.csv"
    dump.write_text("tick,addr\n1,0x40\n")
    with pytest.raises(ConvertError, match="missing cmd"):
        list(iter_gem5(dump))


def test_gem5_short_row_rejected(tmp_path):
    dump = tmp_path / "d.csv"
    dump.write_text("tick,cmd,addr\n1000,ReadReq\n")
    with pytest.raises(ConvertError, match="header promised"):
        list(iter_gem5(dump))


def test_gem5_bad_ticks_per_instr(tmp_path):
    dump = tmp_path / "d.csv"
    dump.write_text("tick,cmd,addr\n1,ReadReq,0x40\n")
    with pytest.raises(ConvertError, match="ticks_per_instr"):
        list(iter_gem5(dump, ticks_per_instr=0))


def test_repro_text_round_trip(tmp_path):
    entries = [
        TraceEntry(3, 0x100, 0x10, False),
        TraceEntry(0, 0x101, 0x10, True),
        TraceEntry(7, 0x900, 0x20, False),
    ]
    legacy = tmp_path / "t.trace.gz"
    with gzip.open(legacy, "wt") as handle:
        handle.write("# repro-trace v1\n")
        for entry in entries:
            flag = " W" if entry.is_write else ""
            handle.write(f"{entry.gap} {entry.line_addr} {entry.pc}{flag}\n")
    out = tmp_path / "t.rtr"
    header = convert(legacy, out, "repro-text")
    assert header.entries == 3
    assert list(read_trace(out)) == entries


def test_convert_limit_and_unknown_dialect(tmp_path):
    out = tmp_path / "t.rtr"
    header = convert(
        FIXTURES / "champsim_small.txt", out, "champsim", limit=25
    )
    assert header.entries == 25
    with pytest.raises(ConvertError, match="unknown input dialect"):
        convert(FIXTURES / "champsim_small.txt", out, "pintool")


def test_sniff_dialect(tmp_path):
    assert sniff_dialect("dump.trace.gz") == "repro-text"
    assert sniff_dialect("dump.csv") == "gem5"
    assert sniff_dialect(FIXTURES / "champsim_small.txt") == "champsim"
    gzipped = tmp_path / "noext"
    gzipped.write_bytes(b"\x1f\x8b rest does not matter")
    assert sniff_dialect(gzipped) == "repro-text"
