"""Converters from common L2-access dump formats into ``.rtr`` traces.

Each converter streams its input line by line through a
:class:`~repro.trace.format.TraceWriter`, so arbitrarily large dumps
convert in constant memory.  All converters share the same output
contract: one :class:`~repro.core.trace.TraceEntry` per input access,
with byte addresses reduced to *line* addresses (``addr >> log2(line
bytes)``) and inter-access distances expressed in instructions.

Supported input dialects:

* **champsim** — whitespace-separated ChampSim-style L2 access dumps::

      <instr_id> <address> <type> [<pc>]

  ``instr_id`` is the (monotonically non-decreasing) retired-instruction
  count at the access; ``address``/``pc`` are hex (``0x`` optional) or
  decimal; ``type`` is one of R, L, P (reads) or W, S, RFO, WB (writes).
  The gap of entry *i* is ``instr_id[i] - instr_id[i-1]`` clamped at 0.

* **gem5** — gem5-style CSV packet dumps with a header row naming at
  least ``tick``, ``cmd`` and ``addr`` columns (``pc`` optional)::

      tick,cmd,addr,pc
      1000,ReadReq,0x80000040,0x400123

  Commands containing ``Write`` (WriteReq, WritebackDirty, ...) are
  stores; everything else is a load.  Ticks are converted to instruction
  gaps with ``ticks_per_instr`` (gem5 counts picoseconds-ish ticks, not
  instructions — the knob is the stand-in for a real instruction
  stream and defaults to 500).

* **repro-text** — the retired gzip text trace format (``.trace.gz``),
  still readable so old captures convert::

      # repro-trace v1
      <gap> <line_addr> <pc> [W]

Blank lines and ``#`` comments are ignored everywhere.
"""

from __future__ import annotations

import csv
import gzip
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.core.trace import TraceEntry
from repro.trace.format import DEFAULT_BLOCK_ENTRIES, TraceHeader, write_trace

PathLike = Union[str, Path]

CONVERTERS = ("champsim", "gem5", "repro-text")

_READ_TYPES = {"R", "L", "P"}
_WRITE_TYPES = {"W", "S", "RFO", "WB"}

DEFAULT_TICKS_PER_INSTR = 500


class ConvertError(ValueError):
    """An input dump line could not be parsed; the message names it."""


def _parse_int(token: str, where: str, what: str) -> int:
    """Parse a decimal or hex (with or without ``0x``) non-negative int."""
    text = token.strip()
    try:
        if text.lower().startswith("0x"):
            value = int(text, 16)
        elif any(c in "abcdefABCDEF" for c in text):
            value = int(text, 16)
        else:
            value = int(text, 10)
    except ValueError:
        raise ConvertError(f"{where}: {what} {token!r} is not a number") from None
    if value < 0:
        raise ConvertError(f"{where}: {what} {token!r} is negative")
    return value


def _line_shift(line_bytes: int) -> int:
    shift = line_bytes.bit_length() - 1
    if line_bytes <= 0 or (1 << shift) != line_bytes:
        raise ConvertError(f"line_bytes must be a power of two, got {line_bytes}")
    return shift


def iter_champsim(path: PathLike, line_bytes: int = 64) -> Iterator[TraceEntry]:
    """Parse a ChampSim-style dump into trace entries (streaming)."""
    shift = _line_shift(line_bytes)
    prev_instr: Optional[int] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            where = f"{path}:{line_number}"
            if len(fields) not in (3, 4):
                raise ConvertError(
                    f"{where}: expected '<instr_id> <address> <type> [<pc>]', "
                    f"got {text!r}"
                )
            instr_id = _parse_int(fields[0], where, "instr_id")
            address = _parse_int(fields[1], where, "address")
            access_type = fields[2].upper()
            if access_type in _WRITE_TYPES:
                is_write = True
            elif access_type in _READ_TYPES:
                is_write = False
            else:
                raise ConvertError(
                    f"{where}: unknown access type {fields[2]!r}; expected one "
                    f"of {', '.join(sorted(_READ_TYPES | _WRITE_TYPES))}"
                )
            pc = _parse_int(fields[3], where, "pc") if len(fields) == 4 else 0
            gap = 0 if prev_instr is None else max(0, instr_id - prev_instr)
            prev_instr = instr_id
            yield TraceEntry(gap, address >> shift, pc, is_write)


def iter_gem5(
    path: PathLike,
    line_bytes: int = 64,
    ticks_per_instr: int = DEFAULT_TICKS_PER_INSTR,
) -> Iterator[TraceEntry]:
    """Parse a gem5-style CSV packet dump into trace entries (streaming)."""
    shift = _line_shift(line_bytes)
    if ticks_per_instr <= 0:
        raise ConvertError(f"ticks_per_instr must be positive, got {ticks_per_instr}")
    prev_tick: Optional[int] = None
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = csv.reader(handle)
        columns = None
        for row_number, row in enumerate(rows, start=1):
            if not row or (row[0].strip().startswith("#")):
                continue
            where = f"{path}:{row_number}"
            if columns is None:
                columns = {name.strip().lower(): i for i, name in enumerate(row)}
                missing = {"tick", "cmd", "addr"} - set(columns)
                if missing:
                    raise ConvertError(
                        f"{where}: gem5 CSV header must name tick, cmd and "
                        f"addr columns; missing {', '.join(sorted(missing))} "
                        f"in {row!r}"
                    )
                continue
            try:
                tick_token = row[columns["tick"]]
                cmd = row[columns["cmd"]].strip()
                addr_token = row[columns["addr"]]
            except IndexError:
                raise ConvertError(
                    f"{where}: row has {len(row)} fields, header promised "
                    f"{len(columns)}"
                ) from None
            tick = _parse_int(tick_token, where, "tick")
            address = _parse_int(addr_token, where, "addr")
            pc_index = columns.get("pc")
            pc = (
                _parse_int(row[pc_index], where, "pc")
                if pc_index is not None and pc_index < len(row) and row[pc_index].strip()
                else 0
            )
            is_write = "write" in cmd.lower()
            gap = (
                0
                if prev_tick is None
                else max(0, (tick - prev_tick) // ticks_per_instr)
            )
            prev_tick = tick
            yield TraceEntry(gap, address >> shift, pc, is_write)


def iter_repro_text(path: PathLike) -> Iterator[TraceEntry]:
    """Parse the retired gzip text format (``gap addr pc [W]``, streaming)."""
    with gzip.open(path, "rt") as handle:
        for line_number, raw in enumerate(handle, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) not in (3, 4):
                raise ConvertError(
                    f"{path}:{line_number}: expected 'gap addr pc [W]', got {text!r}"
                )
            is_write = len(fields) == 4 and fields[3].upper() == "W"
            yield TraceEntry(int(fields[0]), int(fields[1]), int(fields[2]), is_write)


def convert(
    source: PathLike,
    destination: PathLike,
    dialect: str,
    *,
    line_bytes: int = 64,
    ticks_per_instr: int = DEFAULT_TICKS_PER_INSTR,
    limit: Optional[int] = None,
    block_entries: int = DEFAULT_BLOCK_ENTRIES,
) -> TraceHeader:
    """Convert one input dump into a ``.rtr`` trace; returns its header."""
    if dialect == "champsim":
        entries = iter_champsim(source, line_bytes=line_bytes)
    elif dialect == "gem5":
        entries = iter_gem5(
            source, line_bytes=line_bytes, ticks_per_instr=ticks_per_instr
        )
    elif dialect == "repro-text":
        entries = iter_repro_text(source)
    else:
        raise ConvertError(
            f"unknown input dialect {dialect!r}; known: {', '.join(CONVERTERS)}"
        )
    return write_trace(
        destination, entries, limit=limit, block_entries=block_entries
    )


def sniff_dialect(path: PathLike) -> str:
    """Best-effort input dialect guess from suffix and first bytes."""
    name = str(path).lower()
    if name.endswith((".gz", ".trace.gz")):
        return "repro-text"
    if name.endswith(".csv"):
        return "gem5"
    try:
        with open(path, "rb") as handle:
            head = handle.read(2)
        if head == b"\x1f\x8b":  # gzip magic
            return "repro-text"
    except OSError:
        pass
    return "champsim"
