"""Tests for reading the gzip text trace format (``gap addr pc [W]``).

The format is no longer written; ``iter_repro_text`` reads it as a
convert input for ``.rtr`` traces.
"""

import gzip

import pytest

from repro.core.trace import TraceEntry
from repro.trace.convert import ConvertError, iter_repro_text


class TestRoundTrip:
    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("# repro-trace v1\n1 2\n")
        with pytest.raises(ConvertError, match=r"bad\.gz:2: expected"):
            list(iter_repro_text(path))

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "trace.gz"
        with gzip.open(path, "wt") as handle:
            handle.write("# header\n\n5 100 1\n# comment\n6 200 2 W\n")
        entries = list(iter_repro_text(path))
        assert entries == [TraceEntry(5, 100, 1), TraceEntry(6, 200, 2, True)]
