"""tools/check_py39_compat.py: the guard for ``requires-python = ">=3.9"``.

The checker itself must flag 3.10+ syntax and version-gated attribute
calls (self-test), and the shipped ``src/`` tree must come up clean —
the regression that motivated it was an ``add_note`` call (3.11+) inside
an error path, which turned every worker failure into an
``AttributeError`` on 3.9.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

from check_py39_compat import check_source, check_tree, main  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


class TestSourceTreeIsClean:
    def test_src_has_no_39_compat_findings(self):
        findings = check_tree([SRC])
        assert findings == []

    def test_cli_passes_on_src(self, capsys):
        assert main([str(SRC)]) == 0
        assert "compatible" in capsys.readouterr().out


class TestCheckerSelfTest:
    def test_flags_add_note_call(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(
            "try:\n"
            "    pass\n"
            "except Exception as error:\n"
            "    error.add_note('context')\n"
            "    raise\n"
        )
        findings = check_source(path, path.read_text())
        assert len(findings) == 1
        assert "add_note" in findings[0]
        assert "3.11+" in findings[0]
        assert f"{path}:4" in findings[0]

    def test_flags_match_statement(self, tmp_path):
        path = tmp_path / "match.py"
        path.write_text(
            "def f(x):\n"
            "    match x:\n"
            "        case 1:\n"
            "            return 'one'\n"
            "    return 'other'\n"
        )
        findings = check_source(path, path.read_text())
        assert len(findings) == 1
        assert "3.9 syntax" in findings[0]

    def test_flags_bisect_and_insort_with_key(self, tmp_path):
        path = tmp_path / "bisect_key.py"
        path.write_text(
            "import bisect\n"
            "from bisect import insort\n"
            "rows = []\n"
            "insort(rows, (1, 'a'), key=lambda row: row[0])\n"
            "bisect.bisect_left(rows, 1, key=lambda row: row[0])\n"
            "bisect.insort_right(rows, (2, 'b'))\n"
        )
        findings = check_source(path, path.read_text())
        assert len(findings) == 2
        assert f"{path}:4" in findings[0] and "insort(key=...)" in findings[0]
        assert f"{path}:5" in findings[1] and "bisect_left(key=...)" in findings[1]
        assert all("3.10+" in finding for finding in findings)

    def test_flags_zip_strict(self, tmp_path):
        path = tmp_path / "zip_strict.py"
        path.write_text("pairs = list(zip([1], [2], strict=True))\nzip([1], [2])\n")
        findings = check_source(path, path.read_text())
        assert len(findings) == 1
        assert f"{path}:1" in findings[0]
        assert "zip(strict=...) is Python 3.10+" in findings[0]

    def test_flags_int_bit_count(self, tmp_path):
        path = tmp_path / "bit_count.py"
        path.write_text("mask = 0b1011\nones = mask.bit_count()\n")
        findings = check_source(path, path.read_text())
        assert len(findings) == 1
        assert f"{path}:2" in findings[0]
        assert "int.bit_count is Python 3.10+" in findings[0]

    def test_flags_itertools_pairwise(self, tmp_path):
        path = tmp_path / "pairwise.py"
        path.write_text(
            "import itertools\n"
            "from itertools import chain, pairwise\n"
            "steps = list(itertools.pairwise([1, 2, 3]))\n"
        )
        findings = check_source(path, path.read_text())
        assert len(findings) == 2
        assert f"{path}:2" in findings[0]
        assert "import of itertools.pairwise" in findings[0]
        assert f"{path}:3" in findings[1] and "use of itertools.pairwise" in findings[1]
        assert all("3.10+" in finding for finding in findings)

    def test_clean_39_code_passes(self, tmp_path):
        path = tmp_path / "fine.py"
        path.write_text(
            "from typing import Optional\n"
            "def f(x: Optional[int] = None) -> int:\n"
            "    note = 'add_note'  # the *string* is fine; only calls flag\n"
            "    return (x or 0) + len(note)\n"
        )
        assert check_source(path, path.read_text()) == []

    def test_cli_fails_on_findings(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("x = object()\nx.add_note('y')\n")
        assert main([str(path)]) == 1
        assert "add_note" in capsys.readouterr().err
