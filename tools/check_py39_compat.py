#!/usr/bin/env python
"""Guard the declared ``requires-python = ">=3.9"`` floor.

Two checks over every Python file under ``src/``:

1. **Syntax** — each file must parse with ``ast.parse(...,
   feature_version=(3, 9))``, so 3.10+ syntax (``match``/``case``,
   parenthesized context managers relying on new grammar, ...) is
   rejected on any interpreter, not just when someone happens to run
   an actual 3.9.
2. **Known version-gated APIs** — a denylist of calls that parse
   everywhere but explode at runtime on 3.9/3.10: attribute calls
   (``.add_note()``, ``.bit_count()``), keyword arguments
   (``zip(strict=)``, ``bisect``/``insort`` with ``key=``) and module
   names (``itertools.pairwise``).  The motivating regression:
   ``BaseException.add_note`` (3.11+) inside an error path, where the
   report about the real failure itself raised ``AttributeError`` on 3.9.

Run directly (``python tools/check_py39_compat.py [roots...]``, exit 1
on findings) — CI's ``py39-compat`` job does — or through the tier-1
suite via ``tests/test_py39_compat.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Sequence

MIN_VERSION = (3, 9)

# Attribute calls that are syntactically fine everywhere but need a newer
# runtime than the declared floor.  Maps attribute name -> reason.
BANNED_ATTRIBUTE_CALLS = {
    "add_note": "BaseException.add_note is Python 3.11+",
    "bit_count": "int.bit_count is Python 3.10+",
}

# Keyword arguments a function only accepts on a newer runtime.  Maps
# (function name, keyword) -> reason; the function may be called bare or
# as a module attribute (``bisect.insort``).
BANNED_KEYWORDS = {
    ("zip", "strict"): "zip(strict=...) is Python 3.10+",
    **{
        (name, "key"): f"{name}(key=...) is Python 3.10+"
        for name in (
            "bisect",
            "bisect_left",
            "bisect_right",
            "insort",
            "insort_left",
            "insort_right",
        )
    },
}

# Module-level names added after the floor.  Maps (module, name) ->
# reason; both ``module.name`` and ``from module import name`` flag.
BANNED_MODULE_NAMES = {
    ("itertools", "pairwise"): "itertools.pairwise is Python 3.10+",
}


def check_source(path: Path, source: str) -> List[str]:
    """All 3.9-compat findings for one file, as ``path:line: message``."""
    try:
        tree = ast.parse(source, filename=str(path), feature_version=MIN_VERSION)
    except SyntaxError as error:
        line = error.lineno or 0
        return [
            f"{path}:{line}: not valid Python "
            f"{'.'.join(map(str, MIN_VERSION))} syntax: {error.msg}"
        ]
    findings = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else None
            if name in BANNED_ATTRIBUTE_CALLS:
                reason = BANNED_ATTRIBUTE_CALLS[name]
                findings.append(f"{path}:{node.lineno}: call to .{name}() — {reason}")
            if isinstance(func, ast.Name):
                name = func.id
            for keyword in node.keywords:
                reason = BANNED_KEYWORDS.get((name, keyword.arg))
                if reason is not None:
                    call = f"{name}() with {keyword.arg}="
                    findings.append(f"{path}:{node.lineno}: {call} — {reason}")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and (node.value.id, node.attr) in BANNED_MODULE_NAMES
        ):
            reason = BANNED_MODULE_NAMES[(node.value.id, node.attr)]
            findings.append(
                f"{path}:{node.lineno}: use of {node.value.id}.{node.attr} — {reason}"
            )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                reason = BANNED_MODULE_NAMES.get((node.module, alias.name))
                if reason is not None:
                    findings.append(
                        f"{path}:{node.lineno}: import of {node.module}.{alias.name}"
                        f" — {reason}"
                    )
    return findings


def check_tree(roots: Sequence[Path]) -> List[str]:
    findings: List[str] = []
    for root in roots:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            findings.extend(check_source(path, path.read_text(encoding="utf-8")))
    return findings


def main(argv: Sequence[str]) -> int:
    roots = [Path(arg) for arg in argv] or [Path("src")]
    findings = check_tree(roots)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(
            f"error: {len(findings)} Python-3.9 compatibility finding(s)",
            file=sys.stderr,
        )
        return 1
    checked = ", ".join(str(root) for root in roots)
    print(f"ok: {checked} is Python {'.'.join(map(str, MIN_VERSION))} compatible")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
