#!/usr/bin/env python3
"""Docs link check: every path/module the docs mention must exist.

Scans ``README.md`` and ``docs/*.md`` for

* backtick-quoted repository paths (``src/repro/...py``,
  ``benchmarks/...``, ``examples/...``, ``docs/...``, ``tests/...``,
  ``tools/...``, top-level ``*.md`` / ``*.py``), and
* backtick-quoted dotted module references (``repro.experiments.engine``,
  ``repro.cli:main``),

and every ``*.md`` file name cited in a ``.py`` file under ``src/``,
``benchmarks/``, ``tests/`` or ``tools/`` (a path from the repository
root, or a bare name of a file at the root or in ``docs/``), and fails
(exit 1) listing anything that does not resolve to a real file or
directory.  Run from anywhere::

    python tools/check_docs.py

Wired into CI next to the test matrix, and into the test suite via
``tests/test_docs.py``, so documentation rot fails the build.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Directories whose mention in docs implies a checkable path.
_CHECKED_PREFIXES = (
    "src/",
    "docs/",
    "benchmarks/",
    "examples/",
    "tests/",
    "tools/",
    ".github/",
)

_BACKTICK = re.compile(r"`([^`\s]+)`")
_MODULE = re.compile(r"^repro(\.[A-Za-z_][A-Za-z0-9_]*)*(:[A-Za-z_]\w*)?$")

# Code whose comments and docstrings may cite documents by file name.
_CODE_DIRS = ("src", "benchmarks", "tests", "tools")
_MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def _doc_files() -> list[Path]:
    docs = [ROOT / "README.md"]
    docs.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in docs if path.exists()]


def _is_checked_path(candidate: str) -> bool:
    if "*" in candidate:  # glob patterns describe families, not files
        return False
    if candidate.startswith(_CHECKED_PREFIXES):
        return True
    # Top-level files like README.md / setup.py / ROADMAP.md.
    return "/" not in candidate and candidate.endswith((".md", ".py"))


def _module_exists(dotted: str) -> bool:
    module = dotted.split(":", 1)[0]
    base = ROOT / "src" / Path(*module.split("."))
    return base.with_suffix(".py").exists() or base.is_dir()


def _document_exists(name: str) -> bool:
    """A cited ``*.md`` resolves from the root; a bare name may also
    name a file in ``docs/``."""
    if (ROOT / name).exists():
        return True
    return "/" not in name and (ROOT / "docs" / name).exists()


def check_code() -> list[str]:
    """Documents cited in code that do not exist."""
    broken = []
    for folder in _CODE_DIRS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            for name in _MD_NAME.findall(text):
                if not _document_exists(name):
                    rel = path.relative_to(ROOT)
                    broken.append(f"{rel}: document `{name}`")
    return broken


def check() -> list[str]:
    """All broken references, as ``file: reference`` strings."""
    broken = check_code()
    for doc in _doc_files():
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(ROOT)
        for match in _BACKTICK.finditer(text):
            candidate = match.group(1)
            if _MODULE.match(candidate):
                if not _module_exists(candidate):
                    broken.append(f"{rel}: module `{candidate}`")
            elif _is_checked_path(candidate):
                if not (ROOT / candidate).exists():
                    broken.append(f"{rel}: path `{candidate}`")
    return broken


def main() -> int:
    broken = check()
    docs = ", ".join(str(d.relative_to(ROOT)) for d in _doc_files())
    if broken:
        print(f"Broken documentation references ({docs}, code):")
        for item in broken:
            print(f"  {item}")
        return 1
    print(f"docs link check OK ({docs}; documents cited in code)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
