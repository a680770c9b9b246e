"""The documentation suite must exist and must not rot.

The same check CI runs: every repository path or ``repro.*`` module
mentioned in backticks in ``README.md`` or ``docs/*.md`` must resolve
to a real file, directory or module.  ``tools/check_docs.py`` holds
the scanner; importing it here keeps the rule enforced locally by the
default test suite, not just by CI.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocs:
    def test_docs_exist(self):
        assert (ROOT / "README.md").exists()
        assert (ROOT / "docs" / "ARCHITECTURE.md").exists()
        assert (ROOT / "docs" / "REPRODUCING.md").exists()

    def test_readme_covers_the_essentials(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        for required in (
            "## Package layout",
            "## Install",
            "## Quickstart",
            "## Reproducing the figures",
            "bench_parallel.py",
            "SLGF2",
        ):
            assert required in readme, f"README.md lacks {required!r}"

    def test_no_broken_references(self):
        checker = _load_checker()
        broken = checker.check()
        assert broken == [], "\n".join(broken)

    def test_setup_metadata(self):
        setup_py = (ROOT / "setup.py").read_text(encoding="utf-8")
        assert "python_requires" in setup_py
        assert "long_description" in setup_py
        assert "README.md" in setup_py

    def test_flags_a_missing_document_cited_in_code(
        self, tmp_path, monkeypatch
    ):
        checker = _load_checker()
        # Spelled in pieces: this file is scanned by the same check.
        design = ".".join(("DESIGN", "md"))
        guide = "docs/" + ".".join(("GUIDE", "md"))
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "API.md").write_text("")
        (tmp_path / "README.md").write_text("")
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "mod.py").write_text(
            f'"""See README.md, API.md, docs/API.md and {design};\n'
            f'not {guide} or *.md."""\n'
        )
        monkeypatch.setattr(checker, "ROOT", tmp_path)
        assert checker.check_code() == [
            f"src/mod.py: document `{design}`",
            f"src/mod.py: document `{guide}`",
        ]

    def test_checker_cli_passes(self, capsys):
        checker = _load_checker()
        assert checker.main() == 0
        assert "OK" in capsys.readouterr().out
