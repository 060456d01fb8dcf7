"""Tests keeping the documentation honest.

Runs the same link checker the CI docs job uses, and cross-checks the
figure-reproduction guide against the study registry so the table can
never drift from the studies it documents.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class TestDocs:
    def test_doc_pages_exist(self):
        assert (ROOT / "docs" / "architecture.md").exists()
        assert (ROOT / "docs" / "reproducing-figures.md").exists()
        assert (ROOT / "docs" / "traces.md").exists()

    def test_markdown_links_resolve(self):
        result = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "check_docs.py")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_guide_mentions_only_real_figure_commands(self):
        """Figures have one spelling, `repro study run NAME`: no page may
        document the removed `figure` verb."""

        for page in ("docs/reproducing-figures.md", "README.md"):
            text = (ROOT / page).read_text()
            assert not re.search(r"repro\s+figure\b", text), page

    def test_readme_links_to_both_doc_pages(self):
        text = (ROOT / "README.md").read_text()
        assert "docs/architecture.md" in text
        assert "docs/reproducing-figures.md" in text

    def test_studies_registry_in_sync_with_guide(self):
        """Both directions of check_docs.py's STUDIES cross-check hold.

        Calls the checker's own ``check_studies`` (rather than duplicating
        its regex here), so the test and CI can never enforce different
        rules.
        """

        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "check_docs", ROOT / "tools" / "check_docs.py"
        )
        check_docs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(check_docs)
        assert check_docs.check_studies(ROOT) == []
