"""Documentation smoke tests (``pytest -m docs_smoke``).

Tier-1 wiring for :mod:`scripts.check_docs`: the README's python code
blocks must execute, every public symbol must carry a docstring, the
docs tree's internal links must resolve, and every fault point in
``src/`` must be listed in ``docs/resilience.md``.  These run in the default
suite (markers select, they do not exclude), so documentation breakage
fails CI like any other regression.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_docs  # noqa: E402

pytestmark = pytest.mark.docs_smoke


def test_every_public_symbol_has_a_docstring():
    assert check_docs.missing_docstrings() == []


def test_documentation_links_resolve():
    assert check_docs.broken_doc_links() == []


def test_every_fault_point_is_documented():
    assert check_docs.undocumented_fault_points() == []


def test_docs_pages_exist():
    for page in ("index.md", "architecture.md", "paper-mapping.md",
                 "benchmarks.md", "runtime.md", "serving.md"):
        assert (REPO_ROOT / "docs" / page).is_file(), f"docs/{page} missing"
    assert (REPO_ROOT / "README.md").is_file()


def test_readme_mentions_the_knobs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for needle in ("n_jobs", "REPRO_NATIVE_DISABLE", "docs/architecture.md",
                   "repro-translator sweep", "repro-translator serve",
                   "docs/serving.md"):
        assert needle in readme, f"README should mention {needle!r}"


def test_readme_code_blocks_execute():
    count = check_docs.run_markdown_blocks(REPO_ROOT / "README.md")
    assert count >= 5  # quickstart, noise, n_jobs, sweep, serving
