"""Documentation lint: executable README, documented API and fault points.

Three checks keep the docs honest, runnable standalone::

    PYTHONPATH=src python scripts/check_docs.py

and inside tier-1 via ``tests/test_docs.py`` (``pytest -m docs_smoke``):

1. **README code blocks execute** — every ```` ```python ```` fenced
   block in ``README.md`` runs, top to bottom, in one shared namespace
   (so later blocks may use earlier blocks' variables) inside a
   temporary working directory (so examples may write caches/files).
2. **Every public symbol has a docstring** — every name in the
   ``__all__`` of every public package resolves to an object with a
   non-empty docstring, and every documentation page referenced from
   the README/docs tree exists.
3. **Every fault point is documented** — every chaos-hook name the code
   can fire (a string literal passed to ``fault_point``, or a
   ``durable_write`` ``site=`` and its ``.bytes``/``.replace`` hooks,
   found in the syntax tree of ``src/``) appears in the "Fault points
   currently wired in" list of ``docs/resilience.md``; an f-string's
   fields render as ``<name>``, as in ``serve.<name>.request``.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

PUBLIC_PACKAGES = [
    "repro",
    "repro.data",
    "repro.data.schema",
    "repro.mining",
    "repro.core",
    "repro.baselines",
    "repro.corpus",
    "repro.eval",
    "repro.multiview",
    "repro.native",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.resilience",
    "repro.resilience.container",
    "repro.runtime",
    "repro.serve",
    "repro.serve.binfmt",
    "repro.serve.router",
    "repro.stream",
]

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
_MD_LINK = re.compile(r"\]\(([^)#]+\.md)(?:#[^)]*)?\)")
_FAULT_LIST = re.compile(r"Fault points currently wired in:(.*?)\n\n", re.DOTALL)
_CODE_SPAN = re.compile(r"`([^`]+)`")


def extract_python_blocks(markdown_path: Path) -> list[str]:
    """Return the ```` ```python ```` fenced blocks of a markdown file."""
    return _FENCE.findall(markdown_path.read_text(encoding="utf-8"))


def run_markdown_blocks(markdown_path: Path, quiet: bool = True) -> int:
    """Execute a file's python blocks in one namespace; returns the count.

    Blocks run inside a temporary working directory so examples that
    write files (sweep caches, reports) never touch the repository.
    Any exception propagates, annotated with the failing block number.
    """
    blocks = extract_python_blocks(markdown_path)
    namespace: dict[str, object] = {"__name__": "__readme__"}
    previous_cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as sandbox:
        os.chdir(sandbox)
        try:
            for number, block in enumerate(blocks, start=1):
                sink = io.StringIO()
                try:
                    with contextlib.redirect_stdout(
                        sink if quiet else sys.stdout
                    ):
                        exec(compile(block, f"{markdown_path.name}[block {number}]", "exec"), namespace)
                except Exception as error:  # annotate and re-raise
                    raise AssertionError(
                        f"{markdown_path.name} code block {number} failed: "
                        f"{type(error).__name__}: {error}\n--- block ---\n{block}"
                    ) from error
        finally:
            os.chdir(previous_cwd)
    return len(blocks)


def missing_docstrings() -> list[str]:
    """Public symbols (every ``__all__`` entry) without a docstring."""
    problems = []
    for package_name in PUBLIC_PACKAGES:
        package = importlib.import_module(package_name)
        for name in getattr(package, "__all__", []):
            if name.startswith("__"):
                continue
            obj = getattr(package, name, None)
            if obj is None:
                problems.append(f"{package_name}.{name}: missing attribute")
                continue
            if isinstance(obj, (str, bytes, int, float, dict, list, tuple)):
                continue  # constants (e.g. PAPER_DATASETS, BACKENDS)
            if not inspect.getdoc(obj):
                problems.append(f"{package_name}.{name}: no docstring")
    return sorted(set(problems))


def broken_doc_links() -> list[str]:
    """Relative ``*.md`` links in README/docs that point nowhere."""
    problems = []
    for page in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
        for target in _MD_LINK.findall(page.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://")):
                continue
            if not (page.parent / target).exists():
                problems.append(f"{page.relative_to(REPO_ROOT)} -> {target}")
    return problems


def _hook_name(node: ast.expr) -> str | None:
    """A fault-point name from a string literal or an f-string, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if not isinstance(node, ast.JoinedStr):
        return None
    parts = []
    for value in node.values:
        if isinstance(value, ast.Constant):
            parts.append(str(value.value))
        else:
            expr = value.value
            parts.append(f"<{getattr(expr, 'attr', getattr(expr, 'id', 'expr'))}>")
    return "".join(parts)


def code_fault_points() -> set[str]:
    """Every fault-point name the code in ``src/`` can fire."""
    names: set[str] = set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            if callee == "fault_point" and node.args:
                names.add(_hook_name(node.args[0]))
            elif callee == "durable_write":
                for keyword in node.keywords:
                    if keyword.arg == "site" and _hook_name(keyword.value):
                        site = _hook_name(keyword.value)
                        names |= {f"{site}.bytes", f"{site}.replace"}
    return names - {None}


def undocumented_fault_points() -> list[str]:
    """Fault points fired in ``src/`` but missing from docs/resilience.md's list."""
    match = _FAULT_LIST.search(
        (REPO_ROOT / "docs" / "resilience.md").read_text(encoding="utf-8")
    )
    documented = set(_CODE_SPAN.findall(match.group(1))) if match else set()
    return sorted(code_fault_points() - documented)


def main() -> int:
    failures = 0
    undocumented = missing_docstrings()
    if undocumented:
        failures += 1
        print("undocumented public symbols:")
        for line in undocumented:
            print(f"  {line}")
    else:
        print("docstrings: every public symbol is documented")

    broken = broken_doc_links()
    if broken:
        failures += 1
        print("broken documentation links:")
        for line in broken:
            print(f"  {line}")
    else:
        print("links: all documentation links resolve")

    undocumented_hooks = undocumented_fault_points()
    if undocumented_hooks:
        failures += 1
        print("fault points missing from docs/resilience.md:")
        for line in undocumented_hooks:
            print(f"  {line}")
    else:
        print("fault points: every hook in src/ is documented")

    try:
        count = run_markdown_blocks(REPO_ROOT / "README.md")
    except AssertionError as error:
        failures += 1
        print(error)
    else:
        print(f"README: all {count} python block(s) executed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
