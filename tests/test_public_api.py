"""Coherence checks on the public API surface.

These tests keep the documentation honest: every name a package exports
in ``__all__`` must resolve, the top-level convenience re-exports must
stay in sync with the subpackages, and the CLI must expose every
documented subcommand.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.data",
    "repro.mining",
    "repro.core",
    "repro.baselines",
    "repro.eval",
    "repro.multiview",
    "repro.runtime",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), f"{package_name} must declare __all__"
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_has_no_duplicates(package_name):
    package = importlib.import_module(package_name)
    assert len(package.__all__) == len(set(package.__all__))


def test_top_level_reexports_core_entry_points():
    for name in (
        "TwoViewDataset",
        "Side",
        "TranslatorExact",
        "TranslatorSelect",
        "TranslatorGreedy",
        "TranslationRule",
        "TranslationTable",
        "make_dataset",
        "generate_planted",
        "ParallelExecutor",
        "ResultCache",
        "SweepTask",
        "expand_grid",
        "run_sweep",
    ):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_version_is_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") >= 1


def test_public_functions_have_docstrings():
    """Every callable exported from the top level carries a docstring."""
    for name in repro.__all__:
        obj = getattr(repro, name)
        if callable(obj):
            assert obj.__doc__, f"repro.{name} is missing a docstring"


def test_cli_exposes_documented_subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    subparsers = next(
        action
        for action in parser._actions
        if action.__class__.__name__ == "_SubParsersAction"
    )
    commands = set(subparsers.choices)
    documented = {
        "stats", "fit", "describe", "compare", "trace", "predict",
        "randomize", "stability", "encoding", "cluster", "convert", "sweep",
    }
    assert documented <= commands


def test_extension_modules_are_reachable():
    """The extension modules named in DESIGN.md import cleanly."""
    for module in (
        "repro.data.arff",
        "repro.mining.sampling",
        "repro.core.beam",
        "repro.core.pruning",
        "repro.core.predict",
        "repro.core.refined",
        "repro.core.clustering",
        "repro.eval.randomization",
        "repro.eval.stability",
        "repro.eval.ranking",
        "repro.multiview",
    ):
        importlib.import_module(module)


def test_import_loads_neither_scipy_stats_nor_networkx():
    """Every process imports ``repro``; the statistics baselines and the
    rule graph load their third-party modules only when they run."""
    probe = (
        "import sys, repro, repro.cli\n"
        "print(sorted({'scipy.stats', 'networkx'} & set(sys.modules)))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.stdout.strip() == "[]"
