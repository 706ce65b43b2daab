"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro import native
from repro.core.translate import translate_transaction
from repro.data.dataset import TwoViewDataset
from repro.data.synthetic import SyntheticSpec, generate_planted

#: Engines the two-engine tests run on (the exact search's oracle and
#: checkpoint tests, the packed TRANSLATE path): numpy always, and the C
#: kernel wherever it compiles (a machine without a C compiler skips it).
SEARCH_BACKENDS = ("numpy", "native") if native.available() else ("numpy",)


@contextlib.contextmanager
def engine(name: str):
    """Run the block on one engine, the way the platform would pick it.

    ``"numpy"`` sets ``REPRO_NATIVE_DISABLE=1`` — the path a machine
    without a C compiler takes — and ``"native"`` clears it; the cached
    kernel is dropped on entry and on exit, so every consumer re-probes.
    """
    if name not in ("numpy", "native"):
        raise ValueError(f"unknown engine {name!r}")
    previous = os.environ.get("REPRO_NATIVE_DISABLE")
    if name == "numpy":
        os.environ["REPRO_NATIVE_DISABLE"] = "1"
    else:
        os.environ.pop("REPRO_NATIVE_DISABLE", None)
    native.reset()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_NATIVE_DISABLE", None)
        else:
            os.environ["REPRO_NATIVE_DISABLE"] = previous
        native.reset()


def oracle(source_matrix, table, target, n_target: int) -> np.ndarray:
    """Algorithm 1, literally: ``translate_transaction`` row by row.

    The oracle of every translation test; it shares no code with the
    compiled paths or with ``predict_view``'s reference loop.
    """
    out = np.zeros((len(source_matrix), n_target), dtype=bool)
    for index, row in enumerate(np.asarray(source_matrix, dtype=bool)):
        items = translate_transaction(set(np.flatnonzero(row).tolist()), table, target)
        out[index, sorted(items)] = True
    return out


def path_outputs(predictor, path: str, batch) -> list[tuple[str, np.ndarray]]:
    """``(label, output)`` of one compiled path on every engine it runs on.

    ``path`` is ``"blas"`` or ``"packed"``; each is reached through the
    predictor's private per-path method, bypassing the selection.
    """
    batch = np.asarray(batch, dtype=bool)
    if path == "blas":
        return [("blas", predictor._predict_blas(batch))]
    outputs = []
    for name in SEARCH_BACKENDS:
        with engine(name):
            outputs.append((f"packed/{name}", predictor._predict_packed(batch)))
    return outputs


@pytest.fixture
def toy_dataset() -> TwoViewDataset:
    """A small handcrafted dataset in the spirit of the paper's Fig. 1.

    Five transactions over left items {a, b, c, d} and right items
    {p, q, s, u}; transactions 0, 3, 4 share the pattern {a, b} on the
    left and {u} on the right, transactions 1, 2 share {c} -> {s}.
    """
    return TwoViewDataset.from_transactions(
        [
            ({"a", "b"}, {"u", "p"}),
            ({"c", "d"}, {"s"}),
            ({"c"}, {"s", "q"}),
            ({"a", "b", "d"}, {"u"}),
            ({"a", "b"}, {"u", "q"}),
        ],
        left_names=["a", "b", "c", "d"],
        right_names=["p", "q", "s", "u"],
        name="toy",
    )


@pytest.fixture
def planted_dataset() -> TwoViewDataset:
    """A small planted dataset with clear cross-view structure."""
    dataset, __ = generate_planted(
        SyntheticSpec(
            n_transactions=150,
            n_left=10,
            n_right=10,
            density_left=0.15,
            density_right=0.15,
            n_rules=3,
            seed=42,
        )
    )
    return dataset


@pytest.fixture
def planted_with_truth() -> tuple[TwoViewDataset, list]:
    """Planted dataset together with its ground-truth rules."""
    return generate_planted(
        SyntheticSpec(
            n_transactions=250,
            n_left=12,
            n_right=12,
            density_left=0.12,
            density_right=0.12,
            n_rules=4,
            confidence=(0.95, 1.0),
            activation=(0.15, 0.3),
            seed=7,
        )
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded random generator for deterministic tests."""
    return np.random.default_rng(12345)


def random_two_view(
    rng: np.random.Generator,
    n: int = 30,
    n_left: int = 6,
    n_right: int = 6,
    density: float = 0.3,
) -> TwoViewDataset:
    """Helper: a random (unstructured) dataset for brute-force checks."""
    left = rng.random((n, n_left)) < density
    right = rng.random((n, n_right)) < density
    # Guarantee every item occurs at least once so code lengths are finite.
    for column in range(n_left):
        if not left[:, column].any():
            left[int(rng.integers(n)), column] = True
    for column in range(n_right):
        if not right[:, column].any():
            right[int(rng.integers(n)), column] = True
    return TwoViewDataset(left, right, name="random")


def rub_case(name: str) -> TwoViewDataset:
    """A 150-row (three-word) dataset with 10 + 10 items at one end of rub pruning.

    ``"dense"``: half of all cells set, so ``rub`` prunes no node of a
    ``max_rule_size=3`` search.  ``"sparse"``: one item per view in every
    row, plus a planted pair in about half the rows, so ``rub`` prunes
    most nodes.  Both ends take the C traversal's lazy ``tub`` masses
    through every branch: the dense one defers each child's mass, the
    sparse one sums nearly all of them.
    """
    rng = np.random.default_rng(0 if name == "dense" else 1)
    n, k = 150, 10
    if name == "dense":
        return random_two_view(rng, n=n, n_left=k, n_right=k, density=0.5)
    if name != "sparse":
        raise ValueError(f"unknown rub case {name!r}")
    left = np.zeros((n, k), dtype=bool)
    right = np.zeros((n, k), dtype=bool)
    left[np.arange(n), rng.integers(k, size=n)] = True
    right[np.arange(n), rng.integers(k, size=n)] = True
    planted = rng.random(n) < 0.5
    left[planted, 0] = True
    right[planted, 0] = True
    return TwoViewDataset(left, right, name="sparse")
