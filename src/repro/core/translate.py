"""The TRANSLATE scheme and correction tables (paper, Section 3).

Translation maps one view of the dataset onto a reconstruction of the
other: every rule whose antecedent occurs in the source transaction adds
its consequent to the translated transaction (Algorithm 1).  Rule order is
irrelevant.  Because the reconstruction is imperfect, a *correction table*
``C`` records the cell-wise XOR between the translated and the true view;
applying it makes translation lossless:

    t_R = TRANSLATE(t_L, T) ⊕ c_t

The correction table splits into ``U`` (uncovered: true ones the rules
missed) and ``E`` (errors: ones the rules introduced wrongly), with
``C = U ∪ E`` and ``U ∩ E = ∅`` (Section 5.1).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Set

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.compiled import CompiledPredictor
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable

__all__ = [
    "translate_view",
    "translate_transaction",
    "CorrectionTables",
    "corrections",
    "reconstruct",
]


def translate_view(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
    target: Side,
) -> np.ndarray:
    """Translate the opposite view of ``dataset`` towards ``target``.

    Algorithm 1 applied to all transactions at once, through
    :class:`repro.core.compiled.CompiledPredictor`: returns a Boolean
    matrix of shape ``(n, |I_target|)`` containing the union of the
    consequents of all firing rules per transaction.
    """
    source = target.opposite
    compiled = CompiledPredictor.from_table(
        table, target, dataset.n_side(source), dataset.n_side(target)
    )
    return compiled.predict(dataset.view(source))


def translate_transaction(
    source_items: Set[int],
    table: TranslationTable | Iterable[TranslationRule],
    target: Side = Side.RIGHT,
) -> frozenset[int]:
    """Translate a single transaction (Algorithm 1, literal form).

    ``source_items`` is the set of item indices present in the source view
    of the transaction.  Returns the translated itemset for ``target``.
    It shares no code with :func:`translate_view`, which is why the
    tests use it as the oracle of every batched path.
    """
    translated: set[int] = set()
    for rule in table:
        if not rule.applies_towards(target):
            continue
        if set(rule.antecedent(target)) <= source_items:
            translated.update(rule.consequent(target))
    return frozenset(translated)


@dataclasses.dataclass(frozen=True)
class CorrectionTables:
    """All correction artefacts of a dataset/table pair.

    Attributes hold Boolean matrices aligned with the corresponding view:
    ``translated_*`` are the raw rule-based reconstructions, ``uncovered_*``
    the ``U`` tables, ``errors_*`` the ``E`` tables and ``correction_*``
    their unions ``C = U ∪ E = translated XOR data``.
    """

    translated_left: np.ndarray
    translated_right: np.ndarray
    uncovered_left: np.ndarray
    uncovered_right: np.ndarray
    errors_left: np.ndarray
    errors_right: np.ndarray

    @property
    def correction_left(self) -> np.ndarray:
        """``C_L = U_L ∪ E_L``."""
        return self.uncovered_left | self.errors_left

    @property
    def correction_right(self) -> np.ndarray:
        """``C_R = U_R ∪ E_R``."""
        return self.uncovered_right | self.errors_right

    def correction(self, side: Side) -> np.ndarray:
        """Correction table of one side."""
        return self.correction_left if side is Side.LEFT else self.correction_right

    @property
    def n_correction_cells(self) -> int:
        """``|C| = |U| + |E|`` over both sides (the numerator of |C|%)."""
        return int(self.correction_left.sum() + self.correction_right.sum())


def corrections(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
) -> CorrectionTables:
    """Compute translated views and correction tables for both directions.

    Args:
        dataset: The two-view dataset being encoded.
        table: The translation rules (any iterable; order = cover order).

    Returns:
        A :class:`CorrectionTables` bundle: per-direction translated
        views plus the correction sets that make TRANSLATE lossless —
        ``reconstruct`` applied to it returns the original views
        exactly (Algorithm 1; property-tested in
        ``tests/test_properties.py``).
    """
    rules = list(table)
    translated_right = translate_view(dataset, rules, Side.RIGHT)
    translated_left = translate_view(dataset, rules, Side.LEFT)
    return CorrectionTables(
        translated_left=translated_left,
        translated_right=translated_right,
        uncovered_left=dataset.left & ~translated_left,
        uncovered_right=dataset.right & ~translated_right,
        errors_left=translated_left & ~dataset.left,
        errors_right=translated_right & ~dataset.right,
    )


def reconstruct(
    dataset: TwoViewDataset,
    table: TranslationTable | Iterable[TranslationRule],
    target: Side,
    correction: np.ndarray | None = None,
) -> np.ndarray:
    """Losslessly reconstruct one view from the other.

    When ``correction`` is omitted it is derived from the dataset itself;
    passing a stored correction table demonstrates the lossless pipeline:
    ``reconstruct == dataset.view(target)`` always holds.
    """
    rules = list(table)
    translated = translate_view(dataset, rules, target)
    if correction is None:
        correction = translated ^ dataset.view(target)
    return translated ^ correction
