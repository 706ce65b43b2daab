"""Prediction with translation tables.

Compression-based models are useful beyond description (paper, Section
2.3, citing Faloutsos & Megalooikonomou): a translation table is a
generative mapping between views, so it can *predict* one view of unseen
objects from the other.  This module provides that application:

* :func:`predict_view` — rule-based prediction of a target view for new
  source-view data;
* :func:`prediction_scores` — micro-averaged precision/recall/F1 of the
  predictions against ground truth;
* :func:`holdout_evaluation` — fit on a training split, score predictions
  on a held-out split, in both directions.

This also doubles as an extrinsic quality measure of a model: tables that
compress well predict well on data from the same distribution.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

import numpy as np

from repro.data.dataset import Side, TwoViewDataset
from repro.core.compiled import CompiledPredictor, rules_towards
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable

__all__ = ["PredictionScores", "predict_view", "prediction_scores", "holdout_evaluation"]


@dataclasses.dataclass(frozen=True)
class PredictionScores:
    """Micro-averaged prediction quality of one direction."""

    target: Side
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        """Fraction of predicted items that are correct."""
        denominator = self.true_positives + self.false_positives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        """Fraction of true items that were predicted."""
        denominator = self.true_positives + self.false_negatives
        return self.true_positives / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        precision, recall = self.precision, self.recall
        if precision + recall == 0:
            return 0.0
        return 2 * precision * recall / (precision + recall)


def predict_view(
    source_matrix: np.ndarray,
    table: TranslationTable | Iterable[TranslationRule],
    target: Side,
    n_target_items: int,
    engine: str = "compiled",
) -> np.ndarray:
    """Predict the ``target`` view for new source-view transactions.

    ``source_matrix`` is a Boolean matrix over the *opposite* view's
    vocabulary (same column order as the training data).  Applies every
    rule firing towards ``target`` — i.e. the TRANSLATE algorithm on
    unseen data, without correction tables — through
    :class:`repro.core.compiled.CompiledPredictor`.

    ``engine="loop"`` runs a per-rule reference loop instead, with
    bit-identical outputs; the serve-predict workload of ``perfbench/``
    computes its expected answers with it.  Rules whose antecedent
    towards ``target`` is empty are skipped with a warning on both.
    """
    source_matrix = np.asarray(source_matrix, dtype=bool)
    if engine == "compiled":
        return CompiledPredictor.from_table(
            table, target, source_matrix.shape[1], n_target_items
        ).predict(source_matrix)
    if engine != "loop":
        raise ValueError(f"unknown prediction engine {engine!r}")
    predicted = np.zeros((source_matrix.shape[0], n_target_items), dtype=bool)
    for antecedent, consequent in rules_towards(table, target):
        rows = source_matrix[:, list(antecedent)].all(axis=1)
        if rows.any():
            predicted[np.ix_(rows, list(consequent))] = True
    return predicted


def prediction_scores(
    predicted: np.ndarray, actual: np.ndarray, target: Side
) -> PredictionScores:
    """Micro-averaged scores of a predicted view against ground truth."""
    predicted = np.asarray(predicted, dtype=bool)
    actual = np.asarray(actual, dtype=bool)
    if predicted.shape != actual.shape:
        raise ValueError("predicted and actual shapes differ")
    return PredictionScores(
        target=target,
        true_positives=int((predicted & actual).sum()),
        false_positives=int((predicted & ~actual).sum()),
        false_negatives=int((~predicted & actual).sum()),
    )


def holdout_evaluation(
    dataset: TwoViewDataset,
    translator,
    train_fraction: float = 0.7,
    rng: np.random.Generator | int | None = 0,
) -> dict[str, PredictionScores]:
    """Fit on a train split, predict both views on the held-out split.

    ``translator`` is any object with a ``fit(dataset) -> result`` method
    whose result exposes ``.table`` (all TRANSLATOR classes qualify).
    Returns scores keyed by ``"left_to_right"`` and ``"right_to_left"``.
    """
    train, test = dataset.split(train_fraction, rng=rng)
    result = translator.fit(train)
    table = result.table
    forward = prediction_scores(
        predict_view(test.left, table, Side.RIGHT, dataset.n_right),
        test.right,
        Side.RIGHT,
    )
    backward = prediction_scores(
        predict_view(test.right, table, Side.LEFT, dataset.n_left),
        test.left,
        Side.LEFT,
    )
    return {"left_to_right": forward, "right_to_left": backward}
