"""Property-based tests (hypothesis) on the core invariants.

These are the load-bearing guarantees of the paper's framework:

1. **Losslessness** — for *any* dataset and *any* translation table,
   ``TRANSLATE`` + correction table reconstructs the data exactly.
2. **Gain exactness** — the incremental gain (Eq. 1-2) always equals the
   brute-force difference of total encoded lengths.
3. **Cover-state consistency** — incremental state equals batch
   recomputation after any rule sequence.
4. **Mining correctness** — the frequent mode of the itemset miner
   equals brute-force enumeration; its closed mode yields exactly the
   support-maximal frequent itemsets.
5. **Serialisation roundtrips** — datasets and tables survive I/O.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.data.dataset import Side, TwoViewDataset
from repro.data.io import load_dataset, save_dataset
from repro.core.bitset import BitMatrix
from repro.core.encoding import CodeLengthModel
from repro.core.rules import Direction, TranslationRule
from repro.core.state import CoverState
from repro.core.table import TranslationTable
from repro.core.translate import corrections, reconstruct
from repro.core.translator import TranslatorGreedy
from repro.mining.itemsets import itemsets

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def datasets(draw, max_n=20, max_items=5):
    """Random small two-view datasets where every item occurs at least once."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    n_left = draw(st.integers(min_value=1, max_value=max_items))
    n_right = draw(st.integers(min_value=1, max_value=max_items))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    density = draw(st.floats(min_value=0.1, max_value=0.7))
    rng = np.random.default_rng(seed)
    left = rng.random((n, n_left)) < density
    right = rng.random((n, n_right)) < density
    for column in range(n_left):
        if not left[:, column].any():
            left[int(rng.integers(n)), column] = True
    for column in range(n_right):
        if not right[:, column].any():
            right[int(rng.integers(n)), column] = True
    return TwoViewDataset(left, right, name="hyp")


@st.composite
def datasets_with_rules(draw, max_rules=6, max_n=20):
    dataset = draw(datasets(max_n=max_n))
    n_rules = draw(st.integers(min_value=0, max_value=max_rules))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    rules = []
    for __ in range(n_rules):
        lhs_size = int(rng.integers(1, min(3, dataset.n_left) + 1))
        rhs_size = int(rng.integers(1, min(3, dataset.n_right) + 1))
        lhs = tuple(rng.choice(dataset.n_left, size=lhs_size, replace=False))
        rhs = tuple(rng.choice(dataset.n_right, size=rhs_size, replace=False))
        direction = [Direction.FORWARD, Direction.BACKWARD, Direction.BOTH][
            int(rng.integers(3))
        ]
        rule = TranslationRule(lhs, rhs, direction)
        if rule not in rules:
            rules.append(rule)
    return dataset, rules


class TestLosslessness:
    @SETTINGS
    @given(datasets_with_rules())
    def test_translation_is_lossless(self, payload):
        dataset, rules = payload
        np.testing.assert_array_equal(
            reconstruct(dataset, rules, Side.RIGHT), dataset.right
        )
        np.testing.assert_array_equal(
            reconstruct(dataset, rules, Side.LEFT), dataset.left
        )

    @SETTINGS
    @given(datasets_with_rules())
    def test_correction_partition(self, payload):
        dataset, rules = payload
        tables = corrections(dataset, rules)
        assert not (tables.uncovered_left & tables.errors_left).any()
        assert not (tables.uncovered_right & tables.errors_right).any()
        np.testing.assert_array_equal(
            tables.correction_right, dataset.right ^ tables.translated_right
        )


def word_edge_case(n):
    """A fixed dataset of ``n`` rows with rules on both sides of a word edge.

    The packed cover rows keep their padding bits zero, and
    ``~(data | translated)`` sets them, so row counts at and just past
    a 64-bit word boundary are where a packing fault would show.
    """
    rng = np.random.default_rng(n)
    left = rng.random((n, 4)) < 0.4
    right = rng.random((n, 4)) < 0.4
    left[0], right[0] = True, True
    rules = [
        TranslationRule((0,), (1,), Direction.BOTH),
        TranslationRule((1, 2), (0, 3), Direction.FORWARD),
        TranslationRule((3,), (2,), Direction.BACKWARD),
        TranslationRule((0, 3), (1, 2), Direction.BOTH),
    ]
    return TwoViewDataset(left, right, name="hyp"), rules


class TestGainExactness:
    @SETTINGS
    @given(datasets_with_rules(max_n=130))
    @example(word_edge_case(64))
    @example(word_edge_case(65))
    def test_incremental_gain_matches_length_difference(self, payload):
        dataset, rules = payload
        state = CoverState(dataset)
        for rule in rules:
            before = state.total_length()
            predicted = state.gain(rule)
            state.add_rule(rule)
            assert predicted == pytest.approx(
                before - state.total_length(), abs=1e-8
            )

    @SETTINGS
    @given(datasets_with_rules(max_n=130))
    @example(word_edge_case(64))
    @example(word_edge_case(65))
    def test_state_matches_batch(self, payload):
        dataset, rules = payload
        state = CoverState(dataset)
        for rule in rules:
            state.add_rule(rule)
        batch = corrections(dataset, rules)
        for side, suffix in ((Side.LEFT, "left"), (Side.RIGHT, "right")):
            cover = state.cover(side)
            for name in ("translated", "uncovered", "errors"):
                expected = getattr(batch, f"{name}_{suffix}")
                np.testing.assert_array_equal(
                    getattr(cover, name), BitMatrix.from_bool_columns(expected).words
                )

    @SETTINGS
    @given(datasets_with_rules())
    def test_total_length_matches_code_model(self, payload):
        dataset, rules = payload
        state = CoverState(dataset)
        for rule in rules:
            state.add_rule(rule)
        codes = CodeLengthModel(dataset)
        batch = corrections(dataset, rules)
        expected = (
            codes.table_length(rules)
            + codes.correction_length(Side.LEFT, batch.correction_left)
            + codes.correction_length(Side.RIGHT, batch.correction_right)
        )
        assert state.total_length() == pytest.approx(expected, abs=1e-8)


class TestMiningCorrectness:
    @SETTINGS
    @given(datasets(max_n=15, max_items=5), st.integers(min_value=1, max_value=5))
    def test_eclat_matches_brute_force(self, dataset, minsup):
        matrix = dataset.left
        mined = dict(itemsets(BitMatrix.from_bool_columns(matrix), minsup, closed=False))
        expected = {}
        for size in range(1, matrix.shape[1] + 1):
            for itemset in itertools.combinations(range(matrix.shape[1]), size):
                support = int(matrix[:, itemset].all(axis=1).sum())
                if support >= minsup:
                    expected[itemset] = support
        assert mined == expected

    @SETTINGS
    @given(datasets(max_n=15, max_items=5), st.integers(min_value=1, max_value=4))
    def test_closed_are_support_maximal(self, dataset, minsup):
        bits = BitMatrix.from_bool_columns(dataset.left)
        frequent = dict(itemsets(bits, minsup, closed=False))
        closed = dict(itemsets(bits, minsup, closed=True))
        for itemset, support in closed.items():
            assert frequent.get(itemset) == support
            for other, other_support in frequent.items():
                if set(itemset) < set(other):
                    assert other_support < support


class TestEncodingProperties:
    @SETTINGS
    @given(datasets())
    def test_code_lengths_nonnegative(self, dataset):
        codes = CodeLengthModel(dataset)
        assert (codes.lengths_left[np.isfinite(codes.lengths_left)] >= 0).all()
        assert (codes.lengths_right[np.isfinite(codes.lengths_right)] >= 0).all()

    @SETTINGS
    @given(datasets_with_rules())
    def test_compression_of_added_rules_only_improves_when_gain_positive(
        self, payload
    ):
        dataset, rules = payload
        state = CoverState(dataset)
        for rule in rules:
            gain = state.gain(rule)
            before = state.total_length()
            state.add_rule(rule)
            if gain > 0:
                assert state.total_length() < before
            else:
                assert state.total_length() >= before - 1e-9


def greedy_zero_gain_dataset() -> TwoViewDataset:
    """10 rows, 2 left and 4 right items, on which ``best_direction``
    rounds the exact zero gain of ``{1} <-> {1, 3}`` up to +8.9e-16."""
    rng = np.random.default_rng(61)
    n = int(rng.integers(2, 21))
    n_left = int(rng.integers(1, 6))
    n_right = int(rng.integers(1, 6))
    density = rng.uniform(0.1, 0.7)
    left = rng.random((n, n_left)) < density
    right = rng.random((n, n_right)) < density
    return TwoViewDataset(left, right, name="greedy-zero-gain")


class TestGreedyProperties:
    @SETTINGS
    @given(datasets())
    @example(greedy_zero_gain_dataset())
    def test_every_greedy_rule_lowers_total_bits(self, dataset):
        result = TranslatorGreedy(minsup=1).fit(dataset)
        totals = [CoverState(dataset).total_length()]
        totals += [record.total_bits for record in result.history]
        assert all(after < before for before, after in zip(totals, totals[1:]))

    def test_greedy_rejects_a_rule_that_compresses_nothing(self):
        dataset = greedy_zero_gain_dataset()
        result = TranslatorGreedy(minsup=1).fit(dataset)
        assert result.n_rules == 0
        assert result.total_bits == CoverState(dataset).total_length()


class TestSerialisationRoundtrips:
    @SETTINGS
    @given(datasets())
    def test_dataset_io_roundtrip(self, tmp_path_factory, dataset):
        path = tmp_path_factory.mktemp("io") / "data.2v"
        save_dataset(dataset, path)
        assert load_dataset(path) == dataset

    @SETTINGS
    @given(datasets_with_rules())
    def test_table_json_roundtrip(self, payload):
        __, rules = payload
        table = TranslationTable(rules)
        assert TranslationTable.from_json(table.to_json()) == table


@pytest.mark.native_smoke
class TestSearchExactnessProperty:
    """The DFS search equals brute force on arbitrary small datasets, on
    every engine, and the engines agree bit for bit."""

    @SETTINGS
    @given(datasets(max_n=15, max_items=4))
    def test_search_matches_brute_force(self, dataset):
        from tests.test_search import (
            assert_backends_agree,
            brute_force_best,
            search_each_engine,
        )

        state = CoverState(dataset)
        __, expected = brute_force_best(state)
        outcomes = search_each_engine(state)
        for __, gain, stats in outcomes.values():
            assert gain == pytest.approx(expected, abs=1e-9)
            assert stats.complete
        assert_backends_agree(outcomes)

    @SETTINGS
    @given(datasets_with_rules(max_rules=3))
    def test_search_exact_after_arbitrary_rules(self, payload):
        from tests.test_search import (
            assert_backends_agree,
            brute_force_best,
            search_each_engine,
        )

        dataset, rules = payload
        if dataset.n_left > 4 or dataset.n_right > 4:
            return  # keep brute force tractable
        state = CoverState(dataset)
        for rule in rules:
            state.add_rule(rule)
        __, expected = brute_force_best(state)
        outcomes = search_each_engine(state)
        for __, gain, __ in outcomes.values():
            assert gain == pytest.approx(expected, abs=1e-9)
        assert_backends_agree(outcomes)
