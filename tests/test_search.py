"""Unit tests for the exact best-rule search (Section 5.2).

The reference implementation enumerates *all* co-occurring cross-view
itemset pairs by brute force and evaluates all three directions with the
cover state's gain function; the DFS search must return a rule achieving
the same maximum gain.  This independent oracle is what every fast path
of the search is checked against: the exactness tests run both
traversals (``SEARCH_BACKENDS``: numpy, and the C one when it compiles,
each selected through the ``engine`` switch of ``tests/conftest.py``)
and also require them to agree with each other bit for bit.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.data.dataset import Side, TwoViewDataset
from repro.core.rules import Direction, TranslationRule
from repro.core.search import ExactRuleSearch, SearchCache, _Quantized
from repro.core.state import CoverState
from repro.core.beam import TranslatorBeam
from repro.core.translator import TranslatorExact, TranslatorGreedy, TranslatorSelect
from tests.conftest import SEARCH_BACKENDS, engine, random_two_view


def brute_force_best(state: CoverState, max_size: int | None = None):
    """Enumerate every co-occurring (X, Y) pair and maximise the gain."""
    dataset = state.dataset
    best_gain = 0.0
    best_rule = None
    left_sets = []
    for size in range(1, dataset.n_left + 1):
        for items in itertools.combinations(range(dataset.n_left), size):
            if dataset.support_count(Side.LEFT, items) > 0:
                left_sets.append(items)
    right_sets = []
    for size in range(1, dataset.n_right + 1):
        for items in itertools.combinations(range(dataset.n_right), size):
            if dataset.support_count(Side.RIGHT, items) > 0:
                right_sets.append(items)
    for lhs in left_sets:
        for rhs in right_sets:
            if max_size is not None and len(lhs) + len(rhs) > max_size:
                continue
            if not dataset.joint_support_mask(lhs, rhs).any():
                continue
            for direction in Direction:
                rule = TranslationRule(lhs, rhs, direction)
                gain = state.gain(rule)
                if gain > best_gain:
                    best_gain = gain
                    best_rule = rule
    return best_rule, best_gain


def case_dataset(request, source) -> TwoViewDataset:
    """A fixture by name, a dataset factory, or a random dataset from
    ``(seed, n, items, density)``."""
    if isinstance(source, str):
        return request.getfixturevalue(source)
    if callable(source):
        return source()
    seed, n, n_items, density = source
    return random_two_view(
        np.random.default_rng(seed),
        n=n,
        n_left=n_items,
        n_right=n_items,
        density=density,
    )


def assert_matches_oracle(
    state, rule, gain, stats, expected_gain, budgeted=False
) -> None:
    """Check a search outcome against the brute-force optimum.

    An unbudgeted search completes and attains the optimum exactly.  A
    budgeted one is interrupted and need not, but its gap bound must be
    honest: ``gain + gap_bound`` dominates the optimum.
    """
    if budgeted:
        assert not stats.complete
        assert gain + stats.gap_bound >= expected_gain - 1e-9
    else:
        assert stats.complete
        assert stats.gap_bound == 0.0
        assert gain == pytest.approx(expected_gain, abs=1e-9)
    if gain > 0:
        assert rule is not None
        assert state.gain(rule) == pytest.approx(gain, abs=1e-9)


# Random datasets are ``(seed, n, items per view, density)``; the planted
# fixture's 10x10 views are searched up to size 3 to keep the oracle fast.
_FLAG_DATA = (123, 35, 5, 0.4)
EMPTY_TABLE_CASES = [
    *(pytest.param((seed, 25, 5, 0.35), {}, id=str(seed)) for seed in range(4)),
    *(pytest.param((seed, 40, 6, 0.35), {}, id=f"n40-{seed}") for seed in range(6)),
    pytest.param("toy_dataset", {}, id="toy"),
    pytest.param("planted_dataset", {"max_rule_size": 3}, id="planted"),
    pytest.param(_FLAG_DATA, {"use_rub": False}, id="no-rub"),
    pytest.param(_FLAG_DATA, {"use_qub": False}, id="no-qub"),
    pytest.param(_FLAG_DATA, {"order_items": False}, id="unordered"),
    pytest.param(_FLAG_DATA, {"seed_pairs": False}, id="no-seed"),
    pytest.param(
        _FLAG_DATA,
        {"use_rub": False, "use_qub": False, "order_items": False, "seed_pairs": False},
        id="no-pruning",
    ),
    pytest.param(_FLAG_DATA, {"max_rule_size": 2}, id="size2"),
    pytest.param(_FLAG_DATA, {"max_rule_size": 3}, id="size3"),
    pytest.param(_FLAG_DATA, {"max_nodes": 25}, id="budget25"),
    # Word edges of the packed supports (n = 0 has no code lengths, so
    # CoverState rejects it; tests/test_native.py runs the C traversal on
    # zero words), and searches with nothing to find.
    *(pytest.param((n, n, 5, 0.35), {}, id=f"n{n}") for n in (1, 63, 64, 65)),
    pytest.param(
        lambda: TwoViewDataset(
            np.random.default_rng(5).random((40, 5)) < 0.4, np.zeros((40, 0), bool)
        ),
        {}, id="empty-view",
    ),
    pytest.param(
        lambda: TwoViewDataset(np.zeros((30, 4), bool), np.zeros((30, 3), bool)),
        {}, id="empty-universe",
    ),
]


def search_each_engine(state: CoverState, **options) -> dict:
    """``find_best_rule`` outcomes keyed by every engine of ``SEARCH_BACKENDS``."""
    outcomes = {}
    for name in SEARCH_BACKENDS:
        with engine(name):
            outcomes[name] = ExactRuleSearch(state, **options).find_best_rule()
    return outcomes


def assert_backends_agree(outcomes: dict) -> None:
    """The traversals return the same rule, gain and statistics, bit for bit."""
    signatures = {
        (rule, repr(gain), dataclasses.astuple(dataclasses.replace(stats, backend="")))
        for rule, gain, stats in outcomes.values()
    }
    assert len(signatures) == 1, outcomes


@pytest.mark.native_smoke
class TestExactnessSmall:
    @pytest.mark.parametrize("source, options", EMPTY_TABLE_CASES)
    def test_matches_brute_force_empty_table(self, request, source, options):
        state = CoverState(case_dataset(request, source))
        __, expected_gain = brute_force_best(
            state, max_size=options.get("max_rule_size")
        )
        outcomes = search_each_engine(state, **options)
        for backend, (rule, gain, stats) in outcomes.items():
            assert stats.backend == backend
            assert_matches_oracle(
                state, rule, gain, stats, expected_gain,
                budgeted="max_nodes" in options,
            )
        assert_backends_agree(outcomes)

    @pytest.mark.parametrize("source, max_size, n_rules", [
        pytest.param((10, 25, 5, 0.4), None, 2, id="10"),
        pytest.param((11, 25, 5, 0.4), None, 2, id="11"),
        pytest.param("planted_dataset", 3, 3, id="planted"),
    ])
    def test_matches_brute_force_after_rules(self, request, source, max_size, n_rules):
        state = CoverState(case_dataset(request, source))
        # Compare every search of a greedy run of n_rules exact rules.
        for __ in range(n_rules + 1):
            __, expected_gain = brute_force_best(state, max_size=max_size)
            outcomes = search_each_engine(state, max_rule_size=max_size)
            for rule, gain, stats in outcomes.values():
                assert_matches_oracle(state, rule, gain, stats, expected_gain)
            assert_backends_agree(outcomes)
            rule = outcomes["numpy"][0]
            if rule is None:
                break
            state.add_rule(rule)

    def test_exact_fit_gains_match_brute_force(self):
        rng = np.random.default_rng(3)
        dataset = random_two_view(rng, n=40, n_left=6, n_right=6, density=0.35)
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                result = TranslatorExact().fit(dataset)
            assert result.converged and result.history
            assert {stats.backend for stats in result.search_stats} == {backend}
            state = CoverState(dataset)
            for record in result.history:
                __, expected_gain = brute_force_best(state)
                assert record.gain == pytest.approx(expected_gain, abs=1e-9)
                state.add_rule(record.rule)
            # The fit stopped because no rule with positive gain was left.
            assert brute_force_best(state)[1] == 0.0

    def test_structured_data_finds_planted_pattern(self, toy_dataset):
        state = CoverState(toy_dataset)
        rule, gain, __ = ExactRuleSearch(state).find_best_rule()
        assert rule is not None
        assert gain > 0
        # The dominant structure is {a,b} <-> {u}.
        a = toy_dataset.item_index(Side.LEFT, "a")
        b = toy_dataset.item_index(Side.LEFT, "b")
        u = toy_dataset.item_index(Side.RIGHT, "u")
        assert set(rule.lhs) <= {a, b}
        assert u in rule.rhs


class TestPruning:
    def test_ablations_do_not_change_result(self):
        rng = np.random.default_rng(5)
        dataset = random_two_view(rng, n=30, n_left=5, n_right=5, density=0.35)
        state = CoverState(dataset)
        reference_rule, reference_gain, __ = ExactRuleSearch(state).find_best_rule()
        for use_rub, use_qub, order_items in itertools.product((True, False), repeat=3):
            rule, gain, __ = ExactRuleSearch(
                state, use_rub=use_rub, use_qub=use_qub, order_items=order_items
            ).find_best_rule()
            assert gain == pytest.approx(reference_gain, abs=1e-9)

    def test_pruning_reduces_nodes(self):
        rng = np.random.default_rng(6)
        dataset = random_two_view(rng, n=40, n_left=7, n_right=7, density=0.3)
        state = CoverState(dataset)
        __, __, with_pruning = ExactRuleSearch(state).find_best_rule()
        __, __, without_pruning = ExactRuleSearch(
            state, use_rub=False
        ).find_best_rule()
        assert with_pruning.nodes_visited <= without_pruning.nodes_visited

    def test_max_rule_size(self):
        rng = np.random.default_rng(7)
        dataset = random_two_view(rng, n=30, n_left=6, n_right=6, density=0.4)
        state = CoverState(dataset)
        rule, gain, __ = ExactRuleSearch(state, max_rule_size=2).find_best_rule()
        if rule is not None:
            assert rule.size <= 2
        __, expected = brute_force_best(state, max_size=2)
        assert gain == pytest.approx(expected, abs=1e-9)

    def test_node_budget_anytime(self):
        rng = np.random.default_rng(8)
        dataset = random_two_view(rng, n=40, n_left=8, n_right=8, density=0.4)
        state = CoverState(dataset)
        rule, gain, stats = ExactRuleSearch(state, max_nodes=20).find_best_rule()
        assert stats.nodes_visited <= 21
        assert not stats.complete
        # Whatever was returned must be a real gain.
        if rule is not None:
            assert state.gain(rule) == pytest.approx(gain, abs=1e-9)

    def test_no_rule_on_tiny_noise(self):
        # A dataset with no repeated co-occurrences should yield no rule
        # with positive gain once rule costs are charged.
        dataset = TwoViewDataset(
            np.eye(4, dtype=bool), np.eye(4, dtype=bool)[:, ::-1]
        )
        state = CoverState(dataset)
        rule, gain, __ = ExactRuleSearch(state).find_best_rule()
        __, expected = brute_force_best(state)
        assert gain == pytest.approx(expected, abs=1e-9)


class TestSearchCache:
    def test_shared_cache_matches_private_cache(self, planted_dataset):
        cache = SearchCache(planted_dataset)
        shared = CoverState(planted_dataset, cache=cache)
        assert shared.cache is cache
        with_cache = ExactRuleSearch(shared).find_best_rule()
        without = ExactRuleSearch(CoverState(planted_dataset)).find_best_rule()
        assert with_cache == without

    def test_replay_builds_no_search_operands(self, planted_dataset):
        # Replaying rules builds no search operand.  A search on either
        # engine builds the co-occurrence grid for its pair seed and
        # nothing else: both traversals read the packed columns.
        for backend in SEARCH_BACKENDS:
            state = CoverState(planted_dataset)
            state.add_rule(TranslationRule((0,), (0,), Direction.BOTH))
            state.best_direction((1,), (1,))
            packed = set(vars(state.cache))
            assert "cooccur" not in packed
            with engine(backend):
                ExactRuleSearch(state, max_rule_size=2).find_best_rule()
            assert set(vars(state.cache)) - packed == {"cooccur"}, backend
            assert not hasattr(state.cache, "left_T")
            assert not hasattr(state.cache, "right_T")

    def test_cache_dataset_mismatch_rejected(self, planted_dataset):
        # Same shape, other rows: a shape check could not tell them apart.
        other = TwoViewDataset(
            planted_dataset.left[::-1].copy(), planted_dataset.right.copy()
        )
        fits = {
            "state": lambda cache: CoverState(other, cache=cache),
            "exact": lambda cache: TranslatorExact(max_rule_size=2).fit(
                other, cache=cache
            ),
            "select": lambda cache: TranslatorSelect(minsup=5).fit(other, cache=cache),
            "greedy": lambda cache: TranslatorGreedy(minsup=5).fit(other, cache=cache),
            "beam": lambda cache: TranslatorBeam(max_rule_size=3).fit(
                other, cache=cache
            ),
        }
        for name, fit in fits.items():
            with pytest.raises(ValueError, match="different dataset"):
                fit(SearchCache(planted_dataset))


@pytest.mark.native_smoke
class TestSeedPair:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_seed_matches_dense_grids(self, n):
        # The pair seed counts on packed words; the grids here come from
        # dense 0/1 matrices.  Starting from -inf, the seed must return
        # the first maximum of the first direction, whatever its sign.
        dataset = random_two_view(
            np.random.default_rng(n), n=n, n_left=5, n_right=6, density=0.4
        )
        state = CoverState(dataset)
        state.add_rule(TranslationRule((0,), (0,), Direction.BOTH))
        quantized = _Quantized(state)
        left = dataset.left.astype(np.int64)
        right = dataset.right.astype(np.int64)
        wq_left = quantized.wq_left.astype(np.int64)
        wq_right = quantized.wq_right.astype(np.int64)
        net_left = state.net_signs(Side.LEFT).astype(np.int64)
        net_right = state.net_signs(Side.RIGHT).astype(np.int64)
        one = int(quantized.one)
        forward = (left.T @ net_right.T) * wq_right[None, :]
        backward = (net_left @ right) * wq_left[:, None]
        lengths = wq_left[:, None] + wq_right[None, :]
        grids = (
            ("->", forward - lengths - 2 * one),
            ("<-", backward - lengths - 2 * one),
            ("<->", forward + backward - lengths - one),
        )
        cooccur = left.T @ right > 0
        for start in (0.0, -np.inf):
            expected_rule, expected_q = None, start
            for direction, grid in grids:
                for a, b in itertools.product(range(5), range(6)):
                    if cooccur[a, b] and grid[a, b] > expected_q:
                        expected_rule = TranslationRule((a,), (b,), direction)
                        expected_q = float(grid[a, b])
            for backend in SEARCH_BACKENDS:
                with engine(backend):
                    seeded = ExactRuleSearch(state)._seed_best_pair(
                        quantized, None, start
                    )
                assert seeded == (expected_rule, expected_q), backend
        assert expected_rule is not None


class TestStatsReporting:
    def test_stats_counters(self):
        rng = np.random.default_rng(9)
        dataset = random_two_view(rng, n=30, n_left=6, n_right=6, density=0.35)
        state = CoverState(dataset)
        __, __, stats = ExactRuleSearch(state).find_best_rule()
        assert stats.nodes_visited > 0
        assert stats.complete
        assert stats.evaluations + stats.evaluations_skipped_qub > 0
