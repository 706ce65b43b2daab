"""Bit-identity of the sharded (``n_jobs > 1``) search and beam paths.

Companion to the brute-force tests in ``tests/test_search.py``: where
those pin the serial search to the independent oracle, this file pins
the serial / sharded equivalence.  The contract (see
:mod:`repro.core.search`) is that the *returned rule and gain* — and
therefore every fitted model — are bit-identical to ``n_jobs=1``;
pruning statistics may legitimately differ (shards explore with weaker
incumbents), so they are not compared.  Every check runs on both search
engines (``SEARCH_BACKENDS``, selected through the ``engine`` switch of
``tests/conftest.py``); the C traversal's shards run truly in parallel,
since each is one GIL-releasing call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given

from repro.core.beam import TranslatorBeam
from repro.core.search import ExactRuleSearch
from repro.core.state import CoverState
from repro.core.translator import TranslatorExact
from repro.runtime.executor import ParallelExecutor
from tests.conftest import SEARCH_BACKENDS, engine, random_two_view
from tests.test_properties import SETTINGS, datasets


def best_rule(state, backend, **kwargs):
    with engine(backend):
        return ExactRuleSearch(state, **kwargs).find_best_rule()


@pytest.mark.native_smoke
class TestShardedSearchIdentity:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_datasets(self, seed):
        rng = np.random.default_rng(seed)
        dataset = random_two_view(rng, n=45, n_left=6, n_right=6, density=0.35)
        state = CoverState(dataset)
        for backend in SEARCH_BACKENDS:
            serial_rule, serial_gain, __ = best_rule(state, backend=backend)
            for n_jobs in (2, 3):
                rule, gain, stats = best_rule(state, n_jobs=n_jobs, backend=backend)
                assert (rule, gain) == (serial_rule, serial_gain), backend
                assert stats.shards > 1

    def test_after_rules_added(self, planted_dataset):
        state = CoverState(planted_dataset)
        for __ in range(3):
            serial_rule, serial_gain, __stats = best_rule(state, backend="numpy")
            for backend in SEARCH_BACKENDS:
                rule, gain, __stats = best_rule(state, n_jobs=4, backend=backend)
                assert (rule, gain) == (serial_rule, serial_gain), backend
            if serial_rule is None:
                break
            state.add_rule(serial_rule)

    @pytest.mark.parametrize("flags", [
        {"use_rub": False},
        {"use_qub": False},
        {"order_items": False},
        {"seed_pairs": False},
        {"max_rule_size": 2},
        {"max_rule_size": 4},
    ])
    def test_flags(self, flags):
        rng = np.random.default_rng(77)
        dataset = random_two_view(rng, n=40, n_left=5, n_right=5, density=0.4)
        state = CoverState(dataset)
        serial = best_rule(state, backend="numpy", **flags)[:2]
        for backend in SEARCH_BACKENDS:
            sharded = best_rule(state, n_jobs=3, backend=backend, **flags)[:2]
            assert serial == sharded, backend

    @SETTINGS
    @given(datasets(max_n=15, max_items=4))
    def test_hypothesis_datasets(self, dataset):
        state = CoverState(dataset)
        serial = best_rule(state, backend="numpy")[:2]
        for backend in SEARCH_BACKENDS:
            assert best_rule(state, n_jobs=2, backend=backend)[:2] == serial, backend

    def test_node_budget_forces_serial(self, planted_dataset):
        state = CoverState(planted_dataset)
        for backend in SEARCH_BACKENDS:
            serial = best_rule(state, max_nodes=100, backend=backend)
            with pytest.warns(UserWarning, match="n_jobs=4 is ignored"):
                budgeted = best_rule(state, max_nodes=100, n_jobs=4, backend=backend)
            # Anytime budgets are order-dependent: the sharded path must
            # refuse to engage, returning the serial outcome exactly,
            # statistics included.
            assert budgeted[:2] == serial[:2]
            assert budgeted[2].shards == 1
            assert budgeted[2].nodes_visited == serial[2].nodes_visited

    def test_explicit_executor_is_used(self, planted_dataset):
        state = CoverState(planted_dataset)
        executor = ParallelExecutor(n_jobs=2, backend="thread", chunk_size=1)
        serial = best_rule(state, backend="numpy")[:2]
        for backend in SEARCH_BACKENDS:
            via_executor = best_rule(state, executor=executor, backend=backend)[:2]
            assert via_executor == serial, backend


class TestTranslatorParallelIdentity:
    @pytest.mark.native_smoke
    def test_exact_fit_identical(self, planted_dataset):
        with engine("numpy"):
            serial = TranslatorExact(max_rule_size=3).fit(planted_dataset)
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                sharded = TranslatorExact(max_rule_size=3, n_jobs=4).fit(
                    planted_dataset
                )
            assert [(r.rule, r.gain) for r in serial.history] == [
                (r.rule, r.gain) for r in sharded.history
            ], backend
            assert serial.total_bits == sharded.total_bits
            assert all(stats.shards > 1 for stats in sharded.search_stats)

    def test_beam_fit_identical(self, planted_dataset):
        serial = TranslatorBeam(max_iterations=3).fit(planted_dataset)
        for n_jobs in (2, 4):
            parallel = TranslatorBeam(max_iterations=3, n_jobs=n_jobs).fit(
                planted_dataset
            )
            assert list(serial.table) == list(parallel.table)
            assert [r.gain for r in serial.history] == [
                r.gain for r in parallel.history
            ]

    def test_sweep_cells_can_shard_their_fits(self, planted_dataset):
        # n_jobs rides through the sweep engine's params like any other
        # constructor argument.
        from repro.runtime.sweep import SweepTask, run_sweep

        spec = {
            "synthetic": {
                "n_transactions": 80, "n_left": 6, "n_right": 6, "n_rules": 3,
            }
        }
        serial_task = SweepTask(
            dataset=spec, method="exact", params={"max_rule_size": 3}
        )
        sharded_task = SweepTask(
            dataset=spec, method="exact",
            params={"max_rule_size": 3, "n_jobs": 2},
        )
        serial, sharded = run_sweep([serial_task, sharded_task]).results
        assert serial["rules"] == sharded["rules"]
        assert serial["compression_ratio"] == sharded["compression_ratio"]
