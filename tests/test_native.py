"""Native kernel: build system, primitives, the C traversal, consumers.

Three layers of guarantees:

1. **Primitives** — every batch operation in :mod:`repro.core.bitset`
   (fused AND+popcount, fused subset test + consequent union,
   AND-reduce) agrees with a brute-force formulation on randomized
   inputs on both engines.
2. **Consumers** — the exact search's traversal (``NativeKernel.dfs``)
   and the compiled predictor's packed path return bit-identical
   results on both engines, the predictor picks its path from its own
   shape, and the stream buffer's tracked supports equal a recount of
   the window.
3. **Fallback contract** — ``REPRO_NATIVE_DISABLE=1`` makes a fresh
   process behave exactly like a compiler-less machine, fitting the same
   models on numpy, and publishing a model never loads the kernel.

The engine is picked the way the platform picks it, through the
``engine`` switch of ``tests/conftest.py``.  Everything native-specific
is skipped (not failed) when the toolchain is unavailable, so the suite
passes unchanged on a machine with no C compiler.
``pytest -m native_smoke`` runs this file together with the two-engine
oracle and checkpoint tests of the search.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.core import bitset
from repro.core.bitset import (
    BitMatrix,
    and_popcount_rows,
    and_reduce_many_rows,
    and_reduce_rows,
    fixed_weight_table,
    match_union_rows,
    n_words_for,
    pack_mask,
    unpack_mask,
)
from repro.core.translator import TranslatorExact
from repro.data.dataset import Side
from repro.data.synthetic import SyntheticSpec, generate_planted
from repro import obs
from repro.core.compiled import CompiledPredictor
from repro.core.rules import TranslationRule
from repro.stream.buffer import StreamBuffer
from tests.conftest import (
    SEARCH_BACKENDS,
    engine,
    oracle,
    path_outputs,
    random_two_view,
    rub_case,
)

pytestmark = pytest.mark.native_smoke

NATIVE_AVAILABLE = native.available()
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason=f"no native kernel: {native.native_error()}"
)


def _random_packed(rng, n_rows: int, n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Random Boolean rows and their packed words."""
    bools = rng.random((n_rows, n_bits)) < rng.random()
    words = BitMatrix.from_bool_rows(bools).words
    return bools, words


# ----------------------------------------------------------------------
# Build system
# ----------------------------------------------------------------------
class TestBuild:
    def test_availability_is_consistent(self):
        if NATIVE_AVAILABLE:
            kernel = native.load_kernel()
            assert kernel.abi_version == native.build.ABI_VERSION
            assert Path(kernel.path).is_file()
            assert native.native_error() is None
        else:
            with pytest.raises(native.NativeBuildError):
                native.load_kernel()
            assert native.native_error()

    @needs_native
    def test_build_is_cached_by_content(self):
        from repro.native.build import build_library

        first = build_library()
        second = build_library()
        assert first == second  # same content hash, no recompile

    @needs_native
    def test_build_info_reports_library(self):
        info = native.build_info()
        assert info["available"] is True
        assert info["compiler"]
        assert Path(str(info["library"])).suffix == ".so"

    def test_disable_env_simulates_no_compiler(self, tmp_path):
        # A fresh process with REPRO_NATIVE_DISABLE=1 must behave exactly
        # like a machine without a C toolchain: it searches on numpy and
        # fits the same model, with the same search statistics, as the C
        # traversal fits here.
        env = dict(os.environ)
        env["REPRO_NATIVE_DISABLE"] = "1"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import json\n"
            "from repro import native\n"
            "assert not native.available(), 'disable env ignored'\n"
            "from repro.core.translator import TranslatorExact\n"
            "from repro.data.synthetic import SyntheticSpec, generate_planted\n"
            "ds, _ = generate_planted(SyntheticSpec(n_transactions=300, seed=4))\n"
            "result = TranslatorExact(max_iterations=3, max_rule_size=3).fit(ds)\n"
            "print(json.dumps([\n"
            "    sorted({s.backend for s in result.search_stats}),\n"
            "    [[list(r.rule.lhs), list(r.rule.rhs), r.rule.direction.value,\n"
            "      repr(r.gain)] for r in result.history],\n"
            "    [[s.nodes_visited, s.nodes_pruned_rub, s.evaluations,\n"
            "      s.evaluations_skipped_qub] for s in result.search_stats],\n"
            "]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        backends, history, counters = json.loads(proc.stdout)
        assert backends == ["numpy"]
        dataset, __ = generate_planted(SyntheticSpec(n_transactions=300, seed=4))
        here = TranslatorExact(max_iterations=3, max_rule_size=3).fit(dataset)
        assert {s.backend for s in here.search_stats} == {
            "native" if NATIVE_AVAILABLE else "numpy"
        }
        assert history == [
            [list(r.rule.lhs), list(r.rule.rhs), r.rule.direction.value, repr(r.gain)]
            for r in here.history
        ]
        assert counters == [
            [s.nodes_visited, s.nodes_pruned_rub, s.evaluations,
             s.evaluations_skipped_qub]
            for s in here.search_stats
        ]


# ----------------------------------------------------------------------
# Primitives: numpy reference vs brute force, native vs numpy
# ----------------------------------------------------------------------
class TestPrimitives:
    @pytest.mark.parametrize("seed", range(8))
    def test_primitives_match_brute_force_and_each_other(self, seed):
        rng = np.random.default_rng(seed)
        n_bits = int(rng.integers(0, 300))
        n_rows = int(rng.integers(0, 10))
        bools, rows = _random_packed(rng, n_rows, n_bits)
        mask_bool = rng.random(n_bits) < 0.5
        mask = pack_mask(mask_bool)
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                counts = and_popcount_rows(rows, mask)
                plain = and_popcount_rows(rows)
            assert np.array_equal(counts, (bools & mask_bool).sum(axis=1))
            assert np.array_equal(plain, bools.sum(axis=1))

    @pytest.mark.parametrize("seed", range(8))
    def test_subset_union_primitives(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_bits = int(rng.integers(0, 200))
        n_rows = int(rng.integers(0, 9))
        n_sets = int(rng.integers(0, 7))
        bools, rows = _random_packed(rng, n_rows, n_bits)
        set_bools = rng.random((n_sets, n_bits)) < 0.2
        sets = BitMatrix.from_bool_rows(set_bools).words
        n_tgt = int(rng.integers(0, 150))
        cons_bools = rng.random((n_sets, n_tgt)) < 0.3
        cons = BitMatrix.from_bool_rows(cons_bools).words

        brute_fired = np.array(
            [
                [bool((~row & s).sum() == 0) for s in set_bools]
                for row in bools
            ],
            dtype=bool,
        ).reshape(n_rows, n_sets)
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                union = match_union_rows(rows, sets, cons)
            for i in range(n_rows):
                expected = np.zeros(n_tgt, dtype=bool)
                for r in range(n_sets):
                    if brute_fired[i, r]:
                        expected |= cons_bools[r]
                assert np.array_equal(unpack_mask(union[i], n_tgt), expected), backend

    @pytest.mark.parametrize("seed", range(6))
    def test_and_reduce(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_bits = int(rng.integers(1, 300))
        n_rows = int(rng.integers(1, 8))
        bools, rows = _random_packed(rng, n_rows, n_bits)
        expected = np.logical_and.reduce(bools, axis=0)
        region, count = and_reduce_rows(rows)
        assert count == int(expected.sum())
        assert np.array_equal(unpack_mask(region, n_bits), expected)
        if NATIVE_AVAILABLE:
            # The region is a subset of every row it was reduced from.
            masked = native.load_kernel().and_popcount(rows, region)
            assert np.array_equal(masked, np.full(n_rows, count))
        with pytest.raises(ValueError):
            and_reduce_rows(np.zeros((0, 2), dtype=np.uint64))

    @pytest.mark.parametrize("seed", range(6))
    def test_and_reduce_many(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_bits = int(rng.integers(0, 300))
        sizes = [int(rng.integers(1, 5)) for __ in range(int(rng.integers(0, 6)))]
        bools, rows = _random_packed(rng, sum(sizes), n_bits)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        regions, counts = and_reduce_many_rows(rows, offsets)
        assert regions.shape[0] == len(sizes)
        for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
            expected = (
                np.logical_and.reduce(bools[lo:hi], axis=0)
                if n_bits
                else np.zeros(0, dtype=bool)
            )
            assert counts[g] == int(expected.sum())
            assert np.array_equal(unpack_mask(regions[g], n_bits), expected)
        if NATIVE_AVAILABLE:
            assert np.array_equal(native.load_kernel().and_popcount(regions), counts)
        with pytest.raises(ValueError, match="non-empty"):
            and_reduce_many_rows(rows, np.array([0, 0, rows.shape[0]]))
        with pytest.raises(ValueError, match="offsets"):
            and_reduce_many_rows(rows, np.array([1]))

    @needs_native
    def test_fixed_weight_table_layout(self):
        weights = np.arange(70, dtype=np.float64)
        table = fixed_weight_table(weights)
        assert table.shape == (n_words_for(70) * 64,)
        assert np.array_equal(table[:70], np.arange(70))
        assert not table[70:].any()


# ----------------------------------------------------------------------
# Consumer 1: the exact search
# ----------------------------------------------------------------------
class TestSearchBackends:
    def _fingerprint(self, result):
        return (
            tuple((record.rule, record.gain) for record in result.history),
            tuple(
                (
                    stats.nodes_visited,
                    stats.nodes_pruned_rub,
                    stats.evaluations,
                    stats.evaluations_skipped_qub,
                    stats.complete,
                    repr(stats.gap_bound),
                )
                for stats in result.search_stats
            ),
        )

    @needs_native
    @pytest.mark.parametrize(
        "case", [*range(4), "dense", "sparse", "n=1", "n=9", "n=65"]
    )
    def test_search_backends_bit_identical(self, case):
        # The seeds are planted datasets; "dense" and "sparse" are the two
        # ends of rub pruning (tests/conftest.py rub_case), where the C
        # traversal defers nearly every tub mass or sums nearly every one;
        # "n=1", "n=9" and "n=65" put the last transaction on the byte and
        # word edges of the numpy traversal's per-byte mass tables.  All
        # but the seeds are searched whole and with a budget break after
        # 1, 7 and 100 nodes.
        if case in ("dense", "sparse"):
            dataset, budgets = rub_case(case), (None, 1, 7, 100)
        elif isinstance(case, str):
            n = int(case.removeprefix("n="))
            dataset = random_two_view(
                np.random.default_rng(n), n=n, n_left=8, n_right=8, density=0.5
            )
            budgets = (None, 1, 7, 100)
        else:
            dataset, __ = generate_planted(
                SyntheticSpec(
                    n_transactions=int(80 + 60 * case),
                    n_left=10,
                    n_right=11,
                    density_left=0.25 + 0.1 * (case % 3),
                    density_right=0.35,
                    n_rules=4,
                    seed=case,
                )
            )
            budgets = (None,)
        for budget in budgets:
            results = {}
            for backend in ("numpy", "native"):
                with engine(backend):
                    results[backend] = TranslatorExact(
                        max_iterations=3, max_rule_size=3, max_nodes_per_search=budget
                    ).fit(dataset)
            assert self._fingerprint(results["numpy"]) == self._fingerprint(
                results["native"]
            )
            assert results["native"].search_stats[0].backend == "native"

    def test_popcount_fallback_matches_bitwise_count(self, monkeypatch):
        # numpy < 2.0 has no np.bitwise_count: popcount_rows then counts
        # bytes through _POPCOUNT8.  It reduces the last axis of 2-D to
        # 4-D word arrays, and the numpy traversal counts only through it,
        # so a fit with np.bitwise_count gone fits the same model.
        if not hasattr(np, "bitwise_count"):
            pytest.skip("numpy without bitwise_count runs the fallback anyway")
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**64, size=(3, 4, 2, 5), dtype=np.uint64)
        samples = [words[0, 0], words[0], words, words[:0, :, :, :]]
        expected = [np.bitwise_count(sample).sum(axis=-1) for sample in samples]
        dataset = random_two_view(rng, n=70, n_left=8, n_right=8, density=0.4)

        def fit():
            with engine("numpy"):
                return TranslatorExact(
                    max_iterations=3, max_rule_size=3, max_nodes_per_search=100
                ).fit(dataset)

        fitted = fit()
        monkeypatch.setattr(bitset, "_HAS_BITWISE_COUNT", False)
        monkeypatch.delattr(np, "bitwise_count")
        for sample, counts in zip(samples, expected):
            np.testing.assert_array_equal(bitset.popcount_rows(sample), counts)
        assert self._fingerprint(fit()) == self._fingerprint(fitted)

    @needs_native
    def test_sharded_native_search_matches_serial(self):
        dataset, __ = generate_planted(
            SyntheticSpec(n_transactions=220, n_left=12, n_right=12, seed=5)
        )
        with engine("native"):
            serial = TranslatorExact(max_iterations=2, max_rule_size=3).fit(dataset)
            sharded = TranslatorExact(
                max_iterations=2, max_rule_size=3, n_jobs=3
            ).fit(dataset)
        assert {s.backend for s in sharded.search_stats} == {"native"}
        assert [(r.rule, r.gain) for r in serial.history] == [
            (r.rule, r.gain) for r in sharded.history
        ]

    @needs_native
    def test_unbounded_rule_size_and_budget(self):
        dataset, __ = generate_planted(
            SyntheticSpec(n_transactions=90, n_left=8, n_right=8, seed=9)
        )
        for kwargs in (
            {"max_rule_size": None, "max_iterations": 2},
            {"max_rule_size": 4, "max_iterations": 2, "max_nodes_per_search": 200},
        ):
            fits = {}
            for backend in ("numpy", "native"):
                with engine(backend):
                    fits[backend] = TranslatorExact(**kwargs).fit(dataset)
            assert self._fingerprint(fits["numpy"]) == self._fingerprint(
                fits["native"]
            )


    @needs_native
    def test_auto_runs_the_c_traversal_at_every_size(self):
        # No row-count crossover: wherever the kernel builds, the search
        # runs natively on tiny and on large inputs alike.
        from repro.core.search import ExactRuleSearch
        from repro.core.state import CoverState

        for n in (60, 2100):
            dataset, __ = generate_planted(SyntheticSpec(n_transactions=n, seed=n))
            __, __, stats = ExactRuleSearch(
                CoverState(dataset), max_rule_size=2
            ).find_best_rule()
            assert stats.backend == "native"

    @needs_native
    def test_dfs_on_empty_inputs(self):
        # Zero transactions (zero words) and an empty universe: nothing
        # to visit, the incumbent stands, nothing is read out of bounds.
        kernel = native.load_kernel()
        for n_words in (0, 2):
            rows = np.zeros((0, n_words), dtype=np.uint64)
            outcome = kernel.dfs(
                rows, rows, rows,
                np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                fixed_weight_table(np.zeros(64 * n_words)),
                fixed_weight_table(np.zeros(64 * n_words)),
                np.zeros(n_words, dtype=np.uint64),
                one=1 << 20, best_q=7, counters=(0, 0, 0, 0), root=(0, 0),
            )
            assert outcome.status == "complete"
            assert (outcome.best, outcome.best_q, outcome.counters) == (
                None, 7, (0, 0, 0, 0),
            )

    @needs_native
    def test_dfs_rejects_unsafe_arguments(self):
        kernel = native.load_kernel()
        rows = np.zeros((2, 1), dtype=np.uint64)
        args = (
            rows, rows, rows, np.zeros(2, dtype=np.int64), np.ones(2, dtype=np.int64),
            fixed_weight_table(np.zeros(64)), fixed_weight_table(np.zeros(64)),
            np.zeros(1, dtype=np.uint64),
        )
        common = {"one": 1, "best_q": 0, "counters": (0, 0, 0, 0)}
        with pytest.raises(ValueError, match="root range"):
            kernel.dfs(*args, root=(0, 3), **common)
        with pytest.raises(ValueError, match="cursors"):
            kernel.dfs(*args, root=(0, 2), path=(0,), cursors=(1,), **common)
        with pytest.raises(ValueError, match="cursors"):
            kernel.dfs(*args, root=(0, 2), path=(), cursors=(-1,), **common)
        with pytest.raises(ValueError, match="max_rule_size"):
            kernel.dfs(*args, root=(0, 2), max_rule_size=0, **common)
        with pytest.raises(ValueError, match="sides"):
            kernel.dfs(
                args[0], args[1], args[2], np.array([0, 2]), *args[4:],
                root=(0, 2), **common,
            )
        deep = kernel.dfs(
            *args, root=(0, 2), max_rule_size=1, path=(0,), cursors=(1, 0), **common
        )
        assert deep.status == "too_deep"
        # The kernel skips a tub mass whenever the rest of rub clears the
        # incumbent, which is exact only for masses >= 0.
        negative = fixed_weight_table(np.r_[0.0, -1.0, np.zeros(62)])
        for tables in ((negative, args[6]), (args[5], negative)):
            with pytest.raises(ValueError, match="non-negative"):
                kernel.dfs(*args[:5], *tables, args[7], root=(0, 2), **common)


# ----------------------------------------------------------------------
# Consumer 2: the compiled predictor's packed path and its selection
# ----------------------------------------------------------------------
def _match_union_dispatches(predictor, matrix) -> float:
    """``match_union_rows`` dispatches (either engine) of one ``predict``."""
    registry = obs.MetricsRegistry()
    obs.instrument(registry=registry)
    try:
        predictor.predict(matrix)
    finally:
        obs.instrument(enabled=False)
    __, samples = obs.parse_exposition(registry.render())
    return sum(
        value
        for name, labels, value in samples
        if name == "repro_bitset_dispatch_total"
        and labels.get("op") == "match_union_rows"
    )


class TestCompiledBackends:
    def _compiled(self, seed, n_src=17, n_rules=9):
        rng = np.random.default_rng(seed)
        n_tgt = 13
        rules = []
        for __ in range(n_rules):
            lhs = tuple(
                sorted(rng.choice(n_src, size=rng.integers(1, 4), replace=False))
            )
            rhs = tuple(
                sorted(rng.choice(n_tgt, size=rng.integers(1, 3), replace=False))
            )
            rules.append(
                TranslationRule(lhs, rhs, rng.choice(["->", "<-", "<->"]))
            )
        return (
            CompiledPredictor.from_table(rules, Side.RIGHT, n_src, n_tgt),
            rules,
            rng.random((33, n_src)) < 0.4,
        )

    @needs_native
    @pytest.mark.parametrize("seed", range(4))
    def test_packed_backends_bit_identical(self, seed):
        predictor, rules, matrix = self._compiled(seed)
        expected = oracle(matrix, rules, Side.RIGHT, predictor.n_target_items)
        for path in ("blas", "packed"):
            for label, output in path_outputs(predictor, path, matrix):
                assert np.array_equal(output, expected), label

    def test_blas_guard_dispatches_auto_to_packed(self, monkeypatch):
        import repro.core.compiled as compiled_module

        monkeypatch.setattr(compiled_module, "_FLOAT32_EXACT_MAX", 8)
        with pytest.warns(UserWarning, match="predicts on the packed path"):
            predictor, rules, matrix = self._compiled(0)
        assert not predictor.blas_exact
        expected = oracle(matrix, rules, Side.RIGHT, predictor.n_target_items)
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                assert np.array_equal(predictor.predict(matrix), expected), backend

    def test_blas_guard_is_quiet_within_bounds(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predictor, __, matrix = self._compiled(1)
        assert predictor.blas_exact
        assert np.array_equal(
            predictor.predict(matrix), predictor._predict_blas(matrix)
        )

    @needs_native
    @pytest.mark.serve_smoke
    def test_selection_follows_antecedent_words_not_rows(self, monkeypatch):
        # A one-word model stays on blas even at 4,096 rows; a 512-rule
        # model over 2,048 items takes the packed path from 8 rows; with
        # no kernel both stay on blas; past the blas guard both engines
        # run packed.
        narrow, __, __ = self._compiled(0)
        wide, __, __ = self._compiled(1, n_src=2048, n_rules=512)
        rng = np.random.default_rng(4)
        narrow_rows = rng.random((4096, narrow.n_source_items)) < 0.4
        wide_rows = rng.random((8, wide.n_source_items)) < 0.05
        with engine("native"):
            assert _match_union_dispatches(narrow, narrow_rows) == 0
            assert _match_union_dispatches(wide, wide_rows) == 1
        with engine("numpy"):
            assert _match_union_dispatches(narrow, narrow_rows) == 0
            assert _match_union_dispatches(wide, wide_rows) == 0
        import repro.core.compiled as compiled_module

        monkeypatch.setattr(compiled_module, "_FLOAT32_EXACT_MAX", 8)
        with pytest.warns(UserWarning, match="packed path"):
            guarded, __, matrix = self._compiled(0)
        for backend in ("native", "numpy"):
            with engine(backend):
                assert _match_union_dispatches(guarded, matrix) == 1, backend

    def test_publishing_never_loads_the_kernel(self, tmp_path, monkeypatch):
        # Publishing compiles the table for the mmap sidecar; the
        # predictor looks the kernel up only when it predicts, so a
        # publish never probes the toolchain.
        from repro.serve import ModelArtifact, ModelRegistry

        dataset, __ = generate_planted(SyntheticSpec(n_transactions=120, seed=2))
        result = TranslatorExact(max_iterations=3, max_rule_size=2).fit(dataset)
        assert result.n_rules
        calls = []
        load_kernel = native.load_kernel

        def counting_load_kernel():
            calls.append(1)
            return load_kernel()

        monkeypatch.setattr(native, "load_kernel", counting_load_kernel)
        registry = ModelRegistry(tmp_path)
        published = registry.publish(ModelArtifact.from_result("demo", dataset, result))
        assert registry.sidecar_path("demo", published.version).is_file()
        assert calls == []


# ----------------------------------------------------------------------
# Consumer 3: the stream buffer's tracked supports (numpy)
# ----------------------------------------------------------------------
class TestStreamBackends:
    @pytest.mark.parametrize("seed", range(4))
    def test_tracked_supports_bit_identical(self, seed):
        # After every append and evict, each tracker's incremental count
        # and words equal a recount of the live window.
        rng = np.random.default_rng(seed)
        buffer = StreamBuffer(n_left=7, n_right=6)
        trackers = [buffer.track(Side.LEFT, (0, 2)), buffer.track(Side.RIGHT, (1,))]
        for step in range(60):
            k = int(rng.integers(0, 5))
            buffer.append(rng.random((k, 7)) < 0.4, rng.random((k, 6)) < 0.5)
            if rng.random() < 0.4 and len(buffer):
                buffer.evict(int(rng.integers(0, len(buffer) + 1)))
            window = buffer.window_dataset()
            for tracker in trackers:
                view = window.left if tracker.side is Side.LEFT else window.right
                expected = int(view[:, list(tracker.items)].all(axis=1).sum())
                assert tracker.count == expected, f"step {step}"
                columns = buffer._store(tracker.side).words[list(tracker.items)]
                assert np.array_equal(
                    tracker.words, np.bitwise_and.reduce(columns, axis=0)
                ), f"step {step}"

    @needs_native
    def test_refit_context_native_matches_batch_fit(self):
        rng = np.random.default_rng(11)
        buffer = StreamBuffer(n_left=9, n_right=9)
        buffer.append(rng.random((140, 9)) < 0.4, rng.random((140, 9)) < 0.4)
        buffer.evict(30)
        dataset, cache = buffer.refit_context()
        with engine("native"):
            incremental = TranslatorExact(max_iterations=2, max_rule_size=3).fit(
                dataset, cache=cache
            )
        with engine("numpy"):
            batch = TranslatorExact(max_iterations=2, max_rule_size=3).fit(
                buffer.window_dataset()
            )
        assert {s.backend for s in incremental.search_stats} == {"native"}
        assert [(r.rule, r.gain) for r in incremental.history] == [
            (r.rule, r.gain) for r in batch.history
        ]
