"""Native kernel: build system, primitives, the C traversal, consumers.

Three layers of guarantees:

1. **Primitives** — every backend-dispatched operation in
   :mod:`repro.core.bitset` (fused AND+popcount, subset match, weighted
   OR/union, AND-reduce) agrees with a brute-force formulation on
   randomized inputs, and the native C kernel agrees with the numpy
   reference bit for bit.
2. **Consumers** — the three wired call sites (the exact search's
   traversal, ``NativeKernel.dfs``; the compiled predictor's packed
   strategy; the stream buffer's tracked supports) return bit-identical
   results under ``backend="numpy"`` and ``backend="native"``.
3. **Fallback contract** — ``backend="auto"`` resolves without raising
   whether or not a C toolchain exists, explicit ``"native"`` raises a
   clear error when it does not, and ``REPRO_NATIVE_DISABLE=1`` makes a
   fresh process behave exactly like a compiler-less machine, fitting
   the same models on numpy.

Everything native-specific is skipped (not failed) when the toolchain
is unavailable, so the suite passes unchanged on a machine with no C
compiler.  ``pytest -m native_smoke`` runs this file together with the
two-backend oracle and checkpoint tests of the search.
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
    or_union_rows,
    pack_mask,
    resolve_backend,
    subset_match_rows,
    unpack_mask,
)
from repro.core.translator import TranslatorExact
from repro.data.dataset import Side
from repro.data.synthetic import SyntheticSpec, generate_planted
from repro.serve.compiled import CompiledPredictor
from repro.stream.buffer import StreamBuffer

pytestmark = pytest.mark.native_smoke

NATIVE_AVAILABLE = native.available()
needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason=f"no native kernel: {native.native_error()}"
)

BACKENDS = ["numpy"] + (["native"] if NATIVE_AVAILABLE else [])


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

    def test_resolve_backend_validates(self):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("cuda")
        assert resolve_backend("numpy") == "numpy"
        assert resolve_backend("auto") in ("numpy", "native")

    def test_explicit_native_raises_without_toolchain(self, monkeypatch):
        monkeypatch.setattr(bitset, "_native_available", lambda: False)
        assert resolve_backend("auto") == "numpy"
        with pytest.raises(RuntimeError, match="native backend requested"):
            resolve_backend("native")

    def test_env_can_pin_auto_to_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend("auto") == "numpy"

    def test_env_native_preference_still_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "native")
        monkeypatch.setattr(bitset, "_native_available", lambda: True)
        assert resolve_backend("auto") == "native"
        monkeypatch.setattr(bitset, "_native_available", lambda: False)
        assert resolve_backend("auto") == "numpy"  # never raises for auto

    def test_env_typo_is_rejected_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpyy")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            resolve_backend("auto")

    def test_disable_env_simulates_no_compiler(self, tmp_path):
        # A fresh process with REPRO_NATIVE_DISABLE=1 must behave exactly
        # like a machine without a C toolchain: auto falls back to numpy
        # and fits the same model, with the same search statistics, as
        # the C traversal fits here.
        env = dict(os.environ)
        env["REPRO_NATIVE_DISABLE"] = "1"
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        script = (
            "import json\n"
            "from repro.core.bitset import resolve_backend\n"
            "from repro import native\n"
            "assert not native.available(), 'disable env ignored'\n"
            "assert resolve_backend('auto') == 'numpy'\n"
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
        for backend in BACKENDS:
            counts = and_popcount_rows(rows, mask, backend=backend)
            assert np.array_equal(counts, (bools & mask_bool).sum(axis=1))
            plain = and_popcount_rows(rows, backend=backend)
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
        for backend in BACKENDS:
            fired = subset_match_rows(rows, sets, backend=backend)
            assert np.array_equal(fired, brute_fired)
            union = or_union_rows(fired, cons, backend=backend)
            fused = match_union_rows(rows, sets, cons, backend=backend)
            assert np.array_equal(union, fused)
            for i in range(n_rows):
                expected = np.zeros(n_tgt, dtype=bool)
                for r in range(n_sets):
                    if brute_fired[i, r]:
                        expected |= cons_bools[r]
                assert np.array_equal(unpack_mask(union[i], n_tgt), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_and_reduce(self, seed):
        rng = np.random.default_rng(200 + seed)
        n_bits = int(rng.integers(1, 300))
        n_rows = int(rng.integers(1, 8))
        bools, rows = _random_packed(rng, n_rows, n_bits)
        expected = np.logical_and.reduce(bools, axis=0)
        for backend in BACKENDS:
            region, count = and_reduce_rows(rows, backend=backend)
            assert count == int(expected.sum())
            assert np.array_equal(unpack_mask(region, n_bits), expected)
        with pytest.raises(ValueError):
            and_reduce_rows(np.zeros((0, 2), dtype=np.uint64), backend="numpy")

    @pytest.mark.parametrize("seed", range(6))
    def test_and_reduce_many(self, seed):
        rng = np.random.default_rng(300 + seed)
        n_bits = int(rng.integers(0, 300))
        sizes = [int(rng.integers(1, 5)) for __ in range(int(rng.integers(0, 6)))]
        bools, rows = _random_packed(rng, sum(sizes), n_bits)
        offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        for backend in BACKENDS:
            regions, counts = and_reduce_many_rows(rows, offsets, backend=backend)
            assert regions.shape[0] == len(sizes)
            for g, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                expected = (
                    np.logical_and.reduce(bools[lo:hi], axis=0)
                    if n_bits
                    else np.zeros(0, dtype=bool)
                )
                assert counts[g] == int(expected.sum())
                assert np.array_equal(unpack_mask(regions[g], n_bits), expected)
        with pytest.raises(ValueError, match="non-empty"):
            and_reduce_many_rows(
                rows, np.array([0, 0, rows.shape[0]]), backend="numpy"
            )
        with pytest.raises(ValueError, match="offsets"):
            and_reduce_many_rows(rows, np.array([1]), backend="numpy")

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
                )
                for stats in result.search_stats
            ),
        )

    @needs_native
    @pytest.mark.parametrize("seed", range(4))
    def test_search_backends_bit_identical(self, seed):
        dataset, __ = generate_planted(
            SyntheticSpec(
                n_transactions=int(80 + 60 * seed),
                n_left=10,
                n_right=11,
                density_left=0.25 + 0.1 * (seed % 3),
                density_right=0.35,
                n_rules=4,
                seed=seed,
            )
        )
        results = {
            backend: TranslatorExact(
                max_iterations=3, max_rule_size=3, backend=backend
            ).fit(dataset)
            for backend in ("numpy", "native")
        }
        assert self._fingerprint(results["numpy"]) == self._fingerprint(
            results["native"]
        )
        assert results["native"].search_stats[0].backend == "native"

    @needs_native
    def test_sharded_native_search_matches_serial(self):
        dataset, __ = generate_planted(
            SyntheticSpec(n_transactions=220, n_left=12, n_right=12, seed=5)
        )
        serial = TranslatorExact(
            max_iterations=2, max_rule_size=3, backend="native"
        ).fit(dataset)
        sharded = TranslatorExact(
            max_iterations=2, max_rule_size=3, backend="native", n_jobs=3
        ).fit(dataset)
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
            fits = {
                backend: TranslatorExact(backend=backend, **kwargs).fit(dataset)
                for backend in ("numpy", "native")
            }
            assert self._fingerprint(fits["numpy"]) == self._fingerprint(
                fits["native"]
            )


    @needs_native
    def test_auto_runs_the_c_traversal_at_every_size(self):
        # No row-count crossover: auto searches natively on tiny and on
        # large inputs alike.
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


# ----------------------------------------------------------------------
# Consumer 2: the compiled predictor's packed strategy
# ----------------------------------------------------------------------
class TestCompiledBackends:
    def _compiled(self, seed, backend):
        rng = np.random.default_rng(seed)
        from repro.core.rules import TranslationRule

        n_src, n_tgt = 17, 13
        rules = []
        for __ in range(9):
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
            CompiledPredictor(Side.RIGHT, n_src, n_tgt, rules, backend=backend),
            rng.random((33, n_src)) < 0.4,
        )

    @needs_native
    @pytest.mark.parametrize("seed", range(4))
    def test_packed_backends_bit_identical(self, seed):
        numpy_pred, matrix = self._compiled(seed, "numpy")
        native_pred, __ = self._compiled(seed, "native")
        assert numpy_pred.backend == "numpy"
        assert native_pred.backend == "native"
        blas = numpy_pred.predict(matrix, strategy="blas")
        for strategy_owner in (numpy_pred, native_pred):
            packed = strategy_owner.predict(matrix, strategy="packed")
            assert np.array_equal(packed, blas)
            fired = strategy_owner.matches(matrix, strategy="packed")
            assert np.array_equal(
                fired, numpy_pred.matches(matrix, strategy="blas")
            )

    def test_blas_guard_dispatches_auto_to_packed(self, monkeypatch):
        import repro.serve.compiled as compiled_module

        monkeypatch.setattr(compiled_module, "_FLOAT32_EXACT_MAX", 8)
        with pytest.warns(UserWarning, match="dispatch to 'packed'"):
            predictor, matrix = self._compiled(0, "numpy")
        assert not predictor.blas_exact
        # auto now silently routes to the packed strategy...
        auto = predictor.predict(matrix, strategy="auto")
        packed = predictor.predict(matrix, strategy="packed")
        assert np.array_equal(auto, packed)
        # ...and an explicit blas request refuses to return wrong answers.
        with pytest.raises(ValueError, match="float32 exact-integer bound"):
            predictor.predict(matrix, strategy="blas")
        with pytest.raises(ValueError, match="float32 exact-integer bound"):
            predictor.matches(matrix, strategy="blas")

    def test_blas_guard_is_quiet_within_bounds(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predictor, matrix = self._compiled(1, "numpy")
        assert predictor.blas_exact
        assert np.array_equal(
            predictor.predict(matrix, strategy="auto"),
            predictor.predict(matrix, strategy="blas"),
        )

    def test_unknown_strategy_rejected(self):
        predictor, matrix = self._compiled(2, "numpy")
        with pytest.raises(ValueError, match="unknown strategy"):
            predictor.predict(matrix, strategy="gpu")

    @needs_native
    def test_auto_dispatches_to_native_packed_where_it_wins(self):
        # A numpy-backed predictor's auto stays on blas; a native-backed
        # one routes wide models (any batch) and bulk batches (any
        # model) to the fused packed path.  Narrow model + small batch
        # stays on blas even with the native backend.
        numpy_pred, __ = self._compiled(0, "numpy")
        native_pred, __ = self._compiled(0, "native")
        assert numpy_pred._resolve_strategy("auto", n_rows=4096) == "blas"
        assert native_pred._resolve_strategy("auto", n_rows=8) == "blas"
        assert native_pred._resolve_strategy("auto", n_rows=4096) == "packed"
        import repro.serve.compiled as compiled_module

        wide_words = compiled_module._NATIVE_PACKED_MIN_RULE_WORDS
        assert (
            native_pred.n_rules * native_pred.antecedents.n_words < wide_words
        ), "fixture model unexpectedly counts as wide"
        rng = np.random.default_rng(0)
        from repro.core.rules import TranslationRule

        n_src = 64 * (wide_words // 16)  # 16 rules x enough words
        rules = [
            TranslationRule((int(rng.integers(n_src)),), (0,), "->")
            for __ in range(16)
        ]
        wide = CompiledPredictor(Side.RIGHT, n_src, 4, rules, backend="native")
        assert wide._resolve_strategy("auto", n_rows=1) == "packed"


# ----------------------------------------------------------------------
# Consumer 3: the stream buffer's tracked supports
# ----------------------------------------------------------------------
class TestStreamBackends:
    @needs_native
    @pytest.mark.parametrize("seed", range(4))
    def test_tracked_supports_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        buffers = {
            backend: StreamBuffer(n_left=7, n_right=6, backend=backend)
            for backend in ("numpy", "native")
        }
        trackers = {
            backend: [
                buffer.track(Side.LEFT, (0, 2)),
                buffer.track(Side.RIGHT, (1,)),
            ]
            for backend, buffer in buffers.items()
        }
        for step in range(60):
            k = int(rng.integers(0, 5))
            left = rng.random((k, 7)) < 0.4
            right = rng.random((k, 6)) < 0.5
            for buffer in buffers.values():
                buffer.append(left, right)
            if rng.random() < 0.4 and len(buffers["numpy"]):
                evict = int(rng.integers(0, len(buffers["numpy"]) + 1))
                for buffer in buffers.values():
                    buffer.evict(evict)
            for numpy_tracker, native_tracker in zip(
                trackers["numpy"], trackers["native"]
            ):
                assert numpy_tracker.count == native_tracker.count, f"step {step}"
                assert np.array_equal(numpy_tracker.words, native_tracker.words)
        # Counts also agree with a from-scratch recount of the window.
        window = buffers["numpy"].window_dataset()
        expected = (window.left[:, 0] & window.left[:, 2]).sum()
        assert trackers["numpy"][0].count == expected

    @needs_native
    def test_refit_context_native_matches_batch_fit(self):
        rng = np.random.default_rng(11)
        buffer = StreamBuffer(n_left=9, n_right=9, backend="native")
        buffer.append(rng.random((140, 9)) < 0.4, rng.random((140, 9)) < 0.4)
        buffer.evict(30)
        dataset, cache = buffer.refit_context()
        incremental = TranslatorExact(
            max_iterations=2, max_rule_size=3, backend="native"
        ).fit(dataset, cache=cache)
        batch = TranslatorExact(
            max_iterations=2, max_rule_size=3, backend="numpy"
        ).fit(buffer.window_dataset())
        assert [(r.rule, r.gain) for r in incremental.history] == [
            (r.rule, r.gain) for r in batch.history
        ]
