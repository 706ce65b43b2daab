"""Corpus-scale discovery: store round-trips, sketch soundness, anytime budgets.

The contracts pinned here (see ``docs/corpus.md``):

* the ``RPROCOL1`` store round-trips a dataset exactly and **never
  mis-decodes** — any corruption or truncation raises
  :class:`ArtifactCorruptError`;
* sketch bounds are *sound* (always upper-bound the exact values) and
  the sketch-pruned top-k is **bit-identical** to the exact engine;
* streamed scans keep peak memory O(block), not O(corpus);
* a budget-interrupted search resumes bit-identically from its
  checkpoint, and ``gain + gap_bound`` always dominates the optimum.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.core.search import ExactRuleSearch, SearchCheckpoint
from repro.core.state import CoverState
from repro.core.translator import TranslatorExact
from repro.corpus import (
    AnytimeSearch,
    ColumnStore,
    SketchBuilder,
    exact_topk_pairs,
    ingest_chunks,
    ingest_dataset,
    topk_pairs,
)
from repro.corpus.store import STORE
from repro.data.dataset import TwoViewDataset
from repro.data.synthetic import SyntheticSpec, generate_planted
from repro.resilience import FaultInjector
from repro.resilience.container import PRELUDE, ArtifactCorruptError
from tests.conftest import SEARCH_BACKENDS, engine, random_two_view
from tests.container_cases import ContainerCorruptionCases, forge

pytestmark = pytest.mark.corpus_smoke


@pytest.fixture()
def planted():
    data, _ = generate_planted(SyntheticSpec(n_transactions=500, seed=11))
    return data


@pytest.fixture()
def store_path(tmp_path, planted):
    path = tmp_path / "corpus.col"
    ingest_dataset(planted, path, chunk_rows=97, block_words=2)
    return path


class TestStoreRoundTrip:
    def test_dataset_round_trip(self, planted, store_path):
        with ColumnStore(store_path) as store:
            assert store.n_transactions == planted.n_transactions
            assert store.n_blocks > 1  # block_words=2 -> 128-row blocks
            back = store.to_dataset()
            assert np.array_equal(back.left, planted.left)
            assert np.array_equal(back.right, planted.right)
            assert back.left_names == planted.left_names
            store.verify()

    def test_counts_and_overlaps_match_dense(self, planted, store_path):
        with ColumnStore(store_path) as store:
            counts_left, counts_right = store.column_counts()
            assert np.array_equal(counts_left, planted.left.sum(axis=0))
            assert np.array_equal(counts_right, planted.right.sum(axis=0))
            xs = np.arange(planted.n_left, dtype=np.int64)
            ys = xs % planted.n_right
            streamed = store.pair_overlaps(xs, ys)
            dense = np.array(
                [
                    int((planted.left[:, x] & planted.right[:, y]).sum())
                    for x, y in zip(xs, ys)
                ]
            )
            assert np.array_equal(streamed, dense)

    def test_quant_bits_match_engine(self, planted, store_path):
        from repro.core.search import _Quantized

        with ColumnStore(store_path) as store:
            engine = _Quantized(CoverState(planted))
            assert float(1 << store.quant_bits) == engine.one

    def test_ingest_row_count_mismatch(self, tmp_path, planted):
        with pytest.raises(ValueError, match="expected 500"):
            ingest_chunks(
                iter([(planted.left[:100], planted.right[:100])]),
                tmp_path / "short.col",
                n_transactions=planted.n_transactions,
                n_left=planted.n_left,
                n_right=planted.n_right,
            )
        assert not (tmp_path / "short.col").exists()


class TestStoreCorruption(ContainerCorruptionCases):
    """Chaos contract: a damaged store raises, never mis-decodes.

    The container-level cases come from the suite every schema shares.
    """

    schema = STORE

    @pytest.fixture()
    def container_file(self, store_path):
        return store_path

    def load(self, path):
        with ColumnStore(path) as store:
            store.verify()

    def test_flipped_padding_bit_is_rejected(self, store_path, tmp_path):
        """No digest signs the padding; the layout checks still refuse it."""
        blob = store_path.read_bytes()
        with ColumnStore(store_path) as store:
            payload_start = store._payload_start
            extents = sorted(
                (section.offset, section.offset + section.nbytes)
                for section in store._container.sections.values()
            )
        header_end = PRELUDE.size + PRELUDE.unpack_from(blob)[2]
        gap = next(
            end for (__, end), (start, __) in zip(extents, extents[1:]) if end < start
        )
        assert header_end < payload_start, "the header padding is not empty"
        for position in (header_end, gap):
            damaged = bytearray(blob)
            damaged[position] ^= 1
            path = tmp_path / f"padding-{position}.col"
            path.write_bytes(bytes(damaged))
            self.rejects(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: meta["sections"][0].update(shape=["x"]),
            lambda meta: meta["sections"][0].update(nbytes=-8),
            lambda meta: meta.update(tub_max_left="abc"),
            lambda meta: meta.update(sketch=5),
            lambda meta: meta.update(left_names=7),
        ],
        ids=["shape-x", "nbytes-negative", "tub-max-str", "sketch-int", "names-int"],
    )
    def test_forged_header_is_rejected(self, store_path, edit):
        """A re-signed header that breaks the store's schema never decodes."""
        forge(store_path, STORE, edit)
        with pytest.raises(ArtifactCorruptError):
            with ColumnStore(store_path) as store:
                store.verify()
                store.sketches()

    def test_truncated_file_raises_at_open(self, store_path, tmp_path):
        clipped = tmp_path / "clipped.col"
        clipped.write_bytes(store_path.read_bytes()[:-64])
        with pytest.raises(ArtifactCorruptError):
            ColumnStore(clipped)

    def test_on_disk_bit_flip_is_caught(self, store_path, tmp_path):
        raw = bytearray(store_path.read_bytes())
        flipped = tmp_path / "flipped.col"
        # Flip one payload bit in every block region and expect the scan
        # (or open, for header bytes) to refuse each time.
        with ColumnStore(store_path) as store:
            offsets = [
                store._payload_start + offset + 3 for offset, __ in store._blocks
            ]
        for offset in offsets:
            damaged = bytearray(raw)
            damaged[offset] ^= 0x10
            flipped.write_bytes(bytes(damaged))
            with pytest.raises(ArtifactCorruptError):
                with ColumnStore(flipped) as store:
                    for __ in store.iter_blocks():
                        pass

    def test_injected_block_corruption_raises(self, store_path):
        injector = FaultInjector().plan(
            "corpus.store.block.bytes", kind="corrupt", nth=2
        )
        with ColumnStore(store_path) as store:
            with injector.active():
                store.read_block(0)  # first read passes through
                with pytest.raises(ArtifactCorruptError):
                    store.read_block(1)
            assert injector.fired

    def test_injected_truncation_raises(self, store_path):
        injector = FaultInjector().plan("corpus.store.block.bytes", kind="truncate")
        with ColumnStore(store_path) as store:
            with injector.active():
                with pytest.raises(ArtifactCorruptError):
                    store.read_block(0)

    def test_torn_header_write_is_unreadable(self, tmp_path, planted):
        injector = FaultInjector().plan("corpus.store.bytes", kind="corrupt", at=100)
        with injector.active():
            ingest_dataset(planted, tmp_path / "torn.col", chunk_rows=128)
        with pytest.raises(ArtifactCorruptError):
            ColumnStore(tmp_path / "torn.col")

    def test_scan_fault_point_fires(self, store_path):
        injector = FaultInjector().plan("corpus.store.scan", kind="error")
        from repro.resilience import InjectedFault

        with ColumnStore(store_path) as store:
            with injector.active():
                with pytest.raises(InjectedFault):
                    store.pair_overlaps(np.array([0]), np.array([0]))


class TestSketchSoundness:
    """Property loops: sketch bounds must always dominate exact values."""

    def test_overlap_bounds_are_sound(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            n = int(rng.integers(60, 400))
            n_left = int(rng.integers(2, 12))
            n_right = int(rng.integers(2, 12))
            density = float(rng.uniform(0.05, 0.6))
            left = rng.random((n, n_left)) < density
            right = rng.random((n, n_right)) < density
            builder = SketchBuilder(
                n, n_left, n_right,
                sample_size=int(rng.integers(8, n + 1)),
                n_hashes=int(rng.integers(0, 6)),
                seed=trial,
            )
            step = int(rng.integers(17, 97))
            for start in range(0, n, step):
                builder.update(start, left[start:start + step], right[start:start + step])
            sketches = builder.finish()
            counts_left = left.sum(axis=0).astype(np.int64)
            counts_right = right.sum(axis=0).astype(np.int64)
            exact = left.T.astype(np.int64) @ right.astype(np.int64)
            bounds = sketches.overlap_upper_bounds(counts_left, counts_right)
            assert (bounds >= exact).all(), f"unsound bound in trial {trial}"

    def test_full_sample_bounds_are_exact(self):
        # With every row sampled the slack term vanishes and the bound
        # collapses to the exact overlap.
        rng = np.random.default_rng(0)
        left = rng.random((128, 5)) < 0.4
        right = rng.random((128, 6)) < 0.4
        builder = SketchBuilder(128, 5, 6, sample_size=128, n_hashes=4, seed=1)
        builder.update(0, left, right)
        sketches = builder.finish()
        exact = left.T.astype(np.int64) @ right.astype(np.int64)
        bounds = sketches.overlap_upper_bounds(
            left.sum(axis=0).astype(np.int64), right.sum(axis=0).astype(np.int64)
        )
        assert np.array_equal(bounds, exact)

    def test_store_sketch_round_trip(self, store_path):
        with ColumnStore(store_path) as store:
            sketches = store.sketches()
            counts_left, counts_right = store.column_counts()
            dense = store.to_dataset()
            exact = dense.left.T.astype(np.int64) @ dense.right.astype(np.int64)
            bounds = sketches.overlap_upper_bounds(counts_left, counts_right)
            assert (bounds >= exact).all()


class TestTopKIdentity:
    """Sketched + re-verified top-k must equal the exact engine bit-for-bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_pruned_matches_exact(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        dataset = random_two_view(rng, n=300, n_left=12, n_right=10, density=0.3)
        path = tmp_path / f"c{seed}.col"
        ingest_dataset(dataset, path, chunk_rows=64, block_words=1)
        with ColumnStore(path) as store:
            pruned = topk_pairs(store, k=7)
            baseline = topk_pairs(store, k=7, prune=False)
            dense = exact_topk_pairs(dataset, k=7, quant_bits=store.quant_bits)
        assert pruned.fingerprint() == dense.fingerprint()
        assert baseline.fingerprint() == dense.fingerprint()
        assert pruned.n_scanned <= baseline.n_scanned

    def test_top1_matches_search_seed(self, planted, store_path):
        # The best pair rule is exactly what the exact search's seeding
        # step finds; a size-2-capped search must agree with the store.
        with ColumnStore(store_path) as store:
            top = topk_pairs(store, k=1)
        rule, gain, __ = ExactRuleSearch(
            CoverState(planted), max_rule_size=2
        ).find_best_rule()
        assert top.rules and top.rules[0] == rule
        assert repr(top.gains[0]) == repr(gain)

    def test_prune_false_has_no_sketch_reads(self, store_path, monkeypatch):
        with ColumnStore(store_path) as store:
            # Baseline mode must not touch the sketch sections at all —
            # otherwise the benchmark's prune-vs-baseline comparison
            # would charge the baseline for sketch work.
            def boom():
                raise AssertionError("baseline scan read the sketches")

            monkeypatch.setattr(store, "sketches", boom)
            topk_pairs(store, k=3, prune=False)


class TestPeakMemory:
    def test_scan_rss_stays_block_sized(self, tmp_path):
        # 256k rows x (16+16) items at block_words=16 -> a 1 MiB payload
        # across 256 blocks; a streamed scan must stay far below that.
        n = 262144
        chunk = 8192

        def chunks():
            for start in range(0, n, chunk):
                crng = np.random.default_rng((5, start))
                yield (
                    crng.random((min(chunk, n - start), 16)) < 0.3,
                    crng.random((min(chunk, n - start), 16)) < 0.3,
                )

        path = tmp_path / "big.col"
        ingest_chunks(
            chunks(), path, n_transactions=n, n_left=16, n_right=16,
            block_words=16, sample_size=512,
        )
        with ColumnStore(path) as store:
            payload = store.n_blocks * store.block_nbytes
            store.pair_overlaps(np.array([0]), np.array([0]))  # warm caches
            tracemalloc.start()
            topk_pairs(store, k=3, batch_size=64)
            __, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        # Peak is O(pair batch + one block + sketch tables) -- far below
        # the payload the scan streamed through (and independent of the
        # corpus length).
        assert payload > 1_000_000
        assert peak < payload / 3, f"peak {peak} vs payload {payload}"


class TestAnytimeBudgets:
    def test_interrupted_resume_is_bit_identical(self, planted):
        full_search = ExactRuleSearch(CoverState(planted), max_rule_size=4)
        full = full_search.find_best_rule()
        assert full[2].complete and full[2].gap_bound == 0.0

        state = CoverState(planted)
        checkpoint = None
        stats = None
        legs = 0
        while True:
            search = ExactRuleSearch(
                state,
                max_rule_size=4,
                max_nodes=(stats.nodes_visited + 64) if stats else 64,
                checkpoint=checkpoint,
            )
            rule, gain, stats = search.find_best_rule()
            legs += 1
            if stats.complete:
                break
            # Honesty invariant on every interrupted leg.
            assert gain + stats.gap_bound >= full[1] - 1e-9
            checkpoint = search.last_checkpoint
        assert legs > 3
        assert (rule, repr(gain)) == (full[0], repr(full[1]))
        assert stats.nodes_visited == full[2].nodes_visited
        assert stats.evaluations == full[2].evaluations
        assert stats.nodes_pruned_rub == full[2].nodes_pruned_rub

    def test_checkpoint_json_round_trip(self, planted):
        search = ExactRuleSearch(CoverState(planted), max_rule_size=4, max_nodes=40)
        __, gain, stats = search.find_best_rule()
        assert not stats.complete and stats.nodes_visited == 40
        checkpoint = search.last_checkpoint
        assert checkpoint is not None
        rebuilt = SearchCheckpoint.from_dict(
            json.loads(json.dumps(checkpoint.to_dict()))
        )
        assert rebuilt == checkpoint

    @pytest.mark.native_smoke
    @pytest.mark.parametrize("tamper", [
        "dropped_cursor",
        "extra_cursor",
        "reversed_path",
        "repeated_path_index",
        "path_index_below_root",
        "path_index_past_universe",
        "negative_cursor",
        "cursor_off_path",
        "cursor_past_children",
        "top_cursor_past_children",
        "negative_root_lo",
        "root_hi_past_universe",
        "path_past_root_range",
    ])
    def test_malformed_checkpoint_is_rejected(self, tamper):
        # A stack of depth d has d strictly increasing path entries inside
        # [root_lo, universe_size), the first below root_hi, and d + 1
        # non-negative cursors; each lower frame's cursor points just past
        # the path entry it created, and the top one at an unvisited
        # child.  Each tampering breaks one of those conditions and must
        # fail before any traversal.
        dataset = random_two_view(
            np.random.default_rng(0), n=60, n_left=7, n_right=7, density=0.4
        )
        search = ExactRuleSearch(CoverState(dataset), max_rule_size=4, max_nodes=40)
        search.find_best_rule()
        checkpoint = search.last_checkpoint
        path, cursors = checkpoint.path, checkpoint.cursors
        assert len(path) >= 2 and checkpoint.root_lo == 0
        changes = {
            "dropped_cursor": {"cursors": cursors[:-1]},
            "extra_cursor": {"cursors": cursors + (0,)},
            "reversed_path": {"path": path[::-1]},
            "repeated_path_index": {"path": (path[0],) + path[:-1]},
            "path_index_below_root": {"path": (-1,) + path[1:]},
            "path_index_past_universe": {
                "path": path[:-1] + (checkpoint.universe_size,)
            },
            "negative_cursor": {"cursors": (-1,) + cursors[1:]},
            "cursor_off_path": {"cursors": (cursors[0] + 1,) + cursors[1:]},
            "cursor_past_children": {"cursors": (10**6,) + cursors[1:]},
            "top_cursor_past_children": {"cursors": cursors[:-1] + (10**6,)},
            "negative_root_lo": {"root_lo": -1},
            "root_hi_past_universe": {"root_hi": checkpoint.universe_size + 1},
            "path_past_root_range": {
                "root_hi": path[0] + 1,
                "path": tuple(index + 1 for index in path),
            },
        }[tamper]
        tampered = dataclasses.replace(checkpoint, **changes)
        for backend in SEARCH_BACKENDS:
            with engine(backend), pytest.raises(ValueError, match="checkpoint"):
                ExactRuleSearch(
                    CoverState(dataset), max_rule_size=4, checkpoint=tampered
                ).find_best_rule()

    def test_n_jobs_budget_warning(self, planted):
        with pytest.warns(UserWarning, match="n_jobs=3 is ignored"):
            ExactRuleSearch(CoverState(planted), max_nodes=10, n_jobs=3)

    @pytest.mark.native_smoke
    @pytest.mark.parametrize("every", [1, 7, 100])
    def test_resume_alternates_backends(self, every):
        # Both traversals index the same alive-child lists, so a checkpoint
        # taken by one resumes on the other: legs that alternate numpy and
        # native make exactly the decisions of an all-numpy legged run and,
        # at the end, of an uninterrupted search.
        dataset = random_two_view(
            np.random.default_rng(4), n=70, n_left=6, n_right=6, density=0.35
        )
        state = CoverState(dataset)
        full = ExactRuleSearch(state, max_rule_size=3).find_best_rule()
        legged = {}
        schedules = {
            "numpy": ["numpy"],
            "alternating": ["numpy", "native"] if "native" in SEARCH_BACKENDS else ["numpy"],
        }
        for name, cycle in schedules.items():
            legs, checkpoint, stats = [], None, None
            while stats is None or not stats.complete:
                with engine(cycle[len(legs) % len(cycle)]):
                    search = ExactRuleSearch(
                        state,
                        max_rule_size=3,
                        max_nodes=(stats.nodes_visited if stats else 0) + every,
                        checkpoint=checkpoint,
                    )
                    rule, gain, stats = search.find_best_rule()
                checkpoint = search.last_checkpoint
                legs.append((
                    rule, repr(gain), repr(stats.gap_bound), stats.nodes_visited,
                    stats.nodes_pruned_rub, stats.evaluations,
                    stats.evaluations_skipped_qub, checkpoint,
                ))
            legged[name] = legs
        assert legged["alternating"] == legged["numpy"]
        assert len(legged["numpy"]) > 1
        rule, gain, __, visited, pruned, evaluations, skipped, __ = legged["numpy"][-1]
        assert (rule, gain) == (full[0], repr(full[1]))
        assert (visited, pruned, evaluations, skipped) == (
            full[2].nodes_visited,
            full[2].nodes_pruned_rub,
            full[2].evaluations,
            full[2].evaluations_skipped_qub,
        )

    @pytest.mark.native_smoke
    def test_anytime_search_completes_and_matches(self, planted):
        full = ExactRuleSearch(CoverState(planted), max_rule_size=3).find_best_rule()
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                result = AnytimeSearch(
                    CoverState(planted), time_budget=60.0, slice_nodes=128,
                    max_rule_size=3,
                ).run()
            assert result.stats.complete and result.checkpoint is None
            assert (result.rule, repr(result.gain)) == (full[0], repr(full[1]))
            assert result.n_slices >= 1
            assert result.stats.backend == backend

    @pytest.mark.native_smoke
    def test_anytime_node_budget_stops(self, planted):
        outcomes = {}
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                result = AnytimeSearch(
                    CoverState(planted), max_nodes=100, time_budget=60.0,
                    slice_nodes=32, max_rule_size=4,
                ).run()
            assert result.stats.nodes_visited == 100
            assert not result.stats.complete
            assert result.checkpoint is not None
            assert result.stats.gap_bound >= 0.0
            outcomes[backend] = (
                result.rule, repr(result.gain), repr(result.stats.gap_bound),
                result.n_slices, result.checkpoint,
            )
        assert len(set(outcomes.values())) == 1

    @pytest.mark.native_smoke
    def test_time_budgeted_fit_matches_plain_fit(self, planted):
        # A generous per-search wall-clock budget runs every search to the
        # end in node slices, so the fit equals the unbudgeted one.
        plain = TranslatorExact(max_rule_size=3, max_iterations=3).fit(planted)
        for backend in SEARCH_BACKENDS:
            with engine(backend):
                sliced = TranslatorExact(
                    max_rule_size=3, max_iterations=3,
                    time_budget_per_search=600.0,
                ).fit(planted)
            assert [(r.rule, repr(r.gain)) for r in sliced.history] == [
                (r.rule, repr(r.gain)) for r in plain.history
            ]
            assert {s.backend for s in sliced.search_stats} == {backend}


class TestTranslatorIntegration:
    def test_fit_from_store_matches_dense(self, planted, store_path):
        with ColumnStore(store_path) as store:
            from_store = TranslatorExact(max_rule_size=3, max_iterations=4).fit(
                store=store
            )
        dense = TranslatorExact(max_rule_size=3, max_iterations=4).fit(planted)
        assert [(r.rule, repr(r.gain)) for r in from_store.history] == [
            (r.rule, repr(r.gain)) for r in dense.history
        ]
        assert from_store.gap_bound == 0.0

    def test_fit_rejects_store_and_dataset(self, planted, store_path):
        with ColumnStore(store_path) as store:
            with pytest.raises(ValueError, match="not both"):
                TranslatorExact().fit(planted, store=store)
        with pytest.raises(ValueError, match="dataset or a store"):
            TranslatorExact().fit()

    def test_budgeted_fit_reports_gap(self, planted):
        result = TranslatorExact(
            max_rule_size=4, max_iterations=1, max_nodes_per_search=50
        ).fit(planted)
        assert not result.converged
        assert result.gap_bound > 0.0


class TestCorpusCli:
    def test_ingest_then_fit(self, tmp_path, planted, capsys):
        from repro.cli import main
        from repro.data.io import save_dataset

        data_path = tmp_path / "planted.2v"
        save_dataset(planted, data_path)
        store_file = tmp_path / "planted.col"
        assert main([
            "ingest", str(data_path), "--output", str(store_file),
            "--chunk-rows", "128",
        ]) == 0
        out = capsys.readouterr().out
        assert "ingested" in out and "quant_bits" in out
        assert main([
            "fit", "--store", str(store_file), "--method", "exact",
            "--max-rule-size", "2", "--max-iterations", "2", "--limit", "2",
        ]) == 0
        assert "translator-exact" in capsys.readouterr().out

    def test_fit_budget_prints_gap(self, tmp_path, planted, capsys):
        from repro.cli import main
        from repro.data.io import save_dataset

        data_path = tmp_path / "planted.2v"
        save_dataset(planted, data_path)
        assert main([
            "fit", str(data_path), "--method", "exact", "--max-rule-size", "3",
            "--max-iterations", "1", "--max-nodes", "100", "--limit", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "gap bound" in out

    def test_budget_flags_require_exact(self, tmp_path, planted):
        from repro.cli import main
        from repro.data.io import save_dataset

        data_path = tmp_path / "planted.2v"
        save_dataset(planted, data_path)
        with pytest.raises(SystemExit):
            main(["fit", str(data_path), "--method", "greedy", "--max-nodes", "10"])
