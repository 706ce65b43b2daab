"""Streaming subsystem tests (``pytest -m stream_smoke``).

Covers the four layers of :mod:`repro.stream` — the incremental buffer
(property-style bit-identity of append/evict sequences against
from-scratch packing, tracked supports, capacity growth and rotation),
drift monitoring (determinism under a fixed seed, detection of a
flipped association), the binary codec and row sources, and the
maintenance loop — plus the serving satellites that ride along: binary
``/predict`` ingestion, LRU predictor eviction, the registry's
``latest``-pointer race tolerance, and the end-to-end hot-swap of a
live :class:`PredictionServer` without a restart.
"""

from __future__ import annotations

import asyncio
import json
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.bitset import BitMatrix, pack_rows_at, shift_rows
from repro.core.beam import TranslatorBeam
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.core.translator import TranslatorExact, TranslatorGreedy, TranslatorSelect
from repro.data.dataset import Side, TwoViewDataset
from repro.data.synthetic import SyntheticSpec, generate_planted
from repro.serve import (
    ModelArtifact,
    ModelRegistry,
    PredictionServer,
    PredictionService,
)
from repro.stream import (
    DriftMonitor,
    FeedSource,
    JsonlSource,
    MaintenanceLoop,
    PackedSource,
    RefitPolicy,
    StreamBuffer,
    decode_packed_rows,
    encode_packed_rows,
    fit_window,
    iter_packed_frames,
    score_table,
)

pytestmark = pytest.mark.stream_smoke


def planted(seed=42, n=300):
    dataset, __ = generate_planted(
        SyntheticSpec(
            n_transactions=n,
            n_left=10,
            n_right=10,
            density_left=0.15,
            density_right=0.15,
            n_rules=3,
            seed=seed,
        )
    )
    return dataset


def crossed_pair(n_rows=120):
    """Two tiny datasets with *opposite* cross-view associations.

    ``a`` pairs L0<->R0 / L1<->R1; ``b`` pairs L0<->R1 / L1<->R0.  Both
    have identical margins, so only the pairing differs — the exact
    drift scenario.
    """
    half = n_rows // 2
    left = np.zeros((n_rows, 2), dtype=bool)
    right_a = np.zeros((n_rows, 2), dtype=bool)
    right_b = np.zeros((n_rows, 2), dtype=bool)
    left[:half, 0] = True
    left[half:, 1] = True
    right_a[:half, 0] = True
    right_a[half:, 1] = True
    right_b[:half, 1] = True
    right_b[half:, 0] = True
    order = np.arange(n_rows) % 2 * half + np.arange(n_rows) // 2  # interleave
    return (
        TwoViewDataset(left[order], right_a[order], name="assoc-a"),
        TwoViewDataset(left[order], right_b[order], name="assoc-b"),
    )


class TestBitsetPrimitives:
    def test_pack_rows_at_matches_shifted_pack(self, rng):
        for offset in (0, 1, 17, 63):
            chunk = rng.random((70, 9)) < 0.4
            packed = pack_rows_at(chunk, offset)
            padded = np.zeros((offset + 70, 9), dtype=bool)
            padded[offset:] = chunk
            assert np.array_equal(
                packed, BitMatrix.from_bool_columns(padded).words
            )

    def test_shift_rows_inverts_offset(self, rng):
        chunk = rng.random((130, 5)) < 0.4
        for shift in (1, 13, 63):
            padded = np.zeros((shift + 130, 5), dtype=bool)
            padded[shift:] = chunk
            shifted = shift_rows(
                BitMatrix.from_bool_columns(padded).words, shift
            )
            expect = BitMatrix.from_bool_columns(chunk).words
            assert np.array_equal(shifted[:, : expect.shape[1]], expect)

    def test_validation(self):
        with pytest.raises(ValueError, match="offset"):
            pack_rows_at(np.zeros((2, 2), dtype=bool), 64)
        with pytest.raises(ValueError, match="shift"):
            shift_rows(np.zeros((2, 2), dtype=np.uint64), -1)
        with pytest.raises(ValueError, match="2-dimensional"):
            shift_rows(np.zeros(4, dtype=np.uint64), 1)


class TestStreamBuffer:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_append_evict_is_bit_identical(self, seed):
        """Property test: incremental buffer == from-scratch pack."""
        rng = np.random.default_rng(seed)
        n_left, n_right = int(rng.integers(1, 80)), int(rng.integers(1, 80))
        buffer = StreamBuffer(n_left, n_right, capacity=8)
        ref_left = np.zeros((0, n_left), dtype=bool)
        ref_right = np.zeros((0, n_right), dtype=bool)
        trackers = []
        for op in range(80):
            if rng.random() < 0.6 or len(buffer) == 0:
                k = int(rng.integers(1, 70))
                chunk_l = rng.random((k, n_left)) < 0.3
                chunk_r = rng.random((k, n_right)) < 0.3
                buffer.append(chunk_l, chunk_r)
                ref_left = np.concatenate([ref_left, chunk_l])
                ref_right = np.concatenate([ref_right, chunk_r])
            else:
                k = int(rng.integers(1, len(buffer) + 1))
                buffer.evict(k)
                ref_left, ref_right = ref_left[k:], ref_right[k:]
            if op in (5, 25):
                side = Side.LEFT if rng.random() < 0.5 else Side.RIGHT
                width = n_left if side is Side.LEFT else n_right
                items = sorted(
                    rng.choice(width, size=min(2, width), replace=False).tolist()
                )
                trackers.append((buffer.track(side, items), side))
            for side, reference in (
                (Side.LEFT, ref_left),
                (Side.RIGHT, ref_right),
            ):
                assert np.array_equal(
                    buffer.bit_matrix(side).words,
                    BitMatrix.from_bool_columns(reference).words,
                ), f"seed={seed} op={op} {side} words diverged"
                assert np.array_equal(
                    buffer.item_counts(side), reference.sum(axis=0)
                )
            window = buffer.window_dataset()
            assert np.array_equal(window.left, ref_left)
            assert np.array_equal(window.right, ref_right)
            for tracker, side in trackers:
                reference = ref_left if side is Side.LEFT else ref_right
                expected = (
                    int(reference[:, list(tracker.items)].all(axis=1).sum())
                    if len(reference)
                    else 0
                )
                assert tracker.count == expected, f"seed={seed} op={op}"

    def test_growth_from_tiny_capacity(self, rng):
        buffer = StreamBuffer(3, 3, capacity=1)
        chunk = rng.random((500, 3)) < 0.5
        buffer.append(chunk, chunk)
        assert len(buffer) == 500
        assert np.array_equal(
            buffer.bit_matrix(Side.LEFT).words,
            BitMatrix.from_bool_columns(chunk).words,
        )

    def test_misaligned_window_rotation(self, rng):
        # An odd eviction leaves the window start mid-word; extraction
        # must still be bit-identical (the shift_rows path).
        chunk = rng.random((200, 5)) < 0.4
        buffer = StreamBuffer(5, 5)
        buffer.append(chunk, chunk)
        buffer.evict(37)
        assert np.array_equal(
            buffer.bit_matrix(Side.RIGHT).words,
            BitMatrix.from_bool_columns(chunk[37:]).words,
        )

    def test_validation(self):
        buffer = StreamBuffer(2, 3)
        with pytest.raises(ValueError, match="same number of rows"):
            buffer.append(np.zeros((2, 2), bool), np.zeros((3, 3), bool))
        with pytest.raises(ValueError, match="widths"):
            buffer.append(np.zeros((1, 3), bool), np.zeros((1, 3), bool))
        with pytest.raises(ValueError, match="cannot evict"):
            buffer.evict(1)
        with pytest.raises(ValueError, match="empty itemset"):
            buffer.track(Side.LEFT, ())
        with pytest.raises(ValueError, match="vocabulary"):
            buffer.track(Side.LEFT, (5,))

    def test_empty_buffer_edges(self):
        buffer = StreamBuffer(2, 2)
        assert len(buffer) == 0
        buffer.evict(0)
        assert buffer.bit_matrix(Side.LEFT).n_bits == 0
        assert buffer.window_dataset().n_transactions == 0

    def test_eviction_landing_on_word_boundaries(self, rng):
        # Evictions whose window start lands exactly on a 64-bit word
        # edge exercise the tail_mask=None branches (the whole dead word
        # is zeroed, nothing straddles) and the word-aligned slice path
        # of bit_matrix.
        chunk = rng.random((256, 6)) < 0.4
        buffer = StreamBuffer(6, 6, capacity=8)
        buffer.append(chunk, chunk)
        tracker = buffer.track(Side.LEFT, (0, 3))
        start = 0
        for step in (64, 64, 63, 1):  # boundary, boundary, stray, re-align
            buffer.evict(step)
            start += step
            live = chunk[start:]
            assert len(buffer) == 256 - start
            assert np.array_equal(
                buffer.bit_matrix(Side.LEFT).words,
                BitMatrix.from_bool_columns(live).words,
            ), f"diverged after evicting to {start}"
            assert np.array_equal(buffer.item_counts(Side.LEFT), live.sum(axis=0))
            assert tracker.count == int((live[:, 0] & live[:, 3]).sum())
        # Draining the rest exactly to the end is also a boundary case.
        buffer.evict(len(buffer))
        assert len(buffer) == 0 and tracker.count == 0

    def test_word_boundary_appends_keep_trackers_exact(self, rng):
        # Appends of exactly one word (offset 0 tail) and appends that
        # finish a word (offset + k == 64) take the offset_mask=None and
        # full-tail-word paths of the tracker update.
        buffer = StreamBuffer(4, 4, capacity=4)
        tracker = buffer.track(Side.RIGHT, (1,))
        reference = np.zeros((0, 4), dtype=bool)
        for k in (64, 64, 32, 32, 128, 1, 63):
            chunk = rng.random((k, 4)) < 0.5
            buffer.append(chunk, chunk)
            reference = np.concatenate([reference, chunk])
            assert tracker.count == int(reference[:, 1].sum())
        assert np.array_equal(
            buffer.bit_matrix(Side.RIGHT).words,
            BitMatrix.from_bool_columns(reference).words,
        )

    def test_empty_appends_are_noops(self, rng):
        # k=0 chunks must change nothing — including at a misaligned
        # offset, where pack_rows_at gets a zero-row matrix.
        buffer = StreamBuffer(3, 5, capacity=2)
        tracker = buffer.track(Side.LEFT, (0,))
        empty_l = np.zeros((0, 3), dtype=bool)
        empty_r = np.zeros((0, 5), dtype=bool)
        buffer.append(empty_l, empty_r)  # offset 0
        assert len(buffer) == 0 and buffer.appended_total == 0
        chunk_l = rng.random((37, 3)) < 0.5  # leave a mid-word tail
        chunk_r = rng.random((37, 5)) < 0.5
        buffer.append(chunk_l, chunk_r)
        before_words = buffer.bit_matrix(Side.LEFT).words.copy()
        before_count = tracker.count
        buffer.append(empty_l, empty_r)  # offset 37 % 64
        assert len(buffer) == 37
        assert tracker.count == before_count
        assert np.array_equal(buffer.bit_matrix(Side.LEFT).words, before_words)

    def test_pack_rows_at_zero_row_chunks(self):
        # The primitive itself: a (0, n_items) chunk at any offset packs
        # to all-zero words of the right shape.
        for offset in (0, 1, 37, 63):
            packed = pack_rows_at(np.zeros((0, 5), dtype=bool), offset)
            assert packed.shape == (5, (offset + 63) // 64 if offset else 0)
            assert not packed.any()


class TestWindowedRefit:
    def test_exact_refit_is_bit_identical(self):
        data = planted()
        buffer = StreamBuffer(data.n_left, data.n_right, capacity=16)
        buffer.append(data.left[:180], data.right[:180])
        buffer.evict(29)  # misalign the window start
        buffer.append(data.left[180:], data.right[180:])
        window = buffer.window_dataset("w")
        batch = TranslatorExact(max_rule_size=4).fit(window)
        incremental = fit_window(TranslatorExact(max_rule_size=4), buffer, "w")
        assert list(batch.table) == list(incremental.table)
        assert batch.compression_ratio == incremental.compression_ratio

    def test_beam_refit_is_bit_identical(self):
        data = planted(seed=7)
        buffer = StreamBuffer(data.n_left, data.n_right)
        buffer.append(data.left, data.right)
        buffer.evict(13)
        window = buffer.window_dataset("w")
        batch = TranslatorBeam(max_rule_size=4).fit(window)
        incremental = fit_window(TranslatorBeam(max_rule_size=4), buffer, "w")
        assert list(batch.table) == list(incremental.table)

    def test_beam_rejects_mismatched_bits(self):
        from repro.core.search import SearchCache

        data = planted()
        other = planted(seed=1, n=100)
        with pytest.raises(ValueError, match="different dataset"):
            TranslatorBeam(max_rule_size=3).fit(data, cache=SearchCache(other))

    def test_window_refit_packs_no_column(self, monkeypatch):
        data = planted(seed=3)
        buffer = StreamBuffer(data.n_left, data.n_right)
        buffer.append(data.left, data.right)
        buffer.evict(13)  # misalign the window start
        packed = []
        pack = BitMatrix.from_bool_columns.__func__

        def counting_pack(cls, matrix):
            packed.append(np.shape(matrix))
            return pack(cls, matrix)

        monkeypatch.setattr(BitMatrix, "from_bool_columns", classmethod(counting_pack))
        for translator in (
            TranslatorExact(max_rule_size=3),
            TranslatorSelect(k=1, minsup=10),
            TranslatorGreedy(minsup=10),
            TranslatorBeam(max_rule_size=3),
        ):
            packed.clear()
            result = fit_window(translator, buffer, "w")
            assert result.n_rules > 0
            assert packed == [], type(translator).__name__

    def test_search_cache_rejects_mismatched_bits(self):
        from repro.core.search import SearchCache

        data = planted()
        other = planted(seed=1, n=100)
        with pytest.raises(ValueError, match="does not match"):
            SearchCache(
                data, left_bits=BitMatrix.from_bool_columns(other.left)
            )

    def test_exact_fit_rejects_foreign_cache(self):
        from repro.core.search import SearchCache

        data = planted()
        cache = SearchCache(planted(seed=1))
        with pytest.raises(ValueError, match="different dataset"):
            TranslatorExact().fit(data, cache=cache)


class TestDriftMonitor:
    def test_deterministic_under_fixed_seed(self):
        data = planted()
        result = TranslatorExact(max_rule_size=3).fit(data)
        monitor = DriftMonitor(result.table, seed=5)
        first = monitor.check(data, result)
        second = monitor.check(data, result)
        assert first == second
        assert first.null_ratios == second.null_ratios

    def test_no_drift_on_distribution(self):
        data = planted()
        result = TranslatorExact(max_rule_size=3).fit(data)
        report = DriftMonitor(result.table).check(data, result)
        assert not report.drifted
        assert report.p_value <= 0.05
        assert abs(report.degradation) < 1e-9

    def test_flipped_association_is_flagged(self):
        assoc_a, assoc_b = crossed_pair()
        published = TranslatorExact().fit(assoc_a)
        refit = TranslatorExact().fit(assoc_b)
        report = DriftMonitor(published.table).check(assoc_b, refit)
        assert report.drifted
        assert report.reason == "degradation"
        assert report.degradation > 0.02

    def test_validation(self):
        table = TranslationTable([TranslationRule((0,), (0,), "->")])
        with pytest.raises(ValueError, match="n_permutations"):
            DriftMonitor(table, n_permutations=0)
        with pytest.raises(ValueError, match="cannot reach"):
            DriftMonitor(table, n_permutations=3, significance=0.05)

    def test_score_table_matches_fit_state(self):
        data = planted()
        result = TranslatorExact(max_rule_size=3).fit(data)
        assert score_table(data, result.table) == pytest.approx(
            result.compression_ratio
        )


class TestCodec:
    @pytest.mark.parametrize("n_items", [1, 7, 64, 70, 130])
    def test_roundtrip(self, rng, n_items):
        matrix = rng.random((9, n_items)) < 0.4
        meta, back, right = decode_packed_rows(
            encode_packed_rows(matrix, {"model": "m", "target": "L"})
        )
        assert right is None
        assert np.array_equal(back, matrix)
        assert meta["model"] == "m" and meta["n_rows"] == 9

    def test_two_view_roundtrip(self, rng):
        left = rng.random((5, 70)) < 0.3
        right = rng.random((5, 13)) < 0.3
        __, back_l, back_r = decode_packed_rows(
            encode_packed_rows(left, right=right)
        )
        assert np.array_equal(back_l, left)
        assert np.array_equal(back_r, right)

    def test_frame_concatenation(self, rng):
        frames = b"".join(
            encode_packed_rows(rng.random((3, 10)) < 0.4, {"i": i})
            for i in range(4)
        )
        decoded = list(iter_packed_frames(frames))
        assert [meta["i"] for meta, __, ___ in decoded] == [0, 1, 2, 3]

    def test_malformed_frames_rejected(self, rng):
        good = encode_packed_rows(rng.random((3, 10)) < 0.4)
        with pytest.raises(ValueError, match="magic"):
            decode_packed_rows(b"NOPE" + good[4:])
        with pytest.raises(ValueError, match="truncated"):
            decode_packed_rows(good[:-3])
        with pytest.raises(ValueError, match="trailing"):
            decode_packed_rows(good + b"xx")
        with pytest.raises(ValueError, match="version"):
            decode_packed_rows(good[:4] + b"\x09" + good[5:])

    @staticmethod
    def _frame(header: dict, payload: bytes) -> bytes:
        """Hand-rolled frame with an arbitrary (possibly invalid) header."""
        import struct

        header_bytes = json.dumps(header).encode("utf-8")
        return (
            b"2VPB\x01"
            + struct.pack("<I", len(header_bytes))
            + header_bytes
            + payload
        )

    @pytest.mark.parametrize(
        "n_rows,n_items",
        [(-1, 4), (2, -4), (1.5, 4), (2, 3.0), ("2", 4), (True, 4), (None, 4)],
    )
    def test_non_integer_or_negative_dimensions_rejected(self, n_rows, n_items):
        frame = self._frame(
            {"n_rows": n_rows, "n_items": n_items}, b"\x00" * 64
        )
        with pytest.raises(ValueError, match="integer|dimension"):
            decode_packed_rows(frame)

    def test_bad_right_view_dimension_rejected(self):
        frame = self._frame(
            {"n_rows": 1, "n_items": 4, "n_items_right": -2}, b"\x00" * 8
        )
        with pytest.raises(ValueError, match="integer|dimension"):
            decode_packed_rows(frame)

    def test_payload_must_exactly_match_header(self, rng):
        matrix = rng.random((3, 10)) < 0.4
        good = encode_packed_rows(matrix)
        # One word (8 bytes) per row: short by a row, and long by a word.
        with pytest.raises(ValueError, match="truncated"):
            decode_packed_rows(good[:-8])
        with pytest.raises(ValueError, match="trailing"):
            decode_packed_rows(good + b"\x00" * 8)

    @pytest.mark.parametrize("n_items", [10, 70, 127])
    def test_set_padding_bits_rejected(self, rng, n_items):
        # decode(encode(x)) must be the ONLY accepted representation:
        # setting any padding bit of a row's final word is a malformed
        # frame, never a silent truncation.
        matrix = rng.random((4, n_items)) < 0.5
        good = bytearray(encode_packed_rows(matrix, {"model": "m"}))
        row_bytes = ((n_items + 63) // 64) * 8
        payload_start = len(good) - 4 * row_bytes
        # Highest byte of row 2's final word is pure padding for all the
        # parametrised widths (n_items % 64 < 57).
        victim = payload_start + 3 * row_bytes - 1
        good[victim] |= 0x80
        with pytest.raises(ValueError, match="padding"):
            decode_packed_rows(bytes(good))
        # The straddling byte's low bits are data, its high bits padding.
        if n_items % 8:
            good = bytearray(encode_packed_rows(matrix, {"model": "m"}))
            straddle = payload_start + (n_items // 8)
            good[straddle] |= 1 << 7  # top bit of the boundary byte
            with pytest.raises(ValueError, match="padding"):
                decode_packed_rows(bytes(good))

    def test_zero_item_frames_decode_and_reject_stray_payload(self):
        frame = self._frame({"n_rows": 1, "n_items": 0}, b"")
        __, matrix, right = decode_packed_rows(frame)
        assert matrix.shape == (1, 0) and right is None
        with pytest.raises(ValueError, match="trailing"):
            decode_packed_rows(self._frame({"n_rows": 1, "n_items": 0}, b"\x01"))


class TestSources:
    def test_feed_source_drains_then_stops(self):
        async def scenario():
            source = FeedSource()
            source.put_nowait([0, 1], [2])
            await source.put([3], [])
            source.close()
            return [row async for row in source]

        rows = asyncio.run(scenario())
        assert rows == [([0, 1], [2]), ([3], [])]

    def test_closed_feed_rejects_rows(self):
        async def scenario():
            source = FeedSource()
            source.close()
            with pytest.raises(RuntimeError, match="closed"):
                source.put_nowait([0], [0])

        asyncio.run(scenario())

    def test_jsonl_source_both_shapes(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            json.dumps({"left": [0], "right": [1]})
            + "\n\n"
            + json.dumps([[2], [3]])
            + "\n"
        )

        async def drain():
            return [row async for row in JsonlSource(path)]

        assert asyncio.run(drain()) == [([0], [1]), ([2], [3])]

    def test_jsonl_source_parses_final_line_without_newline(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({"left": [0], "right": [1]}))  # no \n

        async def drain():
            return [row async for row in JsonlSource(path)]

        assert asyncio.run(drain()) == [([0], [1])]

    def test_following_source_buffers_partial_lines(self, tmp_path):
        # A producer caught mid-write must not crash the follower; the
        # partial line is buffered until its newline lands.
        path = tmp_path / "rows.jsonl"
        full = json.dumps({"left": [0], "right": [1]})
        path.write_text(full[:7])

        async def scenario():
            source = JsonlSource(path, follow=True, poll_interval=0.01)
            rows = []

            async def consume():
                async for row in source:
                    rows.append(row)
                    source.stop()

            task = asyncio.create_task(consume())
            await asyncio.sleep(0.05)  # follower sees only the partial line
            assert rows == []
            with path.open("a") as stream:
                stream.write(full[7:] + "\n")
            await asyncio.wait_for(task, timeout=5.0)
            return rows

        assert asyncio.run(scenario()) == [([0], [1])]

    def test_stopped_follower_discards_incomplete_line(self, tmp_path):
        # stop() while the producer is mid-line must end cleanly — the
        # never-completed record is discarded, not parsed.
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps({"left": [0], "right": [1]}) + '\n{"left": [2], "ri')

        async def scenario():
            source = JsonlSource(path, follow=True, poll_interval=0.01)
            rows = []
            async for row in source:
                rows.append(row)
                source.stop()
            return rows

        assert asyncio.run(scenario()) == [([0], [1])]

    def test_jsonl_source_rejects_garbage(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"left": 3, "right": []}\n')

        async def drain():
            return [row async for row in JsonlSource(path, strict=True)]

        with pytest.raises(ValueError, match="item-index lists"):
            asyncio.run(drain())
        # Items follow /predict's integer rule: never coerced.
        for line in (
            '{"left": [0, 1.9], "right": [1]}',
            '{"left": [0], "right": [true, 2]}',
            '{"left": ["2"], "right": [0]}',
            "[[0, null], [1]]",
        ):
            path.write_text(line + "\n")
            with pytest.raises(ValueError, match="not an integer item index"):
                asyncio.run(drain())

    def test_jsonl_source_lenient_skips_and_counts(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(
            '{"left": [0], "right": [1]}\n'
            "not json at all\n"
            '{"left": 3, "right": []}\n'
            '{"left": [0, 1.9], "right": [true, "2"]}\n'
            '[[1], [false]]\n'
            '{"left": [2], "right": [0]}\n'
        )
        source = JsonlSource(path)  # lenient is the default

        async def drain():
            return [row async for row in source]

        assert asyncio.run(drain()) == [([0], [1]), ([2], [0])]
        assert source.malformed_rows == 4

    def test_packed_source(self, tmp_path, rng):
        left = rng.random((6, 4)) < 0.5
        right = rng.random((6, 3)) < 0.5
        path = tmp_path / "rows.2vp"
        path.write_bytes(encode_packed_rows(left, right=right))

        async def drain():
            return [row async for row in PackedSource(path, max_rows=5)]

        rows = asyncio.run(drain())
        assert len(rows) == 5
        assert rows[0] == (
            np.flatnonzero(left[0]).tolist(),
            np.flatnonzero(right[0]).tolist(),
        )

    def test_packed_source_rejects_truncated_file(self, tmp_path, rng):
        path = tmp_path / "rows.2vp"
        frame = encode_packed_rows(
            rng.random((4, 3)) < 0.5, right=rng.random((4, 3)) < 0.5
        )
        path.write_bytes(frame[:-5])

        async def drain():
            return [row async for row in PackedSource(path)]

        with pytest.raises(ValueError, match="truncated"):
            asyncio.run(drain())

    def test_packed_source_requires_two_views(self, tmp_path, rng):
        path = tmp_path / "rows.2vp"
        path.write_bytes(encode_packed_rows(rng.random((2, 4)) < 0.5))

        async def drain():
            return [row async for row in PackedSource(path)]

        with pytest.raises(ValueError, match="both views"):
            asyncio.run(drain())


@pytest.fixture()
def crossed_registry(tmp_path):
    """Registry with a model fitted on the 'a' association."""
    assoc_a, assoc_b = crossed_pair()
    result = TranslatorExact().fit(assoc_a)
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish(
        ModelArtifact.from_result("live", assoc_a, result, {"method": "exact"})
    )
    return registry, assoc_a, assoc_b


class TestBinaryPredict:
    def test_packed_predict_matches_json(self, crossed_registry, rng):
        registry, assoc_a, __ = crossed_registry
        service = PredictionService(registry, max_delay_ms=0.0)
        matrix = assoc_a.left[:12]
        rows = [np.flatnonzero(row).tolist() for row in matrix]
        body = encode_packed_rows(matrix, {"model": "live", "target": "R"})

        async def both():
            packed_status, packed = await service.handle("POST", "/predict", body)
            json_status, via_json = await service.handle(
                "POST",
                "/predict",
                json.dumps(
                    {"model": "live", "target": "R", "rows": rows}
                ).encode(),
            )
            return packed_status, packed, json_status, via_json

        packed_status, packed, json_status, via_json = asyncio.run(both())
        assert packed_status == 200 and json_status == 200
        assert packed["predictions"] == via_json["predictions"]
        assert packed["model"] == "live" and packed["version"] == 1

    def test_packed_predict_validation(self, crossed_registry, rng):
        registry, __, ___ = crossed_registry
        service = PredictionService(registry, max_delay_ms=0.0)

        async def status_of(body):
            status, __ = await service.handle("POST", "/predict", body)
            return status

        wide = encode_packed_rows(
            rng.random((2, 9)) < 0.5, {"model": "live", "target": "R"}
        )
        assert asyncio.run(status_of(wide)) == 400  # wrong vocabulary width
        anonymous = encode_packed_rows(rng.random((2, 2)) < 0.5)
        assert asyncio.run(status_of(anonymous)) == 400  # no model name
        ghost = encode_packed_rows(
            rng.random((2, 2)) < 0.5, {"model": "ghost"}
        )
        assert asyncio.run(status_of(ghost)) == 404
        truncated = encode_packed_rows(
            rng.random((2, 2)) < 0.5, {"model": "live"}
        )[:-1]
        assert asyncio.run(status_of(truncated)) == 400
        # Set padding bits and bad header dimensions are 400s (malformed
        # client input), never 500s.
        padded = bytearray(
            encode_packed_rows(rng.random((2, 2)) < 0.5, {"model": "live"})
        )
        padded[-1] |= 0x80  # padding bit of the last row's only word
        status, payload = asyncio.run(
            service.handle("POST", "/predict", bytes(padded))
        )
        assert status == 400 and "padding" in payload["error"]
        bogus = TestCodec._frame(
            {"model": "live", "n_rows": -1, "n_items": 2}, b""
        )
        assert asyncio.run(status_of(bogus)) == 400

    def test_packed_cache_key_includes_shape(self, crossed_registry):
        # A (2, 2) frame and an (invalid) (1, 4) frame with identical
        # decoded payload bytes must not collide in the response cache —
        # the second one has the wrong vocabulary width and must 400.
        registry, __, ___ = crossed_registry
        service = PredictionService(registry, max_delay_ms=0.0)
        bits = np.array([True, False, False, True])
        valid = encode_packed_rows(
            bits.reshape(2, 2), {"model": "live", "target": "R"}
        )
        colliding = encode_packed_rows(
            bits.reshape(1, 4), {"model": "live", "target": "R"}
        )

        async def scenario():
            ok_status, __ = await service.handle("POST", "/predict", valid)
            bad_status, ___ = await service.handle("POST", "/predict", colliding)
            return ok_status, bad_status

        ok_status, bad_status = asyncio.run(scenario())
        assert ok_status == 200
        assert bad_status == 400, "shape mismatch must not be served from cache"

    def test_packed_predict_cache_hits(self, crossed_registry):
        registry, assoc_a, __ = crossed_registry
        service = PredictionService(registry, max_delay_ms=0.0)
        body = encode_packed_rows(
            assoc_a.left[:4], {"model": "live", "target": "R"}
        )

        async def twice():
            first = await service.predict_packed(body)
            second = await service.predict_packed(body)
            return first, second

        first, second = asyncio.run(twice())
        assert first["cached"] is False and second["cached"] is True
        assert first["predictions"] == second["predictions"]


class TestPredictorEviction:
    def test_lru_bounds_resident_predictors(self, crossed_registry):
        registry, assoc_a, __ = crossed_registry
        result = TranslatorExact().fit(assoc_a)
        for __ in range(4):  # versions 2..5
            registry.publish(ModelArtifact.from_result("live", assoc_a, result))
        service = PredictionService(
            registry, max_delay_ms=0.0, cache_size=0, max_predictors=2
        )

        async def hit_all_versions():
            responses = []
            for version in (1, 2, 3, 4, 5, 1):  # 1 is evicted, then back
                responses.append(
                    await service.predict(
                        {
                            "model": "live",
                            "version": version,
                            "target": "R",
                            "rows": [[0]],
                        }
                    )
                )
            return responses

        responses = asyncio.run(hit_all_versions())
        assert len(service._predictors) <= 2
        assert [response["version"] for response in responses] == [
            1, 2, 3, 4, 5, 1,
        ]
        # Same model, so every version answers identically.
        assert responses[0]["predictions"] == responses[-1]["predictions"]

    def test_max_predictors_validation(self, crossed_registry):
        registry, __, ___ = crossed_registry
        with pytest.raises(ValueError, match="max_predictors"):
            PredictionService(registry, max_predictors=0)


class TestRegistryRace:
    def test_transiently_missing_pointer_is_retried(
        self, crossed_registry, monkeypatch
    ):
        registry, __, ___ = crossed_registry
        real_read = Path.read_text
        calls = {"failures": 0}

        def flaky(self, *args, **kwargs):
            if self.name == "LATEST" and calls["failures"] == 0:
                calls["failures"] += 1
                raise FileNotFoundError(str(self))  # publisher mid-swap
            return real_read(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", flaky)
        assert registry.latest_version("live") == 1
        assert calls["failures"] == 1, "the first read must have been retried"

    def test_pointer_ahead_of_directory_scan_is_trusted(
        self, crossed_registry, monkeypatch
    ):
        registry, assoc_a, __ = crossed_registry
        result = TranslatorExact().fit(assoc_a)
        # Scans see only v1, the pointer says v2: simulates a publisher
        # finishing between the scan and the pointer read.
        real_versions = ModelRegistry.versions
        state = {"first": True}

        def stale_once(self, name):
            versions = real_versions(self, name)
            if state["first"]:
                state["first"] = False
                return versions[:1]
            return versions

        registry.publish(ModelArtifact.from_result("live", assoc_a, result))
        monkeypatch.setattr(ModelRegistry, "versions", stale_once)
        assert registry.latest_version("live") == 2

    def test_concurrent_publishes_never_break_readers(self, crossed_registry):
        registry, assoc_a, __ = crossed_registry
        result = TranslatorExact().fit(assoc_a)
        stop = threading.Event()
        errors = []

        def publisher():
            try:
                for __ in range(5):
                    registry.publish(
                        ModelArtifact.from_result("live", assoc_a, result)
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)
            finally:
                stop.set()

        thread = threading.Thread(target=publisher)
        thread.start()
        seen = set()
        while not stop.is_set():
            seen.add(registry.latest_version("live"))
        thread.join()
        assert not errors
        assert seen <= {1, 2, 3, 4, 5, 6}
        assert registry.latest_version("live") == 6


class TestMaintenanceLoop:
    def test_bootstrap_publish_and_stable_stream(self, tmp_path):
        assoc_a, __ = crossed_pair(240)
        registry = ModelRegistry(tmp_path / "registry")
        buffer = StreamBuffer(2, 2)

        async def scenario():
            source = FeedSource()
            for row in range(240):
                source.put_nowait(
                    np.flatnonzero(assoc_a.left[row]).tolist(),
                    np.flatnonzero(assoc_a.right[row]).tolist(),
                )
            source.close()
            loop = MaintenanceLoop(
                source,
                buffer,
                registry,
                "live",
                TranslatorExact(),
                policy=RefitPolicy(window=80, check_every=40, min_rows=40),
            )
            await loop.run()
            return loop

        loop = asyncio.run(scenario())
        assert loop.rows_seen == 240
        # Bootstrap published v1; the stationary stream never drifts.
        assert registry.latest_version("live") == 1
        published = [event for event in loop.events if event.published]
        assert len(published) == 1 and published[0].report is None
        assert all(
            not event.report.drifted
            for event in loop.events
            if event.report is not None
        )

    def test_tumbling_window_clears_between_blocks(self, tmp_path):
        assoc_a, __ = crossed_pair(200)
        registry = ModelRegistry(tmp_path / "registry")
        buffer = StreamBuffer(2, 2)

        async def scenario():
            source = FeedSource()
            for row in range(200):
                source.put_nowait(
                    np.flatnonzero(assoc_a.left[row]).tolist(),
                    np.flatnonzero(assoc_a.right[row]).tolist(),
                )
            source.close()
            loop = MaintenanceLoop(
                source,
                buffer,
                registry,
                "live",
                TranslatorExact(),
                policy=RefitPolicy(
                    window=80, policy="tumbling", min_rows=40
                ),
            )
            await loop.run()
            return loop

        loop = asyncio.run(scenario())
        # 200 rows = 2 full blocks of 80 plus a final partial block of 40.
        assert len(loop.events) == 3
        assert len(buffer) == 40  # the final partial block stays buffered

    def test_short_sliding_stream_still_bootstraps(self, tmp_path):
        # Fewer rows than check_every must still produce a model on
        # drain (the final-check path).
        assoc_a, __ = crossed_pair(100)
        registry = ModelRegistry(tmp_path / "registry")

        async def scenario():
            source = FeedSource()
            for row in range(100):
                source.put_nowait(
                    np.flatnonzero(assoc_a.left[row]).tolist(),
                    np.flatnonzero(assoc_a.right[row]).tolist(),
                )
            source.close()
            loop = MaintenanceLoop(
                source,
                StreamBuffer(2, 2),
                registry,
                "live",
                TranslatorExact(),
                policy=RefitPolicy(window=256, check_every=128, min_rows=64),
            )
            await loop.run()
            return loop

        loop = asyncio.run(scenario())
        assert registry.latest_version("live") == 1
        assert loop.published_version == 1

    def test_structureless_stream_does_not_republish(self, tmp_path):
        # Significance drift on a stream with no cross-view structure is
        # reported but must not republish an equally useless model on
        # every check (the registry would grow without bound).
        rng = np.random.default_rng(3)
        registry = ModelRegistry(tmp_path / "registry")

        async def scenario():
            source = FeedSource()
            for __ in range(240):
                source.put_nowait(
                    np.flatnonzero(rng.random(4) < 0.3).tolist(),
                    np.flatnonzero(rng.random(4) < 0.3).tolist(),
                )
            source.close()
            loop = MaintenanceLoop(
                source,
                StreamBuffer(4, 4),
                registry,
                "live",
                TranslatorExact(),
                policy=RefitPolicy(window=80, check_every=40, min_rows=40),
            )
            await loop.run()
            return loop

        loop = asyncio.run(scenario())
        significance_events = [
            event
            for event in loop.events
            if event.report is not None and event.report.reason == "significance"
        ]
        assert significance_events, "noise should trip the significance trigger"
        # Significance-only drift is reported but never publishes; only
        # a candidate that measurably improves on the published table
        # (degradation trigger) earns a new version.
        for event in significance_events:
            assert not event.published
        for event in loop.events[1:]:  # event 0 is the bootstrap
            if event.published:
                assert event.report.reason == "degradation"
                assert event.report.degradation > 0.02

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="unknown window policy"):
            RefitPolicy(policy="hopping")
        with pytest.raises(ValueError, match="at least min_rows"):
            RefitPolicy(window=32, min_rows=64)

    def test_e2e_hot_swap_of_live_server(self, crossed_registry):
        """Drifted rows -> new version published -> /predict answers
        change, with the HTTP server running the whole time."""
        registry, assoc_a, assoc_b = crossed_registry
        service = PredictionService(
            registry, max_delay_ms=0.0, cache_size=0, latest_ttl_seconds=0.0
        )
        server = PredictionServer(service, port=0)
        probe = json.dumps(
            {"model": "live", "target": "R", "rows": [[0]]}
        ).encode()

        async def call_predict() -> dict:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                b"POST /predict HTTP/1.1\r\nContent-Length: "
                + str(len(probe)).encode()
                + b"\r\n\r\n"
                + probe
            )
            await writer.drain()
            response = await reader.read()
            writer.close()
            head, __, body = response.partition(b"\r\n\r\n")
            assert int(head.split()[1]) == 200
            return json.loads(body)

        async def scenario():
            await server.start()
            try:
                before = await call_predict()
                source = FeedSource()
                for row in range(assoc_b.n_transactions):
                    source.put_nowait(
                        np.flatnonzero(assoc_b.left[row]).tolist(),
                        np.flatnonzero(assoc_b.right[row]).tolist(),
                    )
                source.close()
                loop = MaintenanceLoop(
                    source,
                    StreamBuffer(2, 2),
                    registry,
                    "live",
                    TranslatorExact(),
                    policy=RefitPolicy(window=80, check_every=40, min_rows=40),
                )
                await loop.run()
                after = await call_predict()
                return before, after, loop
            finally:
                await server.stop()

        before, after, loop = asyncio.run(scenario())
        assert before["version"] == 1
        assert after["version"] > 1, "the loop must have published a version"
        assert before["predictions"] != after["predictions"], (
            "the hot-swapped model must answer the probe differently"
        )
        # Under association a, L0 predicts R0; under b it predicts R1.
        assert before["predictions"][0] == [0]
        assert after["predictions"][0] == [1]
        drift_reports = [
            event.report for event in loop.events if event.report is not None
        ]
        assert any(report.drifted for report in drift_reports)


class TestStreamCli:
    def test_jsonl_stream_publishes(self, tmp_path, capsys):
        from repro.cli import main

        assoc_a, __ = crossed_pair(200)
        rows_path = tmp_path / "rows.jsonl"
        rows_path.write_text(
            "\n".join(
                json.dumps(
                    {
                        "left": np.flatnonzero(assoc_a.left[row]).tolist(),
                        "right": np.flatnonzero(assoc_a.right[row]).tolist(),
                    }
                )
                for row in range(200)
            )
        )
        registry_dir = tmp_path / "registry"
        assert main([
            "stream", str(rows_path), "--registry", str(registry_dir),
            "--name", "live", "--n-left", "2", "--n-right", "2",
            "--window", "80", "--check-every", "40", "--min-rows", "40",
        ]) == 0
        out = capsys.readouterr().out
        assert "published v1" in out
        assert ModelRegistry(registry_dir).latest_version("live") == 1

    def test_requires_vocabulary(self, tmp_path, capsys):
        from repro.cli import main

        rows_path = tmp_path / "rows.jsonl"
        rows_path.write_text("")
        assert main([
            "stream", str(rows_path), "--registry", str(tmp_path / "r"),
            "--name", "live",
        ]) == 2
        assert "--vocab-from" in capsys.readouterr().err

    def test_follow_rejected_for_packed_sources(self, tmp_path, capsys, rng):
        from repro.cli import main

        path = tmp_path / "rows.2vp"
        path.write_bytes(
            encode_packed_rows(
                rng.random((2, 2)) < 0.5, right=rng.random((2, 2)) < 0.5
            )
        )
        assert main([
            "stream", str(path), "--registry", str(tmp_path / "r"),
            "--name", "live", "--n-left", "2", "--n-right", "2", "--follow",
        ]) == 2
        assert "only supported for JSONL" in capsys.readouterr().err
