"""Serving subsystem tests (``pytest -m serve_smoke``).

Covers the compiled predictor every translation runs through — each of
its paths, ``translate_view``, both ``predict_view`` engines and the
service's ``/predict`` answer, all against one oracle:
:func:`~repro.core.translate.translate_transaction` applied row by row,
the literal Algorithm 1 — then artifacts and the registry (hash
verification, vocabulary checks, immutable versions, ``latest``
resolution), and the async service (micro-batch coalescing, LRU
response cache, HTTP round trips), plus the empty-antecedent guard and
the serving CLI commands.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core.predict import predict_view
from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.core.translate import translate_view
from repro.core.translator import TranslatorGreedy
from repro.data.dataset import Side, TwoViewDataset
from repro.data.registry import make_dataset
from repro.runtime.cache import content_key
from repro.serve import (
    ArtifactError,
    CompiledPredictor,
    LRUCache,
    MicroBatcher,
    ModelArtifact,
    ModelRegistry,
    PredictionServer,
    PredictionService,
    ReplicaRouter,
    load_artifact,
    local_replica_factory,
    map_artifact,
    save_artifact,
    write_compiled,
)
from tests.conftest import oracle, path_outputs

pytestmark = pytest.mark.serve_smoke

#: The compiled paths, reached through their private per-path methods;
#: ``"packed"`` runs on every engine the platform offers.
PATHS = ("blas", pytest.param("packed", marks=pytest.mark.native_smoke))
#: Row and source-item counts around the 64-bit word edges.
ROW_COUNTS = (1, 63, 64, 65, 257)
SOURCE_ITEMS = (1, 64, 65, 130)


def random_table(rng, n_left, n_right, n_rules=12) -> TranslationTable:
    rules = set()
    while len(rules) < n_rules:
        lhs = tuple(sorted(rng.choice(
            n_left, size=int(rng.integers(1, min(4, n_left + 1))), replace=False
        )))
        rhs = tuple(sorted(rng.choice(
            n_right, size=int(rng.integers(1, min(4, n_right + 1))), replace=False
        )))
        direction = ("->", "<-", "<->")[int(rng.integers(0, 3))]
        rules.add((lhs, rhs, direction))
    return TranslationTable(
        TranslationRule(lhs, rhs, direction) for lhs, rhs, direction in sorted(rules)
    )


def oracle_cases(rng, n_source, target):
    """``(label, table, n_target)``: random, empty, other-way, no target items."""
    n_target = 13
    shape = (n_source, n_target) if target is Side.RIGHT else (n_target, n_source)
    away = "<-" if target is Side.RIGHT else "->"
    return [
        ("random", random_table(rng, *shape), n_target),
        ("no rules", TranslationTable(), n_target),
        (
            "other way only",
            TranslationTable(dict.fromkeys(
                rule.with_direction(away) for rule in random_table(rng, *shape)
            )),
            n_target,
        ),
        ("no target items", TranslationTable(), 0),
    ]


def compile_by(build, table, target, n_source, n_target, path) -> CompiledPredictor:
    """Compile with ``from_table``, or write a sidecar and ``from_mapped`` it."""
    if build == "from_table":
        return CompiledPredictor.from_table(table, target, n_source, n_target)
    n_left, n_right = (
        (n_source, n_target) if target is Side.RIGHT else (n_target, n_source)
    )
    artifact = ModelArtifact(
        "oracle",
        table,
        tuple(f"l{item}" for item in range(n_left)),
        tuple(f"r{item}" for item in range(n_right)),
    )
    write_compiled(artifact, path)
    return CompiledPredictor.from_mapped(map_artifact(path), target)


@pytest.fixture(scope="module")
def car_model():
    """A table fitted on the paper's ``car`` dataset (shrunk for speed)."""
    dataset = make_dataset("car", scale=0.2)
    result = TranslatorGreedy(minsup=5).fit(dataset)
    return dataset, result


@pytest.fixture()
def registry(tmp_path, car_model):
    dataset, result = car_model
    registry = ModelRegistry(tmp_path / "registry")
    artifact = ModelArtifact.from_result(
        "car", dataset, result, {"method": "greedy", "minsup": 5}
    )
    registry.publish(artifact)
    return registry


class TestCompiledPredictor:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("path", PATHS)
    def test_bit_identical_to_loop_on_synthetic(self, seed, path):
        rng = np.random.default_rng(seed)
        n_left, n_right = 14, 11
        table = random_table(rng, n_left, n_right)
        batch = rng.random((73, n_left)) < 0.35
        expected = oracle(batch, table, Side.RIGHT, n_right)
        compiled = CompiledPredictor.from_table(table, Side.RIGHT, n_left, n_right)
        for label, output in path_outputs(compiled, path, batch):
            assert np.array_equal(output, expected), label

    @pytest.mark.parametrize("path", PATHS)
    def test_bit_identical_to_loop_on_car(self, car_model, path):
        dataset, result = car_model
        rng = np.random.default_rng(3)
        for target, n_source, n_target, names in (
            (Side.RIGHT, dataset.n_left, dataset.n_right, "forward"),
            (Side.LEFT, dataset.n_right, dataset.n_left, "backward"),
        ):
            batch = rng.random((257, n_source)) < 0.3
            expected = oracle(batch, result.table, target, n_target)
            compiled = CompiledPredictor.from_table(
                result.table, target, n_source, n_target
            )
            for label, output in path_outputs(compiled, path, batch):
                assert np.array_equal(
                    output, expected
                ), f"{label} disagreed with the oracle ({names})"

    @pytest.mark.parametrize("build", ("from_table", "from_mapped"))
    @pytest.mark.parametrize("path", PATHS)
    def test_every_path_equals_the_oracle(self, tmp_path, path, build):
        # Word edges in rows and source items, empty and one-way tables,
        # an empty target view; both constructors.
        rng = np.random.default_rng(11)
        for n_source in SOURCE_ITEMS:
            for target in (Side.RIGHT, Side.LEFT):
                cases = oracle_cases(rng, n_source, target)
                for number, (label, table, n_target) in enumerate(cases):
                    compiled = compile_by(
                        build, table, target, n_source, n_target,
                        tmp_path / f"{n_source}-{target.value}-{number}.bin",
                    )
                    for n_rows in ROW_COUNTS:
                        batch = rng.random((n_rows, n_source)) < 0.4
                        expected = oracle(batch, table, target, n_target)
                        for run, output in path_outputs(compiled, path, batch):
                            assert np.array_equal(output, expected), (
                                label, n_source, target, n_rows, run,
                            )

    def test_engine_dispatch_in_predict_view(self, car_model):
        # translate_view and both predict_view engines against the oracle,
        # on car and across the word edges of rows and source items.
        dataset, result = car_model
        rng = np.random.default_rng(5)
        cases = [(dataset, result.table)]
        for n_rows in ROW_COUNTS:
            for n_source in SOURCE_ITEMS:
                cases.append((
                    TwoViewDataset(
                        rng.random((n_rows, n_source)) < 0.4,
                        rng.random((n_rows, 13)) < 0.4,
                    ),
                    random_table(rng, n_source, 13),
                ))
        for data, table in cases:
            for target in (Side.RIGHT, Side.LEFT):
                source = data.view(target.opposite)
                n_target = data.n_side(target)
                expected = oracle(source, table, target, n_target)
                assert np.array_equal(translate_view(data, table, target), expected)
                for name in ("compiled", "loop"):
                    assert np.array_equal(
                        predict_view(source, table, target, n_target, engine=name),
                        expected,
                    ), name
        with pytest.raises(ValueError, match="engine"):
            predict_view(
                dataset.left, result.table, Side.RIGHT, dataset.n_right, engine="auto"
            )

    def test_single_row_and_empty_batch(self):
        table = TranslationTable([TranslationRule((0, 1), (2,), "->")])
        compiled = CompiledPredictor.from_table(table, Side.RIGHT, 3, 3)
        assert compiled.predict([[True, True, False]]).tolist() == [
            [False, False, True],
        ]
        assert compiled.predict(np.zeros((0, 3), dtype=bool)).shape == (0, 3)

    def test_direction_filtering(self):
        # A backward-only rule must not fire towards the right view.
        table = TranslationTable([TranslationRule((0,), (0,), "<-")])
        compiled = CompiledPredictor.from_table(table, Side.RIGHT, 2, 2)
        assert compiled.n_rules == 0
        assert not compiled.predict([[True, True]]).any()
        backward = CompiledPredictor.from_table(table, Side.LEFT, 2, 2)
        assert backward.n_rules == 1

    def test_shape_validation(self):
        table = TranslationTable([TranslationRule((0,), (0,), "->")])
        compiled = CompiledPredictor.from_table(table, Side.RIGHT, 4, 4)
        with pytest.raises(ValueError, match="source matrix"):
            compiled.predict(np.zeros((2, 5), dtype=bool))

    def test_wide_vocabulary_crosses_word_boundary(self):
        # >64 items per view exercises multi-word packed rows.
        rng = np.random.default_rng(9)
        table = random_table(rng, 130, 70, n_rules=20)
        batch = rng.random((40, 130)) < 0.4
        expected = oracle(batch, table, Side.RIGHT, 70)
        compiled = CompiledPredictor.from_table(table, Side.RIGHT, 130, 70)
        assert np.array_equal(compiled.predict(batch), expected)
        for path in ("blas", "packed"):
            for label, output in path_outputs(compiled, path, batch):
                assert np.array_equal(output, expected), label


class _EmptyAntecedentRule:
    """Duck-typed rule with an empty antecedent (TranslationRule forbids it)."""

    def applies_towards(self, target):
        return True

    def antecedent(self, target):
        return ()

    def consequent(self, target):
        return (0,)


class TestEmptyAntecedentGuard:
    def test_loop_engine_skips_with_warning(self):
        batch = np.zeros((3, 2), dtype=bool)  # nothing should ever fire
        with pytest.warns(UserWarning, match="empty antecedent"):
            predicted = predict_view(
                batch, [_EmptyAntecedentRule()], Side.RIGHT, 2, engine="loop"
            )
        assert not predicted.any()

    def test_compiled_engine_skips_with_warning(self):
        with pytest.warns(UserWarning, match="empty antecedent"):
            compiled = CompiledPredictor.from_table(
                [_EmptyAntecedentRule()], Side.RIGHT, 2, 2
            )
        assert compiled.n_rules == 0
        assert not compiled.predict(np.zeros((3, 2), dtype=bool)).any()


class TestArtifact:
    def test_save_load_roundtrip(self, tmp_path, car_model):
        dataset, result = car_model
        artifact = ModelArtifact.from_result("car", dataset, result, {"minsup": 5})
        path = tmp_path / "artifact.json"
        digest = save_artifact(artifact, path)
        loaded = load_artifact(path)
        assert loaded.table == artifact.table
        assert loaded.left_names == tuple(dataset.left_names)
        assert loaded.fit_params == {"minsup": 5}
        assert loaded.content_hash == digest

    def test_tampered_artifact_rejected(self, tmp_path, car_model):
        dataset, result = car_model
        path = tmp_path / "artifact.json"
        save_artifact(ModelArtifact.from_result("car", dataset, result), path)
        payload = json.loads(path.read_text())
        payload["fit_params"] = {"minsup": 999}  # tamper without rehashing
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="hash mismatch"):
            load_artifact(path)
        # Opting out of verification still loads it.
        assert load_artifact(path, verify=False).fit_params == {"minsup": 999}

    def test_unreadable_artifact_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="cannot read"):
            load_artifact(path)

    def test_unknown_schema_rejected(self, tmp_path, car_model):
        dataset, result = car_model
        path = tmp_path / "artifact.json"
        save_artifact(ModelArtifact.from_result("car", dataset, result), path)
        payload = json.loads(path.read_text())
        payload["artifact_schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="artifact_schema_version"):
            load_artifact(path)


class TestRegistry:
    def test_publish_assigns_increasing_versions(self, registry, car_model):
        dataset, result = car_model
        artifact = ModelArtifact.from_result("car", dataset, result)
        assert registry.versions("car") == [1]
        assert registry.publish(artifact).version == 2
        assert registry.versions("car") == [1, 2]
        assert registry.latest_version("car") == 2
        assert registry.models() == ["car"]

    def test_latest_pointer_rollback(self, registry, car_model):
        dataset, result = car_model
        registry.publish(ModelArtifact.from_result("car", dataset, result))
        registry.set_latest("car", 1)
        assert registry.latest_version("car") == 1
        assert registry.load("car").version == 1
        assert registry.load("car", "latest").version == 1
        assert registry.load("car", 2).version == 2
        with pytest.raises(KeyError):
            registry.set_latest("car", 42)

    def test_damaged_latest_pointer_raises_after_capped_retries(self, registry):
        # A persistently torn pointer is corruption, not a race: the read
        # loop is capped and surfaces a clear ArtifactError instead of
        # spinning or silently serving some other version.
        (registry.model_dir("car") / "LATEST").write_text("not-a-number")
        with pytest.raises(ArtifactError, match="LATEST pointer.*damaged"):
            registry.latest_version("car")
        # The damaged model degrades its /models row, not the listing.
        rows = registry.describe()
        assert rows[0]["name"] == "car"
        assert "LATEST pointer" in str(rows[0]["error"])

    def test_missing_latest_pointer_falls_back(self, registry):
        # Never written (publish(set_latest=False)): highest version wins.
        (registry.model_dir("car") / "LATEST").unlink(missing_ok=True)
        assert registry.latest_version("car") == 1

    def test_pointer_naming_unpublished_version_raises(self, registry):
        (registry.model_dir("car") / "LATEST").write_text("42\n")
        with pytest.raises(ArtifactError, match="names version 42"):
            registry.latest_version("car")

    def test_versions_are_immutable(self, registry, car_model):
        dataset, result = car_model
        stamped = registry.load("car", 1)
        directory = registry.artifact_path("car", 1).parent
        with pytest.raises(FileExistsError):
            directory.mkdir(parents=True, exist_ok=False)
        assert registry.load("car", 1).content_hash == stamped.content_hash

    def test_unknown_model_and_version(self, registry):
        with pytest.raises(KeyError):
            registry.load("nope")
        with pytest.raises(KeyError):
            registry.load("car", 99)

    def test_corrupt_artifact_rejected_on_load(self, registry):
        path = registry.artifact_path("car", 1)
        payload = json.loads(path.read_text())
        payload["vocab"]["left"] = payload["vocab"]["left"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match="hash mismatch"):
            registry.load("car", 1)

    def test_invalid_model_name(self, registry):
        with pytest.raises(ValueError, match="model name"):
            registry.model_dir("../escape")

    def test_stray_directories_ignored(self, registry):
        (registry.root / ".git").mkdir()
        (registry.root / ".DS_Store").mkdir()
        assert registry.models() == ["car"]
        assert [row["name"] for row in registry.describe()] == ["car"]

    def test_publish_rejects_items_outside_the_vocabulary(self, tmp_path, car_model):
        # A table fitted on all of car's left items, against a dataset
        # cut to 10 of them: nothing reaches the version directory.
        dataset, result = car_model
        assert any(rule.lhs[-1] >= 10 for rule in result.table)
        cut = TwoViewDataset(
            dataset.left[:, :10],
            dataset.right,
            left_names=dataset.left_names[:10],
            right_names=dataset.right_names,
        )
        registry = ModelRegistry(tmp_path / "cut")
        with pytest.raises(ArtifactError, match="10 left items"):
            registry.publish(ModelArtifact.from_result("car", cut, result))
        assert not registry.model_dir("car").exists()

    def test_describe(self, registry):
        rows = registry.describe()
        assert [row["name"] for row in rows] == ["car"]
        assert rows[0]["latest"] == 1
        assert rows[0]["n_rules"] > 0


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestMicroBatcher:
    def test_concurrent_requests_coalesce_into_one_call(self):
        calls = []

        def run(batch):
            calls.append(batch.shape[0])
            return ~batch

        async def scenario():
            batcher = MicroBatcher(max_batch=64, max_delay_ms=25.0)
            rows = [np.eye(4, dtype=bool)[i : i + 1] for i in range(4)]
            results = await asyncio.gather(
                *(batcher.submit("lane", row, run) for row in rows)
            )
            return results, batcher

        results, batcher = asyncio.run(scenario())
        assert calls == [4], "4 concurrent requests must run as one batch"
        assert batcher.batches == 1 and batcher.batched_rows == 4
        for index, result in enumerate(results):
            assert np.array_equal(result, ~np.eye(4, dtype=bool)[index : index + 1])

    def test_max_batch_triggers_immediate_flush(self):
        calls = []

        def run(batch):
            calls.append(batch.shape[0])
            return batch

        async def scenario():
            batcher = MicroBatcher(max_batch=2, max_delay_ms=10_000.0)
            rows = np.ones((1, 3), dtype=bool)
            await asyncio.gather(
                batcher.submit("lane", rows, run),
                batcher.submit("lane", rows, run),
            )

        asyncio.run(asyncio.wait_for(scenario(), timeout=5.0))
        assert calls == [2], "hitting max_batch must flush without the delay"

    def test_separate_lanes_do_not_mix(self):
        seen = {}

        def runner(name):
            def run(batch):
                seen.setdefault(name, 0)
                seen[name] += batch.shape[0]
                return batch

            return run

        async def scenario():
            batcher = MicroBatcher(max_batch=8, max_delay_ms=10.0)
            rows = np.ones((1, 2), dtype=bool)
            await asyncio.gather(
                batcher.submit("a", rows, runner("a")),
                batcher.submit("b", rows, runner("b")),
                batcher.submit("a", rows, runner("a")),
            )

        asyncio.run(scenario())
        assert seen == {"a": 2, "b": 1}

    def test_runner_failure_propagates_to_all_waiters(self):
        def run(batch):
            raise RuntimeError("model exploded")

        async def scenario():
            batcher = MicroBatcher(max_batch=8, max_delay_ms=5.0)
            rows = np.ones((1, 2), dtype=bool)
            results = await asyncio.gather(
                batcher.submit("lane", rows, run),
                batcher.submit("lane", rows, run),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)

    def test_cancelled_flush_releases_waiters_promptly(self):
        # Shutdown discipline: cancelling the flush task while it waits
        # for batch company must hand every pending waiter a clean
        # CancelledError immediately — never a hang, never a re-wrapped
        # exception — and the cancellation itself must propagate (the
        # flush task ends *cancelled*, not swallowed-and-completed).
        async def scenario():
            batcher = MicroBatcher(max_batch=64, max_delay_ms=60_000.0)
            rows = np.ones((1, 2), dtype=bool)
            waiter = asyncio.ensure_future(
                batcher.submit("lane", rows, lambda batch: batch)
            )
            await asyncio.sleep(0.01)  # let the flush task start waiting
            (flush_task,) = batcher._flush_tasks
            flush_task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await asyncio.wait_for(waiter, timeout=5.0)
            assert flush_task.cancelled(), "flush task swallowed its cancellation"
            assert "lane" not in batcher._lanes, "cancelled lane left behind"

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))

    def test_shutdown_cancels_outstanding_flushes(self):
        async def scenario():
            batcher = MicroBatcher(max_batch=64, max_delay_ms=60_000.0)
            rows = np.ones((1, 2), dtype=bool)
            waiters = [
                asyncio.ensure_future(
                    batcher.submit(lane, rows, lambda batch: batch)
                )
                for lane in ("a", "b")
            ]
            await asyncio.sleep(0.01)
            await batcher.shutdown()
            results = await asyncio.gather(*waiters, return_exceptions=True)
            assert all(
                isinstance(result, asyncio.CancelledError) for result in results
            )
            assert not batcher._flush_tasks and not batcher._lanes

        asyncio.run(asyncio.wait_for(scenario(), timeout=10.0))

class TestPredictionService:
    def test_concurrent_predicts_coalesce(self, registry):
        service = PredictionService(registry, max_delay_ms=25.0, cache_size=0)
        predictor = service.predictor("car", 1, Side.RIGHT)
        calls = []

        class CountingPredictor:
            def predict(self, batch):
                calls.append(batch.shape[0])
                return predictor.predict(batch)

        service._predictors[("car", 1, Side.RIGHT.value)] = CountingPredictor()

        async def scenario():
            requests = [
                {"model": "car", "target": "R", "rows": [[index]]}
                for index in range(6)
            ]
            return await asyncio.gather(
                *(service.predict(request) for request in requests)
            )

        responses = asyncio.run(scenario())
        assert calls == [6], "6 concurrent requests must cost one predictor call"
        assert all(response["version"] == 1 for response in responses)
        stats = service.stats["car"]
        assert stats.requests == 6 and stats.rows == 6

    def test_response_cache_hit(self, registry):
        service = PredictionService(registry, max_delay_ms=0.0)
        request = {"model": "car", "target": "R", "rows": [[0, 3], []]}

        async def scenario():
            first = await service.predict(request)
            second = await service.predict(request)
            return first, second

        first, second = asyncio.run(scenario())
        assert first["cached"] is False and second["cached"] is True
        assert first["predictions"] == second["predictions"]
        assert service.stats["car"].cache_hits == 1

    def test_predictions_match_loop_engine(self, registry, car_model):
        # The /predict answer, both directions, against the oracle.
        dataset, result = car_model
        service = PredictionService(registry, max_delay_ms=0.0)
        for target, source, n_target in (
            (Side.RIGHT, dataset.left[:65], dataset.n_right),
            (Side.LEFT, dataset.right[:65], dataset.n_left),
        ):
            rows = [sorted(np.flatnonzero(row).tolist()) for row in source]
            response = asyncio.run(service.predict(
                {"model": "car", "target": target.value, "rows": rows}
            ))
            expected = oracle(source, result.table, target, n_target)
            assert response["predictions"] == [
                np.flatnonzero(row).tolist() for row in expected
            ]

    def test_out_of_vocabulary_version_answers_from_last_good(self, registry):
        # v2 is re-signed, so it loads past the hash check, but a rule
        # names a left item the vocabulary does not have: the load is an
        # ArtifactError and v1, which served before, answers stale.
        service = PredictionService(registry, max_delay_ms=0.0, cache_size=0)
        request = {"model": "car", "target": "R", "rows": [[0, 3]]}
        good = asyncio.run(service.predict(request))
        registry.publish(registry.load("car", 1), sidecar=False)
        path = registry.artifact_path("car", 2)
        payload = json.loads(path.read_text())
        n_left = len(payload["vocab"]["left"])
        payload["table"]["rules"][0]["lhs"] = [n_left + 5]
        payload["content_hash"] = content_key(
            {key: value for key, value in payload.items() if key != "content_hash"}
        )
        path.write_text(json.dumps(payload))
        with pytest.raises(ArtifactError, match=f"{n_left} left items"):
            load_artifact(path)
        response = asyncio.run(service.predict({**request, "version": 2}))
        assert response["stale"] is True and response["version"] == 1
        assert response["predictions"] == good["predictions"]

    def test_request_validation(self, registry):
        service = PredictionService(registry, max_delay_ms=0.0)

        async def status_of(body):
            status, __ = await service.handle(
                "POST", "/predict", json.dumps(body).encode()
            )
            return status

        assert asyncio.run(status_of({"target": "R", "rows": []})) == 400
        assert asyncio.run(status_of({"model": "car", "rows": "x"})) == 400
        assert asyncio.run(status_of({"model": "ghost", "rows": []})) == 404
        assert (
            asyncio.run(status_of({"model": "car", "version": 9, "rows": []})) == 404
        )
        assert (
            asyncio.run(status_of({"model": "car", "rows": [[99999]]})) == 400
        )
        # Items must be integers: nothing is coerced, nothing is a 500.
        for rows in (
            [[None]], [[[1]]], [[{}]], [[0, 1.9]], [[0, "1"]], [[0, True]],
        ):
            assert asyncio.run(status_of({"model": "car", "rows": rows})) == 400

    def test_corrupt_artifact_maps_to_500(self, registry):
        path = registry.artifact_path("car", 1)
        payload = json.loads(path.read_text())
        payload["content_hash"] = "0" * 64
        path.write_text(json.dumps(payload))
        service = PredictionService(registry, max_delay_ms=0.0)
        status, body = asyncio.run(
            service.handle(
                "POST",
                "/predict",
                json.dumps({"model": "car", "rows": [[0]]}).encode(),
            )
        )
        assert status == 500
        assert "hash mismatch" in body["error"]
        assert service.stats["car"].errors == 1

    def test_per_model_batch_counts_are_exact(self, registry):
        service = PredictionService(registry, max_delay_ms=25.0, cache_size=0)

        async def scenario():
            await asyncio.gather(
                *(
                    service.predict(
                        {"model": "car", "target": "R", "rows": [[index]]}
                    )
                    for index in range(5)
                )
            )

        asyncio.run(scenario())
        assert service.stats["car"].batches == 1

    def test_routes(self, registry):
        service = PredictionService(registry)

        async def scenario():
            health = await service.handle("GET", "/healthz")
            models = await service.handle("GET", "/models")
            missing = await service.handle("GET", "/nope")
            return health, models, missing

        health, models, missing = asyncio.run(scenario())
        assert health[0] == 200 and health[1]["status"] == "ok"
        assert models[0] == 200
        assert models[1]["models"][0]["name"] == "car"
        assert missing[0] == 404


class TestPredictionServer:
    def test_http_round_trip(self, registry):
        """The bare server and the router share one HTTP front."""

        async def scenario(server):
            await server.start()
            try:
                async def call(raw: bytes) -> tuple[int, dict]:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", server.port
                    )
                    writer.write(raw)
                    await writer.drain()
                    response = await reader.read()
                    writer.close()
                    head, __, body = response.partition(b"\r\n\r\n")
                    status = int(head.split()[1])
                    return status, json.loads(body)

                health = await call(b"GET /healthz HTTP/1.1\r\n\r\n")
                body = json.dumps(
                    {"model": "car", "target": "R", "rows": [[0, 1]]}
                ).encode()
                predict = await call(
                    b"POST /predict HTTP/1.1\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\n\r\n"
                    + body
                )
                bad = await call(b"BOGUS\r\n\r\n")
                huge = await call(
                    b"POST /predict HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n"
                )
                return health, predict, bad, huge
            finally:
                await server.stop()

        fronts = (
            PredictionServer(PredictionService(registry, max_delay_ms=0.0), port=0),
            ReplicaRouter(
                local_replica_factory(registry), workers=1, probe_interval=0
            ),
        )
        for front in fronts:
            health, predict, bad, huge = asyncio.run(scenario(front))
            assert health == (200, health[1]) and health[1]["status"] == "ok"
            assert predict[0] == 200 and predict[1]["model"] == "car"
            assert bad[0] == 400
            assert huge[0] == 413, "absurd Content-Length must be rejected"


class TestServeCli:
    def test_publish_serve_predict_batch(self, tmp_path, capsys):
        from repro.cli import main

        registry_dir = tmp_path / "registry"
        assert main([
            "publish", "car", "--scale", "0.2", "--method", "greedy",
            "--minsup", "5", "--registry", str(registry_dir), "--name", "car",
        ]) == 0
        assert "published car v1" in capsys.readouterr().out

        rows_path = tmp_path / "rows.json"
        rows_path.write_text(json.dumps([[0, 3], [1], []]))
        output_path = tmp_path / "predictions.json"
        assert main([
            "predict-batch", "--registry", str(registry_dir), "--model", "car",
            "--input", str(rows_path), "--output", str(output_path),
        ]) == 0
        response = json.loads(output_path.read_text())
        assert response["version"] == 1
        assert len(response["predictions"]) == 3

    def test_publish_table_default_name(self, tmp_path, capsys):
        from repro.cli import main

        table_path = tmp_path / "table.json"
        assert main([
            "fit", "car", "--scale", "0.2", "--method", "greedy",
            "--minsup", "5", "--output", str(table_path),
        ]) == 0
        capsys.readouterr()
        # No --name: a table-file publish must not claim a fit method.
        assert main([
            "publish", "car", "--scale", "0.2", "--table", str(table_path),
            "--registry", str(tmp_path / "registry"),
        ]) == 0
        assert "published car-table v1" in capsys.readouterr().out

    def test_predict_from_saved_table(self, tmp_path, capsys):
        from repro.cli import main

        table_path = tmp_path / "table.json"
        assert main([
            "fit", "car", "--scale", "0.2", "--method", "greedy",
            "--minsup", "5", "--output", str(table_path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "predict", "car", "--scale", "0.2", "--table", str(table_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "saved table" in out
        assert "left_to_right" in out
