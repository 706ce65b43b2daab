"""Invertible-schema tests (``pytest -m multiview_smoke``).

The MDL/equal-height binning pipeline emits
:class:`~repro.data.schema.ViewSchema` provenance that must (a) render
items in original units, (b) invert back to the exact discretiser edges,
and (c) survive every serialisation carrier — table JSON, model
artifacts, binary sidecars, ``.2v`` files — byte-identically, with
legacy schema-less documents still loading.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.core.translator import TranslatorSelect
from repro.data.dataset import Side, TwoViewDataset
from repro.data.io import load_dataset, save_dataset
from repro.data.preprocessing import (
    boolean_frame_schema,
    equal_height_edges,
    frame_to_two_view,
)
from repro.data.schema import ItemSchema, ViewSchema
from repro.serve.artifact import ModelArtifact
from repro.serve.binfmt import map_artifact, write_compiled
from repro.serve.registry import ModelRegistry
from repro.serve.server import PredictionService
from repro.stream.codec import encode_packed_rows

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "scripts"))

import check_schema  # noqa: E402

pytestmark = pytest.mark.multiview_smoke


@pytest.fixture
def mixed_dataset() -> TwoViewDataset:
    rng = np.random.default_rng(7)
    n = 200
    left = {
        "age": rng.normal(40, 12, n),
        "income": rng.lognormal(10, 0.4, n),
        "city": rng.choice(["oslo", "turku"], n),
    }
    right = {
        "score": rng.normal(0, 1, n),
        "grade": rng.choice(["a", "b"], n),
    }
    return frame_to_two_view(
        left, right, discretize="mdl", units={"age": "yr"}, name="mixed"
    )


class TestItemSchema:
    def test_numeric_label_half_open(self):
        item = ItemSchema("age=bin0", "age", "numeric", lo=30.0, hi=45.0)
        assert item.label() == "age ∈ [30, 45)"

    def test_numeric_label_closed_with_unit(self):
        item = ItemSchema(
            "age=bin4", "age", "numeric", lo=60.0, hi=81.0, closed_hi=True, unit="yr"
        )
        assert item.label() == "age ∈ [60, 81] yr"

    def test_category_and_flag_labels(self):
        assert ItemSchema("c=red", "c", "category", value="red").label() == "c = red"
        assert ItemSchema("vip", "vip", "flag").label() == "vip"

    def test_contains_respects_bounds(self):
        half_open = ItemSchema("x=bin0", "x", "numeric", lo=0.0, hi=1.0)
        assert half_open.contains(0.0) and not half_open.contains(1.0)
        closed = ItemSchema("x=bin1", "x", "numeric", lo=1.0, hi=2.0, closed_hi=True)
        assert closed.contains(2.0)

    def test_dict_roundtrip(self):
        for item in (
            ItemSchema("a=bin0", "a", "numeric", lo=1.0, hi=2.0, unit="kg"),
            ItemSchema("c=x", "c", "category", value="x"),
            ItemSchema("f", "f", "flag"),
        ):
            assert ItemSchema.from_dict(item.to_dict()) == item


class TestInvertibility:
    """Acceptance (b): rendered intervals map back to the exact edges."""

    def test_bin_edges_reconstruct_discretizer_edges(self):
        rng = np.random.default_rng(3)
        values = rng.normal(50, 9, 300)
        matrix, schema = boolean_frame_schema({"age": values}, n_bins=5)
        edges = equal_height_edges(values, n_bins=5)
        assert schema.bin_edges("age") == pytest.approx(list(edges))
        # And every value lands inside the bin its item claims.
        for column in range(matrix.shape[1]):
            item = schema[column]
            for value in values[matrix[:, column]]:
                assert item.contains(value)

    def test_mdl_bins_are_contiguous_and_exhaustive(self, mixed_dataset):
        schema = mixed_dataset.left_schema
        edges = schema.bin_edges("age")
        assert edges == sorted(edges) and len(edges) >= 2
        items = [schema[index] for index in schema.items_for("age")]
        items.sort(key=lambda item: item.lo)
        assert [item.lo for item in items[1:]] == [item.hi for item in items[:-1]]

    def test_rules_render_in_original_units(self, mixed_dataset):
        result = TranslatorSelect(k=1, minsup=5).fit(mixed_dataset)
        rendered = result.table.render(mixed_dataset)
        assert "bin" not in rendered
        assert "∈ [" in rendered or " = " in rendered
        if "age" in rendered:
            assert "yr" in rendered


class TestViewSchemaPayload:
    def test_payload_roundtrip_byte_equality(self, mixed_dataset):
        for schema in (mixed_dataset.left_schema, mixed_dataset.right_schema):
            payload = schema.to_payload()
            rebuilt = ViewSchema.from_payload(payload)
            assert json.dumps(payload, sort_keys=True) == json.dumps(
                rebuilt.to_payload(), sort_keys=True
            )

    def test_future_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            ViewSchema.from_payload({"schema_version": 99, "items": []})

    def test_lint_script_passes(self):
        assert check_schema.schema_roundtrip_failures() == []


class TestTablePayload:
    """Acceptance (c): legacy schema-less payloads load unchanged."""

    def test_schemaless_table_emits_v2_unchanged(self):
        table = TranslationTable([TranslationRule((0,), (1,), "->")])
        payload = table.to_payload()
        assert payload["schema_version"] == 2
        assert "schema" not in payload

    def test_schema_table_roundtrip(self, mixed_dataset):
        table = TranslationTable(
            [TranslationRule((0,), (1,), "->")],
            left_schema=mixed_dataset.left_schema,
            right_schema=mixed_dataset.right_schema,
        )
        payload = table.to_payload()
        assert payload["schema_version"] == 3
        loaded = TranslationTable.from_payload(payload)
        assert loaded == table
        assert loaded.left_schema.to_payload() == mixed_dataset.left_schema.to_payload()

    def test_legacy_v1_list_still_loads(self):
        legacy = [TranslationRule((0,), (1,), "->").to_dict()]
        table = TranslationTable.from_payload(legacy)
        assert len(table) == 1 and table.left_schema is None


class TestArtifactAndSidecar:
    def _artifact(self, dataset: TwoViewDataset) -> ModelArtifact:
        result = TranslatorSelect(k=1, minsup=5).fit(dataset)
        return ModelArtifact.from_result("mixed", dataset, result)

    def test_artifact_carries_schemas(self, mixed_dataset):
        artifact = self._artifact(mixed_dataset)
        rebuilt = ModelArtifact.from_payload(artifact.payload())
        assert rebuilt.left_schema.label(0) == mixed_dataset.left_schema.label(0)

    def test_schemaless_artifact_payload_has_no_schema_key(self, mixed_dataset):
        bare = TwoViewDataset(
            mixed_dataset.left,
            mixed_dataset.right,
            mixed_dataset.left_names,
            mixed_dataset.right_names,
        )
        artifact = self._artifact(bare)
        payload = artifact.payload()
        assert "schema" not in payload
        assert ModelArtifact.from_payload(payload).left_schema is None

    def test_sidecar_schema_block_roundtrip(self, mixed_dataset, tmp_path):
        artifact = self._artifact(mixed_dataset).with_version(1)
        path = tmp_path / "compiled.bin"
        write_compiled(artifact, path)
        with map_artifact(path) as mapped:
            schema = mapped.schema(Side.LEFT)
            assert schema is not None
            assert schema.label(0) == mixed_dataset.left_schema.label(0)

    def test_legacy_sidecar_without_schema_loads(self, mixed_dataset, tmp_path):
        bare = TwoViewDataset(
            mixed_dataset.left,
            mixed_dataset.right,
            mixed_dataset.left_names,
            mixed_dataset.right_names,
        )
        artifact = self._artifact(bare).with_version(1)
        path = tmp_path / "compiled.bin"
        write_compiled(artifact, path)
        with map_artifact(path) as mapped:
            assert mapped.schema(Side.LEFT) is None
            assert mapped.schema(Side.RIGHT) is None


class TestTwoViewIO:
    def test_2v_roundtrip_preserves_schemas(self, mixed_dataset, tmp_path):
        path = tmp_path / "mixed.2v"
        save_dataset(mixed_dataset, path)
        loaded = load_dataset(path)
        assert loaded == mixed_dataset
        assert (
            loaded.left_schema.to_payload()
            == mixed_dataset.left_schema.to_payload()
        )
        assert (
            loaded.right_schema.to_payload()
            == mixed_dataset.right_schema.to_payload()
        )

    def test_legacy_2v_without_schema_lines_loads(self, mixed_dataset, tmp_path):
        path = tmp_path / "mixed.2v"
        save_dataset(mixed_dataset, path)
        stripped = "\n".join(
            line
            for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#schema-")
        )
        path.write_text(stripped + "\n", encoding="utf-8")
        loaded = load_dataset(path)
        assert loaded == mixed_dataset
        assert loaded.left_schema is None and loaded.right_schema is None


class TestServerRendering:
    def test_predict_render_flag(self, mixed_dataset, tmp_path):
        result = TranslatorSelect(k=1, minsup=5).fit(mixed_dataset)
        artifact = ModelArtifact.from_result("mixed", mixed_dataset, result)
        registry = ModelRegistry(tmp_path)
        registry.publish(artifact)
        service = PredictionService(registry)

        async def scenario():
            request = {"model": "mixed", "rows": [[0, 1], []], "render": True}
            first = await service.predict(request)
            assert len(first["rendered"]) == 2
            for row_labels, row_items in zip(
                first["rendered"], first["predictions"]
            ):
                assert row_labels == [
                    mixed_dataset.right_schema.label(item) for item in row_items
                ]
            # The cache stores the unrendered document; rendering is
            # re-attached on hits and absent without the flag.
            second = await service.predict(request)
            assert second["cached"] and second["rendered"] == first["rendered"]
            plain = await service.predict({"model": "mixed", "rows": [[0, 1], []]})
            assert plain["cached"] and "rendered" not in plain

        asyncio.run(scenario())

    def test_predict_render_must_be_boolean(self, mixed_dataset, tmp_path):
        result = TranslatorSelect(k=1, minsup=5).fit(mixed_dataset)
        registry = ModelRegistry(tmp_path)
        registry.publish(ModelArtifact.from_result("mixed", mixed_dataset, result))
        service = PredictionService(registry)
        with pytest.raises(ValueError, match="render"):
            asyncio.run(
                service.predict({"model": "mixed", "rows": [[0]], "render": "yes"})
            )
        # A packed frame's header follows the same rule as a JSON body.
        frame = encode_packed_rows(
            mixed_dataset.left[:1], {"model": "mixed", "render": "yes"}
        )
        with pytest.raises(ValueError, match="render"):
            asyncio.run(service.predict_packed(frame))
