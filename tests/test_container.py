"""The one container and the one durable writer (``pytest -m chaos_smoke``).

Byte pins prove that files already on disk still load: an ``RPROBIN1``
sidecar and an ``RPROCOL1`` store written from fixed inputs must hash
to the constants recorded before both formats became schemas on
:mod:`repro.resilience.container`.  The writer tests pin
:func:`~repro.resilience.container.durable_write`: chunks land in
order, the chaos hooks fire, a failure leaves the old file and no temp
file, and every file the system keeps goes through it.  The corruption
cases every schema shares live in ``tests/container_cases.py``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.rules import TranslationRule
from repro.core.table import TranslationTable
from repro.corpus import ColumnStore, ingest_dataset
from repro.data.synthetic import SyntheticSpec, generate_planted
from repro.resilience import (
    FaultInjector,
    InjectedFault,
    WindowCheckpoint,
    container,
    save_checkpoint,
)
from repro.resilience.container import durable_write
from repro.runtime import ResultCache
from repro.serve import ModelArtifact, ModelRegistry, map_artifact, write_compiled
from repro.stream import StreamBuffer

pytestmark = pytest.mark.chaos_smoke

#: SHA-256 of the sidecar and the store below, as written before the
#: container existed.
RPROBIN1_SHA256 = "93ae3650901938634eb12aefbeb6636a58cc79c4d0982aa23d8f3901784582e9"
RPROCOL1_SHA256 = "3d87f552b54511ab371ca4f4630742eb5ce194824910c0c9789d3078ffee6335"


def pinned_artifact() -> ModelArtifact:
    return ModelArtifact(
        name="pin",
        table=TranslationTable(
            [
                TranslationRule((0, 2), (1,), "->"),
                TranslationRule((1,), (0, 3), "<-"),
                TranslationRule((3, 4), (2,), "<->"),
            ]
        ),
        left_names=("a", "b", "c", "d", "e"),
        right_names=("w", "x", "y", "z"),
        fit_params={"method": "pin"},
        version=1,
        created_unix=0.0,
        library_version="pin",
    )


class TestBytePins:
    def test_rprobin1_sidecar_bytes_are_unchanged(self, tmp_path):
        path = tmp_path / "compiled.bin"
        write_compiled(pinned_artifact(), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RPROBIN1_SHA256
        with map_artifact(path) as mapped:
            assert mapped.model == "pin"

    def test_rprocol1_store_bytes_are_unchanged(self, tmp_path):
        data, __ = generate_planted(SyntheticSpec(n_transactions=300, seed=5))
        path = tmp_path / "pin.col"
        ingest_dataset(data, path, chunk_rows=97, block_words=1)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == RPROCOL1_SHA256
        with ColumnStore(path) as store:
            store.verify()


class TestDurableWrite:
    def test_chunks_land_in_order_and_hooks_fire(self, tmp_path):
        path = tmp_path / "out.bin"
        injector = FaultInjector().plan("pin.bytes", kind="corrupt", at=0)
        with injector.active():
            durable_write(path, iter([b"ab", b"cd", b"ef"]), site="pin")
        # The hook saw (and flipped the first byte of) the first chunk only.
        assert path.read_bytes() == bytes([ord("a") ^ 0xFF]) + b"bcdef"
        assert injector.calls == {"pin.bytes": 1, "pin.replace": 1}

    def test_failure_keeps_the_old_file_and_no_temp_file(self, tmp_path):
        path = tmp_path / "out.bin"
        durable_write(path, b"old", site="pin")
        injector = FaultInjector().plan("pin.replace", kind="error")
        with injector.active(), pytest.raises(InjectedFault):
            durable_write(path, b"new", site="pin")
        assert path.read_bytes() == b"old"
        assert [entry.name for entry in tmp_path.iterdir()] == ["out.bin"]

    def test_every_file_goes_through_the_writer(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(container, "_fsync_directory", synced.append)
        buffer = StreamBuffer(3, 2)
        buffer.append(np.ones((5, 3), dtype=bool), np.zeros((5, 2), dtype=bool))
        data, __ = generate_planted(SyntheticSpec(n_transactions=100, seed=1))
        injector = FaultInjector()
        with injector.active():
            ModelRegistry(tmp_path / "registry").publish(pinned_artifact())
            ResultCache(tmp_path / "cache").put("key", {"answer": 42})
            save_checkpoint(
                tmp_path / "live.ckpt", WindowCheckpoint.capture(buffer, "live", 5)
            )
            ingest_dataset(data, tmp_path / "corpus.col")
        replaced = [op for op in injector.calls if op.endswith(".replace")]
        sites = {op.removesuffix(".replace") for op in replaced}
        assert sites == {
            "registry.artifact",
            "registry.sidecar",
            "registry.latest",
            "runtime.cache",
            "checkpoint",
            "corpus.store",
        }
        # Each durable write ends with a directory fsync, LATEST included.
        assert len(synced) == len(sites)
