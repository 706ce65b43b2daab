"""Versioned on-disk model artifacts.

A fitted :class:`~repro.core.table.TranslationTable` alone is not a
servable model: a prediction service also needs the vocabularies the
rule indices refer to, the fit configuration that produced the table,
and a way to detect corruption or tampering before answering traffic
with a damaged model.  :class:`ModelArtifact` bundles exactly that into
one schema-versioned JSON document:

* the table payload (:meth:`TranslationTable.to_payload`, itself
  schema-versioned),
* the left/right item-name vocabularies,
* free-form ``fit_params`` and ``metrics`` dicts (method, minsup,
  compression ratio, ...),
* the producing library version, and
* a SHA-256 **content hash** over the canonical payload (reusing
  :func:`repro.runtime.cache.content_key`) that :func:`load_artifact`
  verifies on every read.

Artifacts are plain JSON files — portable, inspectable, diffable — and
are what :class:`repro.serve.registry.ModelRegistry` versions and the
prediction server loads.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

from repro.core.table import TranslationTable
from repro.data.dataset import TwoViewDataset
from repro.data.schema import ViewSchema
from repro.resilience.container import (
    ArtifactCorruptError,
    ArtifactError,
    durable_write,
)
from repro.runtime.cache import content_key

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "ArtifactCorruptError",
    "ArtifactError",
    "ModelArtifact",
    "load_artifact",
    "save_artifact",
]

#: Current schema version of the artifact JSON document.
ARTIFACT_SCHEMA_VERSION = 1


@dataclasses.dataclass(frozen=True)
class ModelArtifact:
    """A servable, self-describing snapshot of a fitted translation table.

    Attributes
    ----------
    name:
        Model name (the registry key, e.g. ``"car-select"``).
    table:
        The fitted rules.
    left_names, right_names:
        Item vocabularies; rule indices are columns into these.
    fit_params:
        How the table was fitted (method, minsup, seed, ...).
    metrics:
        Quality numbers recorded at fit time (compression ratio, ...).
    version:
        Registry version number; ``None`` until published.
    created_unix:
        Creation timestamp (seconds since the epoch).
    left_schema, right_schema:
        Optional :class:`~repro.data.schema.ViewSchema` item provenance
        (source columns, bin edges, units) captured from the fitted
        dataset.  When present, server responses can render predictions
        in original units; schema-less artifacts serialise exactly as
        before (the ``"schema"`` field is simply absent, so existing
        content hashes are unchanged and old readers ignore it).
    """

    name: str
    table: TranslationTable
    left_names: tuple[str, ...]
    right_names: tuple[str, ...]
    fit_params: dict = dataclasses.field(default_factory=dict)
    metrics: dict = dataclasses.field(default_factory=dict)
    version: int | None = None
    created_unix: float | None = None
    library_version: str | None = None
    left_schema: object = None
    right_schema: object = None

    # ------------------------------------------------------------------
    @classmethod
    def from_result(
        cls,
        name: str,
        dataset: TwoViewDataset,
        result,
        fit_params: dict | None = None,
    ) -> "ModelArtifact":
        """Build an artifact from a ``TranslatorResult`` and its dataset.

        ``result`` is any object with ``.table`` and ``.summary()`` (all
        TRANSLATOR fit results qualify); the summary row becomes the
        artifact's ``metrics``.
        """
        return cls(
            name=name,
            table=result.table,
            left_names=tuple(dataset.left_names),
            right_names=tuple(dataset.right_names),
            fit_params=dict(fit_params or {}),
            metrics=dict(result.summary()),
            created_unix=time.time(),
            left_schema=getattr(dataset, "left_schema", None),
            right_schema=getattr(dataset, "right_schema", None),
        )

    @property
    def n_left(self) -> int:
        """Left vocabulary size."""
        return len(self.left_names)

    @property
    def n_right(self) -> int:
        """Right vocabulary size."""
        return len(self.right_names)

    def with_version(self, version: int) -> "ModelArtifact":
        """Copy of the artifact stamped with a registry version."""
        return dataclasses.replace(self, version=version)

    # ------------------------------------------------------------------
    def payload(self) -> dict[str, object]:
        """Canonical JSON document, ``content_hash`` included."""
        from repro import __version__

        body: dict[str, object] = {
            "artifact_schema_version": ARTIFACT_SCHEMA_VERSION,
            "name": self.name,
            "version": self.version,
            "table": self.table.to_payload(),
            "vocab": {
                "left": list(self.left_names),
                "right": list(self.right_names),
            },
            "fit_params": self.fit_params,
            "metrics": self.metrics,
            "library_version": self.library_version or __version__,
            "created_unix": self.created_unix,
        }
        if self.left_schema is not None or self.right_schema is not None:
            body["schema"] = {
                "left": self.left_schema.to_payload() if self.left_schema else None,
                "right": self.right_schema.to_payload() if self.right_schema else None,
            }
        body["content_hash"] = content_key(body)
        return body

    @property
    def content_hash(self) -> str:
        """SHA-256 digest of the canonical payload (sans the hash field)."""
        return str(self.payload()["content_hash"])

    @classmethod
    def from_payload(cls, payload: dict, verify: bool = True) -> "ModelArtifact":
        """Rebuild an artifact from its JSON document.

        With ``verify`` (the default) the stored ``content_hash`` is
        recomputed over the rest of the document and any mismatch —
        truncation, bit rot, manual edits — raises :class:`ArtifactError`.
        """
        if not isinstance(payload, dict):
            raise ArtifactError(
                f"artifact payload must be a JSON object, got {type(payload).__name__}"
            )
        schema = payload.get("artifact_schema_version")
        if schema != ARTIFACT_SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported artifact_schema_version {schema!r} "
                f"(this library reads version {ARTIFACT_SCHEMA_VERSION})"
            )
        if verify:
            body = {
                key: value for key, value in payload.items() if key != "content_hash"
            }
            expected = content_key(body)
            stored = payload.get("content_hash")
            if stored != expected:
                raise ArtifactCorruptError(
                    f"artifact content hash mismatch: stored {stored!r}, "
                    f"recomputed {expected!r} — refusing to serve a "
                    "corrupt or tampered model"
                )
        try:
            vocab = payload["vocab"]
            schemas = payload.get("schema") or {}
            left_schema = (
                ViewSchema.from_payload(schemas["left"])
                if schemas.get("left") is not None
                else None
            )
            right_schema = (
                ViewSchema.from_payload(schemas["right"])
                if schemas.get("right") is not None
                else None
            )
            return cls(
                name=str(payload["name"]),
                table=TranslationTable.from_payload(payload["table"]),
                left_names=tuple(vocab["left"]),
                right_names=tuple(vocab["right"]),
                fit_params=dict(payload.get("fit_params") or {}),
                metrics=dict(payload.get("metrics") or {}),
                version=payload.get("version"),
                created_unix=payload.get("created_unix"),
                library_version=payload.get("library_version"),
                left_schema=left_schema,
                right_schema=right_schema,
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ArtifactError(f"malformed artifact payload: {error}") from error


def save_artifact(artifact: ModelArtifact, path: str | Path) -> str:
    """Write ``artifact`` to ``path`` as JSON; returns its content hash.

    The write is crash-safe against the *machine*, not just the
    process (:func:`~repro.resilience.container.durable_write`: temp
    file, fsync, atomic rename, directory fsync).  A power loss at any
    instant leaves either the old file or the complete new one — never
    a torn artifact a ``LATEST`` pointer could be aimed at.
    """
    payload = artifact.payload()
    encoded = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    durable_write(path, encoded, site="registry.artifact")
    return str(payload["content_hash"])


def load_artifact(path: str | Path, verify: bool = True) -> ModelArtifact:
    """Read an artifact written by :func:`save_artifact`.

    Raises :class:`ArtifactCorruptError` on unreadable JSON or (with
    ``verify``) a content-hash mismatch, and plain
    :class:`ArtifactError` for intact-but-unusable documents (unknown
    schema version, missing fields).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as error:
        raise ArtifactError(f"cannot read artifact {path}: {error}") from error
    except (OSError, ValueError) as error:
        raise ArtifactCorruptError(
            f"cannot read artifact {path}: {error}"
        ) from error
    return ModelArtifact.from_payload(payload, verify=verify)
