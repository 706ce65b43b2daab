"""Directory-backed model registry.

The registry organises :class:`~repro.serve.artifact.ModelArtifact`
files into *named models* with *immutable numbered versions* and a
mutable ``latest`` pointer — the minimum structure a prediction service
needs to roll models forward (publish a new version, flip the pointer)
and back (point ``latest`` at an older version) without ever rewriting
a served file.  Layout::

    <root>/
        <model-name>/
            v0001/artifact.json
            v0002/artifact.json
            LATEST            # text file holding e.g. "2"

Publishing writes the artifact under the next free version directory
and atomically updates ``LATEST``, every file through the one durable
writer :func:`repro.resilience.container.durable_write`.  Version
directories are never overwritten: re-publishing produces a new
version, and attempting to force a taken version raises.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

from repro.resilience.container import durable_write
from repro.resilience.faults import fault_point
from repro.serve.artifact import (
    ArtifactCorruptError,
    ArtifactError,
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from repro.serve.binfmt import SIDECAR_NAME, verify_sidecar, write_compiled

__all__ = ["ModelRegistry"]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_DIR = re.compile(r"^v(\d{4,})$")

#: Directory (inside a model's directory) holding quarantined versions.
_CORRUPT_DIR = "_corrupt"

#: How many times a ``LATEST`` pointer read is retried before the
#: registry concludes the pointer is genuinely missing or damaged —
#: a hard cap, so a persistently torn pointer can never spin a reader.
_LATEST_READ_ATTEMPTS = 5


def _version_dirname(version: int) -> str:
    return f"v{version:04d}"


class ModelRegistry:
    """Named, versioned storage for model artifacts under one directory.

    Args:
        root: Registry root directory; created lazily on first publish.

    Example::

        >>> import tempfile
        >>> from repro import TranslationRule, TranslationTable
        >>> from repro.serve import ModelArtifact, ModelRegistry
        >>> registry = ModelRegistry(tempfile.mkdtemp())
        >>> artifact = ModelArtifact(
        ...     "demo", TranslationTable([TranslationRule((0,), (0,), "->")]),
        ...     ("a",), ("x",))
        >>> registry.publish(artifact).version
        1
        >>> registry.publish(artifact).version
        2
        >>> registry.latest_version("demo")
        2
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def model_dir(self, name: str) -> Path:
        """Directory of one named model (may not exist yet)."""
        if not _NAME_PATTERN.match(name):
            raise ValueError(
                f"invalid model name {name!r}: use letters, digits, '.', '_', '-'"
            )
        return self.root / name

    def artifact_path(self, name: str, version: int) -> Path:
        """Path of one version's ``artifact.json``."""
        return self.model_dir(name) / _version_dirname(version) / "artifact.json"

    def sidecar_path(self, name: str, version: int) -> Path:
        """Path of one version's binary ``compiled.bin`` sidecar.

        The sidecar lives *inside* the version directory, so quarantine
        (a whole-directory rename) always moves the JSON artifact and
        its compiled twin together — a quarantined version can never
        leave a live sidecar behind for a worker to map.
        """
        return self.model_dir(name) / _version_dirname(version) / SIDECAR_NAME

    # ------------------------------------------------------------------
    # Listing / resolution
    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        """Sorted names of every model with at least one version.

        Stray directories that are not valid model names (``.git``, a
        dot-file dropped by a sync tool, ...) are ignored rather than
        failing the whole listing.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir()
            and _NAME_PATTERN.match(entry.name)
            and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[int]:
        """Sorted published version numbers of one model."""
        directory = self.model_dir(name)
        if not directory.is_dir():
            return []
        found = []
        for entry in directory.iterdir():
            match = _VERSION_DIR.match(entry.name)
            if match and (entry / "artifact.json").is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        """Resolve the ``latest`` pointer of one model.

        Tolerates a concurrent publish racing the read: a transiently
        missing pointer (some platforms expose a brief gap while
        ``os.replace`` swaps the temp file in) is retried — at most
        :data:`_LATEST_READ_ATTEMPTS` times, never unboundedly — and a
        pointer naming a version newer than the initial directory scan
        triggers a re-scan instead of being dismissed as damage.

        A pointer that is *still* missing after the retries means it was
        never written (``publish(set_latest=False)``), so the highest
        published version is returned.  A pointer that persistently
        holds garbage, or names a version that does not exist, is
        corruption — pointers are written atomically, so no race
        explains it — and raises a clear
        :class:`~repro.serve.artifact.ArtifactError` rather than
        silently serving some other version (the pointer might have
        been an intentional rollback).  Raises ``KeyError`` for a model
        with no versions at all.
        """
        versions = self.versions(name)
        if not versions:
            raise KeyError(f"no published versions of model {name!r}")
        pointer = self.model_dir(name) / "LATEST"
        candidate = None
        failure: str | None = None
        for __ in range(_LATEST_READ_ATTEMPTS):
            # Retry immediately (no sleep: this also runs on the
            # server's event loop): the os.replace gap is shorter than
            # a read attempt.
            try:
                text = pointer.read_text(encoding="utf-8")
            except FileNotFoundError:
                failure = None
                continue
            except UnicodeDecodeError:
                # Flipped bits can leave bytes that aren't text at all —
                # damage, same as a non-numeric pointer.
                failure = "holds undecodable bytes, not a version number"
                continue
            except OSError as error:
                failure = f"unreadable ({error})"
                continue
            try:
                candidate = int(text.strip())
            except ValueError:
                failure = f"holds {text.strip()!r}, not a version number"
                continue
            break
        else:
            if failure is None:  # never written (or publisher died mid-swap)
                return versions[-1]
            raise ArtifactError(
                f"LATEST pointer of model {name!r} is damaged after "
                f"{_LATEST_READ_ATTEMPTS} read attempts: {failure}"
            )
        if candidate in versions:
            return candidate
        # A publisher may have added the pointed-at version after our
        # directory scan — trust the pointer if a re-scan confirms it.
        versions = self.versions(name) or versions
        if candidate in versions:
            return candidate
        raise ArtifactError(
            f"LATEST pointer of model {name!r} names version {candidate}, "
            f"which is not published (have {versions})"
        )

    def resolve(self, name: str, version: int | str | None = None) -> int:
        """Normalise a version spec (``None``/``"latest"``/number) to an int."""
        if version is None or version == "latest":
            return self.latest_version(name)
        number = int(version)
        if number not in self.versions(name):
            raise KeyError(f"model {name!r} has no version {number}")
        return number

    # ------------------------------------------------------------------
    # Publish / load
    # ------------------------------------------------------------------
    def publish(
        self,
        artifact: ModelArtifact,
        set_latest: bool = True,
        sidecar: bool = True,
    ) -> ModelArtifact:
        """Store ``artifact`` as the next version of ``artifact.name``.

        Returns the stamped artifact (``.version`` filled in).  Version
        directories are immutable — a concurrent publisher racing for
        the same number loses with ``FileExistsError`` and should retry.

        With ``sidecar`` (the default) the version also gets a binary
        ``compiled.bin`` twin (:func:`repro.serve.binfmt.write_compiled`)
        that workers ``mmap`` instead of re-parsing the JSON; both files
        land before ``LATEST`` moves, so the pointer never exposes a
        version whose sidecar is still being written.
        """
        versions = self.versions(artifact.name)
        version = (versions[-1] + 1) if versions else 1
        stamped = artifact.with_version(version)
        directory = self.model_dir(artifact.name) / _version_dirname(version)
        directory.mkdir(parents=True, exist_ok=False)
        save_artifact(stamped, directory / "artifact.json")
        if sidecar:
            write_compiled(stamped, directory / SIDECAR_NAME)
        # Chaos hook: a crash here leaves a fully published version that
        # LATEST does not point at yet — readers keep serving the
        # previous version, which is exactly the intended failure mode.
        fault_point("registry.publish.before_latest")
        if set_latest:
            self.set_latest(artifact.name, version)
        return stamped

    def set_latest(self, name: str, version: int) -> None:
        """Atomically and durably point ``latest`` at a published ``version``.

        Through :func:`~repro.resilience.container.durable_write`, so a
        power loss can neither publish a pointer to garbage (the file is
        fsynced before the swap) nor lose the swap (the directory after).
        """
        if version not in self.versions(name):
            raise KeyError(f"model {name!r} has no version {version}")
        durable_write(
            self.model_dir(name) / "LATEST",
            f"{version}\n".encode("ascii"),
            site="registry.latest",
        )

    def load(
        self, name: str, version: int | str | None = None, verify: bool = True
    ) -> ModelArtifact:
        """Load one model version (default: ``latest``), hash-verified.

        Raises ``KeyError`` for unknown names/versions and
        :class:`~repro.serve.artifact.ArtifactError` for corrupt files.
        A version whose *bytes* are damaged (torn write, bit rot — a
        :class:`~repro.serve.artifact.ArtifactCorruptError`) is
        **quarantined** into ``<model>/_corrupt/`` as a side effect, so
        one bad file costs one failed load instead of poisoning every
        subsequent ``latest`` resolution and :meth:`describe` row; if
        ``LATEST`` pointed at it, the pointer is healed back to the
        newest surviving version.
        """
        number = self.resolve(name, version)
        try:
            artifact = load_artifact(self.artifact_path(name, number), verify=verify)
        except ArtifactCorruptError as error:
            quarantined_to = self.quarantine(name, number)
            raise ArtifactCorruptError(
                f"{error} [version {number} of model {name!r} quarantined "
                f"to {quarantined_to}]"
            ) from error
        if artifact.name != name:
            raise ArtifactError(
                f"artifact at {self.artifact_path(name, number)} claims to be "
                f"model {artifact.name!r}, expected {name!r}"
            )
        return artifact

    def quarantine(self, name: str, version: int) -> Path:
        """Move a damaged version out of the serving tree.

        The version directory — the JSON artifact *and* its binary
        sidecar travel together, the sidecar lives inside it — is
        renamed into ``<model>/_corrupt/`` (timestamped, so repeated
        incidents never collide) where :meth:`versions` no longer sees
        it; the evidence is preserved for a post-mortem without
        breaking the registry.  A ``LATEST`` pointer naming the
        quarantined version is healed to the newest surviving version
        whose sidecar (if present) passes hash verification — survivors
        that fail it are quarantined in the same sweep, so the pointer
        never lands on a version that would poison every worker mapping
        it — or removed when none survive.  Returns the quarantine path.
        """
        destination = self._move_to_corrupt(name, version)
        pointer = self.model_dir(name) / "LATEST"
        try:
            pointed = int(pointer.read_text(encoding="utf-8").strip())
        except (OSError, ValueError):
            pointed = None
        if pointed == version:
            self._heal_latest(name)
        return destination

    def _move_to_corrupt(self, name: str, version: int) -> Path:
        """Rename one version directory into ``_corrupt/`` (timestamped)."""
        directory = self.model_dir(name) / _version_dirname(version)
        corrupt_root = self.model_dir(name) / _CORRUPT_DIR
        corrupt_root.mkdir(parents=True, exist_ok=True)
        destination = (
            corrupt_root / f"{_version_dirname(version)}-{int(time.time() * 1000)}"
        )
        if directory.exists():
            os.replace(directory, destination)
        return destination

    def _heal_latest(self, name: str) -> None:
        """Re-point ``LATEST`` at the newest *fully intact* survivor.

        Candidates are taken newest-first; one whose binary sidecar
        exists but fails verification is itself quarantined and the
        scan continues — a versions-only loop, so it terminates.  With
        no intact survivor left the pointer is removed.
        """
        pointer = self.model_dir(name) / "LATEST"
        while True:
            survivors = self.versions(name)
            if not survivors:
                try:
                    pointer.unlink()
                except OSError:  # pragma: no cover - raced unlink
                    pass
                return
            candidate = survivors[-1]
            sidecar = self.sidecar_path(name, candidate)
            if sidecar.exists():
                try:
                    verify_sidecar(sidecar)
                except ArtifactError:
                    self._move_to_corrupt(name, candidate)
                    continue
            self.set_latest(name, candidate)
            return

    def quarantined(self, name: str) -> list[str]:
        """Quarantine directory entries of one model (newest last)."""
        corrupt_root = self.model_dir(name) / _CORRUPT_DIR
        if not corrupt_root.is_dir():
            return []
        return sorted(entry.name for entry in corrupt_root.iterdir())

    def describe(self) -> list[dict[str, object]]:
        """One summary row per model (for ``/models`` and the CLI).

        Reads each latest artifact's JSON once and reports its *stored*
        content hash — no verification or re-hashing, so polling
        ``/models`` stays cheap; corruption is still caught on
        :meth:`load` before a model answers traffic.
        """
        rows = []
        for name in self.models():
            versions = self.versions(name)
            row: dict[str, object] = {"name": name, "versions": versions}
            quarantined = self.quarantined(name)
            if quarantined:
                row["quarantined"] = len(quarantined)
            try:
                latest = self.latest_version(name)
            except ArtifactError as error:
                # One damaged pointer must not take the whole listing
                # (and the /models endpoint) down with it.
                row["error"] = str(error)
                rows.append(row)
                continue
            row["latest"] = latest
            try:
                payload = json.loads(
                    self.artifact_path(name, latest).read_text(encoding="utf-8")
                )
                table = payload.get("table") or {}
                vocab = payload.get("vocab") or {}
                row.update(
                    n_rules=len(
                        table["rules"] if isinstance(table, dict) else table
                    ),
                    n_left=len(vocab.get("left") or ()),
                    n_right=len(vocab.get("right") or ()),
                    content_hash=payload.get("content_hash"),
                )
            except (OSError, ValueError, KeyError, TypeError) as error:
                row["error"] = f"unreadable artifact: {error}"
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return f"ModelRegistry(root={str(self.root)!r}, models={self.models()})"
