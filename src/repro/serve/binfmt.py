"""Binary, mmap-able compiled-model artifacts (the ``compiled.bin`` sidecar).

The JSON artifact (:mod:`repro.serve.artifact`) is the portable,
inspectable source of truth — but every server process that loads it
pays the same cold start: parse the rule list, rebuild the Boolean
masks, re-pack them into the uint64 matrices
:class:`~repro.core.compiled.CompiledPredictor` runs on.  This module
writes those matrices out **once**, at publish time, in a fixed binary
layout that any number of worker processes can ``mmap`` afterwards:
construction becomes a handful of header reads plus zero-copy numpy
views, and N replicas on one machine share a single page-cache copy of
the model.

The sidecar is the ``RPROBIN1`` schema (:data:`SIDECAR`) of the one
verified container in :mod:`repro.resilience.container`: its digest
signs bytes ``[48, EOF)``, its section offsets count from byte 0, its
header holds the model identity (name, version, the JSON artifact's
content hash) and n_left/n_right, and per direction D in (R, L) its
sections are ``D.ant_words`` / ``D.cons_words`` (packed uint64
antecedent / consequent matrices, one row per compiled rule) and
``D.ant_weights`` (uint32 antecedent popcounts, the exact counts the
blas subset test compares against).  A flipped bit, a truncated tail
or a tampered header raises
:class:`~repro.serve.artifact.ArtifactCorruptError` — the file can
never silently mis-decode into a *different* model.

``tests/test_binfmt.py`` fuzzes this contract (randomised tables
round-trip bit-identically against the JSON path), ``tests/test_container.py``
runs the corruption suite shared by every schema and pins the bytes, and
``benchmarks/bench_cluster.py`` measures the cold-start gap
(``BENCH_cluster.json``).
"""

from __future__ import annotations

import mmap
from pathlib import Path

import numpy as np

from repro.core.bitset import n_words_for, popcount_rows
from repro.core.compiled import CompiledPredictor
from repro.data.dataset import Side
from repro.resilience.container import (
    PRELUDE,
    Container,
    Schema,
    durable_write,
    encode,
    open_container,
)
from repro.serve.artifact import ModelArtifact

__all__ = [
    "BINFMT_MAGIC",
    "BINFMT_VERSION",
    "SIDECAR",
    "SIDECAR_NAME",
    "MappedArtifact",
    "map_artifact",
    "verify_sidecar",
    "write_compiled",
]

#: First eight bytes of every compiled binary artifact.
BINFMT_MAGIC = b"RPROBIN1"
#: Current version of the binary layout.
BINFMT_VERSION = 1
#: File name of the binary sidecar inside a registry version directory.
SIDECAR_NAME = "compiled.bin"
#: The sidecar's container schema.
SIDECAR = Schema(
    "compiled binary artifact", BINFMT_MAGIC, BINFMT_VERSION, ("uint64", "uint32"),
    signs_payload=True, payload_offsets=False,
)


def _direction_arrays(
    artifact: ModelArtifact, target: Side
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three per-direction sections, via one throwaway compilation.

    Compiling never loads the C kernel (a predictor looks it up only
    when it predicts), so publishing needs no C toolchain.
    """
    compiled = CompiledPredictor.from_table(
        artifact.table,
        target,
        artifact.n_left if target is Side.RIGHT else artifact.n_right,
        artifact.n_right if target is Side.RIGHT else artifact.n_left,
    )
    weights = popcount_rows(compiled.antecedents.words).astype(np.uint32)
    return compiled.antecedents.words, compiled.consequents.words, weights


def write_compiled(artifact: ModelArtifact, path: str | Path) -> str:
    """Compile ``artifact`` for both directions and write the sidecar.

    Returns the hex SHA-256 digest stored in the prelude.  The write is
    atomic and durable (:func:`~repro.resilience.container.durable_write`),
    so a crash at any instant leaves either no sidecar or a complete
    one — never a torn file the registry would have to quarantine on
    its next load.
    """
    sections = []
    for target, prefix in ((Side.RIGHT, "R"), (Side.LEFT, "L")):
        ant, cons, weights = _direction_arrays(artifact, target)
        sections += [
            (f"{prefix}.ant_words", ant),
            (f"{prefix}.cons_words", cons),
            (f"{prefix}.ant_weights", weights),
        ]
    header: dict[str, object] = {
        "binfmt_version": BINFMT_VERSION,
        "model": artifact.name,
        "version": artifact.version,
        "artifact_hash": artifact.content_hash,
        "n_left": artifact.n_left,
        "n_right": artifact.n_right,
    }
    if artifact.left_schema is not None or artifact.right_schema is not None:
        # Optional item-provenance block.  Readers that predate it parse
        # only the fields they know, so old deployments map these
        # sidecars unchanged (covered by tests).
        header["schema"] = {
            "left": artifact.left_schema.to_payload() if artifact.left_schema else None,
            "right": (
                artifact.right_schema.to_payload() if artifact.right_schema else None
            ),
        }
    blob = encode(SIDECAR, header, sections)
    durable_write(path, blob, site="registry.sidecar")
    return PRELUDE.unpack_from(blob)[-1].hex()


class MappedArtifact:
    """A ``compiled.bin`` sidecar mapped into memory, sections as views.

    Build with :func:`map_artifact`.  ``path`` is where the sidecar was
    mapped from, ``meta`` its parsed JSON header and ``content_hash``
    the hex SHA-256 stored in its prelude.  The ``mmap`` stays open for
    as long as any section view is alive (numpy keeps the buffer
    referenced through ``.base``, so dropping the ``MappedArtifact``
    itself is safe); :meth:`close` releases the mapping eagerly and
    refuses (``BufferError``) while views are still exported.
    """

    def __init__(self, container: Container) -> None:
        self.path = container.path
        self.meta = container.meta
        self.content_hash = container.digest
        self._container = container

    # ------------------------------------------------------------------
    @property
    def buffer(self) -> mmap.mmap:
        """The raw mapping (read-only); useful for shares-memory checks."""
        return self._container.buffer

    @property
    def model(self) -> str:
        """Model name recorded at publish time."""
        return str(self.meta["model"])

    @property
    def version(self) -> int | None:
        """Registry version recorded at publish time."""
        return self.meta.get("version")  # type: ignore[return-value]

    @property
    def artifact_hash(self) -> str:
        """Content hash of the JSON artifact this sidecar was compiled from."""
        return str(self.meta["artifact_hash"])

    @property
    def n_left(self) -> int:
        """Left vocabulary size."""
        return int(self.meta["n_left"])  # validated at map time

    @property
    def n_right(self) -> int:
        """Right vocabulary size."""
        return int(self.meta["n_right"])

    def schema(self, side: Side):
        """The :class:`~repro.data.schema.ViewSchema` of one view, or ``None``.

        Parsed lazily from the header's optional ``"schema"`` block;
        sidecars written before the block existed simply return ``None``.
        """
        from repro.data.schema import ViewSchema

        block = self.meta.get("schema")
        if not isinstance(block, dict):
            return None
        payload = block.get("left" if side is Side.LEFT else "right")
        if payload is None:
            return None
        return ViewSchema.from_payload(payload)

    def section(self, name: str) -> np.ndarray:
        """One named section as a read-only zero-copy view."""
        return self._container.view(name)

    def direction_sections(self, target: Side) -> tuple[np.ndarray, np.ndarray]:
        """``(ant_words, cons_words)`` views for one prediction direction."""
        prefix = "R" if target is Side.RIGHT else "L"
        return (
            self.section(f"{prefix}.ant_words"),
            self.section(f"{prefix}.cons_words"),
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the mapping (raises ``BufferError`` while views live)."""
        self._container.close()

    def __enter__(self) -> "MappedArtifact":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.close()
        except BufferError:  # a caller kept a view alive; GC will finish
            pass

    def __repr__(self) -> str:
        return (
            f"MappedArtifact({self.model!r} v{self.version}, "
            f"{self.n_left}x{self.n_right} items, "
            f"{len(self._container.sections)} sections)"
        )


def map_artifact(path: str | Path, verify: bool = True) -> MappedArtifact:
    """``mmap`` a sidecar written by :func:`write_compiled`.

    With ``verify`` (the default) the stored SHA-256 is recomputed over
    everything past the prelude, so any flipped bit — header, padding
    or payload — raises
    :class:`~repro.serve.artifact.ArtifactCorruptError`; structural
    damage (bad magic, short file, absurd or inconsistent section
    table) is rejected either way.  An intact file of a *newer* binary
    format raises plain :class:`~repro.serve.artifact.ArtifactError`.

    The returned views are read-only and zero-copy: the OS pages the
    file in on demand and every process mapping the same file shares
    one physical copy.
    """
    container = open_container(path, SIDECAR, verify=verify, mapped=True)
    try:
        _check_model_sections(container)
    except BaseException:
        container.close()
        raise
    return MappedArtifact(container)


def _check_model_sections(container: Container) -> None:
    """Cross-check the identity fields and model sections of a sidecar."""
    meta = container.meta
    if not isinstance(meta.get("model"), str) or not isinstance(
        meta.get("artifact_hash"), str
    ):
        raise container.corrupt("header lacks the model name or artifact hash")
    n_left = container.header_int("n_left")
    n_right = container.header_int("n_right")
    for prefix, n_source, n_target in (("R", n_left, n_right), ("L", n_right, n_left)):
        try:
            ant, cons, weights = (
                container.sections[f"{prefix}.{name}"]
                for name in ("ant_words", "cons_words", "ant_weights")
            )
        except KeyError as error:
            raise container.corrupt(f"model section {error} is missing") from None
        if (
            (ant.dtype.name, cons.dtype.name, weights.dtype.name)
            != ("uint64", "uint64", "uint32")
            or len(ant.shape) != 2
            or len(cons.shape) != 2
            or len(weights.shape) != 1
            or cons.shape[0] != ant.shape[0]
            or weights.shape[0] != ant.shape[0]
            or ant.shape[1] != n_words_for(n_source)
            or cons.shape[1] != n_words_for(n_target)
        ):
            raise container.corrupt(
                f"direction {prefix!r} sections have inconsistent types or shapes "
                f"(ant {ant.shape}, cons {cons.shape}, weights {weights.shape} "
                f"for {n_source}->{n_target} items)"
            )


def verify_sidecar(path: str | Path) -> str:
    """Fully verify a sidecar's integrity; returns its hex content hash.

    Raises :class:`~repro.serve.artifact.ArtifactCorruptError` (damaged
    bytes) or :class:`~repro.serve.artifact.ArtifactError` (intact but
    unusable) exactly like :func:`map_artifact`; used by the registry's
    ``latest``-pointer healing to never aim the pointer at a version
    whose binary sidecar would poison every worker that maps it.
    """
    with map_artifact(path, verify=True) as mapped:
        return mapped.content_hash
