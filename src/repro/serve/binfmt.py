"""Binary, mmap-able compiled-model artifacts (the ``compiled.bin`` sidecar).

The JSON artifact (:mod:`repro.serve.artifact`) is the portable,
inspectable source of truth — but every server process that loads it
pays the same cold start: parse the rule list, rebuild the Boolean
masks, re-pack them into the uint64 matrices
:class:`~repro.serve.compiled.CompiledPredictor` runs on.  This module
writes those matrices out **once**, at publish time, in a fixed binary
layout that any number of worker processes can ``mmap`` afterwards:
construction becomes a handful of header reads plus zero-copy numpy
views, and N replicas on one machine share a single page-cache copy of
the model.

File layout (all integers little-endian)::

    offset  size    content
    0       8       magic  b"RPROBIN1"
    8       4       binary format version (currently 1)
    12      4       header length H, uint32
    16      32      SHA-256 over bytes [48, EOF) — header, padding, payload
    48      H       UTF-8 JSON header: model identity (name, version,
                    the JSON artifact's content hash), dimensions
                    (n_left, n_right), payload_nbytes, and a section
                    table [{name, dtype, shape, offset, nbytes}, ...]
    48+H    pad     zero padding to the next 64-byte boundary
    ...             section payloads, each offset 64-byte aligned:
                    per direction D in (R, L) the packed uint64
                    antecedent matrix ``D.ant_words`` (one row per
                    compiled rule over the source vocabulary), the
                    packed uint64 consequent matrix ``D.cons_words``
                    (over the target vocabulary), and the fixed-point
                    uint32 antecedent weight vector ``D.ant_weights``
                    (per-rule antecedent popcounts — the exact counts
                    the blas subset test compares against)

Integrity is all-or-nothing: :func:`map_artifact` validates the magic,
version, header and declared sizes, and (by default) re-hashes
``[48, EOF)`` against the stored digest, so a flipped bit, a truncated
tail or a tampered header raises
:class:`~repro.serve.artifact.ArtifactCorruptError` — the file can
never silently mis-decode into a *different* model.  The write is
crash-safe with the same temp-file + fsync + ``os.replace`` discipline
as :func:`repro.serve.artifact.save_artifact`.

``tests/test_binfmt.py`` fuzzes this contract (randomised tables
round-trip bit-identically against the JSON path; randomised
corruption is always rejected) and ``benchmarks/bench_cluster.py``
measures the cold-start gap (``BENCH_cluster.json``).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from repro.core.bitset import n_words_for
from repro.data.dataset import Side
from repro.resilience.faults import fault_point
from repro.serve.artifact import (
    ArtifactCorruptError,
    ArtifactError,
    ModelArtifact,
    _fsync_directory,
)
from repro.serve.compiled import CompiledPredictor

__all__ = [
    "BINFMT_MAGIC",
    "BINFMT_VERSION",
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

_PRELUDE = struct.Struct("<8sII32s")
_ALIGN = 64
#: Permitted section dtypes; anything else in a header is damage.
_DTYPES = {"uint64": np.uint64, "uint32": np.uint32}
#: Upper bound on declared dimensions — rejects absurd headers before
#: any allocation happens (mirrors ``repro.stream.codec``).
_MAX_DIM = 100_000_000


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


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
    from repro.core.bitset import popcount_rows

    weights = popcount_rows(compiled.antecedents.words).astype(np.uint32)
    return compiled.antecedents.words, compiled.consequents.words, weights


def write_compiled(artifact: ModelArtifact, path: str | Path) -> str:
    """Compile ``artifact`` for both directions and write the sidecar.

    Returns the hex SHA-256 digest stored in the prelude.  The write is
    atomic and durable (temp file, fsync, ``os.replace``, directory
    fsync), so a crash at any instant leaves either no sidecar or a
    complete one — never a torn file the registry would have to
    quarantine on its next load.
    """
    path = Path(path)
    sections: list[dict[str, object]] = []
    payloads: list[bytes] = []
    for target, prefix in ((Side.RIGHT, "R"), (Side.LEFT, "L")):
        ant, cons, weights = _direction_arrays(artifact, target)
        for name, array in (
            (f"{prefix}.ant_words", ant),
            (f"{prefix}.cons_words", cons),
            (f"{prefix}.ant_weights", weights),
        ):
            array = np.ascontiguousarray(array)
            sections.append(
                {
                    "name": name,
                    "dtype": array.dtype.name,
                    "shape": list(array.shape),
                    "nbytes": int(array.nbytes),
                }
            )
            payloads.append(array.tobytes())

    # Lay the sections out; offsets are absolute file positions and
    # depend on the header length, which in turn lists the offsets —
    # resolved by fixing the header's serialised length first via a
    # placeholder pass.
    header: dict[str, object] = {
        "binfmt_version": BINFMT_VERSION,
        "model": artifact.name,
        "version": artifact.version,
        "artifact_hash": artifact.content_hash,
        "n_left": artifact.n_left,
        "n_right": artifact.n_right,
        "sections": sections,
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
    for __ in range(3):  # offsets may widen the header; re-fit until stable
        encoded = json.dumps(header, sort_keys=True).encode("utf-8")
        offset = _align(_PRELUDE.size + len(encoded))
        for section, payload in zip(sections, payloads):
            section["offset"] = offset
            offset = _align(offset + len(payload))
        header["payload_nbytes"] = offset - _align(_PRELUDE.size + len(encoded))
        candidate = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(candidate) == len(encoded):
            encoded = candidate
            break
    payload_start = _align(_PRELUDE.size + len(encoded))

    body = bytearray(offset - _PRELUDE.size)
    body[: len(encoded)] = encoded
    for section, payload in zip(sections, payloads):
        start = int(section["offset"]) - _PRELUDE.size
        body[start : start + len(payload)] = payload
    digest = hashlib.sha256(bytes(body)).digest()
    blob = _PRELUDE.pack(BINFMT_MAGIC, BINFMT_VERSION, len(encoded), digest) + bytes(
        body
    )
    # Chaos hook: a fault plan may corrupt or truncate the bytes here,
    # simulating the torn write the verification layer must catch.
    blob = fault_point("registry.sidecar.bytes", data=blob)
    handle, temp_name = tempfile.mkstemp(dir=path.parent, prefix=".tmp-sidecar-")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(blob)
            stream.flush()
            os.fsync(stream.fileno())
        fault_point("registry.sidecar.replace")
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)
    assert payload_start == _align(_PRELUDE.size + len(encoded))
    return digest.hex()


def _corrupt(path: Path, reason: str) -> ArtifactCorruptError:
    return ArtifactCorruptError(
        f"compiled binary artifact {path} is damaged: {reason} — "
        "refusing to serve a corrupt or tampered model"
    )


def _header_int(meta: dict, field: str, path: Path) -> int:
    value = meta.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _corrupt(path, f"header field {field!r} is {value!r}, not an integer")
    if not 0 <= value <= _MAX_DIM:
        raise _corrupt(path, f"header declares absurd {field}={value}")
    return value


class MappedArtifact:
    """A ``compiled.bin`` sidecar mapped into memory, sections as views.

    Build with :func:`map_artifact`.  Holds the ``mmap`` open for as
    long as any section view is alive (numpy keeps the buffer
    referenced through ``.base``, so dropping the ``MappedArtifact``
    itself is safe); :meth:`close` releases the mapping eagerly and
    refuses (``BufferError``) while views are still exported.

    Attributes
    ----------
    path:
        Where the sidecar was mapped from.
    meta:
        The parsed JSON header.
    content_hash:
        Hex SHA-256 digest stored in the prelude.
    """

    def __init__(
        self,
        path: Path,
        buffer: mmap.mmap,
        meta: dict,
        sections: dict[str, np.ndarray],
        content_hash: str,
    ) -> None:
        self.path = path
        self.meta = meta
        self.content_hash = content_hash
        self._buffer = buffer
        self._sections = sections

    # ------------------------------------------------------------------
    @property
    def buffer(self) -> mmap.mmap:
        """The raw mapping (read-only); useful for shares-memory checks."""
        return self._buffer

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
        try:
            return self._sections[name]
        except KeyError:
            raise ArtifactError(
                f"compiled binary artifact {self.path} has no section {name!r} "
                f"(have {sorted(self._sections)})"
            ) from None

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
        self._sections = {}
        self._buffer.close()

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
            f"{len(self._sections)} sections)"
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
    path = Path(path)
    try:
        with open(path, "rb") as stream:
            try:
                buffer = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ)
            except ValueError as error:  # zero-length file
                raise _corrupt(path, f"cannot map: {error}") from error
    except FileNotFoundError as error:
        raise ArtifactError(f"cannot read compiled artifact {path}: {error}") from error
    except OSError as error:
        raise ArtifactCorruptError(
            f"cannot read compiled artifact {path}: {error}"
        ) from error
    try:
        return _parse_mapping(path, buffer, verify)
    except BaseException:
        buffer.close()
        raise


def _parse_mapping(path: Path, buffer: mmap.mmap, verify: bool) -> MappedArtifact:
    size = len(buffer)
    if size < _PRELUDE.size:
        raise _corrupt(path, f"only {size} bytes, prelude needs {_PRELUDE.size}")
    magic, version, header_len, digest = _PRELUDE.unpack(buffer[: _PRELUDE.size])
    if magic != BINFMT_MAGIC:
        raise _corrupt(path, f"bad magic {magic!r}")
    if version != BINFMT_VERSION:
        raise ArtifactError(
            f"compiled binary artifact {path} uses format version {version}; "
            f"this library reads version {BINFMT_VERSION}"
        )
    if size - _PRELUDE.size < header_len:
        raise _corrupt(
            path,
            f"header declares {header_len} bytes, {size - _PRELUDE.size} present",
        )
    try:
        meta = json.loads(buffer[_PRELUDE.size : _PRELUDE.size + header_len])
    except ValueError as error:
        raise _corrupt(path, f"header is not valid JSON ({error})") from error
    if not isinstance(meta, dict):
        raise _corrupt(path, "header is not a JSON object")
    n_left = _header_int(meta, "n_left", path)
    n_right = _header_int(meta, "n_right", path)
    payload_nbytes = _header_int(meta, "payload_nbytes", path)
    payload_start = _align(_PRELUDE.size + header_len)
    expected_size = payload_start + payload_nbytes
    if size != expected_size:
        raise _corrupt(
            path,
            f"file holds {size} bytes, header declares {expected_size} "
            f"({'truncated tail' if size < expected_size else 'trailing bytes'})",
        )
    if verify:
        recomputed = hashlib.sha256(memoryview(buffer)[_PRELUDE.size :]).digest()
        if recomputed != digest:
            raise _corrupt(
                path,
                f"content hash mismatch: stored {digest.hex()!r}, "
                f"recomputed {recomputed.hex()!r}",
            )
    raw_sections = meta.get("sections")
    if not isinstance(raw_sections, list):
        raise _corrupt(path, "header section table is missing")
    sections: dict[str, np.ndarray] = {}
    for entry in raw_sections:
        if not isinstance(entry, dict):
            raise _corrupt(path, "section table entry is not an object")
        name = entry.get("name")
        dtype = _DTYPES.get(entry.get("dtype"))  # type: ignore[arg-type]
        shape = entry.get("shape")
        if (
            not isinstance(name, str)
            or dtype is None
            or not isinstance(shape, list)
            or not all(
                isinstance(dim, int) and not isinstance(dim, bool) and 0 <= dim <= _MAX_DIM
                for dim in shape
            )
        ):
            raise _corrupt(path, f"malformed section table entry {entry!r}")
        offset = _header_int(entry, "offset", path)
        nbytes = _header_int(entry, "nbytes", path)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if count * np.dtype(dtype).itemsize != nbytes:
            raise _corrupt(
                path, f"section {name!r} shape {shape} disagrees with nbytes {nbytes}"
            )
        if offset < payload_start or offset + nbytes > expected_size:
            raise _corrupt(
                path, f"section {name!r} spills outside the payload region"
            )
        view = np.frombuffer(buffer, dtype=dtype, count=count, offset=offset)
        sections[name] = view.reshape(shape)
    _check_model_sections(path, sections, n_left, n_right)
    return MappedArtifact(path, buffer, meta, sections, digest.hex())


def _check_model_sections(
    path: Path, sections: dict[str, np.ndarray], n_left: int, n_right: int
) -> None:
    """Cross-check the model sections against the declared vocabularies."""
    for prefix, n_source, n_target in (("R", n_left, n_right), ("L", n_right, n_left)):
        try:
            ant = sections[f"{prefix}.ant_words"]
            cons = sections[f"{prefix}.cons_words"]
            weights = sections[f"{prefix}.ant_weights"]
        except KeyError as error:
            raise _corrupt(path, f"model section {error} is missing") from None
        n_rules = ant.shape[0]
        if (
            ant.ndim != 2
            or cons.ndim != 2
            or weights.ndim != 1
            or cons.shape[0] != n_rules
            or weights.shape[0] != n_rules
            or ant.shape[1] != n_words_for(n_source)
            or cons.shape[1] != n_words_for(n_target)
        ):
            raise _corrupt(
                path,
                f"direction {prefix!r} sections have inconsistent shapes "
                f"(ant {ant.shape}, cons {cons.shape}, weights {weights.shape} "
                f"for {n_source}->{n_target} items)",
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
