"""One verified container and one durable writer for every file the system writes.

The binary formats — the ``RPROBIN1`` serving sidecar, the ``RPROCOL1``
column store and the ``RPROWIN1`` window checkpoint — are each a
:class:`Schema` over one layout (little-endian)::

    [0, 48)       prelude <8sII32s: magic, format version, header length H,
                  SHA-256 over [48, EOF) or over the header alone (per schema)
    [48, 48+H)    UTF-8 JSON header object: ``payload_nbytes``, the schema's
                  fields and a section table [{name, dtype, shape, offset,
                  nbytes[, digest]}]; offsets count from byte 0 or from P
    [48+H, P)     zero padding, P = align64(48 + H)
    [P, EOF)      exactly ``payload_nbytes`` bytes; sections 64-byte aligned

:func:`open_container` checks all of it once, for every schema: damaged
bytes raise :class:`ArtifactCorruptError` and never decode; an intact
file of another version raises plain :class:`ArtifactError`.
:func:`durable_write` is the one atomic write behind every file the
system keeps, binary or not (the artifact JSON, ``LATEST`` and the
runtime cache use it too).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import mmap
import os
import struct
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.resilience.faults import fault_point

__all__ = [
    "ArtifactCorruptError",
    "ArtifactError",
    "Container",
    "Schema",
    "Section",
    "align64",
    "durable_write",
    "encode",
    "frame",
    "lay_out",
    "open_container",
]

#: The 48-byte prelude: magic, format version, header length, SHA-256.
PRELUDE = struct.Struct("<8sII32s")
#: Upper bound on declared dimensions: rejects absurd headers before any
#: allocation happens.
MAX_DIM = 100_000_000
_ALIGN = 64


class ArtifactError(ValueError):
    """A stored file is corrupt, mismatched or otherwise unusable."""


class ArtifactCorruptError(ArtifactError):
    """The file's *bytes* are damaged: torn write, bit rot, tampering.

    Distinct from other :class:`ArtifactError` causes (say a file of a
    newer format, which is perfectly intact) because the registry
    reacts differently: corrupt versions are quarantined into
    ``_corrupt/``, version mismatches are left alone.
    """


def align64(offset: int) -> int:
    """``offset`` rounded up to the next 64-byte boundary."""
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _fsync_directory(directory: Path) -> None:
    """Best-effort directory fsync: make the rename itself durable."""
    with contextlib.suppress(OSError):  # platforms or file systems without it
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def durable_write(
    path: str | os.PathLike, data: bytes | Iterable[bytes], *, site: str
) -> None:
    """Atomically and durably replace ``path`` with ``data``.

    ``data`` (bytes or byte chunks) goes to a hidden ``.tmp-`` file in
    the target directory: fsync, ``os.replace``, directory fsync, and an
    unlink on any failure, so a crash leaves the old file or the new
    one.  Chaos hooks: ``<site>.bytes`` sees (and may corrupt or
    truncate) the first chunk, ``<site>.replace`` fires before the swap.
    """
    path = Path(path)
    chunks = [data] if isinstance(data, (bytes, bytearray, memoryview)) else data
    fd, temp_name = tempfile.mkstemp(dir=path.parent, prefix=f".tmp-{path.name}-")
    try:
        with os.fdopen(fd, "wb") as stream:
            for index, chunk in enumerate(chunks):
                if index == 0:
                    chunk = fault_point(f"{site}.bytes", data=chunk)
                stream.write(chunk)
            stream.flush()
            os.fsync(stream.fileno())
        fault_point(f"{site}.replace")
        os.replace(temp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp_name)
        raise
    _fsync_directory(path.parent)


@dataclasses.dataclass(frozen=True)
class Schema:
    """The constants of one container format.

    ``signs_payload`` (the digest covers ``[48, EOF)``, else only the
    header) and ``payload_offsets`` (section offsets count from ``P``,
    else from byte 0) are facts of the bytes already on disk.
    """

    label: str
    magic: bytes
    version: int
    dtypes: tuple[str, ...]
    signs_payload: bool
    payload_offsets: bool


@dataclasses.dataclass(frozen=True)
class Section:
    """One checked section-table entry; ``offset`` is a file position."""

    dtype: np.dtype
    shape: tuple[int, ...]
    offset: int
    nbytes: int
    digest: str | None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _dumps(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True).encode("utf-8")


def frame(schema: Schema, header: bytes) -> bytes:
    """Prelude, ``header`` and padding of a header-signed container.

    For a writer that streams the payload after it (the column store);
    ``header`` must already declare every offset.
    """
    digest = hashlib.sha256(header).digest()
    head = PRELUDE.pack(schema.magic, schema.version, len(header), digest) + header
    return head + bytes(align64(len(head)) - len(head))


def lay_out(
    arrays: Iterable[tuple[str, np.ndarray]], offset: int, *, digests: bool = False
) -> tuple[list[dict], list[bytes], int]:
    """Place ``arrays`` from ``offset`` on, each at a 64-byte boundary.

    Returns the section-table entries (with a SHA-256 each when
    ``digests``), the byte pieces with padding, and the end offset.
    """
    entries, pieces = [], []
    for name, array in arrays:
        raw = np.ascontiguousarray(array).tobytes()
        start = align64(offset)
        pieces += [bytes(start - offset), raw]
        entries.append(
            {"name": name, "dtype": array.dtype.name, "shape": list(array.shape),
             "offset": start, "nbytes": len(raw)}
        )
        if digests:
            entries[-1]["digest"] = hashlib.sha256(raw).hexdigest()
        offset = start + len(raw)
    return entries, pieces, offset


def encode(
    schema: Schema, meta: dict, arrays: Sequence[tuple[str, np.ndarray]]
) -> bytes:
    """The bytes of one container: ``meta`` plus ``arrays`` as sections."""
    meta, header = dict(meta), b""
    while True:  # offsets from byte 0 move with the header's (growing) length
        start = align64(PRELUDE.size + len(header))
        base = 0 if schema.payload_offsets else start
        meta["sections"], pieces, end = lay_out(arrays, base)
        meta["payload_nbytes"] = align64(end) - base
        stable = len(_dumps(meta)) == len(header)
        header = _dumps(meta)
        if stable:
            break
    pad = bytes(start - PRELUDE.size - len(header))
    body = b"".join([header, pad, *pieces, bytes(align64(end) - end)])
    digest = hashlib.sha256(body if schema.signs_payload else header).digest()
    return PRELUDE.pack(schema.magic, schema.version, len(header), digest) + body


class Container:
    """A container file that passed :func:`open_container`'s checks.

    :attr:`meta` is the parsed header, :attr:`digest` the prelude's hex
    SHA-256 and :attr:`sections` the checked section table.  A mapped
    container serves zero-copy views of :attr:`buffer` (:meth:`view`),
    an unmapped one digest-checked ``os.pread`` reads (:meth:`read`).
    """

    def __init__(self, path: Path, schema: Schema, file: BinaryIO) -> None:
        self.path, self.schema, self._file = path, schema, file
        self.size = os.fstat(file.fileno()).st_size
        self.buffer: mmap.mmap | None = None
        self.meta: dict = {}
        self.digest = ""
        self.payload_start = 0
        self.sections: dict[str, Section] = {}

    def corrupt(self, reason: str) -> ArtifactCorruptError:
        """The error for damage found in this file."""
        label = self.schema.label
        return ArtifactCorruptError(f"{label} {self.path} is damaged: {reason}")

    def header_int(
        self,
        field: str,
        *,
        minimum: int = 0,
        maximum: int | None = MAX_DIM,
        meta: dict | None = None,
    ) -> int:
        """An integer field of the header (or of ``meta``) within range."""
        value = (self.meta if meta is None else meta).get(field)
        if not _is_int(value):
            raise self.corrupt(f"header field {field!r} is {value!r}, not an integer")
        if value < minimum or (maximum is not None and value > maximum):
            raise self.corrupt(f"header field {field!r} is out of range: {value}")
        return value

    def _entry(self, name: str) -> Section:
        try:
            return self.sections[name]
        except KeyError:
            raise ArtifactError(
                f"{self.schema.label} {self.path} has no section {name!r} "
                f"(have {sorted(self.sections)})"
            ) from None

    def view(self, name: str) -> np.ndarray:
        """One section as a read-only zero-copy view of the mapping."""
        section = self._entry(name)
        count = section.nbytes // section.dtype.itemsize
        view = np.frombuffer(self.buffer, section.dtype, count, section.offset)
        return view.reshape(section.shape)

    def pread(self, offset: int, nbytes: int) -> bytes:
        """``nbytes`` raw bytes at file position ``offset``."""
        if self.buffer is not None:
            return self.buffer[offset : offset + nbytes]
        return os.pread(self._file.fileno(), nbytes, offset)

    def checked(self, raw: bytes, nbytes: int, digest: str | None, what: str) -> None:
        """Raise unless ``raw`` is ``nbytes`` long and matches ``digest``."""
        if len(raw) != nbytes:
            raise self.corrupt(f"{what} is truncated")
        if digest is not None and hashlib.sha256(raw).hexdigest() != digest:
            raise self.corrupt(f"{what} hash mismatch")

    def read(self, name: str) -> np.ndarray:
        """One section as a fresh array, checked against its digest."""
        section = self._entry(name)
        raw = self.pread(section.offset, section.nbytes)
        self.checked(raw, section.nbytes, section.digest, f"section {name!r}")
        return np.frombuffer(raw, section.dtype).reshape(section.shape).copy()

    def check_layout(self, extents: Iterable[tuple[int, int]]) -> None:
        """Check that ``(offset, nbytes)`` extents tile the payload.

        Each starts at the 64-byte boundary after the one before and all
        padding is zero: bytes no header-only digest or per-section
        digest covers cannot hide damage.
        """
        position = self.payload_start
        for offset, nbytes in sorted(extents):
            if offset != align64(position):
                raise self.corrupt(f"payload extent at byte {offset} is misplaced")
            self._check_zero(position, offset)
            position = offset + nbytes
        if not 0 <= self.size - position < _ALIGN:
            raise self.corrupt(f"payload holds unclaimed bytes after byte {position}")
        self._check_zero(position, self.size)

    def close(self) -> None:
        """Release the mapping and the file (``BufferError`` while views live)."""
        if self.buffer is not None:
            self.buffer.close()
        if self._file is not None:
            self._file.close()
            self._file = None

    def _check_zero(self, start: int, end: int) -> None:
        if end > start and self.pread(start, end - start) != bytes(end - start):
            raise self.corrupt(f"nonzero padding in bytes [{start}, {end})")

    def _check(self, verify: bool) -> None:
        schema, size = self.schema, self.size
        if size < PRELUDE.size:
            raise self.corrupt(f"only {size} bytes, prelude needs {PRELUDE.size}")
        magic, version, header_len, digest = PRELUDE.unpack(self.pread(0, PRELUDE.size))
        if magic != schema.magic:
            raise self.corrupt(f"bad magic {magic!r}")
        if version != schema.version:
            raise ArtifactError(
                f"{schema.label} {self.path} uses format version {version}; "
                f"this library reads version {schema.version}"
            )
        if header_len > size - PRELUDE.size:
            raise self.corrupt(f"header declares {header_len} bytes, {size} in file")
        header = self.pread(PRELUDE.size, header_len)
        try:
            self.meta = json.loads(header.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            raise self.corrupt(f"header is not valid JSON ({error})") from error
        if not isinstance(self.meta, dict):
            raise self.corrupt("header is not a JSON object")
        self.payload_start = align64(PRELUDE.size + header_len)
        expected = self.payload_start + self.header_int("payload_nbytes", maximum=None)
        if size != expected:
            raise self.corrupt(
                f"file holds {size} bytes, header declares {expected} "
                f"({'truncated tail' if size < expected else 'trailing bytes'})"
            )
        self._check_zero(PRELUDE.size + header_len, self.payload_start)
        if verify:
            signed = hashlib.sha256(header)
            if schema.signs_payload:
                signed = hashlib.sha256()
                for position in range(PRELUDE.size, size, 1 << 20):
                    signed.update(self.pread(position, min(1 << 20, size - position)))
            if signed.digest() != digest:
                raise self.corrupt(
                    f"content hash mismatch: stored {digest.hex()!r}, "
                    f"recomputed {signed.hexdigest()!r}"
                )
        self.digest = digest.hex()
        self._check_sections()

    def _check_sections(self) -> None:
        entries = self.meta.get("sections")
        if not isinstance(entries, list):
            raise self.corrupt("header section table is missing")
        base = self.payload_start if self.schema.payload_offsets else 0
        size = self.size
        for entry in entries:
            if not isinstance(entry, dict):
                raise self.corrupt("section table entry is not an object")
            name, dtype, shape, digest = map(
                entry.get, ("name", "dtype", "shape", "digest")
            )
            if (
                not isinstance(name, str)
                or name in self.sections
                or dtype not in self.schema.dtypes
                or not isinstance(shape, list)
                or not all(_is_int(dim) and 0 <= dim <= MAX_DIM for dim in shape)
                or not (digest is None or isinstance(digest, str) and len(digest) == 64)
            ):
                raise self.corrupt(f"malformed section table entry {entry!r}")
            offset = base + self.header_int("offset", maximum=None, meta=entry)
            nbytes = self.header_int("nbytes", maximum=None, meta=entry)
            dtype = np.dtype(dtype)
            if math.prod(shape) * dtype.itemsize != nbytes:
                raise self.corrupt(f"section {name!r} {shape} is not {nbytes} bytes")
            if offset % _ALIGN or not self.payload_start <= offset <= size - nbytes:
                raise self.corrupt(f"section {name!r} spills outside the payload")
            self.sections[name] = Section(dtype, tuple(shape), offset, nbytes, digest)


def open_container(
    path: str | os.PathLike, schema: Schema, *, verify=True, mapped=False
) -> Container:
    """Open and check one container file written as ``schema``.

    ``verify=False`` skips only the digest.  ``mapped`` maps the file for
    :meth:`Container.view`; otherwise the descriptor stays open for
    :meth:`Container.read`.  A missing file raises plain
    :class:`ArtifactError`, any other unreadable one
    :class:`ArtifactCorruptError`.
    """
    path, container = Path(path), None
    try:
        container = Container(path, schema, open(path, "rb"))
        if mapped and container.size >= PRELUDE.size:
            fileno = container._file.fileno()
            container.buffer = mmap.mmap(fileno, 0, access=mmap.ACCESS_READ)
            container._file.close()  # the mapping keeps its own reference
            container._file = None
        container._check(verify)
        return container
    except BaseException as error:
        if container is not None:
            container.close()
        if not isinstance(error, OSError):
            raise
        missing = isinstance(error, FileNotFoundError)
        kind = ArtifactError if missing else ArtifactCorruptError
        raise kind(f"cannot read {schema.label} {path}: {error}") from error
