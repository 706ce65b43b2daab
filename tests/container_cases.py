"""The corruption cases every container schema must reject.

:class:`ContainerCorruptionCases` is one suite of container-level
damage — short prelude, bad magic, future version, truncated tail,
trailing bytes, a flipped bit, garbage header JSON and a forged section
table — that each schema's test module runs by subclassing it (the
serving sidecar in ``test_binfmt.py``, the column store in
``test_corpus.py``, the window checkpoint in ``test_resilience.py``).
A subclass sets :attr:`~ContainerCorruptionCases.schema`, provides a
``container_file`` fixture holding one valid file and implements
:meth:`~ContainerCorruptionCases.load` as its fullest read.

The class name does not start with ``Test``, so pytest collects the
cases only through the subclasses.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.resilience.container import (
    PRELUDE,
    ArtifactCorruptError,
    ArtifactError,
    Schema,
    align64,
)


def forge(path, schema: Schema, edit, resign: bool = True) -> None:
    """Rewrite a container's header with ``edit(meta)``: a forgery, not bit rot.

    With ``resign`` the prelude digest is recomputed, so only the
    schema's own checks can catch the edit.  A schema whose offsets
    count from byte 0 keeps the header's length (padding it with
    spaces); the others move the payload after the new header.
    """
    blob = path.read_bytes()
    magic, version, header_len, digest = PRELUDE.unpack_from(blob)
    meta = json.loads(blob[PRELUDE.size : PRELUDE.size + header_len])
    edit(meta)
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = blob[align64(PRELUDE.size + header_len) :]
    if not schema.payload_offsets:
        if len(header) > header_len:
            pytest.skip("forged header does not fit in place")
        header = header.ljust(header_len)
    pad = align64(PRELUDE.size + len(header)) - PRELUDE.size - len(header)
    body = header + bytes(pad) + payload
    if resign:
        digest = hashlib.sha256(body if schema.signs_payload else header).digest()
    path.write_bytes(PRELUDE.pack(magic, version, len(header), digest) + body)


def is_corrupt(error: BaseException) -> bool:
    """Whether ``error`` reports damaged bytes, directly or as its cause."""
    return isinstance(error, ArtifactCorruptError) or isinstance(
        error.__cause__, ArtifactCorruptError
    )


class ContainerCorruptionCases:
    """Container-level damage that every schema must refuse to decode."""

    schema: Schema

    def load(self, path) -> None:
        """Read ``path`` as fully as the schema allows (raises on damage)."""
        raise NotImplementedError

    def rejects(self, path, match: str | None = None, corrupt: bool = True) -> None:
        with pytest.raises(ArtifactError, match=match) as excinfo:
            self.load(path)
        assert is_corrupt(excinfo.value) == corrupt, excinfo.value

    @pytest.mark.parametrize("size", [0, 1, 16, PRELUDE.size - 1])
    def test_short_prelude(self, tmp_path, size):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x00" * size)
        self.rejects(path)

    def test_bad_magic(self, container_file):
        blob = bytearray(container_file.read_bytes())
        blob[:8] = b"NOTMAGIC"
        container_file.write_bytes(bytes(blob))
        self.rejects(container_file, match="magic")

    def test_future_format_version_is_not_corruption(self, container_file):
        blob = bytearray(container_file.read_bytes())
        blob[8:12] = (99).to_bytes(4, "little")
        container_file.write_bytes(bytes(blob))
        self.rejects(container_file, corrupt=False)

    @pytest.mark.parametrize("drop", [1, 7, 64, 4096])
    def test_truncated_tail(self, container_file, drop):
        blob = container_file.read_bytes()
        if drop >= len(blob):
            pytest.skip("file smaller than the truncation")
        container_file.write_bytes(blob[:-drop])
        self.rejects(container_file)

    def test_trailing_bytes(self, container_file):
        container_file.write_bytes(container_file.read_bytes() + b"\x00" * 9)
        self.rejects(container_file, match="trailing")

    @pytest.mark.parametrize("seed", range(8))
    def test_flipped_bit_anywhere_is_rejected(self, container_file, seed):
        """Fuzz: one random bit flipped past the magic never decodes.

        A flip inside the stored digest is caught too (the recomputed
        hash then disagrees).  A flip in the version field reads as a
        newer format, which is refused as plain ``ArtifactError``.
        """
        rng = np.random.default_rng(seed)
        blob = bytearray(container_file.read_bytes())
        position = int(rng.integers(8, len(blob)))
        blob[position] ^= 1 << int(rng.integers(0, 8))
        container_file.write_bytes(bytes(blob))
        self.rejects(container_file, corrupt=not 8 <= position < 12)

    def test_garbage_header_json(self, container_file):
        blob = bytearray(container_file.read_bytes())
        blob[PRELUDE.size : PRELUDE.size + 4] = b"!!!!"
        container_file.write_bytes(bytes(blob))
        self.rejects(container_file)

    def test_tampered_section_table_is_rejected(self, container_file):
        """A forged header (valid hash!) with a section before the payload."""
        offset = -64 if self.schema.payload_offsets else 0
        forge(
            container_file,
            self.schema,
            lambda meta: meta["sections"][0].update(offset=offset),
        )
        self.rejects(container_file)
