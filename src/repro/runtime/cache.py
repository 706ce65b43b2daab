"""Content-hashed on-disk result cache for sweep shards.

A sweep over ``datasets x params x seeds`` re-runs the same independent
fits again and again — across repeated benchmark invocations, across
interrupted runs, and across grid refinements that share most of their
cells.  :class:`ResultCache` memoises each cell on disk under a key that
hashes the *content* of the task (its canonical JSON payload plus the
library version), so

* a re-run of an identical sweep is served entirely from disk,
* refining a grid only pays for the new cells, and
* any change to the task payload — dataset spec, method, a single
  parameter, the seed — or to the library version yields a different
  key and therefore a cold cell (invalidation is automatic, never
  manual).

Values are JSON documents (one ``<key>.json`` file per entry, written
through the durable atomic writer
:func:`repro.resilience.container.durable_write`) so cache directories
are portable, inspectable and safe under concurrent writers producing
identical content.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

from repro.resilience.container import durable_write

__all__ = ["CacheStats", "ResultCache", "content_key"]


def content_key(payload: object, *, salt: str = "") -> str:
    """Deterministic hex digest of an arbitrary JSON-serialisable payload.

    Args:
        payload: Any JSON-serialisable object.  Dict key order does not
            affect the digest (keys are sorted canonically).
        salt: Optional extra string folded into the digest — the sweep
            engine passes the library version here so upgrading the code
            invalidates old entries.

    Returns:
        A 64-character SHA-256 hex digest, usable as a filename.

    Example::

        >>> content_key({"a": 1, "b": 2}) == content_key({"b": 2, "a": 1})
        True
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256((salt + "\x1f" + canonical).encode("utf-8")).hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/store counters of one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Directory-backed key/value store for JSON-serialisable results.

    Args:
        directory: Cache root; created on first write if missing.

    Keys are content digests (see :func:`content_key`); values must be
    JSON-serialisable.  Lookups never raise on corrupt or missing files
    — they count as misses — so a cache directory can be deleted or
    truncated at any time.

    Example::

        >>> import tempfile
        >>> cache = ResultCache(tempfile.mkdtemp())
        >>> key = content_key({"task": "demo"})
        >>> cache.get(key) is None
        True
        >>> cache.put(key, {"answer": 42})
        >>> cache.get(key)
        {'answer': 42}
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Filesystem path of one cache entry (which may not exist yet)."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> object | None:
        """Return the stored value for ``key``, or ``None`` on a miss.

        A corrupt entry (truncated write, non-JSON content) is treated
        as a miss rather than an error.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
            value = json.loads(text)
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Store ``value`` (JSON-serialisable) under ``key`` atomically."""
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(value, sort_keys=True).encode("utf-8")
        durable_write(self.path_for(key), payload, site="runtime.cache")
        self.stats.stores += 1

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(
            1
            for name in self.directory.iterdir()
            if name.suffix == ".json" and not name.name.startswith(".tmp-")
        )

    def clear(self) -> int:
        """Delete every entry; returns the number of entries removed."""
        removed = 0
        if self.directory.is_dir():
            for path in list(self.directory.iterdir()):
                if path.suffix == ".json":
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed
