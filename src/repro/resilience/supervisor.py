"""Supervision and window checkpointing for long-running loops.

Two halves, used together by the streaming maintenance subsystem:

* :class:`Supervisor` — restart a crashed asyncio task with capped,
  deterministic backoff (a :class:`~repro.resilience.policy.RetryPolicy`
  schedule).  It restarts on ordinary exceptions *and*
  :class:`~repro.resilience.faults.CrashPoint` (the chaos harness's
  simulated process death), gives up after ``max_restarts`` by
  re-raising the final failure, and records every restart in
  :attr:`Supervisor.events`.
* :class:`WindowCheckpoint` + :func:`save_checkpoint` /
  :func:`load_checkpoint` — an atomic, fsynced, hash-verified snapshot
  of a stream window (both views) and its source offset
  (``rows_seen``).  A restarted
  :class:`~repro.stream.maintenance.MaintenanceLoop` restores the
  window, skips the already-consumed rows of its (replayable) source
  and continues — because incremental packing is bit-identical to
  from-scratch packing, the resumed loop publishes models
  **bit-identical** to an uncrashed run (enforced by
  ``tests/test_resilience.py``).

The checkpoint file is the ``RPROWIN1`` schema (:data:`CHECKPOINT`) of
:mod:`repro.resilience.container`: ``model_name``, ``rows_seen`` and the
counters in the header, the two views as packed uint64 words in the
sections, a SHA-256 over every byte after the prelude.  It goes through
the durable writer, so a crash leaves the *previous* complete
checkpoint behind, never a torn one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import os
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro import obs as _obs
from repro.core.bitset import BitMatrix, n_words_for
from repro.resilience.container import (
    ArtifactError,
    Container,
    Schema,
    durable_write,
    encode,
    open_container,
)
from repro.resilience.faults import CrashPoint
from repro.resilience.policy import RetryPolicy

__all__ = [
    "CHECKPOINT",
    "CheckpointError",
    "RestartEvent",
    "Supervisor",
    "WindowCheckpoint",
    "load_checkpoint",
    "save_checkpoint",
]

logger = logging.getLogger(__name__)

#: The window checkpoint's container schema.
CHECKPOINT = Schema(
    "window checkpoint", b"RPROWIN1", 1, ("uint64",),
    signs_payload=True, payload_offsets=True,
)


#: The checkpoint's counter fields: non-negative integers.
_COUNTERS = ("rows_seen", "rows_since_check", "appended_total", "evicted_total")


class CheckpointError(ArtifactError):
    """A checkpoint file is unreadable, torn, hash-mismatched or foreign."""


@dataclasses.dataclass
class RestartEvent:
    """One supervisor restart (kept in :attr:`Supervisor.events`)."""

    attempt: int
    delay: float
    error: str


class Supervisor:
    """Restart a crashing coroutine with capped backoff.

    Args:
        factory: ``factory(attempt)`` builds a **fresh** awaitable for
            each run (attempt 0 is the first start).  Rebuilding matters:
            a crashed maintenance loop needs a new source iterator and a
            new buffer restored from its checkpoint, not the half-dead
            originals.
        max_restarts: Restarts allowed after the first start; the
            failure that exhausts them propagates to the caller.
        policy: Backoff schedule between restarts (deterministic; the
            default sleeps at most ~0.1 s total so supervised tests stay
            fast).
        restart_on: Exception types that trigger a restart.  Includes
            :class:`~repro.resilience.faults.CrashPoint` by default;
            ``KeyboardInterrupt``/``SystemExit``/``CancelledError``
            always propagate.

    Example::

        supervisor = Supervisor(lambda attempt: make_loop().run())
        await supervisor.run()
    """

    def __init__(
        self,
        factory: Callable[[int], object],
        max_restarts: int = 3,
        policy: RetryPolicy | None = None,
        restart_on: tuple[type[BaseException], ...] = (Exception, CrashPoint),
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        self.factory = factory
        self.max_restarts = max_restarts
        self.policy = policy if policy is not None else RetryPolicy(
            attempts=max_restarts + 1,
            base_delay=0.01,
            max_delay=0.05,
            jitter=0.0,
        )
        self.restart_on = restart_on
        self.events: list[RestartEvent] = []

    @property
    def restarts(self) -> int:
        """How many restarts have happened so far."""
        return len(self.events)

    async def run(self):
        """Run (and re-run) the supervised task; returns its result.

        The awaitable from ``factory(attempt)`` is awaited; a failure
        matching ``restart_on`` is recorded and, while restarts remain,
        retried after the policy's backoff.  The terminal failure is
        re-raised unchanged.
        """
        attempt = 0
        while True:
            try:
                return await self.factory(attempt)
            except asyncio.CancelledError:
                raise
            except self.restart_on as error:
                if attempt >= self.max_restarts:
                    raise
                delay = self.policy.delay(attempt)
                self.events.append(
                    RestartEvent(
                        attempt=attempt + 1,
                        delay=delay,
                        error=f"{type(error).__name__}: {error}",
                    )
                )
                if _obs.ACTIVE is not None:
                    _obs.ACTIVE.supervisor_restart()
                logger.warning(
                    "supervised task failed (%s); restart %d/%d in %.3fs",
                    f"{type(error).__name__}: {error}",
                    attempt + 1,
                    self.max_restarts,
                    delay,
                    extra={
                        "attempt": attempt + 1,
                        "max_restarts": self.max_restarts,
                        "delay": delay,
                    },
                )
                attempt += 1
                if delay > 0:
                    await asyncio.sleep(delay)


@dataclasses.dataclass
class WindowCheckpoint:
    """A resumable snapshot of a stream window and its source offset.

    Attributes
    ----------
    model_name:
        The maintained registry model (sanity-checked on restore).
    rows_seen:
        Source rows consumed when the snapshot was taken — the resumed
        loop skips exactly this many rows of its replayed source.
    rows_since_check:
        The maintenance loop's check-cadence counter at snapshot time.
    left, right:
        Boolean view matrices of the live window (the canonical window
        content; re-packing them is bit-identical to the crashed
        buffer's incremental columns).
    appended_total, evicted_total:
        The buffer's lifetime counters (restored for observability).
    published_version:
        Registry version last published by the loop, if any.
    """

    model_name: str
    rows_seen: int
    rows_since_check: int
    left: np.ndarray
    right: np.ndarray
    appended_total: int = 0
    evicted_total: int = 0
    published_version: int | None = None

    @classmethod
    def capture(
        cls,
        buffer,
        model_name: str,
        rows_seen: int,
        rows_since_check: int = 0,
        published_version: int | None = None,
    ) -> "WindowCheckpoint":
        """Snapshot a :class:`~repro.stream.buffer.StreamBuffer` window."""
        window = buffer.window_dataset()
        return cls(
            model_name=model_name,
            rows_seen=rows_seen,
            rows_since_check=rows_since_check,
            left=np.array(window.left, dtype=bool, copy=True),
            right=np.array(window.right, dtype=bool, copy=True),
            appended_total=buffer.appended_total,
            evicted_total=buffer.evicted_total,
            published_version=published_version,
        )

    def restore_into(self, buffer) -> None:
        """Refill an **empty** buffer with the checkpointed window.

        Incremental packing is bit-identical to from-scratch packing,
        so the restored buffer's packed columns (and therefore every
        subsequent refit) match the crashed buffer's exactly.
        """
        if len(buffer) != 0:
            raise ValueError("checkpoint restore needs an empty buffer")
        if (buffer.n_left, buffer.n_right) != (
            self.left.shape[1],
            self.right.shape[1],
        ):
            raise CheckpointError(
                f"checkpoint vocabularies ({self.left.shape[1]}, "
                f"{self.right.shape[1]}) do not match the buffer "
                f"({buffer.n_left}, {buffer.n_right})"
            )
        if self.left.shape[0]:
            buffer.append(self.left, self.right)
        buffer.restore_counters(self.appended_total, self.evicted_total)

    def _meta(self) -> dict:
        meta = {field: getattr(self, field) for field in _COUNTERS}
        return meta | {
            "model_name": self.model_name,
            "n_rows": len(self.left),
            "published_version": self.published_version,
        }


def save_checkpoint(path: str | os.PathLike, checkpoint: WindowCheckpoint) -> Path:
    """Write ``checkpoint`` to ``path``; returns the path written.

    Fully serialised, then through the durable writer: a crash at any
    instant leaves the previous checkpoint or the new one, never a torn file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sections = [
        (name, BitMatrix.from_bool_columns(view).words)
        for name, view in (("left", checkpoint.left), ("right", checkpoint.right))
    ]
    blob = encode(CHECKPOINT, checkpoint._meta(), sections)
    durable_write(path, blob, site="checkpoint")
    return path


def load_checkpoint(path: str | os.PathLike) -> WindowCheckpoint | None:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns ``None`` when no checkpoint exists; raises
    :class:`CheckpointError` (the container's error as its cause) for a
    file that is unreadable, of another version, hash-mismatched or
    breaks the schema — the maintenance loop then starts fresh rather
    than resuming from damaged state.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        container = open_container(path, CHECKPOINT)
        try:
            return _decode_checkpoint(container)
        finally:
            container.close()
    except ArtifactError as error:
        raise CheckpointError(f"unreadable checkpoint {path}: {error}") from error


def _decode_checkpoint(container: Container) -> WindowCheckpoint:
    """The checkpoint's own header fields and two views, type-checked."""
    meta, header_int = container.meta, container.header_int
    model_name = meta.get("model_name")
    if not isinstance(model_name, str):
        raise container.corrupt(f"model_name is {model_name!r}, not a string")
    counters = {field: header_int(field, maximum=None) for field in _COUNTERS}
    if meta.get("published_version") is not None:
        header_int("published_version", maximum=None)
    n_rows = header_int("n_rows")
    views = {}
    for name in ("left", "right"):
        shape = getattr(container.sections.get(name), "shape", ())
        if len(shape) != 2 or shape[1] != n_words_for(n_rows):
            raise container.corrupt(f"section {name!r} does not hold {n_rows} rows")
        views[name] = BitMatrix(container.read(name), n_rows).to_bool_columns()
    return WindowCheckpoint(
        model_name=model_name,
        published_version=meta.get("published_version"),
        **counters,
        **views,
    )
