"""The maintenance loop: ingest, detect drift, refit, hot-swap.

Closes the loop from serving back to search: rows stream in
(:mod:`repro.stream.source`), the :class:`~repro.stream.buffer.StreamBuffer`
maintains the window incrementally, the
:class:`~repro.stream.drift.DriftMonitor` scores the currently published
table against it, and when drift is flagged the freshly fitted candidate
is published into a :class:`~repro.serve.registry.ModelRegistry` — whose
atomic ``latest`` pointer a running
:class:`~repro.serve.server.PredictionServer` re-reads within its
``latest_ttl_seconds``, so the swap needs no restart.

Refits run through the normal TRANSLATOR entry point,
``fit(dataset, cache=)``, with the buffer's incrementally packed columns
injected (:func:`fit_window`), on a worker thread so ingestion never
blocks on a fit.

CLI: ``repro-translator stream``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import logging
import os
from pathlib import Path

from repro import obs as _obs
from repro.core.table import TranslationTable
from repro.resilience.faults import fault_point
from repro.resilience.supervisor import (
    CheckpointError,
    WindowCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.serve.artifact import ModelArtifact
from repro.serve.registry import ModelRegistry
from repro.stream.buffer import StreamBuffer
from repro.stream.drift import DriftMonitor, DriftReport
from repro.stream.source import rows_to_matrix

__all__ = ["MaintenanceEvent", "MaintenanceLoop", "RefitPolicy", "fit_window"]

logger = logging.getLogger(__name__)


def fit_window(translator, buffer: StreamBuffer, name: str = "stream-window"):
    """Fit ``translator`` on the buffer's live window without repacking.

    Hands the buffer's incrementally maintained packed columns, as a
    :class:`~repro.core.search.SearchCache`, to ``translator.fit(dataset,
    cache=)`` — the entry point of every TRANSLATOR (exact, select,
    greedy, beam).  The fitted model is bit-identical to a batch fit on
    the same window because the injected columns are.
    """
    dataset, cache = buffer.refit_context(name)
    return translator.fit(dataset, cache=cache)


@dataclasses.dataclass
class RefitPolicy:
    """When the maintenance loop checks, refits and publishes.

    Args:
        window: Target live-window size (rows).  ``sliding`` keeps the
            newest ``window`` rows and checks every ``check_every``
            appended rows; ``tumbling`` accumulates ``window`` rows,
            checks/refits once on the full block, then clears it.
        policy: ``"sliding"`` or ``"tumbling"``.
        check_every: Appended-row cadence between drift checks
            (sliding; a tumbling window checks exactly once per block).
        min_rows: No check or refit below this window fill.
        always_publish: Publish every refit candidate regardless of the
            drift decision (a shadow-deploy style policy).
    """

    window: int = 512
    policy: str = "sliding"
    check_every: int = 128
    min_rows: int = 64
    always_publish: bool = False

    def __post_init__(self) -> None:
        if self.policy not in ("sliding", "tumbling"):
            raise ValueError(f"unknown window policy {self.policy!r}")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.check_every < 1:
            raise ValueError("check_every must be positive")
        if self.min_rows < 1:
            raise ValueError("min_rows must be positive")
        if self.window < self.min_rows:
            raise ValueError(
                f"window ({self.window}) must be at least min_rows "
                f"({self.min_rows}); a full block below the fit floor "
                "could never be checked"
            )


@dataclasses.dataclass
class MaintenanceEvent:
    """One check/publish decision of the loop (kept in ``loop.events``)."""

    rows_seen: int
    window_rows: int
    published_version: int | None
    report: DriftReport | None

    @property
    def published(self) -> bool:
        """Whether this event published a new model version."""
        return self.published_version is not None


class MaintenanceLoop:
    """Consume a row source and keep a registry model fresh.

    Args:
        source: Async iterable of ``(left_items, right_items)`` rows
            (:mod:`repro.stream.source`).
        buffer: The window buffer (its vocabulary defines the stream's).
        registry: Where model versions are published.
        model_name: Registry model to maintain.  If it already has
            versions, the latest table is adopted as the drift baseline;
            otherwise the first refit bootstraps version 1.
        translator: The refit engine: any TRANSLATOR, fitted through
            :func:`fit_window` on the buffer's packed columns.
        policy: The :class:`RefitPolicy`.
        monitor: Optional pre-configured :class:`DriftMonitor`; by
            default one is built once a baseline table exists.
        monitor_factory: How monitors are built when ``monitor`` is not
            given — a callable taking the baseline table (the CLI routes
            its threshold flags through this).
        checkpoint_dir: Optional directory for crash-recovery
            checkpoints.  After every drift check the loop atomically
            snapshots its window and source offset
            (:func:`repro.resilience.supervisor.save_checkpoint`); a
            restarted loop (fresh buffer, replayed source) restores the
            window, skips the already-consumed rows and continues —
            publishing models bit-identical to an uncrashed run.  An
            unreadable or stale-schema checkpoint is ignored (fresh
            start) and noted in :attr:`checkpoint_recovery_error`.

    Example::

        loop = MaintenanceLoop(source, buffer, registry, "live", TranslatorExact())
        await loop.run()       # until the source drains
    """

    def __init__(
        self,
        source,
        buffer: StreamBuffer,
        registry: ModelRegistry,
        model_name: str,
        translator,
        policy: RefitPolicy | None = None,
        monitor: DriftMonitor | None = None,
        monitor_factory=DriftMonitor,
        checkpoint_dir: str | os.PathLike | None = None,
    ) -> None:
        self.source = source
        self.buffer = buffer
        self.registry = registry
        self.model_name = model_name
        self.translator = translator
        self.policy = policy if policy is not None else RefitPolicy()
        self.monitor = monitor
        self.monitor_factory = monitor_factory
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.checkpoint_recovery_error: str | None = None
        self.resumed_rows = 0
        self.events: list[MaintenanceEvent] = []
        self.rows_seen = 0
        self._rows_since_check = 0
        self._published_table: TranslationTable | None = None
        self._published_version: int | None = None

    @property
    def checkpoint_path(self) -> Path | None:
        """Where this loop's checkpoint lives (``None`` when disabled)."""
        if self.checkpoint_dir is None:
            return None
        return self.checkpoint_dir / f"{self.model_name}.ckpt.npz"

    # ------------------------------------------------------------------
    def _adopt_published(self) -> None:
        """Adopt the registry's current latest table as the baseline."""
        try:
            artifact = self.registry.load(self.model_name)
        except KeyError:
            return
        self._published_table = artifact.table
        self._published_version = artifact.version
        if self.monitor is None:
            self.monitor = self.monitor_factory(artifact.table)
        else:
            self.monitor.update_table(artifact.table)

    #: Rows gathered before a buffer append; chunked ingestion amortises
    #: the per-append cost (the buffer packs a chunk in O(chunk/64)
    #: words, so feeding it row by row would be pure Python overhead).
    #: Flushes also happen at every check boundary, so the window
    #: contents at each drift check are identical to row-wise feeding.
    ingest_chunk = 64

    # ------------------------------------------------------------------
    def _resume_from_checkpoint(self) -> int:
        """Restore window + offset from disk; returns source rows to skip."""
        path = self.checkpoint_path
        if path is None or len(self.buffer) != 0:
            return 0
        try:
            checkpoint = load_checkpoint(path)
            if checkpoint is None:
                return 0
            if checkpoint.model_name != self.model_name:
                raise CheckpointError(
                    f"checkpoint {path} is for model "
                    f"{checkpoint.model_name!r}, not {self.model_name!r}"
                )
            checkpoint.restore_into(self.buffer)
        except CheckpointError as error:
            # Damaged or foreign state: a fresh start is always correct
            # (the source replays from row 0), just slower.
            self.checkpoint_recovery_error = str(error)
            logger.warning(
                "checkpoint recovery failed, starting fresh: %s",
                error,
                extra={"model": self.model_name, "checkpoint": str(path)},
            )
            return 0
        self.rows_seen = checkpoint.rows_seen
        self._rows_since_check = checkpoint.rows_since_check
        self.resumed_rows = checkpoint.rows_seen
        return checkpoint.rows_seen

    def _save_checkpoint(self) -> None:
        path = self.checkpoint_path
        if path is None:
            return
        save_checkpoint(
            path,
            WindowCheckpoint.capture(
                self.buffer,
                model_name=self.model_name,
                rows_seen=self.rows_seen,
                rows_since_check=self._rows_since_check,
                published_version=self._published_version,
            ),
        )

    async def run(self) -> None:
        """Consume the source to exhaustion, checking and publishing."""
        to_skip = self._resume_from_checkpoint()
        self._adopt_published()
        policy = self.policy
        pending_left: list = []
        pending_right: list = []

        def flush() -> None:
            if not pending_left:
                return
            self.buffer.append(
                rows_to_matrix(pending_left, self.buffer.n_left),
                rows_to_matrix(pending_right, self.buffer.n_right),
            )
            pending_left.clear()
            pending_right.clear()
            if policy.policy == "sliding":
                overflow = len(self.buffer) - policy.window
                if overflow > 0:
                    self.buffer.evict(overflow)

        async for left_items, right_items in self.source:
            if to_skip > 0:
                # Replayed rows the checkpoint already accounts for —
                # consumed from the source but not recounted.
                to_skip -= 1
                continue
            fault_point("maintenance.row")
            pending_left.append(left_items)
            pending_right.append(right_items)
            self.rows_seen += 1
            self._rows_since_check += 1
            if policy.policy == "sliding":
                check_due = (
                    self._rows_since_check >= policy.check_every
                    and len(self.buffer) + len(pending_left) >= policy.min_rows
                )
                if check_due or len(pending_left) >= self.ingest_chunk:
                    flush()
                if check_due:
                    await self._check_and_maybe_publish()
                    # Checkpoint right after the check boundary:
                    # publish-then-checkpoint gives at-least-once
                    # publish semantics (a crash in between republishes
                    # an identical table under a new version —
                    # harmless), never lost windows.
                    self._save_checkpoint()
            else:  # tumbling: blocks fill to exactly `window` rows
                if len(self.buffer) + len(pending_left) >= policy.window:
                    flush()
                    await self._check_and_maybe_publish()
                    self.buffer.evict(len(self.buffer))
                    # After eviction: a resumed tumbling loop starts its
                    # next block empty, exactly like the uncrashed run.
                    self._save_checkpoint()
        flush()
        # A finite source's final rows still get a check — the partial
        # tumbling block, or a sliding stream shorter than check_every
        # (which would otherwise never even bootstrap a model).
        if len(self.buffer) >= policy.min_rows and self._rows_since_check > 0:
            await self._check_and_maybe_publish()
            self._save_checkpoint()

    # ------------------------------------------------------------------
    async def _check_and_maybe_publish(self) -> None:
        self._rows_since_check = 0
        inst = _obs.ACTIVE
        if inst is not None:
            inst.maintenance_event("check", rows_seen=self.rows_seen)
        result = await asyncio.to_thread(
            fit_window, self.translator, self.buffer, f"{self.model_name}-window"
        )
        if inst is not None:
            inst.maintenance_event("refit")
        report: DriftReport | None = None
        if self._published_table is None:
            publish = True  # bootstrap: nothing is serving yet
        else:
            if self.monitor is None:
                self.monitor = self.monitor_factory(self._published_table)
            report = await asyncio.to_thread(
                self.monitor.check, self.buffer.window_dataset(), result
            )
            # Significance-only drift says the structure left the stream
            # — but if the refit candidate is no better than what is
            # already published, swapping it in helps nobody and a
            # structureless stream would republish identical models
            # forever.  Publish only when the candidate actually
            # improves; significance drift stays visible in the events.
            publish = (
                report.drifted and report.degradation > self.monitor.min_degradation
            ) or self.policy.always_publish
            if report.drifted and inst is not None:
                inst.maintenance_event("drift")
            logger.info(
                "drift check: drifted=%s degradation=%.6f publish=%s",
                report.drifted,
                report.degradation,
                publish,
                extra={
                    "model": self.model_name,
                    "rows_seen": self.rows_seen,
                    "window_rows": len(self.buffer),
                    "drifted": report.drifted,
                    "degradation": report.degradation,
                    "drift_reason": report.reason or None,
                    "will_publish": publish,
                },
            )
        version = self._publish(result, report) if publish else None
        if version is not None:
            if inst is not None:
                inst.maintenance_event("publish")
            logger.info(
                "published model version %d",
                version,
                extra={
                    "model": self.model_name,
                    "version": version,
                    "rows_seen": self.rows_seen,
                    "window_rows": len(self.buffer),
                },
            )
        self.events.append(
            MaintenanceEvent(
                rows_seen=self.rows_seen,
                window_rows=len(self.buffer),
                published_version=version,
                report=report,
            )
        )

    def _publish(self, result, report: DriftReport | None) -> int:
        fit_params = {
            "stream": True,
            "rows_seen": self.rows_seen,
            "window": len(self.buffer),
            "policy": self.policy.policy,
            "drift_reason": None if report is None else (report.reason or None),
        }
        artifact = ModelArtifact.from_result(
            self.model_name, self.buffer.window_dataset(), result, fit_params
        )
        published = self.registry.publish(artifact)
        self._published_table = result.table
        self._published_version = published.version
        if self.monitor is None:
            self.monitor = self.monitor_factory(result.table)
        else:
            self.monitor.update_table(result.table)
        return published.version

    @property
    def published_version(self) -> int | None:
        """Version the loop most recently published (or adopted)."""
        return self._published_version
