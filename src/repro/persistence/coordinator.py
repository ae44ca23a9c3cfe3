"""The persistence coordinator: wiring the kernel to its durability layers.

The coordinator subscribes to the kernel :class:`~repro.events.EventBus`
(``"*"``) and appends every event to the write-ahead
:class:`~repro.persistence.journal.Journal` as it is delivered.  Delivery is
synchronous, so an operation's records are in the journal when the kernel
call that made them returns.

A few event kinds are *enriched* with durable state the raw event does not
carry, so journal replay is self-contained:

========================  ====================================================
``model.published/.updated``  the full model document (replay re-installs it)
``instance.created``          the creation-time instance state (resource,
                              owner, token owners, parameters, metadata)
``instance.model_changed``    the instance's new model copy (which may be an
                              *unpublished* model — light coupling)
``propagation.accepted``      the accepted model version's document
========================  ====================================================

:meth:`PersistenceCoordinator.checkpoint` turns the journal tail into a
snapshot: it quiesces the runtime, flushes every instance touched since the
last checkpoint into the :class:`~repro.persistence.store.SQLiteStore`,
publishes the manifest atomically, and truncates fully-covered journal
segments.  The order —
instance store first, manifest second, truncation last — means a crash at
any point leaves a recoverable combination on disk.
"""

from __future__ import annotations

import glob
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from ..errors import GeleeError, ServiceError, StaleFencingTokenError, StorageError
from ..events import Event
from ..telemetry import get_registry
from .journal import Journal
from .snapshot import SnapshotStore, capture_manifest
from .store import SQLiteStore, document_for


@dataclass
class PersistenceConfig:
    """Everything needed to wire (or re-wire, after a crash) persistence.

    Attributes:
        directory: root directory; the journal lives in ``journal/``, the
            snapshots in ``snapshots/`` and the instance store in
            ``instances.sqlite3`` beneath it.
        backend: always ``"sqlite"``, the one instance store; any other
            value raises :class:`~repro.errors.StorageError`.  Kept only
            because the end-to-end benchmark still passes
            ``backend="sqlite"``.
        fsync: journal fsync policy — ``"always"``, ``"interval"`` or
            ``"never"`` (see :mod:`repro.persistence.journal`).
        fsync_interval: appends between fsyncs under the interval policy.
        segment_max_records: journal segment rotation threshold.
        snapshot_retain: how many snapshot manifests to keep.
        recover_on_start: when the service tier wires persistence, whether
            to rebuild existing durable state before serving.
        log_max_entries: retention bound the service tier puts on the
            :class:`~repro.storage.logstore.ExecutionLog`.  Every snapshot
            manifest embeds the log's full state, so an unbounded log makes
            checkpoint time and manifest size grow with total history;
            bounding it keeps checkpoints O(bound).  ``None`` keeps the log
            unbounded (the historical default).
    """

    directory: str
    backend: str = "sqlite"
    fsync: str = "interval"
    fsync_interval: int = 64
    segment_max_records: int = 10_000
    snapshot_retain: int = 2
    recover_on_start: bool = True
    log_max_entries: Optional[int] = None

    def __post_init__(self):
        if self.backend != "sqlite":
            raise StorageError("unknown persistence backend {!r}; the instance "
                               "store is always 'sqlite'".format(self.backend))

    # ------------------------------------------------------------------ layout
    @property
    def journal_directory(self) -> str:
        return os.path.join(self.directory, "journal")

    @property
    def snapshot_directory(self) -> str:
        return os.path.join(self.directory, "snapshots")

    @property
    def store_location(self) -> str:
        return os.path.join(self.directory, "instances.sqlite3")

    # ------------------------------------------------------------------ wiring
    def open_journal(self) -> Journal:
        return Journal(self.journal_directory, fsync=self.fsync,
                       fsync_interval=self.fsync_interval,
                       segment_max_records=self.segment_max_records)

    def open_snapshots(self) -> SnapshotStore:
        return SnapshotStore(self.snapshot_directory, retain=self.snapshot_retain)

    def open_store(self) -> SQLiteStore:
        """Open the instance store; refuse a directory a file store wrote.

        Before SQLite was the only store, checkpoints could land as one
        ``instances/<id>.json`` per instance.  Opening SQLite over such a
        directory would recover none of them, so it is a typed error until
        the documents are imported (``docs/PERSISTENCE.md``).
        """
        legacy = os.path.join(self.directory, "instances")
        if glob.glob(os.path.join(glob.escape(legacy), "*.json")):
            raise StorageError(
                "{!r} holds file-store instance documents, which the SQLite "
                "store cannot read; import them and move the directory aside "
                "first (see 'Importing a file store' in docs/PERSISTENCE.md)"
                .format(legacy))
        return SQLiteStore(self.store_location)


class PersistenceCoordinator:
    """Feeds the journal from the bus and materialises checkpoints."""

    def __init__(self, manager, log, journal: Journal,
                 snapshots: SnapshotStore, store: SQLiteStore, bus=None,
                 timers=None):
        self._manager = manager
        self._log = log
        self._journal = journal
        self._snapshots = snapshots
        self._store = store
        #: Optional :class:`~repro.scheduler.timers.TimerService` whose
        #: pending set is embedded in every manifest (timer *events* reach
        #: the journal through the bus subscription like everything else).
        self._timers = timers
        self._bus = bus if bus is not None else manager.bus
        #: instance ids whose durable document is stale (touched since the
        #: last checkpoint).  Guarded by the journal's lock via _on_event's
        #: serialised delivery; checkpoints swap the set under quiesce.
        self._dirty: Set[str] = set()
        self._last_checkpoint_seq = snapshots.snapshot_seqs()[-1] \
            if snapshots.snapshot_seqs() else 0
        self._checkpoints = 0
        # Appends that failed since the last successful checkpoint.  The
        # kernel bus is non-strict (operations must not fail because the
        # disk does), so _on_event counts failures instead of raising and
        # status() surfaces them; a checkpoint repairs the durability gap.
        self._journal_failures = 0
        self._last_journal_error = ""
        # Appends rejected by the journal's fencing guard — a different
        # animal from journal failures: the disk is fine, this *node* lost
        # its leadership epoch and must stop writing.  ``on_fenced`` (set by
        # the coordination subsystem) is notified so the node demotes; the
        # callback runs on the publishing thread and must stay cheap.
        self._fenced_appends = 0
        self.on_fenced = None
        self._checkpoint_lock = threading.Lock()
        registry = get_registry()
        self._metric_checkpoint = registry.histogram(
            "gelee_checkpoint_seconds",
            "Wall-clock time of one full checkpoint (quiesce through truncate).",
            buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0))
        self._metric_checkpoints = registry.counter(
            "gelee_checkpoints_total", "Completed checkpoints.")
        self._metric_fenced = registry.counter(
            "gelee_fencing_rejections_total",
            "Journal appends rejected by a stale leadership epoch.")
        self._unsubscribe = self._bus.subscribe("*", self._on_event)
        self._closed = False

    # ---------------------------------------------------------------- plumbing
    @property
    def journal(self) -> Journal:
        return self._journal

    @property
    def snapshots(self) -> SnapshotStore:
        return self._snapshots

    @property
    def store(self) -> SQLiteStore:
        return self._store

    @property
    def dirty_count(self) -> int:
        return len(self._dirty)

    @property
    def fenced_appends(self) -> int:
        """Appends rejected because this node's leadership epoch is stale."""
        return self._fenced_appends

    def mark_dirty(self, instance_id: str) -> None:
        """Force an instance into the next checkpoint flush (recovery uses
        this for instances rebuilt from the journal tail)."""
        self._dirty.add(instance_id)

    # ------------------------------------------------------------------ events
    def _on_event(self, event: Event) -> None:
        # Dirty-mark *before* appending: if the append fails, the subject's
        # full state still reaches the store at the next checkpoint (and the
        # event itself survives inside the manifest's log dump), so a
        # degraded journal loses availability of replay, not the state.
        if event.kind.startswith(("instance.", "action.", "propagation.")):
            self._dirty.add(event.subject_id)
        try:
            self._journal.append_event(event, state=self._enrich(event))
        except StaleFencingTokenError as exc:
            self._fenced_appends += 1
            self._metric_fenced.inc()
            self._last_journal_error = str(exc)
            if self.on_fenced is not None:
                self.on_fenced(exc)
        except StorageError as exc:
            self._journal_failures += 1
            self._last_journal_error = str(exc)

    def _enrich(self, event: Event) -> Optional[Dict[str, Any]]:
        """Attach replay state the raw event does not carry.

        Best effort — enrichment failures must never fail the publishing
        operation.  Instance lookups go through the *lock-free*
        ``peek_instance``: the kernel publishes while holding its lock, so
        this handler already runs inside the critical section.
        """
        try:
            if event.kind in ("model.published", "model.updated"):
                model = self._manager.model(
                    event.subject_id, version=event.payload.get("version"))
                return {"model": model.to_dict()}
            if event.kind == "instance.created":
                creation = self._creation_state(event)
                return {"instance": creation} if creation else None
            if event.kind == "instance.model_changed":
                instance = self._manager.peek_instance(event.subject_id)
                return {"model": instance.model.to_dict()} if instance else None
            if event.kind == "propagation.accepted":
                model = self._manager.model(
                    event.payload["model_uri"],
                    version=event.payload.get("to_version"))
                return {"model": model.to_dict()}
        except Exception:  # noqa: BLE001 - a lost enrichment beats a lost
            # journal record.
            return None
        return None

    def _creation_state(self, event: Event) -> Optional[Dict[str, Any]]:
        """Creation-time facts only — progression is replayed from its own
        events, so the rebuilt instance starts unstarted."""
        instance = self._manager.peek_instance(event.subject_id)
        if instance is None:
            return None
        return {
            "model_uri": instance.model.uri,
            "model_version": instance.model.version.version_number,
            "resource": instance.resource.to_dict(include_credentials=True),
            "owner": instance.owner,
            "token_owners": list(instance.token_owners),
            "metadata": dict(instance.metadata),
            "instantiation_parameters": {
                call_id: dict(values)
                for call_id, values in instance.instantiation_parameters.items()
            },
        }

    # -------------------------------------------------------------- checkpoint
    def checkpoint(self) -> Dict[str, Any]:
        """Flush dirty instances to the store and publish a snapshot.

        Returns a report dict (journal seq, instances flushed, timings).
        """
        if self._closed:
            raise ServiceError("the persistence coordinator is closed")
        started = time.perf_counter()
        with self._checkpoint_lock:
            with self._manager.quiesce():
                # The kernel publishes (and so journals) under the lock the
                # quiesce now holds, so the captured seq covers every
                # mutation the captured documents contain — otherwise replay
                # would re-apply those events on top of the newer state.
                seq = self._journal.last_seq
                dirty, self._dirty = self._dirty, set()
                failures, self._journal_failures = self._journal_failures, 0
                # Only the in-memory *capture* runs under the kernel lock;
                # documents and manifest are immutable once built, so the
                # expensive store/manifest I/O happens after release and
                # mutations resume meanwhile.
                documents = []
                for instance_id in dirty:
                    try:
                        instance = self._manager.instance(instance_id)
                    except GeleeError:
                        continue  # not an instance id (model/proposal subjects)
                    documents.append(document_for(instance, seq))
                instance_total = self._manager.instance_count()
                manifest = capture_manifest(self._manager, self._log, seq,
                                            timers=self._timers)
            # I/O phase — order is load-bearing: instance documents must be
            # durable *before* the manifest that claims to cover them, and
            # the journal may only be truncated after the manifest landed.
            # A failure here re-merges the captured dirty set: those
            # instances are still unflushed, and forgetting them would let a
            # *later* checkpoint truncate the journal past mutations whose
            # only durable copy was the records being truncated.
            try:
                flushed = self._store.upsert_many(documents)
                self._snapshots.publish(manifest)
            except BaseException:
                self._dirty |= dirty
                self._journal_failures += failures
                raise
            self._journal.sync()
            truncated = self._journal.truncate_through(seq)
            self._last_checkpoint_seq = seq
            self._checkpoints += 1
        self._metric_checkpoint.observe(time.perf_counter() - started)
        self._metric_checkpoints.inc()
        return {
            "journal_seq": seq,
            "snapshot_id": manifest.snapshot_id,
            "instances_flushed": flushed,
            "instances_total": instance_total,
            "journal_failures_repaired": failures,
            "segments_truncated": len(truncated),
            "duration_ms": round((time.perf_counter() - started) * 1000, 3),
        }

    # ------------------------------------------------------------------ status
    def status(self) -> Dict[str, Any]:
        journal_status = self._journal.status()
        snapshot_seqs = self._snapshots.snapshot_seqs()
        return {
            "enabled": True,
            "backend": "sqlite",
            "journal": journal_status,
            "journal_records_since_snapshot": max(
                0, journal_status["last_seq"] - self._last_checkpoint_seq),
            "snapshots": len(snapshot_seqs),
            "last_snapshot_seq": snapshot_seqs[-1] if snapshot_seqs else None,
            "dirty_instances": self.dirty_count,
            "checkpoints": self._checkpoints,
            "stored_instances": self._store.count(),
            "journal_failures": self._journal_failures,
            "fenced_appends": self._fenced_appends,
            "last_journal_error": self._last_journal_error,
        }

    def close(self) -> None:
        """Detach from the bus and release the journal/store handles."""
        if self._closed:
            return
        self._closed = True
        self._unsubscribe()
        try:
            self._journal.close()  # may raise if the final fsync fails
        finally:
            self._store.close()
