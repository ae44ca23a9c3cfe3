"""Durable runtime state: write-ahead journal, snapshots, crash recovery.

The Gelee kernel manages long-lived resources — EU project deliverables
live for months — so runtime state must outlive any single process.  This
package makes the runtime durable and restartable:

* :mod:`~repro.persistence.journal` — a segmented JSONL write-ahead log of
  every kernel event, with configurable fsync and one commit rule that
  readers and the writer's torn-tail repair share;
* :mod:`~repro.persistence.snapshot` — atomic point-in-time manifests of
  model / log state that bound replay length;
* :mod:`~repro.persistence.store` — the checkpoint target for instance
  state, one :class:`SQLiteStore` (``upsert_many`` / ``all`` / ``count``);
* :mod:`~repro.persistence.coordinator` — the bus subscriber that feeds
  the journal and materialises checkpoints;
* :mod:`~repro.persistence.recovery` — snapshot restore plus journal-tail
  replay into a fresh manager.

Typical wiring (the service tier does this from one knob,
``GeleeService(..., persistence=PersistenceConfig(directory))``)::

    config = PersistenceConfig("/var/lib/gelee")
    journal, snapshots, store = (config.open_journal(),
                                 config.open_snapshots(), config.open_store())
    report = recover_into(manager, log, journal, snapshots, store)
    coordinator = PersistenceCoordinator(manager, log, journal, snapshots, store)
    ...
    coordinator.checkpoint()   # periodically, or POST /v2/runtime/persistence:checkpoint
"""

from .coordinator import PersistenceConfig, PersistenceCoordinator
from .journal import (
    FSYNC_POLICIES,
    Journal,
    JournalRecord,
    ReadCursor,
    list_segments,
    scan_last_seq,
    scan_oldest_seq,
    scan_positions,
    scan_records,
)
from .recovery import (
    JournalReplayer,
    RecoveryReport,
    recover_into,
    restore_snapshot,
)
from .snapshot import SnapshotManifest, SnapshotStore, capture_manifest
from .store import SQLiteStore, document_for

__all__ = [
    "FSYNC_POLICIES",
    "Journal",
    "JournalRecord",
    "JournalReplayer",
    "PersistenceConfig",
    "PersistenceCoordinator",
    "ReadCursor",
    "RecoveryReport",
    "SQLiteStore",
    "SnapshotManifest",
    "SnapshotStore",
    "capture_manifest",
    "document_for",
    "list_segments",
    "recover_into",
    "restore_snapshot",
    "scan_last_seq",
    "scan_oldest_seq",
    "scan_positions",
    "scan_records",
]
