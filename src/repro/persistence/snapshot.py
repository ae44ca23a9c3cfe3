"""Point-in-time snapshots of the runtime's durable state.

A snapshot bounds how much journal must be replayed after a crash.  It has
two halves:

* the **manifest** (this module): the design-time models (every published
  version, in publication order), the execution-log state, and the journal
  sequence number the snapshot covers — one JSON file, published
  atomically (temp file + rename) so a reader either sees a complete
  manifest or the previous one, never a half-written file;
* the **instance payloads**: one full state document per instance, kept in
  the :class:`~repro.persistence.store.SQLiteStore` and flushed by the
  coordinator *before* the manifest is published — a manifest therefore
  never refers to instance state that is not already durable.

Recovery (:mod:`repro.persistence.recovery`) loads the newest manifest,
restores models, log and instances, and replays the journal tail with
``seq > manifest.journal_seq``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import StorageError
from ..identifiers import new_id
from ..storage.repository import atomic_write_text, fsync_directory

_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


@dataclass
class SnapshotManifest:
    """Everything a snapshot records outside the instance store."""

    journal_seq: int
    taken_at: str  # ISO-8601
    #: Every published model version, oldest first: ``[{"uri", "versions":
    #: [model documents]}]`` — order matters so re-publication after
    #: recovery keeps version history intact.
    models: List[Dict[str, Any]] = field(default_factory=list)
    #: The :meth:`~repro.storage.logstore.ExecutionLog.dump_state` document.
    log: Dict[str, Any] = field(default_factory=dict)
    #: The :meth:`~repro.scheduler.timers.TimerService.dump_state` document
    #: (pending timers); empty for deployments without a scheduler.  Older
    #: manifests lack the key — recovery treats that as "no pending timers".
    scheduler: Dict[str, Any] = field(default_factory=dict)
    instance_count: int = 0
    snapshot_id: str = field(default_factory=lambda: new_id("snap"))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "snapshot_id": self.snapshot_id,
            "journal_seq": self.journal_seq,
            "taken_at": self.taken_at,
            "models": self.models,
            "log": self.log,
            "scheduler": self.scheduler,
            "instance_count": self.instance_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SnapshotManifest":
        # Older manifests also carry a ``backend`` label; nothing reads it.
        return cls(
            journal_seq=int(data["journal_seq"]),
            taken_at=data.get("taken_at", ""),
            models=list(data.get("models") or []),
            log=dict(data.get("log") or {}),
            scheduler=dict(data.get("scheduler") or {}),
            instance_count=int(data.get("instance_count", 0)),
            snapshot_id=data.get("snapshot_id") or new_id("snap"),
        )


def capture_manifest(manager, log, journal_seq: int,
                     timers=None) -> SnapshotManifest:
    """Build a manifest from a (quiesced) manager and execution log.

    The caller is responsible for holding the runtime still (see
    :meth:`~repro.runtime.manager.LifecycleManager.quiesce`) so the
    captured models, log and ``journal_seq`` describe one consistent point
    in time.
    """
    models = []
    for latest in manager.models():
        versions = [
            manager.model(latest.uri, version=version).to_dict()
            for version in manager.model_versions(latest.uri)
        ]
        models.append({"uri": latest.uri, "versions": versions})
    return SnapshotManifest(
        journal_seq=journal_seq,
        taken_at=manager.clock.now().isoformat(),
        models=models,
        log=log.dump_state(),
        scheduler=timers.dump_state() if timers is not None else {},
        instance_count=manager.instance_count(),
    )


class SnapshotStore:
    """Directory of manifests with atomic publish and bounded retention."""

    def __init__(self, directory: str, retain: int = 2):
        if retain < 1:
            raise StorageError("snapshot retention must keep at least 1 snapshot")
        self._directory = directory
        self._retain = retain
        os.makedirs(directory, exist_ok=True)

    @property
    def directory(self) -> str:
        return self._directory

    def publish(self, manifest: SnapshotManifest) -> str:
        """Atomically write the manifest; prune snapshots beyond retention.

        The file appears under its final name only after it is completely
        written (temp file + ``os.replace``), so a crash mid-publish leaves
        the previous snapshot as the latest — never a truncated one.  The
        directory is fsynced afterwards so the rename itself survives power
        loss: the coordinator truncates the journal on the strength of this
        manifest, so its publication must be durable, not merely atomic.
        """
        name = "{}{:016d}{}".format(_SNAPSHOT_PREFIX, manifest.journal_seq,
                                    _SNAPSHOT_SUFFIX)
        path = os.path.join(self._directory, name)
        payload = json.dumps(manifest.to_dict(), default=str,
                             separators=(",", ":"))
        atomic_write_text(path, payload, fsync=True)
        fsync_directory(self._directory)
        self._prune()
        return path

    def snapshot_seqs(self) -> List[int]:
        """Journal sequence numbers of the stored snapshots, oldest first."""
        seqs = []
        try:
            names = os.listdir(self._directory)
        except OSError:
            return []
        for name in names:
            if not (name.startswith(_SNAPSHOT_PREFIX)
                    and name.endswith(_SNAPSHOT_SUFFIX)):
                continue
            stem = name[len(_SNAPSHOT_PREFIX):-len(_SNAPSHOT_SUFFIX)]
            try:
                seqs.append(int(stem))
            except ValueError:
                continue
        return sorted(seqs)

    def latest(self) -> Optional[SnapshotManifest]:
        """Load the newest manifest, or ``None`` when none was published yet.

        Skips unreadable manifests (a crash can only leave stray ``.tmp``
        files, but defense in depth costs one ``try``) and falls back to the
        next-newest.
        """
        for seq in reversed(self.snapshot_seqs()):
            path = self._path(seq)
            try:
                with open(path, encoding="utf-8") as handle:
                    return SnapshotManifest.from_dict(json.load(handle))
            except (OSError, ValueError, KeyError):
                continue
        return None

    def _path(self, seq: int) -> str:
        return os.path.join(self._directory,
                            "{}{:016d}{}".format(_SNAPSHOT_PREFIX, seq,
                                                 _SNAPSHOT_SUFFIX))

    def _prune(self) -> None:
        seqs = self.snapshot_seqs()
        for seq in seqs[:-self._retain]:
            try:
                os.unlink(self._path(seq))
            except OSError:
                pass  # pruning is best-effort; a leftover snapshot is harmless
