"""The instance store: where checkpointed instance state lives.

:class:`SQLiteStore` is a checkpoint target, not a query engine: the
coordinator writes a batch of documents per checkpoint (``upsert_many``),
and recovery and replication bootstrap read them all back (``all``).  It is
a ``sqlite3`` (stdlib) database in WAL mode, one row per instance;
:class:`~repro.persistence.PersistenceConfig` places it at
``<directory>/instances.sqlite3``.

Documents are flat dicts shaped by :func:`document_for`: the instance's
model / owner / resource / phase / status, the journal sequence number the
document reflects (``journal_seq`` — replay skips records a stored document
already includes), and the full
:meth:`~repro.runtime.instance.LifecycleInstance.to_state_dict` under
``state``.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from typing import Any, Dict, Iterable, List

from ..errors import StorageError


def document_for(instance, journal_seq: int) -> Dict[str, Any]:
    """Build the store document for one instance at one journal position."""
    return {
        "instance_id": instance.instance_id,
        "model_uri": instance.model.uri,
        "owner": instance.owner,
        "resource_uri": instance.resource.uri,
        "phase_id": instance.current_phase_id,
        "status": instance.status.value,
        "journal_seq": journal_seq,
        "state": instance.to_state_dict(),
    }


class SQLiteStore:
    """SQLite-backed store: WAL mode, one row per instance.

    ``upsert_many`` is last-writer-wins by ``instance_id`` and returns how
    many documents it wrote; ``all`` answers every document, ordered by
    ``instance_id``.  Writes are durable when ``upsert_many`` returns: the
    coordinator truncates the journal on the strength of what it wrote.
    """

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS instances (
            instance_id  TEXT PRIMARY KEY,
            model_uri    TEXT NOT NULL,
            owner        TEXT NOT NULL,
            resource_uri TEXT NOT NULL,
            phase_id     TEXT,
            status       TEXT NOT NULL,
            journal_seq  INTEGER NOT NULL,
            state        TEXT NOT NULL
        )
    """

    def __init__(self, path: str):
        self._path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        # One connection, guarded by a lock: the coordinator writes from
        # whatever thread flushes the checkpoint, readers recover at boot.
        self._lock = threading.Lock()
        try:
            self._connection = sqlite3.connect(path, check_same_thread=False)
            self._connection.execute("PRAGMA journal_mode=WAL")
            # FULL, not NORMAL: under NORMAL a WAL commit can roll back on
            # power loss, but the coordinator truncates journal segments on
            # the strength of committed checkpoints — those commits must
            # hold.  Writes are batched (one commit per upsert_many), so the
            # extra fsync is paid per checkpoint, not per instance.
            self._connection.execute("PRAGMA synchronous=FULL")
            self._connection.execute(self._SCHEMA)
            self._connection.commit()
        except sqlite3.Error as exc:
            raise StorageError("could not open SQLite store {!r}: {}".format(
                path, exc))

    @property
    def path(self) -> str:
        return self._path

    def upsert_many(self, documents: Iterable[Dict[str, Any]]) -> int:
        rows = [
            (
                document["instance_id"], document["model_uri"],
                document["owner"], document["resource_uri"],
                document.get("phase_id"), document["status"],
                int(document.get("journal_seq", 0)),
                json.dumps(document["state"], default=str,
                           separators=(",", ":")),
            )
            for document in documents
        ]
        if not rows:
            return 0
        with self._lock:
            try:
                self._connection.executemany(
                    "INSERT OR REPLACE INTO instances "
                    "(instance_id, model_uri, owner, resource_uri, phase_id, "
                    " status, journal_seq, state) VALUES (?,?,?,?,?,?,?,?)",
                    rows)
                self._connection.commit()
            except sqlite3.Error as exc:
                raise StorageError("SQLite upsert failed: {}".format(exc))
        return len(rows)

    def all(self) -> List[Dict[str, Any]]:
        with self._lock:
            try:
                rows = self._connection.execute(
                    "SELECT instance_id, model_uri, owner, resource_uri, "
                    "phase_id, status, journal_seq, state FROM instances "
                    "ORDER BY instance_id").fetchall()
            except sqlite3.Error as exc:
                raise StorageError("SQLite query failed: {}".format(exc))
        return [
            {
                "instance_id": row[0], "model_uri": row[1], "owner": row[2],
                "resource_uri": row[3], "phase_id": row[4], "status": row[5],
                "journal_seq": int(row[6]), "state": json.loads(row[7]),
            }
            for row in rows
        ]

    def count(self) -> int:
        with self._lock:
            cursor = self._connection.execute("SELECT COUNT(*) FROM instances")
            return int(cursor.fetchone()[0])

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass
