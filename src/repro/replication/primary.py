"""The primary side of replication: serve the journal stream, track followers.

:class:`ReplicationPrimary` attaches to a durable
:class:`~repro.service.api.GeleeService` (one with a
:class:`~repro.persistence.PersistenceCoordinator`) and exposes its journal
as a :class:`~repro.replication.stream.ReplicationSource`: snapshot
bootstrap for brand-new followers, resumable batched reads for streaming
ones.  Nothing about the primary's write path changes — the stream is read
straight off the same segments the coordinator appends to, under the
journal's own lock discipline.

Follower cursors are remembered per ``follower_id`` (replicas send theirs
on every poll), so ``GET /v2/runtime/replication`` on the primary answers
the operational question "how far behind is each standby?" without asking
the standbys.  Each follower also gets journal read cursors
(:class:`~repro.persistence.journal.ReadCursor`), so its next fetch
decodes only the records appended since its last one.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Tuple

from ..errors import ReplicationError
from ..persistence.journal import ReadCursor
from .stream import (
    DEFAULT_BATCH_LIMIT,
    BootstrapPayload,
    ReplicationSource,
    StreamBatch,
)


class ReplicationPrimary(ReplicationSource):
    """A live primary's in-process streaming endpoint."""

    def __init__(self, service):
        if service.persistence is None:
            raise ReplicationError(
                "replication needs a durable primary; construct the service "
                "with persistence=PersistenceConfig(...)")
        if service.read_only:
            raise ReplicationError("a read replica cannot act as a primary")
        self._service = service
        self._coordinator = service.persistence
        #: follower id -> last observed cursor + lag.
        self._followers: Dict[str, Dict[str, Any]] = {}
        #: follower id -> where its last two reads ended, newest first.  A
        #: fetch resumes from whichever matches its ``after_seq``, so a read
        #: in between (a retry, or a head probe at another seq) does not
        #: cost the next fetch its cursor.
        self._cursors: Dict[str, Tuple[ReadCursor, ...]] = {}
        self._lock = threading.Lock()
        service.replication = self

    # ------------------------------------------------------------------ source
    def bootstrap(self) -> BootstrapPayload:
        """Snapshot shipping for a brand-new follower.

        Uses whatever snapshot exists; without one (young deployment, or a
        crash between a store flush and the manifest publish) the payload
        has no manifest and the follower replays the journal from sequence
        0 — the journal is never truncated before a manifest exists, so
        that is complete.
        """
        manifest = self._coordinator.snapshots.latest()
        return BootstrapPayload(manifest=manifest,
                                documents=self._coordinator.store.all())

    def read_batch(self, after_seq: int, limit: int = None,
                   follower_id: str = None) -> StreamBatch:
        limit = limit or DEFAULT_BATCH_LIMIT
        journal = self._coordinator.journal
        with self._lock:
            cursors = self._cursors.get(follower_id, ())
        hint = next((cursor for cursor in cursors if cursor.seq == after_seq),
                    None)
        records = []
        for record, segment, end in journal.read_positions(
                after_seq=after_seq, strict=True, cursor=hint):
            records.append(record)
            if len(records) >= limit:
                break
        next_seq = records[-1].seq if records else after_seq
        head = max(next_seq, journal.last_seq)
        if follower_id:
            with self._lock:
                if records:
                    ended = ReadCursor(segment, next_seq, end)
                    self._cursors[follower_id] = (ended,) + cursors[:1]
                self._followers[follower_id] = {
                    "acked_seq": after_seq,
                    "streamed_seq": next_seq,
                    "lag_records": max(0, head - next_seq),
                    "last_poll_at": self._service.manager.clock.now().isoformat(),
                }
        return StreamBatch(records=records, next_seq=next_seq, head_seq=head)

    def head_seq(self) -> int:
        return self._coordinator.journal.last_seq

    def wait_for(self, seq: int, timeout: float = None) -> int:
        """Push, not poll: park on the journal's append condition.

        Every :meth:`~repro.persistence.journal.Journal.append` notifies
        this wait, so an in-process follower (or a long-polling
        ``GET /v2/runtime/replication/stream`` request) observes new
        records with condition-variable latency — microseconds after the
        primary's write, instead of a follower poll interval later.
        """
        return self._coordinator.journal.wait_for_seq(seq, timeout=timeout)

    def describe(self) -> Dict[str, Any]:
        return {"type": "in-process",
                "directory": self._coordinator.journal.directory}

    # ------------------------------------------------------------------ status
    @property
    def role(self) -> str:
        return "primary"

    def follower_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._followers)

    def status(self) -> Dict[str, Any]:
        """The ``GET /v2/runtime/replication`` body on the primary."""
        journal = self._coordinator.journal
        with self._lock:
            followers = {fid: dict(view) for fid, view in self._followers.items()}
        head = journal.last_seq
        for view in followers.values():
            # Lag against the *current* head, not the head at poll time.
            view["lag_records"] = max(0, head - view["streamed_seq"])
        return {
            "enabled": True,
            "role": "primary",
            "journal_seq": head,
            "first_available_seq": journal.first_available_seq(),
            "followers": followers,
            "max_follower_lag": max(
                (view["lag_records"] for view in followers.values()), default=0),
        }
