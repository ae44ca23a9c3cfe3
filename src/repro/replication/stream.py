"""Journal streaming: the resumable record feed that replicas consume.

The write-ahead journal (:mod:`repro.persistence.journal`) already records
every kernel event with a dense, monotonically increasing sequence number —
which makes it a replication log for free.  This module defines the small
protocol a follower speaks against it:

* **bootstrap** — a :class:`BootstrapPayload`: the newest snapshot manifest
  plus one full state document per instance.  A new follower restores it
  exactly like crash recovery does, then streams from the manifest's
  ``journal_seq``.
* **stream** — :meth:`ReplicationSource.read_batch` returns a
  :class:`StreamBatch` of records with ``seq > after_seq``.  The cursor is
  the sequence number itself: segment file names encode their first
  sequence number, so a resume seeks directly to the right segment without
  scanning the ones before it.  Batches carry the journal head at read
  time, so the follower tracks ``(applied_seq, lag)`` continuously.
* **staleness** — rotation is safe for concurrent readers, and truncation
  is *detected*, never silently skipped: a cursor pointing into a
  truncated-away range raises the typed, resumable
  :class:`~repro.errors.JournalTruncatedError` (the follower re-bootstraps
  from the newest snapshot).

Two sources ship here and in :mod:`repro.replication.primary`:

* :class:`JournalShippingSource` — classic log shipping: the follower
  reads the primary's persistence directory (journal segments, snapshots,
  instance store) over a shared filesystem, never writing to it.  Because
  the files outlive the primary *process*, this source keeps working after
  the primary dies — which is exactly when a standby needs its final drain.
* :class:`~repro.replication.primary.ReplicationPrimary` — the in-process
  endpoint of a live primary service, which additionally tracks follower
  cursors for the admin surface.

Both batches and bootstrap payloads round-trip through plain dicts
(:meth:`StreamBatch.to_dict` / :meth:`BootstrapPayload.to_dict`), so a
wire transport can ship them without knowing their internals.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..persistence.coordinator import PersistenceConfig
from ..persistence.journal import (
    JournalRecord,
    ReadCursor,
    scan_last_seq,
    scan_oldest_seq,
    scan_positions,
)
from ..persistence.snapshot import SnapshotManifest

#: Records per stream batch unless the caller asks otherwise.
DEFAULT_BATCH_LIMIT = 512


@dataclass
class StreamBatch:
    """One slice of the journal stream, plus the head position it saw."""

    records: List[JournalRecord] = field(default_factory=list)
    #: The cursor after applying this batch (== the last record's seq, or
    #: the request's ``after_seq`` when the batch is empty).
    next_seq: int = 0
    #: The journal's newest sequence number at read time — the follower's
    #: lag is ``head_seq - next_seq``.
    head_seq: int = 0

    @property
    def count(self) -> int:
        return len(self.records)

    @property
    def caught_up(self) -> bool:
        """Whether applying this batch reaches the head seen at read time."""
        return self.next_seq >= self.head_seq

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records": [record.to_dict() for record in self.records],
            "next_seq": self.next_seq,
            "head_seq": self.head_seq,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamBatch":
        return cls(
            records=[JournalRecord.from_dict(item)
                     for item in data.get("records") or []],
            next_seq=int(data.get("next_seq", 0)),
            head_seq=int(data.get("head_seq", 0)),
        )


@dataclass
class BootstrapPayload:
    """Everything a brand-new follower needs before it can stream."""

    manifest: Optional[SnapshotManifest] = None
    #: Instance store documents (:func:`repro.persistence.store.document_for`
    #: shape); may cover sequence numbers *newer* than the manifest — each
    #: document's ``journal_seq`` makes replay skip what it already holds.
    documents: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def base_seq(self) -> int:
        """The journal position streaming resumes from after restore."""
        return self.manifest.journal_seq if self.manifest is not None else 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "manifest": self.manifest.to_dict() if self.manifest else None,
            "documents": list(self.documents),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BootstrapPayload":
        manifest = data.get("manifest")
        return cls(
            manifest=SnapshotManifest.from_dict(manifest) if manifest else None,
            documents=list(data.get("documents") or []),
        )


class ReplicationSource:
    """What a :class:`~repro.replication.ReadReplica` pulls from."""

    #: How often the fallback :meth:`wait_for` re-checks the head.  Sources
    #: with a real notification channel (the in-process
    #: :class:`~repro.replication.primary.ReplicationPrimary`) override
    #: :meth:`wait_for` entirely and never poll.
    wait_poll_interval = 0.005

    def bootstrap(self) -> BootstrapPayload:
        raise NotImplementedError

    def wait_for(self, seq: int, timeout: float = None) -> int:
        """Block until the journal head reaches ``seq``; returns the head.

        The long-poll half of push replication: a follower that is caught
        up parks here instead of hammering :meth:`read_batch` on a timer,
        so new records reach it within the source's notification latency
        rather than a poll interval.  Returns early (with the current,
        smaller head) when ``timeout`` elapses first.

        This base implementation polls :meth:`head_seq` at
        :attr:`wait_poll_interval` — the best a shared-filesystem source
        can do, and still an order of magnitude tighter than a typical
        follower poll loop.  In-process sources override it with a real
        condition-variable wait.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        head = self.head_seq()
        while head < seq:
            if deadline is not None and time.monotonic() >= deadline:
                break
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            interval = self.wait_poll_interval
            if remaining is not None:
                interval = min(interval, remaining)
            time.sleep(interval)
            head = self.head_seq()
        return head

    def read_batch(self, after_seq: int, limit: int = None,
                   follower_id: str = None) -> StreamBatch:
        """Records with ``seq > after_seq`` (dense, oldest first).

        Raises :class:`~repro.errors.JournalTruncatedError` when the cursor
        predates the retained journal window — resumable by
        re-bootstrapping.  ``follower_id`` lets sources that track their
        followers attribute the cursor.
        """
        raise NotImplementedError

    def head_seq(self) -> int:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        raise NotImplementedError


class JournalShippingSource(ReplicationSource):
    """Log shipping: stream a primary's persistence directory read-only.

    The follower observes the same directory tree the primary's
    :class:`~repro.persistence.PersistenceCoordinator` writes — typically a
    shared or replicated filesystem.  All reads are repair-free (torn tails
    are tolerated, never truncated: repair belongs to the writing process),
    so any number of followers can tail one primary safely.

    The source keeps a :class:`~repro.persistence.journal.ReadCursor` past
    the last record it returned, so each batch and each head poll decodes
    only what was appended since.
    """

    def __init__(self, config):
        """``config`` is a :class:`~repro.persistence.PersistenceConfig` or
        the primary's persistence directory path."""
        if isinstance(config, str):
            config = PersistenceConfig(config)
        self._config = config
        self._cursor: Optional[ReadCursor] = None

    @property
    def config(self) -> PersistenceConfig:
        return self._config

    def bootstrap(self) -> BootstrapPayload:
        manifest = self._config.open_snapshots().latest()
        documents: List[Dict[str, Any]] = []
        # The store can hold documents even when no manifest exists (a crash
        # between the store flush and the manifest publish); their embedded
        # journal_seq keeps replay idempotent either way.
        store = self._config.open_store()
        try:
            documents = store.all()
        finally:
            store.close()
        return BootstrapPayload(manifest=manifest, documents=documents)

    def read_batch(self, after_seq: int, limit: int = None,
                   follower_id: str = None) -> StreamBatch:
        limit = limit or DEFAULT_BATCH_LIMIT
        directory = self._config.journal_directory
        records: List[JournalRecord] = []
        overflow = None
        for record, segment, end in scan_positions(
                directory, after_seq=after_seq, strict=True,
                cursor=self._cursor):
            if len(records) >= limit:
                overflow = record
                break
            records.append(record)
            # Only records the batch keeps move the cursor: one left on the
            # overflow record would not match the next batch's after_seq.
            self._cursor = ReadCursor(segment, record.seq, end)
        next_seq = records[-1].seq if records else after_seq
        if overflow is not None:
            # The batch is full and more records provably exist: report the
            # overflow record as a *lower bound* on the head instead of
            # paying a full tail-segment scan per batch — the caller keeps
            # draining, and the final (under-limit) batch scans exactly.
            head = overflow.seq
        else:
            head = max(next_seq, self.head_seq())
        return StreamBatch(records=records, next_seq=next_seq, head_seq=head)

    def head_seq(self) -> int:
        return scan_last_seq(self._config.journal_directory, self._cursor)

    def oldest_seq(self) -> int:
        return scan_oldest_seq(self._config.journal_directory)

    def describe(self) -> Dict[str, Any]:
        return {
            "type": "journal-shipping",
            "directory": os.path.abspath(self._config.directory),
        }
