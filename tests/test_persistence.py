"""Tests for :mod:`repro.persistence`: journal, snapshots, the instance
store, recovery.

The centrepiece is the kill-and-restart round trip required by the durable
runtime: create >= 1k instances with persistence enabled, drop every
in-memory structure, recover from snapshot + journal and verify that
phases, statuses, visit histories, the kernel's owner/phase/model listings
and the execution-log contents are identical to the pre-crash state.
"""

import glob
import json
import os
import threading

import pytest

from repro.actions import library
from repro.clock import SimulatedClock
from repro.errors import JournalTruncatedError, ServiceError, StorageError
from repro.events import Event, EventBus
from repro.model import LifecycleBuilder
from repro.persistence import (
    Journal,
    JournalRecord,
    PersistenceConfig,
    PersistenceCoordinator,
    ReadCursor,
    SQLiteStore,
    SnapshotManifest,
    SnapshotStore,
    document_for,
    list_segments,
    recover_into,
    scan_last_seq,
    scan_positions,
    scan_records,
)
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager
from repro.service.api import GeleeService
from repro.service.rest import RestRouter
from repro.replication import JournalShippingSource
from repro.storage import ExecutionLog


def bench_model(name="Persistence lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.action("Work", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


def build_runtime():
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    bus = EventBus()
    log = ExecutionLog(bus=bus)
    manager = LifecycleManager(environment, clock=clock, bus=bus)
    return environment, bus, log, manager


# ================================================================== journal
class TestJournal:
    def _ts(self):
        return SimulatedClock().now()

    def test_append_read_round_trip(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        journal.append("a.one", ts, "s1", actor="alice", payload={"n": 1})
        journal.append("a.two", ts, "s2", state={"model": {"uri": "m"}})
        records = list(journal.read())
        assert [r.seq for r in records] == [1, 2]
        assert records[0].kind == "a.one"
        assert records[0].actor == "alice"
        assert records[0].payload == {"n": 1}
        assert records[0].state is None
        assert records[1].state == {"model": {"uri": "m"}}
        assert journal.last_seq == 2

    def test_read_after_seq(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(10):
            journal.append("k", ts, "s")
        assert [r.seq for r in journal.read(after_seq=7)] == [8, 9, 10]
        assert list(journal.read(after_seq=10)) == []

    def test_segment_rotation_and_truncation(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=5)
        ts = self._ts()
        for index in range(17):
            journal.append("k", ts, "s")
        assert len(journal.segment_files()) == 4
        # Everything is still readable across segments.
        assert [r.seq for r in journal.read()] == list(range(1, 18))
        # Truncating through seq 10 removes the two fully-covered segments.
        removed = journal.truncate_through(10)
        assert len(removed) == 2
        assert [r.seq for r in journal.read()] == list(range(11, 18))
        # Replay from a snapshot position still works after truncation.
        assert [r.seq for r in journal.read(after_seq=12)] == list(range(13, 18))

    def test_reopen_continues_sequence(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(3):
            journal.append("k", ts, "s")
        journal.close()
        reopened = Journal(str(tmp_path), fsync="never")
        assert reopened.last_seq == 3
        record = reopened.append("k", ts, "s")
        assert record.seq == 4
        assert [r.seq for r in reopened.read()] == [1, 2, 3, 4]

    def test_torn_tail_is_repaired_on_open(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(3):
            journal.append("k", ts, "s")
        journal.close()
        # Simulate a crash mid-append: a half-written final line.
        segment = os.path.join(str(tmp_path), journal.segment_files()[-1])
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "k", "times')
        reopened = Journal(str(tmp_path), fsync="never")
        # The fragment never committed: seq 4 is reused and readable.
        assert reopened.last_seq == 3
        record = reopened.append("k2", ts, "s")
        assert record.seq == 4
        records = list(reopened.read())
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert records[-1].kind == "k2"

    def test_fsync_policies(self, tmp_path):
        for policy in ("always", "interval", "never"):
            journal = Journal(str(tmp_path / policy), fsync=policy, fsync_interval=2)
            journal.append("k", self._ts(), "s")
            journal.sync()
            journal.close()
        with pytest.raises(StorageError):
            Journal(str(tmp_path / "bad"), fsync="sometimes")

    def test_corrupt_record_before_valid_data_refuses_repair(self, tmp_path):
        """A torn tail is repairable; an undecodable record *followed by
        valid records* is corruption — truncating would destroy committed
        data, so reopening must raise instead."""
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(3):
            journal.append("k", ts, "s")
        journal.close()
        segment = os.path.join(str(tmp_path), journal.segment_files()[-1])
        with open(segment, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "#corrupt#" + lines[1]
        with open(segment, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError):
            Journal(str(tmp_path), fsync="never")

    def test_explicit_sync_overrides_never_policy(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr("repro.persistence.journal.os.fsync",
                            lambda fd: synced.append(fd))
        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s")
        assert synced == []  # the policy suppresses per-append fsyncs...
        journal.sync()
        # ...but never an explicit request: the segment file is fsynced and,
        # first time for this segment, so is its directory entry.
        assert len(synced) == 2

    def test_append_event(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        event = Event(kind="instance.created", timestamp=self._ts(),
                      subject_id="inst-1", actor="alice", payload={"a": 1})
        journal.append_event(event)
        record = next(journal.read())
        assert record.kind == "instance.created"
        assert record.subject_id == "inst-1"
        assert record.event_timestamp == event.timestamp


# ============================================================ commit rule
class TestCommitRule:
    """Readers and the writer agree on which records committed: a record
    counts once its line ends in a newline and decodes."""

    def _journal_of_three(self, directory):
        journal = Journal(directory, fsync="never")
        for index in range(3):
            journal.append("k", SimulatedClock().now(), "s")
        journal.close()
        return os.path.join(directory, journal.segment_files()[-1])

    def test_unterminated_complete_record_is_not_committed(self, tmp_path):
        directory = str(tmp_path)
        segment = self._journal_of_three(directory)
        record = JournalRecord(seq=4, kind="k.unacknowledged",
                               timestamp=SimulatedClock().now().isoformat(),
                               subject_id="s")
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict()))  # no trailing newline
        # A follower must not apply what the writer will never acknowledge.
        assert [r.seq for r in scan_records(directory)] == [1, 2, 3]
        assert scan_last_seq(directory) == 3
        reopened = Journal(directory, fsync="never")
        assert reopened.last_seq == 3
        reopened.append("k.committed", SimulatedClock().now(), "s")
        assert [(r.seq, r.kind) for r in scan_records(directory)][-1] == \
            (4, "k.committed")

    def test_empty_final_segment_proves_the_previous_seq(self, tmp_path):
        directory = str(tmp_path)
        self._journal_of_three(directory)
        # A crash between opening the next segment and writing to it.
        open(os.path.join(directory, "journal-{:016d}.jsonl".format(4)), "w").close()
        assert scan_last_seq(directory) == 3
        assert Journal(directory, fsync="never").last_seq == 3
        assert [r.seq for r in scan_records(directory)] == [1, 2, 3]

    def test_corrupt_middle_line_raises_for_every_reader(self, tmp_path):
        directory = str(tmp_path)
        segment = self._journal_of_three(directory)
        with open(segment, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "#corrupt#" + lines[1]
        with open(segment, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError):
            scan_last_seq(directory)
        with pytest.raises(StorageError):
            list(scan_records(directory))
        with pytest.raises(StorageError):
            Journal(directory, fsync="never")


# ============================================================ read cursors
def follow(directory, after_seq, cursor, limit=None):
    """One strict read resuming at ``cursor``, as a follower makes it: the
    records it keeps and the cursor past the last of them."""
    records = []
    for record, segment, end in scan_positions(directory, after_seq,
                                               strict=True, cursor=cursor):
        records.append(record)
        cursor = ReadCursor(segment, record.seq, end)
        if limit is not None and len(records) >= limit:
            break
    return records, cursor


def fresh(directory, after_seq):
    """What a cursor-free strict scan yields after ``after_seq``."""
    return [record.to_dict()
            for record in scan_records(directory, after_seq, strict=True)]


class TestReadCursor:
    """A read cursor is only a hint: a resumed read yields exactly what a
    fresh scan yields and raises exactly what it raises."""

    def _append(self, journal, count, kind="k"):
        for _ in range(count):
            journal.append(kind, SimulatedClock().now(), "s")

    def test_resumed_reads_cross_a_rotation(self, tmp_path):
        directory = str(tmp_path)
        journal = Journal(directory, fsync="never")
        self._append(journal, 5)
        records, cursor = follow(directory, 0, None, limit=3)
        assert [r.seq for r in records] == [1, 2, 3]
        journal.rotate()
        self._append(journal, 4)
        # The cursor now sits mid-way through a sealed segment.
        records, cursor = follow(directory, 3, cursor)
        assert [r.to_dict() for r in records] == fresh(directory, 3)
        assert [r.seq for r in records] == list(range(4, 10))
        assert cursor.segment == list_segments(directory)[-1]
        self._append(journal, 2)
        records, cursor = follow(directory, 9, cursor)
        assert [r.to_dict() for r in records] == fresh(directory, 9)
        assert cursor.seq == 11
        assert scan_last_seq(directory, cursor) == scan_last_seq(directory) == 11

    def test_cursor_into_a_truncated_segment_raises_like_a_fresh_scan(
            self, tmp_path):
        directory = str(tmp_path)
        journal = Journal(directory, fsync="never", segment_max_records=4)
        self._append(journal, 6)
        lagging = follow(directory, 0, None, limit=2)[1]
        current = follow(directory, 0, None)[1]
        assert lagging.segment != current.segment
        self._append(journal, 6)
        assert journal.truncate_through(4) == [lagging.segment]
        with pytest.raises(JournalTruncatedError) as resumed:
            follow(directory, 2, lagging)
        with pytest.raises(JournalTruncatedError) as scanned:
            fresh(directory, 2)
        assert resumed.value.oldest_available == \
            scanned.value.oldest_available == 5
        # A cursor whose segment survived the truncation still resumes.
        records, _ = follow(directory, 6, current)
        assert [r.to_dict() for r in records] == fresh(directory, 6)
        assert [r.seq for r in records] == list(range(7, 13))

    def test_torn_tail_holds_the_cursor_until_the_line_completes(
            self, tmp_path):
        directory = str(tmp_path)
        journal = Journal(directory, fsync="never")
        self._append(journal, 3)
        journal.close()
        _, cursor = follow(directory, 0, None)
        path = os.path.join(directory, cursor.segment)
        line = json.dumps(JournalRecord(
            seq=4, kind="k.late", timestamp=SimulatedClock().now().isoformat(),
            subject_id="s").to_dict())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:10])  # an append caught half-way
        assert follow(directory, 3, cursor) == ([], cursor)
        assert fresh(directory, 3) == []
        assert scan_last_seq(directory, cursor) == scan_last_seq(directory) == 3
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[10:] + "\n")
        records, resumed = follow(directory, 3, cursor)
        assert [r.to_dict() for r in records] == fresh(directory, 3)
        assert [r.kind for r in records] == ["k.late"]
        assert resumed.offset == os.path.getsize(path)
        # Damage past the cursor is damage to a resumed read too.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("#damage#\n" + line.replace('"seq":4', '"seq":5') + "\n")
        with pytest.raises(StorageError):
            follow(directory, 4, resumed)
        with pytest.raises(StorageError):
            fresh(directory, 4)

    def test_stale_cursor_is_ignored(self, tmp_path):
        directory = str(tmp_path)
        journal = Journal(directory, fsync="never", segment_max_records=4)
        self._append(journal, 10)
        _, cursor = follow(directory, 0, None, limit=5)
        assert cursor.seq == 5
        for after_seq in (0, 3, 4, 6, 10):
            records, _ = follow(directory, after_seq, cursor)
            assert [r.to_dict() for r in records] == fresh(directory, after_seq)
        # A matching seq in a segment that is not listed is ignored too.
        elsewhere = ReadCursor("journal-{:016d}.jsonl".format(99), 5, 1)
        records, _ = follow(directory, 5, elsewhere)
        assert [r.to_dict() for r in records] == fresh(directory, 5)


# ========================================================== long-poll waits
class TestJournalWaitForSeq:
    """Edge cases of the long-poll primitive replication streams park on."""

    def _ts(self):
        return SimulatedClock().now()

    def test_timeout_expires_cleanly_and_journal_stays_usable(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s1")
        import time
        started = time.monotonic()
        head = journal.wait_for_seq(10, timeout=0.05)
        elapsed = time.monotonic() - started
        # Returns the *current* head (caller distinguishes timeout from
        # data by comparing), promptly, and without poisoning the journal.
        assert head == 1
        assert 0.04 <= elapsed < 2.0
        journal.append("k", self._ts(), "s2")
        assert journal.wait_for_seq(2, timeout=0.05) == 2
        # An already-satisfied wait returns immediately, even with no
        # timeout at all.
        assert journal.wait_for_seq(1) == 2

    def test_zero_timeout_is_a_nonblocking_head_read(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s1")
        assert journal.wait_for_seq(99, timeout=0) == 1

    def test_wakeup_across_segment_rotation(self, tmp_path):
        """The append that satisfies the wait lands in a *new* segment; the
        waiter must still wake, and the stream must read densely across the
        boundary from its old cursor."""
        import threading

        journal = Journal(str(tmp_path), fsync="never", segment_max_records=3)
        for index in range(3):  # fills the first segment exactly
            journal.append("k", self._ts(), "s{}".format(index))
        results = {}

        def wait():
            results["head"] = journal.wait_for_seq(5, timeout=5.0)

        waiter = threading.Thread(target=wait)
        waiter.start()
        # These appends open segment two while the waiter is parked.
        journal.append("k", self._ts(), "s3")
        journal.append("k", self._ts(), "s4")
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert results["head"] == 5
        assert len(journal.segment_files()) == 2
        assert [r.seq for r in journal.read(after_seq=2, strict=True)] == \
            [3, 4, 5]

    def test_explicit_rotate_does_not_wake_a_parked_waiter(self, tmp_path):
        import threading

        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s0")
        woke = threading.Event()
        results = {}

        def wait():
            results["head"] = journal.wait_for_seq(2, timeout=5.0)
            woke.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        # Rotation changes files, not the head: the waiter stays parked
        # (a spurious wake would hand the follower an empty batch).
        assert journal.rotate() is True
        assert not woke.wait(timeout=0.2)
        journal.append("k", self._ts(), "s1")
        assert woke.wait(timeout=5.0)
        assert results["head"] == 2

    def test_truncation_mid_wait_neither_wakes_nor_corrupts(self, tmp_path):
        """A checkpoint truncating old segments while a follower is parked
        must not wake it (the head did not move) — and afterwards the
        follower's *stale* cursor gets the typed staleness error while its
        live cursor keeps streaming."""
        import threading

        from repro.errors import JournalTruncatedError

        journal = Journal(str(tmp_path), fsync="never", segment_max_records=3)
        for index in range(7):  # segments [1..3], [4..6], [7..]
            journal.append("k", self._ts(), "s{}".format(index))
        woke = threading.Event()
        results = {}

        def wait():
            results["head"] = journal.wait_for_seq(8, timeout=5.0)
            woke.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        removed = journal.truncate_through(6)
        assert len(removed) == 2
        assert not woke.wait(timeout=0.2), \
            "truncation must not wake a waiter — the head did not advance"
        journal.append("k", self._ts(), "s7")
        assert woke.wait(timeout=5.0)
        assert results["head"] == 8
        # The live cursor resumes exactly; the truncated-away one is typed.
        assert [r.seq for r in journal.read(after_seq=6, strict=True)] == \
            [7, 8]
        with pytest.raises(JournalTruncatedError) as excinfo:
            list(journal.read(after_seq=2, strict=True))
        assert excinfo.value.oldest_available == 7


# ================================================================= snapshots
class TestSnapshotStore:
    def test_publish_latest_and_retention(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        for seq in (10, 20, 30):
            store.publish(SnapshotManifest(journal_seq=seq, taken_at="t"))
        assert store.snapshot_seqs() == [20, 30]
        assert store.latest().journal_seq == 30

    def test_empty_store(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).latest() is None

    def test_manifest_with_the_old_backend_label_loads(self):
        data = SnapshotManifest(journal_seq=7, taken_at="t").to_dict()
        assert "backend" not in data
        data["backend"] = "file"
        assert SnapshotManifest.from_dict(data).journal_seq == 7

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=5)
        store.publish(SnapshotManifest(journal_seq=1, taken_at="t"))
        store.publish(SnapshotManifest(journal_seq=2, taken_at="t"))
        # Corrupt the newest manifest in place.
        newest = sorted(p for p in os.listdir(str(tmp_path)))[-1]
        with open(os.path.join(str(tmp_path), newest), "w") as handle:
            handle.write("{not json")
        assert store.latest().journal_seq == 1


# ==================================================================== stores
@pytest.fixture
def instance_store(tmp_path):
    store = SQLiteStore(str(tmp_path / "instances.sqlite3"))
    yield store
    store.close()


class TestInstanceStores:
    def _document(self, instance_id, owner="alice", phase="work", status="active"):
        return {
            "instance_id": instance_id, "model_uri": "urn:m", "owner": owner,
            "resource_uri": "urn:r:" + instance_id, "phase_id": phase,
            "status": status, "journal_seq": 7, "state": {"instance_id": instance_id},
        }

    def test_upsert_get_all(self, instance_store):
        assert instance_store.upsert_many([]) == 0
        assert instance_store.upsert_many(
            [self._document("i2", owner="bob"), self._document("i1")]) == 2
        assert instance_store.count() == 2
        documents = instance_store.all()
        assert [d["instance_id"] for d in documents] == ["i1", "i2"]
        assert documents[0] == self._document("i1")
        assert documents[1]["owner"] == "bob"

    def test_upsert_replaces_and_reindexes(self, instance_store):
        instance_store.upsert_many([self._document("i1", phase="work")])
        instance_store.upsert_many([self._document("i1", phase="review",
                                                   status="completed")])
        assert instance_store.count() == 1
        [document] = instance_store.all()
        assert (document["phase_id"], document["status"]) == ("review", "completed")

    def test_document_for_shape(self):
        environment, bus, log, manager = build_runtime()
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        instance = manager.instantiate(model.uri, descriptor, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        document = document_for(manager.instance(instance.instance_id), 42)
        assert document["instance_id"] == instance.instance_id
        assert document["model_uri"] == model.uri
        assert document["phase_id"] == "work"
        assert document["status"] == "active"
        assert document["journal_seq"] == 42
        # The embedded state is JSON-serializable and complete; the
        # published model is referenced, not inlined.
        json.dumps(document["state"])
        assert document["state"]["model"] == {
            "reference": True, "uri": model.uri, "version_number": "1.0"}


# =============================================================== coordinator
class TestCoordinator:
    def test_events_are_journaled_with_enrichment(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        instance = manager.instantiate(
            model.uri, descriptor, owner="alice",
            metadata={"project": "p1"}, token_owners=["bob"])
        records = {r.kind: r for r in coordinator.journal.read()}
        assert records["model.published"].state["model"]["uri"] == model.uri
        creation = records["instance.created"].state["instance"]
        assert creation["owner"] == "alice"
        assert creation["metadata"] == {"project": "p1"}
        assert "bob" in creation["token_owners"]
        assert creation["resource"]["uri"] == descriptor.uri
        assert coordinator.dirty_count >= 1
        assert instance.instance_id in {r.subject_id for r in coordinator.journal.read()}
        coordinator.close()

    def test_checkpoint_flushes_and_truncates(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never",
                                   segment_max_records=10)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")
        for index in range(8):
            descriptor = adapter.create_resource("doc {}".format(index), owner="alice")
            instance = manager.instantiate(model.uri, descriptor, owner="alice")
            manager.start(instance.instance_id, actor="alice")
        report = coordinator.checkpoint()
        assert report["instances_flushed"] == 8
        assert report["snapshot_id"] == coordinator.snapshots.latest().snapshot_id
        assert coordinator.store.count() == 8
        assert coordinator.dirty_count == 0
        assert coordinator.snapshots.latest().journal_seq == report["journal_seq"]
        # All fully-covered segments are gone; replay starts at the snapshot.
        assert list(coordinator.journal.read(after_seq=report["journal_seq"])) == []
        status = coordinator.status()
        assert status["enabled"] is True
        assert status["checkpoints"] == 1
        assert status["journal_records_since_snapshot"] == 0
        coordinator.close()

    def test_journal_failures_are_counted_and_repaired_by_checkpoint(self, tmp_path):
        """A failing disk must not fail kernel operations silently: the
        coordinator counts the lost appends, surfaces them in status(), and
        a checkpoint — which flushes the (still dirty-marked) instances and
        the in-memory log — repairs the durability gap."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")

        broken = {"on": False}
        original = coordinator.journal.append_event

        def flaky_append(event, state=None):
            if broken["on"]:
                raise StorageError("disk full")
            return original(event, state=state)

        coordinator.journal.append_event = flaky_append
        broken["on"] = True
        descriptor = adapter.create_resource("doc", owner="alice")
        instance = manager.instantiate(model.uri, descriptor, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        status = coordinator.status()
        assert status["journal_failures"] > 0
        assert "disk full" in status["last_journal_error"]
        # The instance is still dirty despite the failed appends...
        assert instance.instance_id in {iid for iid in coordinator._dirty}
        broken["on"] = False
        report = coordinator.checkpoint()
        assert report["journal_failures_repaired"] > 0
        assert coordinator.status()["journal_failures"] == 0
        coordinator.close()

        # ...so a restart still recovers it, from the store + manifest log.
        environment2, bus2, log2, manager2 = build_runtime()
        recover_into(manager2, log2, config.open_journal(),
                     config.open_snapshots(), config.open_store())
        recovered = manager2.instance(instance.instance_id)
        assert recovered.current_phase_id == "work"
        assert log2.count(subject_id=instance.instance_id) == \
            log.count(subject_id=instance.instance_id)

    def test_failed_flush_keeps_instances_dirty(self, tmp_path):
        """If the store flush fails, the captured dirty set must be
        re-merged: otherwise a later successful checkpoint would truncate
        the journal past mutations whose documents were never persisted."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        instance = manager.instantiate(model.uri, descriptor, owner="alice")
        assert coordinator.dirty_count == 1

        def broken_upsert(documents):
            raise StorageError("disk full")

        original = coordinator.store.upsert_many
        coordinator.store.upsert_many = broken_upsert
        with pytest.raises(StorageError):
            coordinator.checkpoint()
        assert instance.instance_id in coordinator._dirty
        assert coordinator.snapshots.latest() is None  # no manifest either
        coordinator.store.upsert_many = original
        report = coordinator.checkpoint()
        assert report["instances_flushed"] == 1
        coordinator.close()

    def test_closed_coordinator_refuses_checkpoints(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        coordinator.close()
        with pytest.raises(ServiceError):
            coordinator.checkpoint()

    def test_config_rejects_unknown_backend(self, tmp_path):
        for backend in ("file", "cassandra", "memory"):
            with pytest.raises(StorageError):
                PersistenceConfig(str(tmp_path), backend=backend)


# ================================================================== recovery
def drive_workload(environment, manager, model, count=60):
    """Create ``count`` instances, progress a mix, annotate a few."""
    adapter = environment.adapter("Google Doc")
    requests = []
    for index in range(count):
        descriptor = adapter.create_resource("doc {}".format(index),
                                             owner="alice" if index % 3 else "bob")
        requests.append({"model_uri": model.uri, "resource": descriptor,
                         "owner": "alice" if index % 3 else "bob"})
    instances = manager.batch_instantiate(requests)
    ids = [instance.instance_id for instance in instances]
    manager.map_instances(ids, lambda kernel, iid: kernel.start(iid, actor="alice"))
    manager.map_instances(ids[: count // 2],
                          lambda kernel, iid: kernel.advance(iid, actor="alice",
                                                             to_phase_id="review"))
    manager.map_instances(ids[: count // 4],
                          lambda kernel, iid: kernel.advance(iid, actor="alice",
                                                             to_phase_id="end"))
    for iid in ids[:5]:
        manager.annotate(iid, actor="alice", text="note for {}".format(iid))
    return ids


def state_fingerprint(manager, log, model_uri):
    """Everything the acceptance criteria compare, in one comparable dict."""
    instances = manager.instances()
    return {
        "phases": {i.instance_id: i.current_phase_id for i in instances},
        "statuses": {i.instance_id: i.status.value for i in instances},
        "visits": {i.instance_id: i.visited_phase_ids() for i in instances},
        "by_phase_review": sorted(i.instance_id
                                  for i in manager.instances(phase_id="review")),
        "by_owner_bob": sorted(i.instance_id for i in manager.instances(owner="bob")),
        "by_model": len(manager.instances(model_uri=model_uri)),
        "phase_distribution": manager.phase_distribution(),
        "status_distribution": {s.value: c for s, c
                                in manager.status_distribution().items()},
        "log": [(e.sequence, e.kind, e.subject_id, e.actor,
                 json.dumps(e.payload, sort_keys=True, default=str))
                for e in log.entries()],
    }


class TestKillAndRestart:
    def test_recovery_rebuilds_identical_state(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=60)

        # Checkpoint mid-workload, then keep going: recovery must combine
        # the snapshot with a non-empty journal tail.
        coordinator.checkpoint()
        manager.map_instances(
            ids[30:45], lambda kernel, iid: kernel.advance(iid, actor="alice",
                                                         to_phase_id="review"))
        manager.annotate(ids[40], actor="bob", text="post-checkpoint note")
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()
        del manager, log, bus  # the crash: every in-memory structure is gone

        environment2, bus2, log2, manager2 = build_runtime()
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.records_replayed > 0
        assert report.warnings == []
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_recovery_without_snapshot_replays_everything(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        drive_workload(environment, manager, model, count=20)
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()

        environment2, bus2, log2, manager2 = build_runtime()
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.snapshot_seq == 0
        assert report.instances_created_from_journal == 20
        assert state_fingerprint(manager2, log2, model.uri) == expected
        # Replayed instance.created records share the installed version.
        assert {id(i.model) for i in manager2.instances()} == \
            {id(manager2.model(model.uri))}

    def test_recover_then_continue_then_recover_again(self, tmp_path):
        """The full restart loop: recovered deployments keep journaling."""
        config = PersistenceConfig(str(tmp_path), fsync="never")
        environment, bus, log, manager = build_runtime()
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=24)
        coordinator.checkpoint()
        # Post-checkpoint tail that only the journal knows about.
        manager.advance(ids[20], actor="alice", to_phase_id="review")
        coordinator.close()

        # Restart 1: recover, attach a new coordinator (marking replayed
        # instances dirty), checkpoint — which truncates the tail — and work.
        environment2, bus2, log2, manager2 = build_runtime()
        journal2, snapshots2, store2 = (config.open_journal(),
                                        config.open_snapshots(),
                                        config.open_store())
        report = recover_into(manager2, log2, journal2, snapshots2, store2)
        coordinator2 = PersistenceCoordinator(manager2, log2, journal2,
                                              snapshots2, store2, bus=bus2)
        for instance_id in report.touched_instance_ids:
            coordinator2.mark_dirty(instance_id)
        coordinator2.checkpoint()
        manager2.advance(ids[21], actor="alice", to_phase_id="review")
        expected = state_fingerprint(manager2, log2, model.uri)
        coordinator2.close()

        # Restart 2: the instance advanced before restart 1's checkpoint must
        # still be on review — its state survived the journal truncation.
        environment3, bus3, log3, manager3 = build_runtime()
        recover_into(manager3, log3, config.open_journal(),
                     config.open_snapshots(), config.open_store())
        assert manager3.instance(ids[20]).current_phase_id == "review"
        assert manager3.instance(ids[21]).current_phase_id == "review"
        assert state_fingerprint(manager3, log3, model.uri) == expected


class TestKillAndRestartAtScale:
    """The acceptance-criteria round trip: >= 1k instances."""

    def test_thousand_instances_round_trip(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")
        requests = [{"model_uri": model.uri,
                     "resource": adapter.create_resource("doc {}".format(i),
                                                         owner="alice"),
                     "owner": "alice" if i % 4 else "bob"}
                    for i in range(1000)]
        ids = [i.instance_id for i in manager.batch_instantiate(requests)]
        manager.map_instances(ids, lambda kernel, iid: kernel.start(iid, actor="alice"))
        coordinator.checkpoint()
        # A journal tail on top of the snapshot: 400 advance past it.
        manager.map_instances(ids[:400],
                              lambda kernel, iid: kernel.advance(
                                  iid, actor="alice", to_phase_id="review"))
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()
        del manager, log, bus

        environment2, bus2, log2, manager2 = build_runtime()
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.instances_restored == 1000
        assert report.warnings == []
        assert manager2.instance_count() == 1000
        assert state_fingerprint(manager2, log2, model.uri) == expected
        # One model object for the 1,000 instances of the one version.
        assert len({id(i.model) for i in manager2.instances()}) == 1
        assert manager2.instances()[0].model is manager2.model(model.uri)
        assert manager2.model(model.uri).frozen


class TestOneInstanceStore:
    """SQLite is the only instance store: every way of naming a directory
    opens the same store, and a directory a file store wrote is refused
    rather than recovered empty."""

    def _checkpointed_primary(self, tmp_path, count=20):
        """``count`` started instances, one checkpoint over small segments
        (so the journal no longer holds them), then a post-checkpoint tail."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="sqlite",
                                   fsync="never", segment_max_records=5)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=count)
        assert coordinator.checkpoint()["segments_truncated"] >= 1
        manager.advance(ids[-1], actor="alice", to_phase_id="review")
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()
        return model, ids, expected

    def test_default_config_reopens_a_sqlite_checkpoint(self, tmp_path):
        model, ids, expected = self._checkpointed_primary(tmp_path)
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path))
        report = recover_into(manager, log, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.warnings == []
        assert report.instances_restored == len(ids)
        assert state_fingerprint(manager, log, model.uri) == expected

    def test_shipping_source_from_a_path_bootstraps_every_document(self, tmp_path):
        model, ids, expected = self._checkpointed_primary(tmp_path)
        payload = JournalShippingSource(str(tmp_path)).bootstrap()
        assert sorted(d["instance_id"] for d in payload.documents) == sorted(ids)
        assert payload.manifest is not None

    def test_file_store_directory_is_refused_until_imported(self, tmp_path):
        model, ids, expected = self._checkpointed_primary(tmp_path)
        config = PersistenceConfig(str(tmp_path))
        # Rebuild the directory as a file store left it: the same documents
        # as one instances/<id>.json record each, and no SQLite database.
        store = config.open_store()
        documents = store.all()
        store.close()
        for name in os.listdir(str(tmp_path)):
            if name.startswith("instances.sqlite3"):
                os.unlink(os.path.join(str(tmp_path), name))
        legacy = os.path.join(str(tmp_path), "instances")
        os.makedirs(legacy)
        for document in documents:
            record = {"record_id": document["instance_id"], "version": 1,
                      "document": document}
            with open(os.path.join(legacy, document["instance_id"] + ".json"), "w",
                      encoding="utf-8") as handle:
                json.dump(record, handle)

        with pytest.raises(StorageError, match="instances"):
            config.open_store()
        with pytest.raises(StorageError):
            GeleeService(persistence=config)
        with pytest.raises(StorageError):
            JournalShippingSource(str(tmp_path)).bootstrap()
        assert not os.path.exists(config.store_location)

        # The one-off import documented in docs/PERSISTENCE.md.
        imported = []
        for path in sorted(glob.glob(os.path.join(legacy, "*.json"))):
            with open(path, encoding="utf-8") as handle:
                imported.append(json.load(handle)["document"])
        store = SQLiteStore(config.store_location)
        store.upsert_many(imported)
        store.close()
        os.rename(legacy, legacy + ".imported")

        environment, bus, log, manager = build_runtime()
        report = recover_into(manager, log, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.warnings == []
        assert report.instances_restored == len(ids)
        assert state_fingerprint(manager, log, model.uri) == expected


class TestModelReferences:
    """Instance documents refer to published versions and inline only
    models an instance diverged to."""

    def _durable_runtime(self, tmp_path, count=12):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=count)
        return config, coordinator, manager, log, bus, model, ids

    def _recover(self, config):
        environment, bus, log, manager = build_runtime()
        report = recover_into(manager, log, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        return report, manager, log

    def test_diverged_model_is_inlined_and_round_trips_byte_for_byte(self, tmp_path):
        config, coordinator, manager, log, bus, model, ids = \
            self._durable_runtime(tmp_path)
        variant = model.copy()
        variant.name = "Owner's variant"
        variant.rename_phase("review", "Peer review")
        manager.change_instance_model(ids[-1], "alice", variant)
        live_state = json.loads(json.dumps(manager.instance(ids[-1]).to_state_dict()))
        coordinator.checkpoint()
        coordinator.close()
        store = config.open_store()
        [document] = [d for d in store.all() if d["instance_id"] == ids[-1]]
        store.close()
        assert document["state"]["model"]["name"] == "Owner's variant"
        assert [p["name"] for p in document["state"]["model"]["phases"]] == \
            ["Work", "Peer review", "End"]

        report, manager2, log2 = self._recover(config)
        assert report.warnings == []
        recovered = manager2.instance(ids[-1])
        assert not recovered.model.frozen
        assert recovered.model is not manager2.model(model.uri)
        recovered_state = recovered.to_state_dict()
        assert json.dumps(recovered_state["model"]) == json.dumps(live_state["model"])
        assert recovered_state == live_state == document["state"]

    def test_seed_format_documents_restore_and_converge(self, tmp_path):
        """Documents that inline the published model (the format before
        references) restore to the same state and share the version."""
        config, coordinator, manager, log, bus, model, ids = \
            self._durable_runtime(tmp_path)
        coordinator.checkpoint()
        manager.advance(ids[-1], actor="alice", to_phase_id="review")
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()
        store = config.open_store()
        documents = store.all()
        for document in documents:
            document["state"]["model"] = model.to_dict()
        store.upsert_many(documents)
        store.close()

        report, manager2, log2 = self._recover(config)
        assert report.warnings == []
        assert report.instances_restored == len(ids)
        assert state_fingerprint(manager2, log2, model.uri) == expected
        assert {id(i.model) for i in manager2.instances()} == \
            {id(manager2.model(model.uri))}
        # The next checkpoint rewrites them as references.
        document = document_for(manager2.instance(ids[0]), 0)
        assert document["state"]["model"]["reference"] is True

    def test_missing_referenced_version_is_a_warning_not_a_substitute(self, tmp_path):
        config, coordinator, manager, log, bus, model, ids = \
            self._durable_runtime(tmp_path)
        coordinator.checkpoint()
        coordinator.close()
        store = config.open_store()
        [document] = [d for d in store.all() if d["instance_id"] == ids[0]]
        document["state"]["model"]["version_number"] = "9.9"
        store.upsert_many([document])
        store.close()

        report, manager2, log2 = self._recover(config)
        assert manager2.instance_count() == len(ids) - 1
        assert ids[0] not in {i.instance_id for i in manager2.instances()}
        assert len(report.warnings) == 1
        assert ids[0] in report.warnings[0] and "9.9" in report.warnings[0]

    def test_missing_created_version_in_the_journal_is_a_warning_not_a_substitute(
            self, tmp_path):
        """The journal path matches the snapshot path: an ``instance.created``
        record naming an uninstalled version does not fall back to the
        latest one."""
        config, coordinator, manager, log, bus, model, ids = \
            self._durable_runtime(tmp_path)
        coordinator.close()  # no checkpoint: every instance lives in the journal
        journal_dir = os.path.join(str(tmp_path), "journal")
        for name in os.listdir(journal_dir):
            path = os.path.join(journal_dir, name)
            with open(path) as handle:
                records = [json.loads(line) for line in handle if line.strip()]
            for record in records:
                if record["kind"] == "instance.created" and record["subject_id"] == ids[0]:
                    record["state"]["instance"]["model_version"] = "9.9"
            with open(path, "w") as handle:
                handle.writelines(json.dumps(record) + "\n" for record in records)

        report, manager2, log2 = self._recover(config)
        assert manager2.instance_count() == len(ids) - 1
        assert ids[0] not in {i.instance_id for i in manager2.instances()}
        created = [w for w in report.warnings if "(instance.created)" in w]
        assert len(created) == 1
        assert "9.9" in created[0]
        # The instance's later records cannot apply either; nothing else warns.
        assert all(ids[0] in w or "9.9" in w for w in report.warnings)


# ============================================================== service tier
class TestServicePersistence:
    def test_service_round_trip_and_endpoints(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), backend="sqlite", fsync="never")
        router = RestRouter(persistence=config)
        service = router.service
        model = service.publish_template("eu-deliverable", actor="alice")
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "D1.1", owner="alice")
        created = router.post("/v2/instances", body={
            "model_uri": model["uri"], "resource": descriptor.to_dict(),
            "owner": "alice"}, actor="alice")
        assert created.status == 201
        instance_id = created.body["data"]["instance_id"]
        router.post("/v2/instances/{}:start".format(instance_id), actor="alice")

        status = router.get("/v2/runtime/persistence")
        assert status.status == 200
        assert status.body["data"]["enabled"] is True
        assert status.body["data"]["backend"] == "sqlite"
        assert status.body["data"]["dirty_instances"] >= 1

        checkpoint = router.post("/v2/runtime/persistence:checkpoint")
        assert checkpoint.status == 201
        assert checkpoint.body["data"]["instances_flushed"] == 1
        stats = router.get("/v2/runtime/stats")
        assert stats.body["data"]["journal_seq"] >= 1
        service.close()

        # Restart: same config, state comes back before the first request.
        router2 = RestRouter(persistence=config)
        detail = router2.get("/v2/instances/{}".format(instance_id))
        assert detail.status == 200
        assert detail.body["data"]["status"] == "active"
        status2 = router2.get("/v2/runtime/persistence")
        assert status2.body["data"]["recovery"]["instances_restored"] == 1
        router2.service.close()

    def test_disabled_persistence_surface(self):
        router = RestRouter()
        status = router.get("/v2/runtime/persistence")
        assert status.body["data"] == {"enabled": False}
        checkpoint = router.post("/v2/runtime/persistence:checkpoint")
        assert checkpoint.status == 400
        assert checkpoint.body["error"]["code"] == "BAD_REQUEST"
        stats = router.get("/v2/runtime/stats")
        assert "journal_seq" not in stats.body["data"]
        with pytest.raises(ServiceError):
            GeleeService().persistence_checkpoint()

    def test_router_rejects_service_plus_persistence(self, tmp_path):
        service = GeleeService()
        with pytest.raises(ServiceError):
            RestRouter(service=service,
                       persistence=PersistenceConfig(str(tmp_path)))

    def test_log_retention_knob_bounds_snapshot_manifests(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), fsync="never",
                                   log_max_entries=10)
        service = GeleeService(persistence=config)
        assert service.execution_log.max_entries == 10
        model = service.publish_template("eu-deliverable", actor="alice")
        adapter = service.environment.adapter("Google Doc")
        for index in range(8):
            descriptor = adapter.create_resource("D{}".format(index), owner="alice")
            instance = service.create_instance(model["uri"], descriptor.to_dict(),
                                               owner="alice", actor="alice")
            service.start_instance(instance["instance_id"], actor="alice")
        service.persistence_checkpoint()
        manifest = service.persistence.snapshots.latest()
        assert len(manifest.log["entries"]) <= 10
        service.close()

    def test_single_manager_service_is_also_durable(self, tmp_path):
        """The persistence knob works on the service's own kernel."""
        config = PersistenceConfig(str(tmp_path), fsync="never")
        service = GeleeService(persistence=config)
        assert isinstance(service.manager, LifecycleManager)
        model = service.publish_template("eu-deliverable", actor="alice")
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "D9", owner="alice")
        instance = service.create_instance(model["uri"], descriptor.to_dict(),
                                           owner="alice", actor="alice")
        service.persistence_checkpoint()
        service.close()

        service2 = GeleeService(persistence=config)
        detail = service2.instance_detail(instance["instance_id"])
        assert detail["status"] == "created"
        service2.close()

    def test_injected_manager_journals_each_call_before_it_returns(self, tmp_path):
        """Write-ahead: on an injected kernel every call's records are in
        the journal when the call returns, with no flush step anywhere."""
        environment, bus, _log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        service = GeleeService(manager=manager, persistence=config)
        journal = service.persistence.journal

        def kinds_since(seq):
            return [record.kind for record in journal.read(after_seq=seq)]

        model = bench_model()
        manager.publish_model(model, actor="alice")
        assert kinds_since(0) == ["model.published"]
        seq = journal.last_seq
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        created = service.create_instance(model.uri, descriptor.to_dict(),
                                          owner="alice")
        assert "instance.created" in kinds_since(seq)
        service.start_instance(created["instance_id"], actor="alice")
        seq = journal.last_seq
        service.advance_instance(created["instance_id"], actor="alice",
                                 to_phase_id="review")
        assert "instance.phase_entered" in kinds_since(seq)
        service.close()


# ===================================== crash interactions (rotation, torn
# tails, mid-checkpoint kills): the failure modes that cross layer borders.
class TestCheckpointBarrier:
    """On the default service kernel a checkpoint and a listing are barriers:
    neither runs while a writer is inside the kernel."""

    def _service_with_parked_writer(self, tmp_path):
        """A durable service whose first instance's advance is parked, by a
        bus subscriber, inside the kernel; returns the writer's release."""
        config = PersistenceConfig(str(tmp_path), fsync="never")
        service = GeleeService(persistence=config)
        model = bench_model()
        service.manager.publish_model(model, actor="alice")
        adapter = service.environment.adapter("Google Doc")
        ids = []
        for index in range(3):
            descriptor = adapter.create_resource("doc {}".format(index),
                                                 owner="alice")
            created = service.create_instance(model.uri, descriptor.to_dict(),
                                              owner="alice")
            service.start_instance(created["instance_id"], actor="alice")
            ids.append(created["instance_id"])
        parked, release = threading.Event(), threading.Event()

        def park(event):
            if event.subject_id == ids[0]:
                parked.set()
                release.wait(timeout=10.0)

        service.bus.subscribe("instance.phase_entered", park)
        writer = threading.Thread(
            target=service.advance_instance, args=(ids[0], "alice"),
            kwargs={"to_phase_id": "review"}, daemon=True)
        writer.start()
        assert parked.wait(timeout=5.0)
        return config, service, model, writer, release

    @staticmethod
    def _blocked_while_parked(call, release):
        """Run ``call`` on a third thread; True when it was still waiting
        0.2 s into the park.  Returns (blocked, results)."""
        done, results = threading.Event(), []

        def run():
            results.append(call())
            done.set()

        threading.Thread(target=run, daemon=True).start()
        try:
            blocked = not done.wait(timeout=0.2)
        finally:
            release.set()
        assert done.wait(timeout=10.0)
        return blocked, results

    def test_checkpoint_waits_for_a_writer_inside_the_kernel(self, tmp_path):
        config, service, model, writer, release = \
            self._service_with_parked_writer(tmp_path)
        blocked, _ = self._blocked_while_parked(service.persistence_checkpoint,
                                                release)
        assert blocked, "checkpoint ran while a writer was inside the kernel"
        writer.join(timeout=10.0)
        expected = state_fingerprint(service.manager, service.execution_log,
                                     model.uri)
        service.close()
        revived = GeleeService(persistence=config)
        assert state_fingerprint(revived.manager, revived.execution_log,
                                 model.uri) == expected
        revived.close()

    def test_listing_waits_for_a_writer_inside_the_kernel(self, tmp_path):
        _, service, model, writer, release = \
            self._service_with_parked_writer(tmp_path)
        manager = service.manager
        blocked, results = self._blocked_while_parked(
            lambda: (manager.phase_distribution(),
                     len(manager.instances(owner="alice"))), release)
        assert blocked, "a listing walked the indexes during a transition"
        assert results == [({"review": 1, "work": 2}, 3)]
        writer.join(timeout=10.0)
        service.close()


class TestCrashInteractions:
    def _ts(self):
        return SimulatedClock().now()

    def test_torn_tail_after_rotation_repairs_only_final_segment(self, tmp_path):
        """A crash mid-append after several rotations: only the *final*
        segment can be torn; repair must fix it without touching the sealed
        segments, and the sequence must continue correctly."""
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=4)
        ts = self._ts()
        for index in range(10):
            journal.append("k", ts, "s{}".format(index))
        journal.close()
        segments = journal.segment_files()
        assert len(segments) >= 3
        sealed = os.path.join(str(tmp_path), segments[0])
        sealed_bytes = open(sealed, "rb").read()
        torn = os.path.join(str(tmp_path), segments[-1])
        with open(torn, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 11, "kind": "k", "timest')

        reopened = Journal(str(tmp_path), fsync="never", segment_max_records=4)
        assert reopened.last_seq == 10
        assert open(sealed, "rb").read() == sealed_bytes
        record = reopened.append("k2", ts, "s")
        assert record.seq == 11
        assert [r.seq for r in reopened.read()] == list(range(1, 12))

    def test_torn_line_in_sealed_segment_is_corruption(self, tmp_path):
        """Only the final segment may legitimately carry a torn tail —
        sealed segments were fsynced at rotation, so damage there is real
        corruption and reading must raise, not skip."""
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=3)
        ts = self._ts()
        for index in range(7):
            journal.append("k", ts, "s")
        journal.close()
        sealed = os.path.join(str(tmp_path), journal.segment_files()[0])
        with open(sealed, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[-1] = lines[-1][:20] + "\n"  # tear a line in a sealed segment
        with open(sealed, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError):
            list(Journal(str(tmp_path), fsync="never").read())

    def test_crash_between_store_flush_and_manifest_publish(self, tmp_path):
        """Kill the process inside checkpoint, after the instance documents
        reached the store but before the manifest landed: recovery must
        combine the (manifest-less) documents with full journal replay and
        lose nothing."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=24)
        expected = state_fingerprint(manager, log, model.uri)

        publish_attempted = {"count": 0}

        def crash_publish(manifest):
            publish_attempted["count"] += 1
            raise StorageError("killed during manifest publish")

        coordinator.snapshots.publish = crash_publish
        with pytest.raises(StorageError):
            coordinator.checkpoint()
        assert publish_attempted["count"] == 1
        store = config.open_store()
        assert store.count() > 0, "documents were flushed before the kill"
        store.close()
        del coordinator, manager, log, bus  # the kill

        environment2, bus2, log2, manager2 = build_runtime()
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.snapshot_seq == 0  # no manifest ever landed
        assert report.instances_restored == 24  # ...but the documents did
        assert report.warnings == []
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_kill_and_restart_during_partial_store_flush(self, tmp_path):
        """Kill the process after only *some* documents of a checkpoint were
        flushed (mid ``upsert_many``): per-document journal_seq coverage
        must keep replay idempotent over the half-flushed store."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), fsync="never")
        store = config.open_store()
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            store, bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=24)
        expected = state_fingerprint(manager, log, model.uri)

        original_upsert_many = store.upsert_many

        def partial_flush(documents):
            documents = list(documents)
            original_upsert_many(documents[: len(documents) // 2])
            raise StorageError("killed mid-flush")

        store.upsert_many = partial_flush
        with pytest.raises(StorageError):
            coordinator.checkpoint()
        flushed = config.open_store()
        assert 0 < flushed.count() < 24
        flushed.close()
        del coordinator, store, manager, log, bus  # the kill

        environment2, bus2, log2, manager2 = build_runtime()
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.warnings == []
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_checkpoint_rotation_torn_tail_combined(self, tmp_path):
        """The full gauntlet in one run: checkpoint (journal truncation),
        segment rotation, then a crash that tears the live tail — recovery
        must still produce the exact pre-crash state."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="sqlite",
                                   fsync="never", segment_max_records=32)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=20)
        checkpoint = coordinator.checkpoint()
        assert checkpoint["segments_truncated"] >= 1
        manager.map_instances(
            ids[10:16], lambda kernel, iid: kernel.advance(iid, actor="alice",
                                                         to_phase_id="review"))
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.journal.rotate()
        manager.annotate(ids[0], actor="alice", text="doomed note")
        # The crash tears the very last journal line (the annotation): that
        # record never committed, so the recovered state must equal the
        # pre-annotation fingerprint... minus nothing else.
        expected_log_tail = [e for e in log.entries()
                             if not (e.kind == "instance.annotated"
                                     and e.subject_id == ids[0]
                                     and e.payload.get("text") == "doomed note")]
        del coordinator, manager, log, bus
        journal_dir = config.journal_directory
        segments = sorted(os.listdir(journal_dir))
        tail_path = os.path.join(journal_dir, segments[-1])
        data = open(tail_path, "rb").read()
        with open(tail_path, "wb") as handle:
            handle.write(data[:-10])  # tear the final line mid-record

        environment2, bus2, log2, manager2 = build_runtime()
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.warnings == []
        fingerprint = state_fingerprint(manager2, log2, model.uri)
        assert fingerprint["phases"] == expected["phases"]
        assert [e.kind for e in log2.entries()] == \
            [e.kind for e in expected_log_tail]
