"""Tests for :mod:`repro.replication`: journal streaming, read replicas,
read-only serving, promotion and failover.

The centrepiece mirrors the durability suites: a durable primary serves
load while a warm standby streams its journal; the primary is killed
mid-traffic, the standby is promoted, and nothing that reached the journal
is lost — timers re-armed, writes accepted.
"""

import os
import shutil
import tempfile

import pytest

from repro.clock import SimulatedClock
from repro.client import GeleeApiError, GeleeClient
from repro.errors import (
    JournalTruncatedError,
    ReadOnlyReplicaError,
    ReplicationError,
    StorageError,
)
from repro.model import LifecycleBuilder
from repro.persistence import Journal, PersistenceConfig
from repro.persistence.journal import (
    JournalRecord,
    list_segments,
    scan_last_seq,
    scan_records,
)
from repro.replication import (
    HttpReplicationSource,
    JournalShippingSource,
    ReadReplica,
    ReplicationPrimary,
)
from repro.service import GeleeService
from repro.service.rest import RestRouter
from repro.service.transport import Request


@pytest.fixture
def root():
    directory = tempfile.mkdtemp(prefix="gelee-replication-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def replication_model(name="Replicated lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Draft", deadline_days=2.0)
    builder.phase("Review")
    builder.terminal("Done")
    builder.flow("Draft", "Review", "Done")
    return builder.build()


def build_primary(root, clock=None):
    config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
    service = GeleeService(clock=clock or SimulatedClock(),
                           persistence=config)
    ReplicationPrimary(service)
    return config, service


def seed_instances(service, model, count, prefix="doc"):
    adapter = service.environment.adapter("Google Doc")
    ids = []
    for index in range(count):
        resource = adapter.create_resource("{} {}".format(prefix, index),
                                           owner="alice")
        instance = service.manager.instantiate(model.uri, resource, owner="alice")
        service.manager.start(instance.instance_id, actor="alice")
        ids.append(instance.instance_id)
    return ids


# ======================================================== journal streaming
class TestJournalStreaming:
    def test_cursor_resumes_across_rotation(self, root):
        journal = Journal(os.path.join(root, "journal"), fsync="never",
                          segment_max_records=5)
        clock = SimulatedClock()
        for index in range(17):
            journal.append("test.event", clock.now(), "subject-{}".format(index))
        assert len(journal.segment_files()) > 2
        # A cursor parked inside a sealed (rotated-out) segment resumes
        # exactly where it stopped, across the segment boundary.
        head = [record.seq for record in journal.read(after_seq=3, strict=True)]
        assert head == list(range(4, 18))

    def test_explicit_rotate_mid_stream(self, root):
        journal = Journal(os.path.join(root, "journal"), fsync="never")
        clock = SimulatedClock()
        for index in range(4):
            journal.append("test.event", clock.now(), "s{}".format(index))
        assert journal.rotate() is True
        for index in range(4, 8):
            journal.append("test.event", clock.now(), "s{}".format(index))
        assert [r.seq for r in journal.read(after_seq=2, strict=True)] == [3, 4, 5, 6, 7, 8]

    def test_truncated_cursor_raises_typed_resumable_error(self, root):
        journal = Journal(os.path.join(root, "journal"), fsync="never",
                          segment_max_records=4)
        clock = SimulatedClock()
        for index in range(12):
            journal.append("test.event", clock.now(), "s{}".format(index))
        removed = journal.truncate_through(8)
        assert removed, "expected fully-covered segments to be truncated"
        with pytest.raises(JournalTruncatedError) as excinfo:
            list(journal.read(after_seq=2, strict=True))
        assert excinfo.value.oldest_available > 3
        # The non-strict read (crash recovery over its own snapshot) keeps
        # its historical gap-tolerant behaviour.
        assert [r.seq for r in journal.read(after_seq=2)]

    def test_segment_vanishing_mid_read_is_typed_not_corruption(self, root):
        directory = os.path.join(root, "journal")
        journal = Journal(directory, fsync="never", segment_max_records=3)
        clock = SimulatedClock()
        for index in range(9):
            journal.append("test.event", clock.now(), "s{}".format(index))
        journal.close()
        segments = list_segments(directory)
        # Snapshot the segment list, then a concurrent checkpoint deletes a
        # segment before the reader reaches it.
        os.unlink(os.path.join(directory, segments[1]))
        with pytest.raises(JournalTruncatedError):
            list(scan_records(directory, after_seq=0, segments=segments))

    def test_scan_last_seq_is_read_only_on_torn_tail(self, root):
        directory = os.path.join(root, "journal")
        journal = Journal(directory, fsync="never")
        clock = SimulatedClock()
        for index in range(3):
            journal.append("test.event", clock.now(), "s{}".format(index))
        journal.close()
        path = os.path.join(directory, list_segments(directory)[-1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "torn')  # no newline: torn append
        size_before = os.path.getsize(path)
        assert scan_last_seq(directory) == 3
        assert os.path.getsize(path) == size_before, \
            "a follower's read-only scan must never repair the primary's files"
        # The owning process repairs it on reopen, as before.
        assert Journal(directory, fsync="never").last_seq == 3

    def test_shipping_source_batches_and_head(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 6)
        source = JournalShippingSource(config)
        batch = source.read_batch(0, limit=5)
        assert batch.count == 5
        assert batch.next_seq == 5
        # A full batch reports a lower-bound head (no tail scan per batch);
        # it must still prove the follower is not caught up.
        assert batch.next_seq < batch.head_seq <= source.head_seq()
        assert not batch.caught_up
        rest = source.read_batch(batch.next_seq)
        assert rest.head_seq == source.head_seq()  # final batch is exact
        assert rest.caught_up
        # Round-trips through plain dicts for wire shipping.
        from repro.replication import StreamBatch
        clone = StreamBatch.from_dict(batch.to_dict())
        assert [r.seq for r in clone.records] == [r.seq for r in batch.records]


# ==================================================== follower read cursors
@pytest.fixture
def decoded(monkeypatch):
    """The seq of every record decoded by ``JournalRecord.from_dict``."""
    seqs = []
    decode = JournalRecord.from_dict.__func__

    def counting(cls, data):
        record = decode(cls, data)
        seqs.append(record.seq)
        return record

    monkeypatch.setattr(JournalRecord, "from_dict", classmethod(counting))
    return seqs


class TestFollowerReadCursors:
    """A follower's fetch decodes the records it is sent, not the open
    segment before them."""

    def _primary(self, root, count=20):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, count)
        return config, primary, model

    def test_resumed_fetch_decodes_only_new_records(self, root, decoded):
        _, primary, model = self._primary(root)
        first = primary.replication.read_batch(0, follower_id="standby")
        assert first.caught_up and first.next_seq > 50
        seed_instances(primary, model, 1, prefix="late")
        del decoded[:]
        batch = primary.replication.read_batch(first.next_seq,
                                               follower_id="standby")
        assert batch.count > 0
        assert decoded == [record.seq for record in batch.records]

    def test_each_follower_resumes_from_its_own_cursor(self, root, decoded):
        _, primary, _ = self._primary(root)
        replication = primary.replication
        cursors = {"a": 0, "b": 0}
        for limit in (10, 7, 12, 5):
            for follower in ("a", "b"):
                del decoded[:]
                batch = replication.read_batch(
                    cursors[follower], limit=limit + (follower == "b"),
                    follower_id=follower)
                assert batch.records[0].seq == cursors[follower] + 1
                if cursors[follower]:
                    assert decoded == [record.seq for record in batch.records]
                cursors[follower] = batch.next_seq
        assert cursors == {"a": 34, "b": 38}

    def test_shipping_source_resumes_and_polls_from_its_cursor(
            self, root, decoded):
        config, primary, model = self._primary(root)
        source = JournalShippingSource(config)
        first = source.read_batch(0, limit=7)
        assert first.next_seq == 7 and first.head_seq == 8
        del decoded[:]
        # The overflow record (8) did not move the cursor, so the next
        # batch resumes past 7 and decodes 8..14 plus its own overflow.
        second = source.read_batch(7, limit=7)
        assert decoded == list(range(8, 16))
        rest = source.read_batch(second.next_seq)
        assert rest.caught_up and rest.head_seq == scan_last_seq(
            config.journal_directory)
        seed_instances(primary, model, 1, prefix="late")
        del decoded[:]
        head = source.head_seq()
        assert head > rest.next_seq
        assert decoded == list(range(rest.next_seq + 1, head + 1))
        del decoded[:]
        batch = source.read_batch(rest.next_seq)
        assert batch.head_seq == head and batch.caught_up
        assert decoded == list(range(rest.next_seq + 1, head + 1))

    def test_head_probe_keeps_the_fetch_cursor(self, root, decoded):
        _, primary, model = self._primary(root)
        client = GeleeClient.in_process(router=RestRouter(service=primary))
        source = HttpReplicationSource(client=client, follower_id="standby")
        first = source.read_batch(0)
        assert first.caught_up
        seed_instances(primary, model, 2, prefix="late")
        del decoded[:]
        # The probe reads one record past the follower's position under the
        # same follower id; the fetch after it must still resume.
        assert source.head_seq() > first.next_seq
        batch = source.read_batch(first.next_seq)
        assert batch.count > 1
        # Decodes on both sides of the wire, none at or before the cursor.
        assert min(decoded) == first.next_seq + 1


# ============================================================= read replica
class TestReadReplica:
    def test_bootstrap_from_snapshot_and_incremental_sync(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 8)
        checkpoint = primary.persistence.checkpoint()
        # Post-snapshot traffic lands in the journal tail only.
        primary.manager.advance(ids[0], actor="alice", to_phase_id="review")

        replica = ReadReplica(JournalShippingSource(config), clock=clock)
        report = replica.sync()
        status = replica.status()
        assert status["snapshot_seq"] == checkpoint["journal_seq"]
        assert status["lag_records"] == 0
        assert report["applied_seq"] > checkpoint["journal_seq"]
        assert replica.service.manager.instance_count() == 8
        assert replica.service.manager.instance(ids[0]).current_phase_id == "review"
        # Deadline timers replicated (7 on Draft; the advanced one cancelled).
        assert replica.service.scheduler.timers.pending_count == 7
        # The execution log followed the stream too.
        assert len(replica.service.execution_log.history_of(ids[0])) == \
            len(primary.execution_log.history_of(ids[0]))

        # Lag is tracked continuously: new primary traffic, not yet synced.
        primary.manager.advance(ids[1], actor="alice", to_phase_id="review")
        replica._head_seq = replica._source.head_seq()
        assert replica.lag_records > 0
        replica.sync()
        assert replica.lag_records == 0

    def test_replica_against_in_process_primary_tracks_followers(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 4)
        replica = ReadReplica(primary.replication, clock=clock,
                              replica_id="standby-1")
        replica.sync()
        status = primary.replication_status()
        assert status["role"] == "primary"
        assert "standby-1" in status["followers"]
        assert status["followers"]["standby-1"]["lag_records"] == 0
        assert status["max_follower_lag"] == 0

    def test_replica_shard_layout_matches_primary(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 12)
        replica = ReadReplica(JournalShippingSource(config))
        replica.sync()
        # One kernel per node: the layout to match is the instance set and
        # every instance's position.
        assert {i.instance_id: i.current_phase_id
                for i in replica.service.manager.instances()} == \
            {i.instance_id: i.current_phase_id
             for i in primary.manager.instances()}

    def test_bootstrap_shares_one_model_object_per_version(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 1000)
        primary.persistence.checkpoint()
        replica = ReadReplica(JournalShippingSource(config))
        assert replica.bootstrap()["instances_restored"] == 1000
        manager = replica.service.manager
        assert len({id(i.model) for i in manager.instances()}) == 1
        assert manager.instances()[0].model is manager.model(model.uri)

    def test_documents_without_manifest_wait_for_the_model_record(self, root):
        """A primary that crashed between its store flush and its manifest
        publish ships documents but no manifest: their model references
        resolve once the stream installs the version."""
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 6)
        snapshots = primary.persistence.snapshots
        publish = snapshots.publish

        def publish_fails_once(manifest):
            snapshots.publish = publish
            raise StorageError("killed during manifest publish")

        snapshots.publish = publish_fails_once
        with pytest.raises(StorageError):
            primary.persistence.checkpoint()
        assert snapshots.latest() is None
        assert primary.persistence.store.count() == 6
        primary.manager.advance(ids[0], actor="alice", to_phase_id="review")
        replica = ReadReplica(primary.replication, clock=clock)
        assert replica.bootstrap()["instances_restored"] == 0
        replica.sync()
        manager = replica.service.manager
        assert manager.instance_count() == 6
        assert manager.instance(ids[0]).current_phase_id == "review"
        assert {id(i.model) for i in manager.instances()} == \
            {id(manager.model(model.uri))}
        assert replica.promote()["warnings"] == []

    def test_double_bootstrap_rejected(self, root):
        config, primary = build_primary(root)
        replica = ReadReplica(JournalShippingSource(config))
        replica.bootstrap()
        with pytest.raises(ReplicationError):
            replica.bootstrap()


# ========================================================= read-only serving
class TestReadOnlyServing:
    def build_pair(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 6)
        replica = ReadReplica(JournalShippingSource(config), clock=clock,
                              primary_hint="gelee-primary:8080")
        replica.sync()
        return primary, replica, ids

    def test_replica_serves_v2_reads(self, root):
        primary, replica, ids = self.build_pair(root)
        router = replica.router()
        listing = router.handle(Request("GET", "/v2/instances", query={}))
        assert listing.status == 200
        assert len(listing.body["data"]) == 6
        detail = router.handle(Request("GET", "/v2/instances/{}".format(ids[0])))
        assert detail.status == 200
        summary = router.handle(Request("GET", "/v2/monitoring/summary"))
        assert summary.status == 200
        assert summary.body["data"]["replication"]["role"] == "replica"
        assert summary.body["data"]["replication"]["lag_records"] == 0
        stats = router.handle(Request("GET", "/v2/runtime/stats"))
        assert stats.body["data"]["read_only"] is True
        assert stats.body["data"]["role"] == "replica"

    def test_replica_rejects_v2_mutations_with_409_and_hint(self, root):
        primary, replica, ids = self.build_pair(root)
        router = replica.router()
        response = router.handle(Request(
            "POST", "/v2/instances/{}:advance".format(ids[0]),
            body={"to_phase_id": "review"}, actor="alice"))
        assert response.status == 409
        assert response.body["error"]["code"] == "REPLICA_READ_ONLY"
        assert response.body["error"]["details"]["primary"] == "gelee-primary:8080"
        # Mutations that never touch the kernel are rejected too.
        timer = router.handle(Request("POST", "/v2/timers",
                                      body={"timer_id": "t1", "delay_seconds": 5}))
        assert timer.status == 409
        assert timer.body["error"]["code"] == "REPLICA_READ_ONLY"

    def test_replica_rejects_v1_mutations(self, root):
        primary, replica, ids = self.build_pair(root)
        router = replica.router()
        response = router.handle(Request(
            "POST", "/instances/{}/advance".format(ids[0]),
            body={"to_phase_id": "review"}, actor="alice"))
        assert response.status == 409
        assert "read replica" in response.body["error"]

    def test_manager_level_read_only_enforcement(self, root):
        primary, replica, ids = self.build_pair(root)
        with pytest.raises(ReadOnlyReplicaError):
            replica.service.manager.advance(ids[0], actor="alice",
                                            to_phase_id="review")
        with pytest.raises(ReadOnlyReplicaError):
            replica.service.manager.publish_model(
                replication_model("Another"), actor="alice")

    def test_client_read_write_split(self, root):
        primary, replica, ids = self.build_pair(root)
        client = GeleeClient.in_process(router=RestRouter(service=primary),
                                        read_router=replica.router(),
                                        actor="alice")
        # GETs answer from the replica...
        assert client.runtime_stats()["read_only"] is True
        page = client.list_instances(page_size=3)
        assert len(page.items) == 3
        # ...writes route to the primary and succeed.
        moved = client.advance(ids[0], to_phase_id="review")
        assert moved["current_phase_id"] == "review"
        # A write forced onto the read endpoint gets the typed 409.
        with pytest.raises(GeleeApiError) as excinfo:
            client.call("POST", "/v2/instances/{}:advance".format(ids[1]),
                        body={"to_phase_id": "review"}, endpoint="read")
        assert excinfo.value.code == "REPLICA_READ_ONLY"
        assert excinfo.value.details["primary"] == "gelee-primary:8080"


# ================================================================ promotion
class TestPromotion:
    def test_scheduler_dormant_until_promoted(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 3)
        replica = ReadReplica(JournalShippingSource(config), clock=clock)
        replica.sync()
        assert replica.service.scheduler.timers.pending_count == 3
        clock.advance(days=3)  # every Draft deadline is now overdue
        assert replica.service.scheduler_tick()["fired"] == 0, \
            "a dormant standby must not escalate the primary's deadlines"
        replica.promote()
        fired = replica.service.scheduler_tick()
        assert fired["fired"] == 3
        annotated = replica.service.manager.instance(ids[0])
        assert any(a.kind == "escalation" for a in annotated.annotations)

    def test_promote_flips_writable_and_is_once(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 2)
        replica = ReadReplica(JournalShippingSource(config),
                              primary_hint="gelee-primary:8080")
        replica.sync()
        service = replica.service
        assert (service.read_only, service.manager.read_only,
                service.scheduler.dormant) == (True, True, True)
        report = replica.promote()
        assert report["promoted"] is True
        assert report["journal_seq"] == replica.applied_seq
        # One switch: kernel, scheduler and hint flip together.
        assert (service.read_only, service.manager.read_only,
                service.scheduler.dormant, service.primary_hint) == (
                    False, False, False, None)
        assert replica.role == "primary"
        replica.service.manager.advance(ids[0], actor="alice",
                                        to_phase_id="review")
        with pytest.raises(ReplicationError):
            replica.promote()
        with pytest.raises(ReplicationError):
            replica.sync()

    def test_promote_via_api_on_replica_only(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 2)
        replica = ReadReplica(JournalShippingSource(config))
        replica.sync()
        # Promote is the one POST the read-only guard lets through.
        response = replica.router().handle(
            Request("POST", "/v2/runtime/replication:promote"))
        assert response.status == 200
        assert response.body["data"]["promoted"] is True
        # On a primary there is nothing to promote: typed 409.
        denied = RestRouter(service=primary).handle(
            Request("POST", "/v2/runtime/replication:promote"))
        assert denied.status == 409
        assert denied.body["error"]["code"] == "REPLICATION_INVALID"

    def test_cold_promote_drains_journal_without_prior_sync(self, root):
        """Promoting a fresh, never-synced replica (built over a dead
        primary's directory) must bootstrap AND drain the journal tail —
        snapshot-only restore would silently drop durable records."""
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 5)
        journal_head = primary.persistence.journal.last_seq
        del primary  # dies before any checkpoint: no snapshot, journal only

        replica = ReadReplica(JournalShippingSource(config))
        report = replica.promote()
        assert report["journal_seq"] == journal_head
        assert report["records_drained"] > 0
        assert replica.service.manager.instance_count() == 5
        assert replica.service.manager.instance(ids[0]).current_phase_id == \
            "draft"

    def test_kill_and_failover_under_load(self, root):
        """The acceptance scenario: kill the primary mid-traffic, promote
        the standby, lose nothing that reached the journal."""
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 30)
        primary.persistence.checkpoint()

        replica = ReadReplica(JournalShippingSource(config), clock=clock,
                              primary_hint="dead-primary")
        replica.sync()

        # Load keeps flowing after the standby's last poll: these writes
        # are durable in the journal but never streamed before the crash.
        for instance_id in ids[:10]:
            primary.manager.advance(instance_id, actor="alice",
                                    to_phase_id="review")
        for instance_id in ids[:5]:
            primary.manager.advance(instance_id, actor="alice",
                                    to_phase_id="done")
        expected_phases = {
            instance_id: primary.manager.instance(instance_id).current_phase_id
            for instance_id in ids
        }
        expected_timers = sorted(
            timer.timer_id
            for timer in primary.scheduler.timers.pending(kind="deadline"))
        journal_head = primary.persistence.journal.last_seq

        # Kill the primary: the process is gone, no clean close, no final
        # checkpoint — only the journal files survive.
        del primary

        report = replica.promote()
        assert report["promoted"] is True
        # Zero loss of journaled entries: the final drain sealed replay at
        # the dead primary's journal head.
        assert report["journal_seq"] == journal_head
        assert report["records_drained"] > 0
        promoted = replica.service
        assert promoted.manager.instance_count() == 30
        for instance_id, phase_id in expected_phases.items():
            assert promoted.manager.instance(instance_id).current_phase_id == \
                phase_id
        # Deadlines re-armed exactly as the primary had them.
        assert sorted(
            timer.timer_id
            for timer in promoted.scheduler.timers.pending(kind="deadline")
        ) == expected_timers
        assert report["retry_states_rebuilt"] == 0
        # The promoted node accepts writes again.
        survivor = ids[20]
        promoted.manager.advance(survivor, actor="alice", to_phase_id="review")
        assert promoted.manager.instance(survivor).current_phase_id == "review"
        # And its deadlines actually fire now.
        clock.advance(days=3)
        assert promoted.scheduler_tick()["fired"] > 0


# ============================================================ misc plumbing
class TestWiring:
    def test_primary_requires_persistence(self):
        service = GeleeService()
        with pytest.raises(ReplicationError):
            ReplicationPrimary(service)

    def test_replica_rejects_own_persistence(self, root):
        with pytest.raises(Exception):
            GeleeService(read_only=True,
                         persistence=PersistenceConfig(os.path.join(root, "p")))

    def test_connect_builds_read_transport_from_either_half(self):
        client = GeleeClient.connect("primary", 8080, read_host="replica")
        assert client.read_transport is not None
        client = GeleeClient.connect("primary", 8080, read_port=8081)
        assert client.read_transport is not None
        assert GeleeClient.connect("primary", 8080).read_transport is None

    def test_unreplicated_service_reports_disabled(self):
        service = GeleeService()
        assert service.replication_status() == {"enabled": False,
                                                "role": "primary"}
        with pytest.raises(ReplicationError):
            service.replication_promote()
