"""Tests for :mod:`repro.coordination`: leases, fencing tokens, leader
election, health-checked automatic failover, and the election-aware
scheduler daemon.

The centrepiece mirrors the replication acceptance scenario — but with
nobody at the keyboard: the primary is killed mid-traffic, the
:class:`FailoverSupervisor` detects it, wins the lease, promotes the
standby on its own, and the deposed primary's late write bounces off the
stale fencing token.
"""

import os
import shutil
import tempfile
import threading

import pytest

from repro.clock import SimulatedClock
from repro.client import GeleeApiError, GeleeClient
from repro.coordination import (
    CoordinationConfig,
    Coordinator,
    FailoverSupervisor,
    FencingGuard,
    HealthMonitor,
    LeaderElector,
    MemoryLeaseStore,
    SQLiteLeaseStore,
)
from repro.errors import (
    CoordinationError,
    NotLeaderError,
    StaleFencingTokenError,
    StorageError,
)
from repro.errors import JournalTruncatedError
from repro.model import LifecycleBuilder
from repro.persistence import PersistenceConfig
from repro.replication import (
    HttpReplicationSource,
    JournalShippingSource,
    ReadReplica,
    ReplicationPrimary,
)
from repro.scheduler import SchedulerDaemon
from repro.service import GeleeHttpServer, GeleeService, RestRouter


@pytest.fixture
def root():
    directory = tempfile.mkdtemp(prefix="gelee-coordination-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


@pytest.fixture
def clock():
    return SimulatedClock()


def lease_model(name="Coordinated lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Draft", deadline_days=2.0)
    builder.phase("Review")
    builder.terminal("Done")
    builder.flow("Draft", "Review", "Done")
    return builder.build()


def seed_instances(service, model, count, prefix="doc"):
    adapter = service.environment.adapter("Google Doc")
    ids = []
    for index in range(count):
        resource = adapter.create_resource("{} {}".format(prefix, index),
                                           owner="alice")
        instance = service.manager.instantiate(model.uri, resource,
                                               owner="alice")
        service.manager.start(instance.instance_id, actor="alice")
        ids.append(instance.instance_id)
    return ids


def assert_writability(service, writable, hint=None):
    """The node's one switch: every copy of writability agrees, and a v2
    write on a read-only node answers 409 pointing at ``hint``."""
    assert service.read_only is (not writable)
    assert service.manager.read_only is (not writable)
    assert service.scheduler.dormant is (not writable)
    if writable:
        assert service.primary_hint is None
        return
    response = RestRouter(service=service).post(
        "/v2/models", body={"model": lease_model("Refused").to_dict()},
        actor="alice")
    assert response.status == 409
    assert response.body["error"]["code"] == "REPLICA_READ_ONLY"
    assert response.body["error"].get("details", {}).get("primary") == hint


def make_store(kind, clock, root):
    if kind == "memory":
        return MemoryLeaseStore(clock=clock)
    return SQLiteLeaseStore(os.path.join(root, "leases.sqlite3"), clock=clock)


# ============================================================== lease stores
@pytest.mark.parametrize("kind", ["memory", "sqlite"])
class TestLeaseStores:
    def test_fresh_acquire_starts_epoch_one(self, kind, clock, root):
        store = make_store(kind, clock, root)
        lease = store.acquire("primary", "node-a", ttl_seconds=10.0)
        assert lease is not None
        assert lease.token == 1
        assert lease.holder_id == "node-a"
        assert not lease.is_expired(clock.now())
        assert store.latest_token("primary") == 1
        assert store.leader("primary").holder_id == "node-a"

    def test_contender_refused_while_lease_valid(self, kind, clock, root):
        store = make_store(kind, clock, root)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        assert store.acquire("primary", "node-b", ttl_seconds=10.0) is None
        # The refusal did not burn an epoch.
        assert store.latest_token("primary") == 1

    def test_self_reacquire_extends_without_bumping_epoch(self, kind, clock,
                                                          root):
        store = make_store(kind, clock, root)
        first = store.acquire("primary", "node-a", ttl_seconds=10.0)
        clock.advance(seconds=6)
        again = store.acquire("primary", "node-a", ttl_seconds=10.0)
        assert again.token == first.token == 1
        assert again.expires_at > first.expires_at

    def test_expired_lease_transfers_with_next_token(self, kind, clock, root):
        store = make_store(kind, clock, root)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        clock.advance(seconds=11)
        taken = store.acquire("primary", "node-b", ttl_seconds=10.0)
        assert taken is not None
        assert taken.token == 2
        assert store.leader("primary").holder_id == "node-b"

    def test_renew_extends_and_fails_after_transfer(self, kind, clock, root):
        store = make_store(kind, clock, root)
        lease = store.acquire("primary", "node-a", ttl_seconds=10.0)
        clock.advance(seconds=5)
        renewed = store.renew("primary", "node-a", lease.token,
                              ttl_seconds=10.0)
        assert renewed is not None and renewed.token == 1
        # Transfer to b after expiry; a's renew must now fail.
        clock.advance(seconds=11)
        store.acquire("primary", "node-b", ttl_seconds=10.0)
        assert store.renew("primary", "node-a", lease.token,
                           ttl_seconds=10.0) is None

    def test_expired_but_untransferred_lease_still_renews(self, kind, clock,
                                                          root):
        # The store is the arbiter: if nobody claimed the name, ownership
        # was never lost and the epoch must not advance.
        store = make_store(kind, clock, root)
        lease = store.acquire("primary", "node-a", ttl_seconds=10.0)
        clock.advance(seconds=60)
        renewed = store.renew("primary", "node-a", lease.token,
                              ttl_seconds=10.0)
        assert renewed is not None and renewed.token == 1

    def test_token_monotonic_across_voluntary_release(self, kind, clock, root):
        store = make_store(kind, clock, root)
        lease = store.acquire("primary", "node-a", ttl_seconds=10.0)
        assert store.release("primary", "node-a", lease.token) is True
        assert store.leader("primary") is None
        # The row survives release so the counter does too.
        assert store.latest_token("primary") == 1
        taken = store.acquire("primary", "node-b", ttl_seconds=10.0)
        assert taken.token == 2
        # Double release and stale-token release are refused.
        assert store.release("primary", "node-a", lease.token) is False

    def test_validate_is_newest_epoch_check(self, kind, clock, root):
        store = make_store(kind, clock, root)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        assert store.validate("primary", 1) is True
        clock.advance(seconds=11)
        store.acquire("primary", "node-b", ttl_seconds=10.0)
        assert store.validate("primary", 1) is False
        assert store.validate("primary", 2) is True

    def test_argument_validation(self, kind, clock, root):
        store = make_store(kind, clock, root)
        with pytest.raises(CoordinationError):
            store.acquire("", "node-a", 10.0)
        with pytest.raises(CoordinationError):
            store.acquire("primary", "", 10.0)
        with pytest.raises(CoordinationError):
            store.acquire("primary", "node-a", 0)


class TestSQLiteLeaseStore:
    def test_state_survives_reopen(self, clock, root):
        path = os.path.join(root, "leases.sqlite3")
        store = SQLiteLeaseStore(path, clock=clock)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        store.close()
        reopened = SQLiteLeaseStore(path, clock=clock)
        assert reopened.latest_token("primary") == 1
        assert reopened.leader("primary").holder_id == "node-a"
        reopened.close()

    def test_two_process_views_share_one_truth(self, clock, root):
        # Two store handles on the same file = two processes of the
        # deployment; CAS through either sees the other's writes.
        path = os.path.join(root, "leases.sqlite3")
        a, b = SQLiteLeaseStore(path, clock=clock), SQLiteLeaseStore(path,
                                                                     clock=clock)
        assert a.acquire("primary", "node-a", ttl_seconds=10.0) is not None
        assert b.acquire("primary", "node-b", ttl_seconds=10.0) is None
        clock.advance(seconds=11)
        taken = b.acquire("primary", "node-b", ttl_seconds=10.0)
        assert taken.token == 2
        assert a.latest_token("primary") == 2
        a.close(), b.close()

    def test_concurrent_acquirers_exactly_one_winner(self, root):
        path = os.path.join(root, "leases.sqlite3")
        stores = [SQLiteLeaseStore(path) for _ in range(8)]
        wins, barrier = [], threading.Barrier(8)

        def campaign(index):
            barrier.wait()
            lease = stores[index].acquire("primary",
                                          "node-{}".format(index), 30.0)
            if lease is not None:
                wins.append(lease)

        threads = [threading.Thread(target=campaign, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 1
        assert wins[0].token == 1
        for store in stores:
            store.close()


# ============================================================ fencing guard
class TestFencingGuard:
    def test_current_epoch_passes(self, clock):
        store = MemoryLeaseStore(clock=clock)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        guard = FencingGuard(store, "primary", 1, revalidate_seconds=0)
        guard.check()  # does not raise
        assert guard.valid

    def test_newer_epoch_rejects_and_latches(self, clock):
        store = MemoryLeaseStore(clock=clock)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        guard = FencingGuard(store, "primary", 1, revalidate_seconds=0)
        clock.advance(seconds=11)
        store.acquire("primary", "node-b", ttl_seconds=10.0)
        with pytest.raises(StaleFencingTokenError) as excinfo:
            guard.check()
        assert excinfo.value.token == 1
        assert excinfo.value.latest == 2
        assert not guard.valid
        # Latched: even if the store were rolled back, the epoch is over.
        with pytest.raises(StaleFencingTokenError):
            guard.check()
        status = guard.status()
        assert status["rejections"] == 2
        assert status["valid"] is False

    def test_local_invalidate_needs_no_store_read(self, clock):
        store = MemoryLeaseStore(clock=clock)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        guard = FencingGuard(store, "primary", 1, revalidate_seconds=0)
        guard.invalidate("deposed in test")
        with pytest.raises(StaleFencingTokenError) as excinfo:
            guard.check()
        assert "deposed in test" in str(excinfo.value)

    def test_revalidate_window_caches_the_verdict(self, clock):
        store = MemoryLeaseStore(clock=clock)
        store.acquire("primary", "node-a", ttl_seconds=10.0)
        guard = FencingGuard(store, "primary", 1, revalidate_seconds=60.0)
        for _ in range(5):
            guard.check()
        assert guard.status()["checks"] == 5
        assert guard.status()["store_reads"] == 1


# =========================================================== leader elector
class TestLeaderElector:
    def test_heartbeat_elects_then_renews(self, clock):
        store = MemoryLeaseStore(clock=clock)
        elected, deposed = [], []
        elector = LeaderElector(store, node_id="node-a", ttl_seconds=10.0,
                                clock=clock, on_elected=elected.append,
                                on_deposed=deposed.append)
        assert elector.heartbeat() is True
        assert elector.is_leader and elector.token == 1
        assert len(elected) == 1
        # Subsequent heartbeats renew; the election edge fires only once.
        clock.advance(seconds=5)
        assert elector.heartbeat() is True
        assert len(elected) == 1 and not deposed
        assert elector.status()["renewals"] == 1

    def test_deposed_when_challenger_wins_expired_lease(self, clock):
        store = MemoryLeaseStore(clock=clock)
        deposed = []
        a = LeaderElector(store, node_id="node-a", ttl_seconds=10.0,
                          clock=clock, on_deposed=deposed.append)
        b = LeaderElector(store, node_id="node-b", ttl_seconds=10.0,
                          clock=clock)
        a.heartbeat()
        assert b.heartbeat() is False  # kept out while a's lease is valid
        clock.advance(seconds=11)
        assert a.is_leader is False  # local judgement, before any store call
        assert b.heartbeat() is True
        assert b.token == 2
        # a notices on its next round; the deposition edge fires once.
        assert a.heartbeat() is False
        assert len(deposed) == 1
        assert a.token == 0
        assert a.status()["leader_id"] == "node-b"

    def test_resign_transfers_immediately(self, clock):
        store = MemoryLeaseStore(clock=clock)
        a = LeaderElector(store, node_id="node-a", ttl_seconds=10.0,
                          clock=clock)
        b = LeaderElector(store, node_id="node-b", ttl_seconds=10.0,
                          clock=clock)
        a.heartbeat()
        given_up = a.resign()
        assert given_up.token == 1
        assert not a.is_leader
        # No TTL wait: the next campaigner takes over now, at a new epoch.
        assert b.heartbeat() is True
        assert b.token == 2

    def test_resign_without_leadership_raises(self, clock):
        elector = LeaderElector(MemoryLeaseStore(clock=clock),
                                node_id="node-a", clock=clock)
        with pytest.raises(NotLeaderError):
            elector.resign()


# =========================================================== health monitor
class TestHealthMonitor:
    def test_threshold_of_consecutive_failures(self, clock):
        verdicts = [True, False, False, True, False, False, False]
        probe = lambda: verdicts.pop(0)  # noqa: E731
        monitor = HealthMonitor(probe, failure_threshold=3,
                                probe_interval_seconds=1.0, clock=clock)
        for _ in range(4):
            monitor.check()
        # Two failures then a success: the streak resets, never unhealthy.
        assert not monitor.is_unhealthy
        assert monitor.unhealthy_since is None
        for _ in range(3):
            monitor.check()
        assert monitor.is_unhealthy
        assert monitor.unhealthy_since is not None

    def test_poll_respects_interval_and_backoff(self, clock):
        calls = []
        monitor = HealthMonitor(lambda: calls.append(1) and False,
                                failure_threshold=2,
                                probe_interval_seconds=2.0,
                                backoff_factor=2.0, clock=clock)
        assert monitor.poll() is not None  # first poll probes
        assert monitor.poll() is None      # interval not elapsed
        clock.advance(seconds=2)
        assert monitor.poll() is None      # backed off to 4s after a failure
        clock.advance(seconds=2)
        assert monitor.poll() is not None
        assert len(calls) == 2

    def test_probe_exception_counts_as_failure(self, clock):
        def bad_probe():
            raise OSError("connection refused")

        monitor = HealthMonitor(bad_probe, failure_threshold=1, clock=clock)
        assert monitor.check() is False
        assert monitor.is_unhealthy
        assert "OSError" in monitor.status()["last_error"]
        monitor.reset()
        assert not monitor.is_unhealthy


# ===================================================== coordinated service
class TestCoordinatedService:
    def build(self, clock, store, **overrides):
        options = dict(store=store, ttl_seconds=10.0,
                       fence_revalidate_seconds=0)
        options.update(overrides)
        return GeleeService(clock=clock,
                            coordination=CoordinationConfig(**options))

    def test_single_node_is_leader_on_start(self, clock):
        store = MemoryLeaseStore(clock=clock)
        service = self.build(clock, store)
        status = service.coordination_status()
        assert status["enabled"] is True
        assert status["role"] == "leader"
        assert status["token"] == 1
        assert service.node_status()["coordination"]["role"] == "leader"
        assert service.monitoring_summary()["coordination"]["is_leader"] is True
        service.close()

    def test_uncoordinated_service_reports_disabled(self):
        service = GeleeService()
        assert service.coordination_status() == {"enabled": False,
                                                 "role": "primary"}
        with pytest.raises(CoordinationError):
            service.coordination_resign()
        assert "coordination" not in service.monitoring_summary()
        service.close()

    def test_read_only_cannot_campaign(self, clock):
        store = MemoryLeaseStore(clock=clock)
        with pytest.raises(Exception):
            GeleeService(clock=clock, read_only=True,
                         coordination=CoordinationConfig(store=store))

    def test_config_requires_shared_store(self):
        with pytest.raises(CoordinationError):
            CoordinationConfig()

    def test_directory_config_builds_sqlite_store(self, clock, root):
        service = GeleeService(
            clock=clock,
            coordination=CoordinationConfig(directory=root, ttl_seconds=10.0))
        assert os.path.exists(os.path.join(root, "leases.sqlite3"))
        assert service.coordination_status()["store"]["type"] == "sqlite"
        service.close()

    def test_resign_over_the_api_and_reelection(self, clock):
        store = MemoryLeaseStore(clock=clock)
        service = self.build(clock, store)
        client = GeleeClient.in_process(router=RestRouter(service=service))
        status = client.coordination_status()
        assert status["role"] == "leader"
        report = client.coordination_resign()
        assert report["resigned"] is True
        # Resigned → demoted: reads fine, writes 409, scheduler dormant.
        assert_writability(service, False)
        with pytest.raises(GeleeApiError) as excinfo:
            client.coordination_resign()
        assert excinfo.value.code == "NOT_LEADER"
        # Nobody else campaigns, so the next heartbeat re-elects this node
        # at a fresh epoch and flips it writable again.
        assert service.coordination.heartbeat() is True
        assert service.coordination.token == 2
        assert_writability(service, True)
        service.close()

    def test_split_brain_write_rejected_by_fencing_token(self, clock, root):
        """The acceptance criterion: a paused primary that lost its lease
        gets a typed stale-token rejection on its very next write."""
        store = MemoryLeaseStore(clock=clock)
        config = PersistenceConfig(os.path.join(root, "a"), fsync="never")
        a = GeleeService(clock=clock, persistence=config,
                         coordination=CoordinationConfig(
                             store=store, ttl_seconds=10.0,
                             fence_revalidate_seconds=0))
        model = lease_model()
        a.manager.publish_model(model, actor="alice")
        ids = seed_instances(a, model, 4)
        journal_head_before = a.persistence.journal.last_seq

        # a stalls (GC pause, partition): no heartbeats while its TTL runs
        # out, and node b wins the next epoch.
        clock.advance(seconds=11)
        b = GeleeService(clock=clock,
                         coordination=CoordinationConfig(
                             store=store, node_id="node-b",
                             ttl_seconds=10.0, fence_revalidate_seconds=0))
        assert b.coordination.is_leader and b.coordination.token == 2

        # a wakes up and writes, still believing it leads.
        with pytest.raises(StaleFencingTokenError) as excinfo:
            a.manager.advance(ids[0], actor="alice", to_phase_id="review")
        assert excinfo.value.token == 1
        # Nothing stale reached the journal.
        assert a.persistence.journal.last_seq == journal_head_before
        # The journal's own fence holds even if the runtime guard were
        # bypassed.
        with pytest.raises(StaleFencingTokenError):
            a.persistence.journal.append("test.event", clock.now(), "s1")

        # Before a even notices its deposition, the wire surface already
        # maps the rejection to a machine-readable 409.
        client = GeleeClient.in_process(router=RestRouter(service=a),
                                        actor="alice")
        with pytest.raises(GeleeApiError) as excinfo:
            client.advance(ids[1], to_phase_id="review")
        assert excinfo.value.code == "STALE_FENCING_TOKEN"
        assert excinfo.value.status == 409
        assert excinfo.value.details["token"] == 1
        assert excinfo.value.details["latest_token"] == 2

        # a's next heartbeat records the deposition and demotes it.
        assert a.coordination.heartbeat() is False
        assert_writability(a, False, hint="node-b")
        status = a.coordination_status()
        assert status["role"] == "standby"
        assert status["demoted"] is True
        assert status["depositions"] == 1
        b.close()
        a.close()

    def test_journal_fence_trip_demotes_on_next_heartbeat(self, clock, root):
        """A fence rejection surfacing inside the persistence layer only
        flags; the (lock-heavy) demotion happens on the heartbeat."""
        store = MemoryLeaseStore(clock=clock)
        config = PersistenceConfig(os.path.join(root, "a"), fsync="never")
        a = GeleeService(clock=clock, persistence=config,
                         coordination=CoordinationConfig(
                             store=store, ttl_seconds=10.0,
                             fence_revalidate_seconds=0))
        clock.advance(seconds=11)
        store.acquire("gelee-primary", "node-b", ttl_seconds=10.0)
        # The bus-side journaling path swallows the fence rejection (the
        # publisher may hold the kernel lock) but reports it.
        from repro.events import Event
        a.bus.publish(Event(kind="test.event", timestamp=clock.now(),
                            subject_id="s1"))
        assert a.persistence.fenced_appends == 1
        assert a.read_only is False  # not yet: demotion is deferred
        a.coordination.heartbeat()
        assert a.read_only is True
        assert a.coordination_status()["fenced_appends"] == 1
        a.close()


# ======================================================== automatic failover
class TestAutomaticFailover:
    def test_kill_primary_auto_promotes_without_manual_call(self, clock, root):
        """The tentpole scenario: primary dies mid-traffic, the supervisor
        detects it, wins the lease, and promotes — zero journaled-record
        loss, and the deposed primary's late write is fenced."""
        store = MemoryLeaseStore(clock=clock)
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        primary = GeleeService(clock=clock, persistence=config,
                               coordination=CoordinationConfig(
                                   store=store, node_id="primary-node",
                                   ttl_seconds=10.0,
                                   fence_revalidate_seconds=0))
        model = lease_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 20)
        primary.persistence.checkpoint()

        replica = ReadReplica(JournalShippingSource(config), clock=clock,
                              replica_id="standby-node")
        replica.sync()

        alive = {"up": True}
        monitor = HealthMonitor(lambda: alive["up"], failure_threshold=2,
                                probe_interval_seconds=1.0, clock=clock)
        supervisor = FailoverSupervisor(replica, monitor, store=store,
                                        ttl_seconds=10.0, clock=clock,
                                        fence_revalidate_seconds=0)
        assert supervisor.poll()["state"] == "watching"

        # Traffic after the standby's last sync: journaled, never streamed.
        for instance_id in ids[:8]:
            primary.manager.advance(instance_id, actor="alice",
                                    to_phase_id="review")
        journal_head = primary.persistence.journal.last_seq
        expected_phases = {
            instance_id: primary.manager.instance(instance_id).current_phase_id
            for instance_id in ids
        }

        # Kill: the primary stops heartbeating and probing fails.  (Not a
        # clean close — close() would resign and skip the TTL wait.)
        alive["up"] = False

        # The supervisor crosses its failure threshold...
        reports = []
        for _ in range(3):
            clock.advance(seconds=1)
            reports.append(supervisor.poll())
        assert monitor.is_unhealthy
        # ...but the dead primary's lease has not expired yet: the store
        # arbitrates, nobody usurps a lease that might still renew.
        assert reports[-1]["state"] == "waiting_for_lease"
        assert not replica.is_promoted

        clock.advance(seconds=11)  # the primary's TTL runs out
        report = supervisor.poll()
        assert report["state"] == "failover"
        assert report["token"] == 2
        assert report["detection_to_promotion_seconds"] is not None
        assert report["detection_to_promotion_seconds"] >= 0.0

        # Zero journaled-record loss, automatically.
        assert report["promotion"]["promoted"] is True
        assert report["promotion"]["journal_seq"] == journal_head
        promoted = replica.service
        assert promoted.manager.instance_count() == 20
        for instance_id, phase_id in expected_phases.items():
            assert promoted.manager.instance(instance_id).current_phase_id \
                == phase_id

        # The promoted node serves writes and coordination status.
        promoted.manager.advance(ids[10], actor="alice", to_phase_id="review")
        status = promoted.coordination_status()
        assert status["role"] == "leader"
        assert status["supervisor"] is True
        assert status["failovers"] == 1

        # One post-fencing write from the deposed primary: rejected.
        with pytest.raises(StaleFencingTokenError):
            primary.manager.advance(ids[15], actor="alice",
                                    to_phase_id="review")
        assert primary.persistence.journal.last_seq == journal_head

        # Steady state: further polls just keep the lease warm.
        clock.advance(seconds=1)
        assert supervisor.poll()["state"] == "promoted"
        promoted.close()

    def test_supervisor_resign_flips_promoted_node_read_only(self, clock,
                                                             root):
        store = MemoryLeaseStore(clock=clock)
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        primary = GeleeService(clock=clock, persistence=config)
        model = lease_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 2)

        replica = ReadReplica(JournalShippingSource(config), clock=clock)
        monitor = HealthMonitor(lambda: False, failure_threshold=1,
                                probe_interval_seconds=1.0, clock=clock)
        supervisor = FailoverSupervisor(replica, monitor, store=store,
                                        ttl_seconds=10.0, clock=clock)
        with pytest.raises(NotLeaderError):
            supervisor.resign()
        report = supervisor.poll()
        assert report["state"] == "failover"
        promoted = replica.service
        assert_writability(promoted, True)
        supervisor.resign()
        assert_writability(promoted, False)
        assert supervisor.poll()["state"] == "resigned"

    def test_supervisor_daemon_start_stop_idempotent(self, clock, root):
        store = MemoryLeaseStore(clock=clock)
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        GeleeService(clock=clock, persistence=config).close()
        replica = ReadReplica(JournalShippingSource(config), clock=clock)
        monitor = HealthMonitor(lambda: True, failure_threshold=2,
                                probe_interval_seconds=1.0, clock=clock)
        supervisor = FailoverSupervisor(replica, monitor, store=store,
                                        clock=clock)
        supervisor.start(poll_seconds=0.05)
        assert supervisor.start(poll_seconds=0.05) is supervisor  # no-op
        assert supervisor.is_running
        supervisor.stop()
        supervisor.stop()  # idempotent
        assert not supervisor.is_running


# =============================================== election-aware scheduler
class TestSchedulerDaemonElection:
    def test_single_ticker_cluster_wide(self, clock):
        """Two nodes run the same daemon; only the lease holder ticks."""
        store = MemoryLeaseStore(clock=clock)
        a = GeleeService(clock=clock,
                         coordination=CoordinationConfig(
                             store=store, node_id="node-a", ttl_seconds=10.0))
        b = GeleeService(clock=clock,
                         coordination=CoordinationConfig(
                             store=store, node_id="node-b", ttl_seconds=10.0))
        daemon_a = SchedulerDaemon(a.scheduler, poll_seconds=1.0,
                                   elector=a.coordination)
        daemon_b = SchedulerDaemon(b.scheduler, poll_seconds=1.0,
                                   elector=b.coordination)
        assert daemon_a.run_once() is True
        assert daemon_b.run_once() is False
        assert daemon_a.stats()["ticks"] == 1
        assert daemon_b.stats()["ticks"] == 0
        assert daemon_b.stats()["skipped_not_leader"] == 1

        # Leadership moves → so does the ticker, on the next round.
        clock.advance(seconds=11)
        assert daemon_b.run_once() is True
        assert daemon_a.run_once() is False
        assert daemon_b.stats()["ticks"] == 1
        assert daemon_a.stats()["skipped_not_leader"] == 1
        b.close()
        a.close()

    def test_daemon_without_elector_always_ticks(self, clock):
        service = GeleeService(clock=clock)
        daemon = SchedulerDaemon(service.scheduler, poll_seconds=1.0)
        assert daemon.run_once() is True
        assert daemon.stats()["election_aware"] is False
        service.close()

    def test_stop_is_idempotent_and_prompt(self, clock):
        import time as time_module

        service = GeleeService(clock=clock)
        # A long poll period: a prompt stop must interrupt the sleep, not
        # wait it out.
        daemon = SchedulerDaemon(service.scheduler, poll_seconds=30.0)
        daemon.start()
        assert daemon.is_running
        started = time_module.monotonic()
        daemon.stop()
        assert time_module.monotonic() - started < 5.0
        assert not daemon.is_running
        daemon.stop()  # second stop: no error, no hang
        service.close()

    def test_stop_from_the_daemon_thread_does_not_self_join(self, clock):
        service = GeleeService(clock=clock)
        daemon = SchedulerDaemon(service.scheduler, poll_seconds=0.01)
        stopped_from_inside = threading.Event()
        original_tick = service.scheduler.tick

        def tick_then_stop(*args, **kwargs):
            result = original_tick(*args, **kwargs)
            daemon.stop()  # must not deadlock on joining itself
            stopped_from_inside.set()
            return result

        service.scheduler.tick = tick_then_stop
        daemon.start()
        assert stopped_from_inside.wait(timeout=5.0)
        # The loop exits because the stop event is set.
        deadline = 50
        while daemon.is_running and deadline:
            time_sleep(0.01)
            deadline -= 1
        assert not daemon.is_running
        service.close()

    def test_tick_errors_are_counted_not_fatal(self, clock):
        service = GeleeService(clock=clock)
        service.scheduler.tick = lambda *a, **k: (_ for _ in ()).throw(
            RuntimeError("boom"))
        daemon = SchedulerDaemon(service.scheduler, poll_seconds=1.0)
        assert daemon.run_once() is False
        assert daemon.stats()["tick_errors"] == 1
        service.close()


def time_sleep(seconds):
    import time as time_module

    time_module.sleep(seconds)


# ======================================================= HTTP replication
class TestHttpReplicationSource:
    def build_primary(self, root, clock):
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        service = GeleeService(clock=clock,
                               persistence=config)
        ReplicationPrimary(service)
        return service

    def test_replica_streams_over_http(self, root, clock):
        primary = self.build_primary(root, clock)
        model = lease_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 6)
        primary.persistence.checkpoint()
        with GeleeHttpServer(RestRouter(service=primary)) as server:
            source = HttpReplicationSource(server.host, server.port,
                                           follower_id="remote-replica")
            replica = ReadReplica(source, clock=clock)
            report = replica.sync()
            assert report["applied_seq"] == primary.persistence.journal.last_seq
            assert replica.service.manager.instance_count() == 6
            # The primary's follower table attributes the remote cursor.
            followers = primary.replication.status()["followers"]
            assert "remote-replica" in followers

            # Incremental: new primary traffic reaches the replica on the
            # next sync, through the same wire.
            primary.manager.advance(ids[0], actor="alice",
                                    to_phase_id="review")
            replica.sync()
            assert replica.service.manager.instance(
                ids[0]).current_phase_id == "review"
            assert source.describe()["type"] == "http"
        primary.close()

    def test_long_poll_wait_caches_the_batch(self, root, clock):
        primary = self.build_primary(root, clock)
        model = lease_model()
        primary.manager.publish_model(model, actor="alice")
        client = GeleeClient.in_process(router=RestRouter(service=primary))
        source = HttpReplicationSource(client=client)
        head = source.head_seq()
        seed_instances(primary, model, 1)
        new_head = source.wait_for(head + 1, timeout=1.0)
        assert new_head > head
        requests_after_wait = source.describe()["requests"]
        batch = source.read_batch(head)
        assert batch.count > 0
        # Served from the long-poll's cache: no extra round trip.
        assert source.describe()["requests"] == requests_after_wait
        assert source.describe()["cache_hits"] == 1
        primary.close()

    def test_truncated_cursor_maps_to_typed_error(self, root, clock):
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never", segment_max_records=4)
        primary = GeleeService(clock=clock,
                               persistence=config)
        ReplicationPrimary(primary)
        model = lease_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 8)
        # The checkpoint truncates the sealed, snapshot-covered segments, so
        # a cursor parked near the beginning is now provably stale.
        report = primary.persistence.checkpoint()
        assert report["segments_truncated"] > 0
        client = GeleeClient.in_process(router=RestRouter(service=primary))
        source = HttpReplicationSource(client=client)
        with pytest.raises(JournalTruncatedError) as excinfo:
            source.read_batch(1)
        assert excinfo.value.oldest_available > 1
        primary.close()

    def test_unreachable_primary_is_storage_error(self):
        source = HttpReplicationSource("127.0.0.1", 9, timeout=0.5)
        with pytest.raises(StorageError):
            source.head_seq()
        with pytest.raises(StorageError):
            source.bootstrap()

    def test_bootstrap_route_requires_a_primary(self, clock):
        service = GeleeService(clock=clock)
        client = GeleeClient.in_process(router=RestRouter(service=service))
        with pytest.raises(GeleeApiError) as excinfo:
            client.replication_bootstrap()
        assert excinfo.value.code == "REPLICATION_INVALID"
        service.close()
