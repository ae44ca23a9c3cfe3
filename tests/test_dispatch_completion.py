"""Tests for completion-based action dispatch (docs/DISPATCH.md).

The submit/complete protocol's core promises, each proven here:

* the kernel lock is **not** held while an action round-trip is in
  flight — other work on the same kernel proceeds concurrently;
* the sync progression API still waits for outcomes (thin wrapper over
  submit + wait), so callers see pre-refactor semantics;
* quiesce / read-only flips drain pending completions, so checkpoints and
  replica barriers capture applied outcomes;
* a node killed with actions in flight recovers them as deterministic
  FAILED invocations (and a promoted replica does the same);
* the journal pushes appends to waiting followers instead of being polled.
"""

import threading
import time

import pytest

from repro.actions import (
    ActionImplementation,
    ActionStatus,
    InlineCompletionExecutor,
    PooledCompletionExecutor,
)
from repro.actions import library
from repro.clock import SimulatedClock
from repro.events import EventBus, EventRecorder
from repro.model import LifecycleBuilder
from repro.persistence import PersistenceConfig, PersistenceCoordinator, recover_into
from repro.persistence.recovery import INTERRUPTED_ERROR, fail_interrupted_invocations
from repro.plugins import build_standard_environment
from repro.replication import ReadReplica, ReplicationPrimary, StreamFollower
from repro.runtime import LifecycleManager, TaskHandle, WorkerPool
from repro.service import GeleeService
from repro.service.v2.dto import AdvanceItem
from repro.storage import ExecutionLog


def one_action_model(name="Dispatch lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Work")
    builder.terminal("End")
    builder.flow("Work", "End")
    builder.action("Work", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


class BlockingAction:
    """An action implementation that parks until the test releases it."""

    def __init__(self):
        self.started = threading.Event()
        self.gate = threading.Event()
        self.calls = 0

    def __call__(self, context):
        self.calls += 1
        self.started.set()
        if not self.gate.wait(timeout=10.0):
            raise TimeoutError("test never released the action gate")
        return {"ok": True}

    def install(self, environment, resource_type="Google Doc"):
        environment.registry.register_implementation(
            ActionImplementation(library.CHANGE_ACCESS_RIGHTS, resource_type,
                                 self),
            replace=True)
        return self


def build_pooled_runtime(completion_workers=4, bus=None):
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    manager = LifecycleManager(
        environment, clock=clock, bus=bus, completion_workers=completion_workers)
    return environment, manager


# ================================================================ worker pool
class TestWorkerPool:
    def test_submit_returns_a_handle_with_the_result(self):
        pool = WorkerPool(2, name="test")
        try:
            handle = pool.submit(lambda value: value * 2, 21)
            assert isinstance(handle, TaskHandle)
            assert handle.get(timeout=5.0) == 42
            assert handle.done
        finally:
            pool.close()

    def test_exceptions_surface_on_get_not_in_the_worker(self):
        pool = WorkerPool(1, name="test")
        try:
            def boom():
                raise ValueError("no")

            handle = pool.submit(boom)
            with pytest.raises(ValueError):
                handle.get(timeout=5.0)
            # The worker survived the exception and keeps serving.
            assert pool.submit(lambda: "alive").get(timeout=5.0) == "alive"
        finally:
            pool.close()

    def test_fixed_size_pool_reuses_threads_across_submissions(self):
        pool = WorkerPool(2, name="test")
        try:
            names = set()
            handles = [pool.submit(lambda: names.add(
                threading.current_thread().name) or True) for _ in range(20)]
            for handle in handles:
                assert handle.get(timeout=5.0)
            assert len(names) <= 2
            stats = pool.stats()
            assert stats["workers"] == 2
            assert stats["submitted"] == 20
            assert stats["completed"] == 20
        finally:
            pool.close()

    def test_close_is_idempotent_and_rejects_new_work(self):
        pool = WorkerPool(1, name="test")
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)


# ======================================================= invocation timestamps
class TestInvocationTimestamps:
    def test_submitted_and_started_are_separate_and_round_trip(self, manager,
                                                               eu_model,
                                                               google_doc):
        instance = manager.instantiate(eu_model.uri, google_doc, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        manager.advance(instance.instance_id, actor="alice")  # internal review
        invocation = next(inv for inv in instance.all_invocations()
                          if inv.status is ActionStatus.COMPLETED)
        assert invocation.submitted_at is not None
        assert invocation.started_at is not None
        assert invocation.finished_at is not None
        assert invocation.submitted_at <= invocation.started_at
        document = invocation.to_dict()
        assert document["submitted_at"] == invocation.submitted_at.isoformat()
        from repro.actions import ActionInvocation

        restored = ActionInvocation.from_dict(document)
        assert restored.submitted_at == invocation.submitted_at
        assert restored.started_at == invocation.started_at
        assert restored.finished_at == invocation.finished_at
        assert restored.wait_seconds == invocation.wait_seconds
        assert restored.execution_seconds == invocation.execution_seconds


# ================================================== locks vs in-flight actions
class TestLockNotHeldDuringDispatch:
    def test_shard_serves_other_work_while_an_action_is_in_flight(self):
        """The tentpole invariant: *every* operation needs the one kernel
        lock, so if dispatch still held it through the round-trip, the
        concurrent annotate below would deadlock."""
        environment, manager = build_pooled_runtime()
        action = BlockingAction().install(environment)
        model = one_action_model()
        manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        blocked = manager.instantiate(
            model.uri, adapter.create_resource("blocked", owner="alice"),
            owner="alice")
        other = manager.instantiate(
            model.uri, adapter.create_resource("other", owner="alice"),
            owner="alice")
        try:
            manager.start_async(blocked.instance_id, actor="alice")
            assert action.started.wait(timeout=5.0)
            assert manager.in_flight_count() >= 1
            invocation = blocked.all_invocations()[0]
            assert invocation.status is ActionStatus.RUNNING

            # The kernel must answer while the action sleeps.
            done = threading.Event()

            def annotate():
                manager.annotate(other.instance_id, "alice", "still serving")
                done.set()

            worker = threading.Thread(target=annotate, daemon=True)
            worker.start()
            assert done.wait(timeout=5.0), \
                "kernel lock is held through the action round-trip"
        finally:
            action.gate.set()
        assert manager.drain_in_flight(timeout=5.0)
        assert invocation.status is ActionStatus.COMPLETED
        assert invocation.result == {"ok": True}
        manager.close()

    def test_events_fire_dispatched_then_terminal_with_the_in_flight_window(self):
        bus = EventBus()
        recorder = EventRecorder(bus)
        environment, manager = build_pooled_runtime(bus=bus)
        model = one_action_model()
        manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        instance = manager.instantiate(
            model.uri, adapter.create_resource("doc", owner="alice"),
            owner="alice")
        manager.start(instance.instance_id, actor="alice")
        kinds = [event.kind for event in recorder.events]
        assert kinds.index("action.dispatched") < kinds.index("action.completed")
        manager.close()

    def test_sync_wrappers_wait_for_submitted_outcomes(self):
        environment, manager = build_pooled_runtime()
        model = one_action_model()
        manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        instance = manager.instantiate(
            model.uri, adapter.create_resource("doc", owner="alice"),
            owner="alice")
        manager.start(instance.instance_id, actor="alice")
        # The sync wrapper returned: every invocation it submitted is
        # terminal, even though the round-trip ran on the pool.
        assert all(inv.status.is_terminal for inv in instance.all_invocations())
        assert manager.in_flight_count() == 0
        manager.close()

    def test_quiesce_and_read_only_drain_pending_completions(self):
        environment, manager = build_pooled_runtime()
        action = BlockingAction().install(environment)
        model = one_action_model()
        manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        instance = manager.instantiate(
            model.uri, adapter.create_resource("doc", owner="alice"),
            owner="alice")
        manager.start_async(instance.instance_id, actor="alice")
        assert action.started.wait(timeout=5.0)
        releaser = threading.Timer(0.05, action.gate.set)
        releaser.start()
        try:
            with manager.quiesce(drain_timeout=10.0):
                # Inside the barrier nothing is in flight any more.
                assert manager.in_flight_count() == 0
                assert instance.all_invocations()[0].status.is_terminal
        finally:
            releaser.cancel()
            action.gate.set()
        manager.close()


# ===================================================== kill-during-in-flight
class TestKillDuringInFlightRecovery:
    def test_invocations_running_at_the_crash_recover_as_failed(self, tmp_path):
        clock = SimulatedClock()
        environment = build_standard_environment(clock=clock)
        bus = EventBus()
        log = ExecutionLog(bus=bus)
        manager = LifecycleManager(
            environment, clock=clock, bus=bus,
            completion_workers=4)
        action = BlockingAction().install(environment)
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = one_action_model()
        manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        instance = manager.instantiate(
            model.uri, adapter.create_resource("doc", owner="alice"),
            owner="alice")
        manager.start_async(instance.instance_id, actor="alice")
        assert action.started.wait(timeout=5.0)
        assert instance.all_invocations()[0].status is ActionStatus.RUNNING

        # The "kill": checkpoint with a zero drain budget captures the
        # invocation mid-flight, exactly like a crash between submit and
        # complete would leave it on disk.
        manager.quiesce_drain_timeout = 0.0
        coordinator.checkpoint()
        coordinator.close()

        clock2 = SimulatedClock()
        environment2 = build_standard_environment(clock=clock2)
        bus2 = EventBus()
        log2 = ExecutionLog(bus=bus2)
        manager2 = LifecycleManager(
            environment2, clock=clock2, bus=bus2)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.invocations_interrupted == 1
        recovered = manager2.instance(instance.instance_id)
        invocation = recovered.all_invocations()[0]
        assert invocation.status is ActionStatus.FAILED
        assert invocation.error == INTERRUPTED_ERROR
        assert recovered.instance_id in report.touched_instance_ids
        # The resolution is deterministic: a second pass finds nothing.
        assert fail_interrupted_invocations(manager2) == []

        action.gate.set()
        manager.drain_in_flight(timeout=5.0)
        manager.close()

    def test_completed_invocations_are_not_touched_by_recovery(self, tmp_path):
        clock = SimulatedClock()
        environment = build_standard_environment(clock=clock)
        bus = EventBus()
        log = ExecutionLog(bus=bus)
        manager = LifecycleManager(
            environment, clock=clock, bus=bus)
        config = PersistenceConfig(str(tmp_path), fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = one_action_model()
        manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        instance = manager.instantiate(
            model.uri, adapter.create_resource("doc", owner="alice"),
            owner="alice")
        manager.start(instance.instance_id, actor="alice")
        coordinator.checkpoint()
        coordinator.close()

        environment2 = build_standard_environment(clock=SimulatedClock())
        manager2 = LifecycleManager(
            environment2, clock=environment2.clock,
            bus=EventBus())
        report = recover_into(manager2, ExecutionLog(bus=EventBus()),
                              config.open_journal(), config.open_snapshots(),
                              config.open_store())
        assert report.invocations_interrupted == 0
        recovered = manager2.instance(instance.instance_id)
        assert recovered.all_invocations()[0].status is ActionStatus.COMPLETED


# ================================================================ service tier
class TestServiceDispatch:
    def test_batch_advance_overlaps_round_trips_and_reports_outcomes(self):
        service = GeleeService(completion_workers=8, clock=SimulatedClock())
        model = one_action_model()
        service.manager.publish_model(model, actor="admin")
        adapter = service.environment.adapter("Google Doc")
        created = [service.manager.instantiate(
            model.uri, adapter.create_resource("doc {}".format(i), owner="alice"),
            owner="alice") for i in range(12)]
        result = service.batch_advance_instances(
            [AdvanceItem(instance_id=instance.instance_id)
             for instance in created], actor="alice")
        assert all(item.ok for item in result.results)
        assert service.manager.in_flight_count() == 0
        for instance in created:
            assert all(inv.status.is_terminal
                       for inv in instance.all_invocations())
        dispatch = service.node_status()["dispatch"]
        assert dispatch["mode"] == "pooled"
        assert dispatch["in_flight"] == 0
        assert dispatch["worker_pool"]["workers"] == 8
        service.close()

    def test_operations_run_on_a_persistent_pool(self):
        service = GeleeService(clock=SimulatedClock())
        operations = [service.submit_operation(
            "test.op", lambda value=value: {"value": value})
            for value in range(8)]
        for operation in operations:
            service.operations.wait(operation.operation_id, timeout=5.0)
            assert operation.result["value"] is not None
        stats = service.operations.pool_stats()
        assert stats is not None
        assert stats["workers"] == service.operations.DEFAULT_WORKERS
        assert stats["submitted"] == 8
        service.close()
        assert service.operations.pool_stats() is None

    def test_completion_executor_modes(self):
        assert InlineCompletionExecutor().mode == "inline"
        pool = WorkerPool(1, name="test")
        try:
            assert PooledCompletionExecutor(pool).mode == "pooled"
        finally:
            pool.close()


# ============================================================ journal push
class TestJournalPush:
    def test_wait_for_seq_wakes_on_append_not_on_a_poll_interval(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        primary = ReplicationPrimary(service)
        model = one_action_model()
        service.manager.publish_model(model, actor="admin")
        head = primary.head_seq()
        adapter = service.environment.adapter("Google Doc")

        def write():
            service.manager.instantiate(
                model.uri, adapter.create_resource("pushed", owner="alice"),
                owner="alice")

        writer = threading.Timer(0.05, write)
        started = time.monotonic()
        writer.start()
        try:
            reached = primary.wait_for(head + 1, timeout=5.0)
        finally:
            writer.join()
        elapsed = time.monotonic() - started
        assert reached > head
        assert elapsed < 2.0
        batch = service.replication_stream(after_seq=head)
        assert any(record["kind"] == "instance.created"
                   for record in batch["records"])
        service.close()

    def test_stream_follower_applies_writes_within_the_push_window(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        primary = ReplicationPrimary(service)
        model = one_action_model()
        service.manager.publish_model(model, actor="admin")
        replica = ReadReplica(primary, clock=SimulatedClock())
        replica.sync()
        follower = StreamFollower(replica, wait_timeout=2.0).start()
        try:
            poll_interval = 0.5  # what a timer-driven follower would use
            adapter = service.environment.adapter("Google Doc")
            started = time.monotonic()
            instance = service.manager.instantiate(
                model.uri, adapter.create_resource("pushed", owner="alice"),
                owner="alice")
            while time.monotonic() - started < poll_interval:
                if replica.manager.peek_instance(instance.instance_id) is not None:
                    break
                time.sleep(0.005)
            elapsed = time.monotonic() - started
            assert replica.manager.peek_instance(instance.instance_id) is not None, \
                "push never reached the replica within a poll interval"
            assert elapsed < poll_interval
            assert follower.stats()["records_applied"] >= 1
        finally:
            follower.stop()
            service.close()

    def test_promote_fails_invocations_the_primary_left_in_flight(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), fsync="never")
        clock = SimulatedClock()
        environment = build_standard_environment(clock=clock)
        service = GeleeService(environment=environment, clock=clock, persistence=config,
                               completion_workers=4)
        primary = ReplicationPrimary(service)
        action = BlockingAction().install(environment)
        model = one_action_model()
        service.manager.publish_model(model, actor="admin")
        adapter = environment.adapter("Google Doc")
        instance = service.manager.instantiate(
            model.uri, adapter.create_resource("doc", owner="alice"),
            owner="alice")
        service.manager.start_async(instance.instance_id, actor="alice")
        assert action.started.wait(timeout=5.0)
        # Flush the in-flight state to disk, then "lose" the primary.
        service.manager.quiesce_drain_timeout = 0.0
        service.persistence.checkpoint()

        replica = ReadReplica(primary, clock=SimulatedClock())
        replica.sync()
        report = replica.promote()
        assert report["invocations_interrupted"] == 1
        recovered = replica.manager.instance(instance.instance_id)
        invocation = recovered.all_invocations()[0]
        assert invocation.status is ActionStatus.FAILED
        assert invocation.error == INTERRUPTED_ERROR

        action.gate.set()
        service.manager.drain_in_flight(timeout=5.0)
        service.close()
