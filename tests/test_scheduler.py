"""Tests for :mod:`repro.scheduler`: timers, deadline enforcement, retries,
maintenance jobs, the v2 API surface, and timer durability.

The durability centrepiece mirrors ``tests/test_persistence.py``: a durable
deployment arms deadline and retry timers, is killed, and a fresh process
rebuilds the pending timers and the retry backoff state from snapshot +
journal — then the restored timers actually fire.
"""

from datetime import timedelta

import pytest

from repro.actions import ActionImplementation, ActionType, library
from repro.clock import SimulatedClock
from repro.errors import (
    ActionInvocationError,
    RuntimeStateError,
    SchedulerError,
)
from repro.events import EventBus, EventRecorder
from repro.client import GeleeApiError, GeleeClient
from repro.model import Deadline, LifecycleBuilder
from repro.persistence import PersistenceConfig
from repro.storage import ExecutionLog
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager
from repro.scheduler import (
    LifecycleScheduler,
    SchedulerConfig,
    TimerService,
    deadline_timer_id,
    retry_timer_id,
)
from repro.service import GeleeService
from repro.service.rest import RestRouter

FLAKY_URI = "urn:test:flaky"


def deadline_model(days=2.0, escalation="notify", name="Deadline lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Work", deadline_days=None)
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    if escalation == "advance":
        builder.timeout_flow("Work", "Review", days=days)
    else:
        builder.deadline("Work", days=days, escalation=escalation)
    return builder.build()


def build_runtime(config=None, bus=None):
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    bus = bus or EventBus()
    manager = LifecycleManager(environment, clock=clock, bus=bus)
    scheduler = LifecycleScheduler(manager, bus=bus, config=config)
    return clock, environment, bus, manager, scheduler


def start_instance(environment, manager, model, name="doc", owner="alice"):
    adapter = environment.adapter("Google Doc")
    resource = adapter.create_resource(name, owner=owner)
    instance = manager.instantiate(model.uri, resource, owner=owner)
    manager.start(instance.instance_id, actor=owner)
    return instance


def register_flaky_action(environment, failures=2):
    """An action that fails ``failures`` times, then succeeds."""
    state = {"calls": 0}

    def flaky(context):
        state["calls"] += 1
        if state["calls"] <= failures:
            raise ActionInvocationError("flaky failure #{}".format(state["calls"]))
        return {"ok": True, "calls": state["calls"]}

    environment.registry.register_type(ActionType(uri=FLAKY_URI, name="Flaky"))
    environment.registry.register_implementation(
        ActionImplementation(FLAKY_URI, "Google Doc", flaky))
    return state


# ================================================================ TimerService
class TestTimerService:
    def _service(self):
        clock = SimulatedClock()
        return clock, TimerService(clock=clock)

    def test_schedule_requires_a_due_time(self):
        _, timers = self._service()
        with pytest.raises(SchedulerError):
            timers.schedule("t1")
        with pytest.raises(SchedulerError):
            timers.schedule("")
        with pytest.raises(SchedulerError):
            timers.schedule("t1", delay_seconds=10, fire_at=SimulatedClock().now())

    def test_fires_in_due_order_with_inclusive_boundary(self):
        clock, timers = self._service()
        timers.schedule("late", delay_seconds=120, kind="k")
        timers.schedule("early", delay_seconds=60, kind="k")
        assert timers.pending_count == 2
        assert [t.timer_id for t in timers.pending()] == ["early", "late"]
        clock.advance(seconds=60)
        # Due exactly now: the boundary instant fires.
        fired = timers.fire_due()
        assert [f.timer.timer_id for f in fired] == ["early"]
        assert fired[0].drift_seconds == 0.0
        clock.advance(seconds=60)
        assert [f.timer.timer_id for f in timers.fire_due()] == ["late"]
        assert timers.pending_count == 0

    def test_named_timers_are_idempotent_and_cancellable(self):
        clock, timers = self._service()
        timers.schedule("t", delay_seconds=60)
        timers.schedule("t", delay_seconds=600)  # replaces, does not duplicate
        assert timers.pending_count == 1
        clock.advance(seconds=120)
        assert timers.fire_due() == []  # the 60s schedule no longer exists
        assert timers.cancel("t") is True
        assert timers.cancel("t") is False
        clock.advance(seconds=600)
        assert timers.fire_due() == []

    def test_recurring_timer_reschedules_and_catches_up(self):
        clock, timers = self._service()
        fired = []
        timers.on("m", lambda timer, now: fired.append(now))
        timers.schedule("job", kind="m", interval_seconds=60)
        clock.advance(seconds=60)
        timers.fire_due()
        clock.advance(seconds=60)
        timers.fire_due()
        assert len(fired) == 2
        # Sleeping through many periods yields ONE catch-up run, and the
        # next occurrence lands a full interval in the future.
        clock.advance(seconds=600)
        assert len(timers.fire_due()) == 1
        pending = timers.get("job")
        assert pending.fire_at == clock.now() + timedelta(seconds=60)
        assert pending.attempts == 3

    def test_drift_is_measured(self):
        clock, timers = self._service()
        timers.schedule("t", delay_seconds=10)
        clock.advance(seconds=25)
        firing = timers.fire_due()[0]
        assert firing.drift_seconds == pytest.approx(15.0)
        assert timers.stats()["max_drift_seconds"] == pytest.approx(15.0)

    def test_handler_failures_are_isolated(self):
        clock, timers = self._service()

        def boom(timer, now):
            raise RuntimeError("handler exploded")

        timers.on("bad", boom)
        timers.schedule("a", delay_seconds=1, kind="bad")
        timers.schedule("b", delay_seconds=1, kind="good")
        clock.advance(seconds=2)
        firings = timers.fire_due()
        assert len(firings) == 2
        assert firings[0].handled is False and "exploded" in firings[0].error
        assert timers.stats()["handler_failures"] == 1

    def test_dump_restore_round_trip(self):
        clock, timers = self._service()
        timers.schedule("a", delay_seconds=60, kind="deadline", subject_id="i1",
                        payload={"phase_id": "work"})
        timers.schedule("b", interval_seconds=300, kind="maintenance", subject_id="job")
        state = timers.dump_state()
        rebuilt = TimerService(clock=clock)
        assert rebuilt.restore_state(state) == 2
        assert {t.timer_id for t in rebuilt.pending()} == {"a", "b"}
        restored = rebuilt.get("a")
        assert restored.fire_at == timers.get("a").fire_at
        assert restored.payload == {"phase_id": "work"}
        assert rebuilt.get("b").is_recurring

    def test_cancel_then_reschedule_does_not_fire_at_the_old_time(self):
        """A stale heap entry must never match a later timer of the same
        name (the generation counter is monotonic, not reset-on-remove)."""
        clock, timers = self._service()
        timers.schedule("t", delay_seconds=10)
        timers.cancel("t")
        timers.schedule("t", delay_seconds=1000)
        clock.advance(seconds=20)  # past the OLD fire time only
        assert timers.fire_due() == []
        assert timers.get("t") is not None  # still pending for +1000s
        clock.advance(seconds=1000)
        assert [f.timer.timer_id for f in timers.fire_due()] == ["t"]

    def test_fire_then_reschedule_does_not_reuse_generations(self):
        clock, timers = self._service()
        timers.schedule("t", delay_seconds=5)
        clock.advance(seconds=5)
        assert len(timers.fire_due()) == 1
        timers.schedule("t", delay_seconds=1000)
        clock.advance(seconds=5)
        assert timers.fire_due() == []  # no ghost from the fired entry
        assert timers.pending_count == 1

    def test_non_utc_offsets_are_normalised_for_ordering(self):
        from datetime import datetime, timezone as tz

        clock, timers = self._service()
        # a is due 07:00Z (expressed at +05:00), b at 08:00Z.
        timers.schedule("a", fire_at=datetime(2026, 1, 1, 12, 0,
                                              tzinfo=tz(timedelta(hours=5))))
        timers.schedule("b", fire_at=datetime(2026, 1, 1, 8, 0, tzinfo=tz.utc))
        assert [t.timer_id for t in timers.pending()] == ["a", "b"]
        assert timers.get("a").fire_at.utcoffset() == timedelta(0)
        assert timers.get("a").to_dict()["fire_at"].endswith("+00:00")

    def test_naive_fire_at_is_coerced_to_utc(self):
        """One naive datetime must not poison heap comparisons forever."""
        from datetime import datetime

        clock, timers = self._service()
        timers.schedule("naive", fire_at=datetime(2030, 1, 1))  # no tzinfo
        assert timers.get("naive").fire_at.tzinfo is not None
        # The queue still works: aware timers schedule, list and fire.
        timers.schedule("aware", delay_seconds=10)
        assert [t.timer_id for t in timers.pending()] == ["aware", "naive"]
        clock.advance(seconds=10)
        assert [f.timer.timer_id for f in timers.fire_due()] == ["aware"]

    def test_handler_armed_due_timers_wait_for_the_next_tick(self):
        """A handler re-arming an already-due timer must not hang the tick."""
        clock, timers = self._service()
        ticks = []

        def rearm(timer, now):
            ticks.append(timer.attempts)
            timers.schedule(timer.timer_id, fire_at=now, kind="loop")

        timers.on("loop", rearm)
        timers.schedule("cycle", delay_seconds=0, kind="loop")
        fired = timers.fire_due()  # would never return without the pop budget
        assert len(fired) == 1
        assert timers.pending_count == 1  # re-armed for the NEXT tick
        assert len(timers.fire_due()) == 1

    def test_events_are_published_on_the_bus(self):
        clock = SimulatedClock()
        bus = EventBus()
        recorder = EventRecorder(bus, pattern="timer.")
        timers = TimerService(clock=clock, bus=bus)
        timers.schedule("t", delay_seconds=30)
        timers.cancel("t")
        timers.schedule("t", delay_seconds=30)
        clock.advance(seconds=30)
        timers.fire_due()
        assert recorder.kinds() == ["timer.scheduled", "timer.cancelled",
                                    "timer.scheduled", "timer.fired"]


# ======================================================== deadline enforcement
class TestDeadlineEnforcement:
    def test_deadline_timer_armed_on_start_and_moved_on_advance(self):
        clock, env, bus, manager, scheduler = build_runtime()
        model = deadline_model(days=2.0)
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        timer = scheduler.timers.get(deadline_timer_id(instance.instance_id))
        assert timer is not None and timer.kind == "deadline"
        assert timer.fire_at == clock.now() + timedelta(days=2)
        # Leaving the deadline phase disarms (Review has no deadline).
        manager.advance(instance.instance_id, "alice", to_phase_id="review")
        assert scheduler.timers.get(deadline_timer_id(instance.instance_id)) is None

    def test_notify_escalation_fires_at_the_boundary_instant(self):
        clock, env, bus, manager, scheduler = build_runtime()
        recorder = EventRecorder(bus, pattern="deadline.escalated")
        model = deadline_model(days=2.0)
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        clock.advance(days=2)  # exactly the due instant
        fired = scheduler.tick()
        assert len(fired) == 1 and fired[0].handled
        assert len(recorder.events) == 1
        event = recorder.events[0]
        assert event.subject_id == instance.instance_id
        assert event.payload["policy"] == "notify"
        assert event.payload["overdue_seconds"] == 0.0
        # The escalation is annotated durably and happens once per visit.
        assert [a.kind for a in instance.annotations] == ["escalation"]
        assert instance.current_phase_id == "work"  # notify does not move
        clock.advance(days=5)
        assert scheduler.tick() == []

    def test_advance_escalation_follows_the_timeout_transition(self):
        clock, env, bus, manager, scheduler = build_runtime()
        model = deadline_model(days=1.0, escalation="advance")
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        clock.advance(days=1, hours=3)
        assert len(scheduler.tick()) == 1
        assert instance.current_phase_id == "review"
        # The timeout transition is modelled, so the move is not a deviation.
        assert instance.visits[-1].followed_model is True
        assert instance.deviations() == []
        assert scheduler.status()["escalations"] == 1

    def test_invoke_escalation_dispatches_the_bound_call(self):
        clock, env, bus, manager, scheduler = build_runtime()
        builder = LifecycleBuilder("Invoke lifecycle")
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Work", "End")
        builder.action("Work", library.NOTIFY_REVIEWERS, "Notify",
                       reviewers=["bob"])
        model = builder.peek()
        call_id = model.phase("work").actions[0].call_id
        builder.deadline("Work", days=1, escalation="invoke",
                         escalate_call_id=call_id)
        model = builder.build()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        before = len(instance.current_visit().invocations)
        clock.advance(days=1)
        assert len(scheduler.tick()) == 1
        invocations = instance.current_visit().invocations
        assert len(invocations) == before + 1
        assert invocations[-1].status.value == "completed"
        assert instance.current_phase_id == "work"  # invoke does not move

    def test_stale_timer_is_a_no_op(self):
        """A timer armed for a phase the token already left does nothing."""
        clock, env, bus, manager, scheduler = build_runtime()
        model = deadline_model(days=2.0)
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        # Simulate staleness: re-install the armed timer behind the
        # scheduler's back, then move the token away.
        timer = scheduler.timers.get(deadline_timer_id(instance.instance_id))
        manager.advance(instance.instance_id, "alice", to_phase_id="review")
        scheduler.timers.install_timer(timer)
        clock.advance(days=3)
        fired = scheduler.tick()
        assert len(fired) == 1 and fired[0].handled
        assert instance.annotations == []  # no escalation happened
        assert scheduler.status()["escalations"] == 0

    def test_absolute_due_in_the_past_fires_on_first_tick(self):
        clock, env, bus, manager, scheduler = build_runtime()
        builder = LifecycleBuilder("Past-due lifecycle")
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Work", "End")
        model = builder.peek()
        model.phase("work").deadline = Deadline(due=clock.now() - timedelta(days=1))
        model = builder.build()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        # Armed in the past: fires on the very next tick, without any
        # clock advance at all.
        fired = scheduler.tick()
        assert len(fired) == 1
        assert [a.kind for a in instance.annotations] == ["escalation"]

    def test_days_zero_deadline_fires_immediately(self):
        clock, env, bus, manager, scheduler = build_runtime()
        builder = LifecycleBuilder("Zero-day lifecycle")
        builder.phase("Triage", deadline_days=0)
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Triage", "Work", "End")
        model = builder.build()
        assert model.phase("triage").deadline is not None  # 0 is not "no deadline"
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        fired = scheduler.tick()
        assert len(fired) == 1
        assert [a.kind for a in instance.annotations] == ["escalation"]

    def test_zero_delay_timeout_cycle_terminates_each_tick(self):
        """Two phases timing out into each other with days=0 must advance
        one step per tick, not hang the scheduler."""
        clock, env, bus, manager, scheduler = build_runtime()
        builder = LifecycleBuilder("Ping-pong lifecycle")
        builder.phase("A")
        builder.phase("B")
        builder.terminal("End")
        builder.flow("A", "B", "End")
        builder.timeout_flow("A", "B", days=0)
        builder.timeout_flow("B", "A", days=0)
        model = builder.build()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        assert len(scheduler.tick()) == 1  # A -> B, then the tick ENDS
        assert instance.current_phase_id == "b"
        assert len(scheduler.tick()) == 1  # B -> A
        assert instance.current_phase_id == "a"

    def test_failed_escalation_rearms_the_deadline_timer(self):
        """A transient escalation failure must not abandon the deadline."""
        clock, env, bus, manager, scheduler = build_runtime(
            config=SchedulerConfig(retry_initial_delay_seconds=600))
        builder = LifecycleBuilder("Broken-invoke lifecycle")
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Work", "End")
        builder.action("Work", FLAKY_URI, "Unimplemented call")
        model = builder.peek()
        call_id = model.phase("work").actions[0].call_id
        builder.deadline("Work", days=1, escalation="invoke",
                         escalate_call_id=call_id)
        # FLAKY_URI is never registered: resolution fails at escalation time.
        model = builder.build()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        clock.advance(days=1)
        fired = scheduler.tick()
        assert len(fired) == 1 and fired[0].handled is False
        assert scheduler.status()["escalation_failures"] == 1
        assert scheduler.status()["escalations"] == 0
        assert instance.annotations == []  # not marked escalated
        rearmed = scheduler.timers.get(deadline_timer_id(instance.instance_id))
        assert rearmed is not None
        assert rearmed.fire_at == clock.now() + timedelta(seconds=600)

    def test_completion_disarms_the_deadline_timer(self):
        clock, env, bus, manager, scheduler = build_runtime()
        model = deadline_model(days=2.0)
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        manager.advance(instance.instance_id, "alice", to_phase_id="review")
        manager.advance(instance.instance_id, "alice", to_phase_id="end")
        assert scheduler.timers.pending(kind="deadline") == []

    def test_sharded_runtime_with_batching_bus(self):
        """One tick escalates every due deadline (the id predates the one
        kernel and the one synchronous bus)."""
        clock = SimulatedClock()
        env = build_standard_environment(clock=clock)
        bus = EventBus()
        manager = LifecycleManager(env, clock=clock, bus=bus)
        scheduler = LifecycleScheduler(manager, bus=bus)
        model = deadline_model(days=1.0, escalation="advance")
        manager.publish_model(model, actor="x")
        instances = [start_instance(env, manager, model, name="doc {}".format(i))
                     for i in range(12)]
        clock.advance(days=1)
        fired = scheduler.tick()
        assert len(fired) == 12
        for instance in instances:
            assert manager.instance(instance.instance_id).current_phase_id == "review"


# ===================================================================== retries
class TestRetryWithBackoff:
    def _config(self, **overrides):
        defaults = dict(retry_initial_delay_seconds=60.0,
                        retry_backoff_factor=2.0, retry_max_attempts=3)
        defaults.update(overrides)
        return SchedulerConfig(**defaults)

    def _flaky_model(self):
        builder = LifecycleBuilder("Flaky lifecycle")
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Work", "End")
        builder.action("Work", FLAKY_URI, "Flaky call")
        return builder.build()

    def test_failed_action_retries_with_backoff_until_success(self):
        clock, env, bus, manager, scheduler = build_runtime(config=self._config())
        state = register_flaky_action(env, failures=2)
        model = self._flaky_model()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        assert state["calls"] == 1  # entry dispatch failed
        call_id = model.phase("work").actions[0].call_id
        timer = scheduler.timers.get(retry_timer_id(instance.instance_id, call_id))
        assert timer is not None
        assert timer.fire_at == clock.now() + timedelta(seconds=60)
        assert timer.payload["attempt"] == 1

        clock.advance(seconds=60)
        scheduler.tick()  # retry #1 fails again
        assert state["calls"] == 2
        timer = scheduler.timers.get(retry_timer_id(instance.instance_id, call_id))
        assert timer.payload["attempt"] == 2
        assert timer.fire_at == clock.now() + timedelta(seconds=120)  # backoff

        clock.advance(seconds=120)
        scheduler.tick()  # retry #2 succeeds
        assert state["calls"] == 3
        assert scheduler.timers.get(
            retry_timer_id(instance.instance_id, call_id)) is None
        assert scheduler.status()["retry_states"] == 0
        assert scheduler.status()["retries_dispatched"] == 2
        statuses = [inv.status.value for inv in instance.current_visit().invocations]
        assert statuses == ["failed", "failed", "completed"]

    def test_retries_exhaust_after_max_attempts(self):
        clock, env, bus, manager, scheduler = build_runtime(
            config=self._config(retry_max_attempts=2))
        recorder = EventRecorder(bus, pattern="action.retries_exhausted")
        register_flaky_action(env, failures=100)
        model = self._flaky_model()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        for _ in range(3):
            clock.advance(days=1)
            scheduler.tick()
        assert scheduler.timers.pending(kind="retry") == []
        assert scheduler.status()["retries_exhausted"] == 1
        assert len(recorder.events) == 1
        assert recorder.events[0].subject_id == instance.instance_id

    def test_leaving_the_phase_abandons_the_retry(self):
        clock, env, bus, manager, scheduler = build_runtime(config=self._config())
        state = register_flaky_action(env, failures=100)
        model = self._flaky_model()
        manager.publish_model(model, actor="x")
        instance = start_instance(env, manager, model)
        manager.advance(instance.instance_id, "alice", to_phase_id="end")
        clock.advance(days=1)
        scheduler.tick()
        assert state["calls"] == 1  # never re-invoked
        assert scheduler.status()["retry_states"] == 0

    def test_zero_delay_retry_still_spans_ticks(self):
        """retry_initial_delay_seconds=0 must not burn every attempt
        back-to-back inside one tick: handler-armed timers are fenced."""
        clock, env, bus, manager, scheduler = build_runtime(
            config=self._config(retry_initial_delay_seconds=0.0,
                                retry_max_attempts=3))
        state = register_flaky_action(env, failures=100)
        model = self._flaky_model()
        manager.publish_model(model, actor="x")
        start_instance(env, manager, model)
        assert state["calls"] == 1
        assert len(scheduler.tick()) == 1  # ONE retry per tick, then it ends
        assert state["calls"] == 2
        assert len(scheduler.tick()) == 1
        assert state["calls"] == 3

    def test_invoke_action_validates_its_inputs(self):
        clock, env, bus, manager, scheduler = build_runtime()
        model = deadline_model()
        manager.publish_model(model, actor="x")
        adapter = env.adapter("Google Doc")
        resource = adapter.create_resource("doc", owner="alice")
        instance = manager.instantiate(model.uri, resource, owner="alice")
        with pytest.raises(RuntimeStateError):
            manager.invoke_action(instance.instance_id, "alice", "nope")  # not started
        manager.start(instance.instance_id, actor="alice")
        with pytest.raises(RuntimeStateError):
            manager.invoke_action(instance.instance_id, "alice", "unknown-call")

    def test_invoke_action_is_gated_like_a_token_move(self):
        """A view-only stakeholder must not dispatch side-effectful actions."""
        from repro.accesscontrol import AccessPolicy, UserDirectory
        from repro.errors import PermissionDeniedError

        clock = SimulatedClock()
        env = build_standard_environment(clock=clock)
        directory = UserDirectory()
        directory.register_many("alice", "bob")
        policy = AccessPolicy(directory)
        policy.grant_manager("alice")
        policy.grant_stakeholder("bob")  # view only
        manager = LifecycleManager(env, clock=clock, access_policy=policy)
        model = self._flaky_model()
        register_flaky_action(env, failures=0)
        manager.publish_model(model, actor="alice")
        instance = start_instance(env, manager, model)
        call_id = model.phase("work").actions[0].call_id
        with pytest.raises(PermissionDeniedError):
            manager.invoke_action(instance.instance_id, "bob", call_id)
        manager.invoke_action(instance.instance_id, "alice", call_id)


# ================================================================= maintenance
class TestMaintenanceJobs:
    def test_recurring_job_runs_on_schedule(self):
        clock, env, bus, manager, scheduler = build_runtime()
        runs = []
        scheduler.register_job("heartbeat", lambda: runs.append(clock.now()) or
                               {"beat": len(runs)}, interval_seconds=300)
        for _ in range(3):
            clock.advance(seconds=300)
            scheduler.tick()
        assert len(runs) == 3
        status = scheduler.status()["maintenance"]["heartbeat"]
        assert status["runs"] == 3
        assert status["last_result"] == {"beat": 3}

    def test_job_registration_validates_interval(self):
        clock, env, bus, manager, scheduler = build_runtime()
        with pytest.raises(SchedulerError):
            scheduler.register_job("bad", lambda: None, interval_seconds=0)

    def test_periodic_checkpoints_run_unattended(self, tmp_path):
        """The ROADMAP's 'periodic/automatic checkpoint scheduling' item."""
        clock = SimulatedClock()
        service = GeleeService(
            clock=clock, persistence=PersistenceConfig(str(tmp_path), backend="sqlite"),
            scheduler=SchedulerConfig(checkpoint_interval_seconds=3600,
                                      journal_rotate_interval_seconds=3600))
        model = deadline_model()
        service.manager.publish_model(model, actor="x")
        instance = start_instance(service.environment, service.manager, model)
        clock.advance(hours=1)
        service.scheduler_tick()
        status = service.scheduler_status()
        assert status["maintenance"]["checkpoint"]["runs"] == 1
        report = status["maintenance"]["checkpoint"]["last_result"]
        assert report["instances_flushed"] >= 1
        assert service.persistence.status()["snapshots"] == 1
        # The journal-rotate job sealed the open segment too.
        assert status["maintenance"]["journal-rotate"]["runs"] == 1
        service.close()
        # The checkpointed instance survives a restart.
        revived = GeleeService(
            clock=SimulatedClock(clock.now()),
            persistence=PersistenceConfig(str(tmp_path), backend="sqlite"))
        assert revived.instance_detail(instance.instance_id)[
            "current_phase_id"] == "work"
        revived.close()

    def test_log_compaction_job(self):
        clock, env, bus, manager, scheduler = build_runtime()
        service_log = ExecutionLog(bus=bus)
        scheduler.register_job(
            "log-compact", lambda: {"dropped": service_log.compact(10)},
            interval_seconds=60)
        model = deadline_model()
        manager.publish_model(model, actor="x")
        for index in range(8):
            start_instance(env, manager, model, name="doc {}".format(index))
        assert len(service_log) > 10
        clock.advance(seconds=60)
        scheduler.tick()
        assert len(service_log) <= 10
        assert scheduler.status()["maintenance"]["log-compact"][
            "last_result"]["dropped"] > 0


# ================================================================= API surface
class TestSchedulerApi:
    @pytest.fixture
    def client(self):
        clock = SimulatedClock()
        service = GeleeService(clock=clock)
        router = RestRouter(service)
        client = GeleeClient.in_process(router=router, actor="alice")
        client._clock = clock
        client._service = service
        return client

    def test_timer_crud_over_the_api(self, client):
        created = client.schedule_timer("reminder:1", delay_seconds=3600,
                                        subject_id="inst-1",
                                        payload={"note": "ping alice"})
        assert created["timer_id"] == "reminder:1"
        assert created["kind"] == "user"
        page = client.list_timers()
        assert [t["timer_id"] for t in page] == ["reminder:1"]
        assert client.cancel_timer("reminder:1")["cancelled"] is True
        with pytest.raises(GeleeApiError) as excinfo:
            client.cancel_timer("reminder:1")
        assert excinfo.value.code == "TIMER_NOT_FOUND"
        assert excinfo.value.status == 404

    def test_schedule_timer_validates_input(self, client):
        with pytest.raises(GeleeApiError) as excinfo:
            client.schedule_timer("t", fire_at="not-a-date")
        assert excinfo.value.code == "SCHEDULER_REQUEST_INVALID"
        with pytest.raises(GeleeApiError):
            client.schedule_timer("t")  # neither fire_at nor delay

    def test_timers_are_paginated(self, client):
        for index in range(25):
            client.schedule_timer("t:{:02d}".format(index),
                                  delay_seconds=60 + index)
        page = client.list_timers(page_size=10)
        assert len(page.items) == 10
        assert page.next_page_token is not None
        collected = list(client.iter_timers(page_size=10))
        assert len(collected) == 25
        # Soonest first by default.
        assert collected[0]["timer_id"] == "t:00"

    def test_reserved_timer_namespaces_are_rejected(self, client):
        """Clients must not replace internal deadline/retry/maintenance
        timers — the id is the idempotency key."""
        for timer_id in ("deadline:inst-1", "retry:inst-1:c1",
                         "maintenance:checkpoint"):
            with pytest.raises(GeleeApiError) as excinfo:
                client.schedule_timer(timer_id, delay_seconds=60)
            assert excinfo.value.code == "SCHEDULER_REQUEST_INVALID"

    def test_non_dict_payload_is_a_400(self, client):
        with pytest.raises(GeleeApiError) as excinfo:
            client.schedule_timer("t", delay_seconds=60, payload="oops")
        assert excinfo.value.code == "SCHEDULER_REQUEST_INVALID"
        assert excinfo.value.status == 400

    def test_reserved_timer_kinds_are_rejected(self, client):
        """The deadline/retry/maintenance handlers run privileged
        operations; clients must not route timers into them."""
        for kind in ("deadline", "retry", "maintenance"):
            with pytest.raises(GeleeApiError) as excinfo:
                client.schedule_timer("mine", delay_seconds=60, kind=kind)
            assert excinfo.value.code == "SCHEDULER_REQUEST_INVALID"

    def test_internal_timers_cannot_be_cancelled_over_the_api(self, client):
        model = deadline_model(days=2.0)
        client._service.manager.publish_model(model, actor="alice")
        instance = start_instance(client._service.environment,
                                  client._service.manager, model)
        timer_id = deadline_timer_id(instance.instance_id)
        with pytest.raises(GeleeApiError) as excinfo:
            client.cancel_timer(timer_id)
        assert excinfo.value.code == "SCHEDULER_REQUEST_INVALID"
        assert client._service.scheduler.timers.get(timer_id) is not None

    def test_system_actor_cannot_be_impersonated_over_the_transport(self):
        """Where the scheduler actor holds an elevated grant (policy-enabled
        deployment), the wire must refuse requests declaring it; without a
        policy the name is not special and stays usable."""
        from repro.accesscontrol import AccessPolicy, UserDirectory

        directory = UserDirectory()
        directory.register_many("alice")
        policy = AccessPolicy(directory)
        policy.grant_manager("alice")
        service = GeleeService(clock=SimulatedClock(), policy=policy)
        client = GeleeClient.in_process(router=RestRouter(service), actor="alice")
        with pytest.raises(GeleeApiError) as excinfo:
            client.call("GET", "/v2/instances", actor="scheduler")
        assert excinfo.value.code == "PERMISSION_DENIED"
        assert excinfo.value.status == 403
        # No policy => no grant => the actor name is an ordinary one.
        plain = GeleeClient.in_process(
            router=RestRouter(GeleeService(clock=SimulatedClock())),
            actor="scheduler")
        assert plain.list_instances().items == []

    def test_scheduler_status_and_tick_over_the_api(self, client):
        client.schedule_timer("due", delay_seconds=0)
        status = client.scheduler_status()
        assert status["enabled"] is True
        assert status["timers"]["pending"] == 1
        result = client.scheduler_tick()
        assert result["fired"] == 1
        assert result["firings"][0]["timer"]["timer_id"] == "due"
        assert client.scheduler_status()["timers"]["pending"] == 0

    def test_overdue_instances_escalate_via_the_api_without_polling(self, client):
        model = deadline_model(days=1.0, escalation="advance")
        client._service.manager.publish_model(model, actor="alice")
        adapter = client._service.environment.adapter("Google Doc")
        ids = []
        for index in range(6):
            resource = adapter.create_resource("doc {}".format(index), owner="alice")
            created = client.create_instance(model.uri, resource.to_dict(),
                                             owner="alice")
            client.start(created["instance_id"])
            ids.append(created["instance_id"])
        rollup = client.monitoring_deadlines()
        assert rollup["with_deadline"] == 6
        assert rollup["overdue"] == 0
        assert rollup["pending_deadline_timers"] == 6
        client._clock.advance(days=2)
        assert client.monitoring_deadlines()["overdue"] == 6
        result = client.scheduler_tick()
        assert result["fired"] == 6
        for instance_id in ids:
            assert client.instance(instance_id)["current_phase_id"] == "review"
        rollup = client.monitoring_deadlines()
        assert rollup["overdue"] == 0
        assert rollup["escalated"] == 6
        assert rollup["escalations_fired"] == 6
        summary = client.monitoring_summary()
        assert summary["escalated"] == 6
        assert client.scheduler_status()["enabled"] is True

    def test_scheduler_escalates_under_a_closed_world_policy(self):
        """The scheduler actor is a system principal: a closed-world
        AccessPolicy must not turn every escalation into a retry loop."""
        from repro.accesscontrol import AccessPolicy, UserDirectory

        clock = SimulatedClock()
        directory = UserDirectory()
        directory.register_many("alice")
        policy = AccessPolicy(directory)  # closed world
        policy.grant_manager("alice")
        service = GeleeService(clock=clock, policy=policy)
        model = deadline_model(days=1.0, escalation="advance")
        service.manager.publish_model(model, actor="alice")
        instance = start_instance(service.environment, service.manager, model)
        clock.advance(days=1)
        result = service.scheduler_tick()
        assert result["fired"] == 1 and result["firings"][0]["handled"] is True
        status = service.scheduler_status()
        assert status["escalations"] == 1
        assert status["escalation_failures"] == 0
        assert service.manager.instance(
            instance.instance_id).current_phase_id == "review"

    def test_disabled_scheduler(self):
        service = GeleeService(clock=SimulatedClock(),
                               scheduler=SchedulerConfig(enabled=False))
        model = deadline_model()
        service.manager.publish_model(model, actor="x")
        start_instance(service.environment, service.manager, model)
        assert service.scheduler.timers.pending_count == 0  # nothing armed
        assert service.scheduler_tick()["fired"] == 0
        assert service.scheduler_status()["enabled"] is False


# ================================================================== durability
class TestTimerDurability:
    def _populate(self, service, clock, instance_count=12):
        model = deadline_model(days=2.0, escalation="advance")
        service.manager.publish_model(model, actor="coordinator")
        adapter = service.environment.adapter("Google Doc")
        ids = []
        for index in range(instance_count):
            resource = adapter.create_resource("doc {}".format(index), owner="alice")
            created = service.create_instance(model.uri, resource.to_dict(),
                                              owner="alice", actor="alice")
            service.start_instance(created["instance_id"], actor="alice")
            ids.append(created["instance_id"])
        return model, ids

    def test_pending_timers_survive_kill_and_restart(self, tmp_path):
        config = PersistenceConfig(str(tmp_path))
        clock = SimulatedClock()
        service = GeleeService(clock=clock, persistence=config)
        model, ids = self._populate(service, clock)
        # A checkpoint covers half the story; later instances live only in
        # the journal tail, so recovery must merge manifest + replay.
        service.persistence_checkpoint()
        adapter = service.environment.adapter("Google Doc")
        late = service.create_instance(
            model.uri, adapter.create_resource("late doc", owner="alice").to_dict(),
            owner="alice", actor="alice")
        service.start_instance(late["instance_id"], actor="alice")
        ids.append(late["instance_id"])
        pre_crash = {t.timer_id: t.fire_at
                     for t in service.scheduler.timers.pending(kind="deadline")}
        assert len(pre_crash) == len(ids)
        service.close()
        del service  # the crash

        revived = GeleeService(clock=SimulatedClock(clock.now()), persistence=config)
        assert revived.recovery_report.timers_restored + \
            revived.recovery_report.timer_records_replayed > 0
        restored = {t.timer_id: t.fire_at
                    for t in revived.scheduler.timers.pending(kind="deadline")}
        assert restored == pre_crash
        # ...and the restored timers actually drive escalation.
        revived.scheduler.clock.advance(days=3)
        result = revived.scheduler_tick()
        assert result["fired"] == len(ids)
        for instance_id in ids:
            assert revived.instance_detail(instance_id)["current_phase_id"] == "review"
        revived.close()

    def test_retry_state_survives_restart(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), backend="sqlite")
        clock = SimulatedClock()
        scheduler_config = SchedulerConfig(retry_initial_delay_seconds=60,
                                           retry_backoff_factor=2.0,
                                           retry_max_attempts=5)
        service = GeleeService(clock=clock, persistence=config,
                               scheduler=scheduler_config)
        state = register_flaky_action(service.environment, failures=2)
        builder = LifecycleBuilder("Flaky durable lifecycle")
        builder.phase("Work")
        builder.terminal("End")
        builder.flow("Work", "End")
        builder.action("Work", FLAKY_URI, "Flaky call")
        model = builder.build()
        service.manager.publish_model(model, actor="x")
        instance = start_instance(service.environment, service.manager, model)
        call_id = model.phase("work").actions[0].call_id
        # First retry fails too: attempt counter now 2, next delay 120s.
        clock.advance(seconds=60)
        service.scheduler_tick()
        pre = service.scheduler.timers.get(
            retry_timer_id(instance.instance_id, call_id))
        assert pre.payload["attempt"] == 2
        service.close()

        revived = GeleeService(clock=SimulatedClock(clock.now()),
                               persistence=config, scheduler=scheduler_config)
        # The flaky implementation is part of the *environment*, not durable
        # state — re-register it as a deployment would on boot.
        revived_state = register_flaky_action(revived.environment, failures=0)
        timer = revived.scheduler.timers.get(
            retry_timer_id(instance.instance_id, call_id))
        assert timer is not None
        assert timer.fire_at == pre.fire_at
        assert timer.payload["attempt"] == 2
        assert revived.scheduler_status()["retry_states"] == 1
        revived.scheduler.clock.advance(seconds=120)
        revived.scheduler_tick()
        assert revived_state["calls"] == 1  # the restored timer re-invoked
        assert revived.scheduler_status()["retry_states"] == 0
        invocations = revived.instance_detail(instance.instance_id)["visits"][-1][
            "invocations"]
        assert invocations[-1]["status"] == "completed"
        revived.close()

    def test_cancelled_timers_stay_cancelled_after_restart(self, tmp_path):
        config = PersistenceConfig(str(tmp_path))
        clock = SimulatedClock()
        service = GeleeService(clock=clock, persistence=config)
        service.schedule_timer("keep", delay_seconds=3600)
        service.schedule_timer("drop", delay_seconds=3600)
        service.cancel_timer("drop")
        service.close()
        revived = GeleeService(clock=SimulatedClock(clock.now()),
                               persistence=config)
        pending = {t.timer_id for t in revived.scheduler.timers.pending()}
        assert pending == {"keep"}
        revived.close()

    def test_orphaned_maintenance_timers_are_pruned_on_restart(self, tmp_path):
        """Restarting without a job's config must not leave its recovered
        timer firing into the void forever."""
        config = PersistenceConfig(str(tmp_path))
        clock = SimulatedClock()
        service = GeleeService(clock=clock, persistence=config,
                               scheduler=SchedulerConfig(
                                   checkpoint_interval_seconds=3600))
        assert service.scheduler.timers.get("maintenance:checkpoint") is not None
        service.close()
        revived = GeleeService(clock=SimulatedClock(clock.now()),
                               persistence=config)  # checkpoint job NOT configured
        assert revived.scheduler.timers.get("maintenance:checkpoint") is None
        revived.scheduler.clock.advance(hours=2)
        assert revived.scheduler_tick()["fired"] == 0
        revived.close()

    def test_changed_maintenance_interval_wins_over_restored_timer(self, tmp_path):
        config = PersistenceConfig(str(tmp_path))
        clock = SimulatedClock()
        service = GeleeService(clock=clock, persistence=config,
                               scheduler=SchedulerConfig(
                                   checkpoint_interval_seconds=3600))
        service.close()
        revived = GeleeService(clock=SimulatedClock(clock.now()),
                               persistence=config,
                               scheduler=SchedulerConfig(
                                   checkpoint_interval_seconds=60))
        timer = revived.scheduler.timers.get("maintenance:checkpoint")
        assert timer.interval_seconds == 60  # config is the source of truth
        revived.close()

    def test_maintenance_schedule_survives_restart_without_reset(self, tmp_path):
        config = PersistenceConfig(str(tmp_path))
        clock = SimulatedClock()
        scheduler_config = SchedulerConfig(checkpoint_interval_seconds=3600)
        service = GeleeService(clock=clock, persistence=config,
                               scheduler=scheduler_config)
        pre = service.scheduler.timers.get("maintenance:checkpoint")
        clock.advance(minutes=45)  # partway through the period
        service.close()
        revived = GeleeService(clock=SimulatedClock(clock.now()),
                               persistence=config, scheduler=scheduler_config)
        timer = revived.scheduler.timers.get("maintenance:checkpoint")
        # register_job kept the recovered schedule: still due 15 minutes
        # from "now", not a full hour.
        assert timer.fire_at == pre.fire_at
        revived.scheduler.clock.advance(minutes=15)
        revived.scheduler_tick()
        assert revived.scheduler_status()["maintenance"]["checkpoint"]["runs"] == 1
        revived.close()
