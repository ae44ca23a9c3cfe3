"""Clock-driven operations: deadline escalation, retries and maintenance.

The monitoring cockpit *reports* delays; the scheduler *acts* on them.
This example builds a small deliverable portfolio whose review phase must
finish within a week, simulates three weeks of project time on a
:class:`~repro.clock.SimulatedClock`, and lets the temporal automation
subsystem do everything the project coordinator used to do by polling:

* overdue reviews are escalated automatically — half the models escalate by
  *notification* (event + durable annotation), the other half *auto-advance*
  along a modelled timeout transition;
* a flaky notification action is retried with exponential backoff until it
  succeeds, without any human re-triggering it;
* a recurring maintenance job compacts the execution log on a schedule.

Everything is driven through ``service.scheduler_tick()`` — the same entry
point ``POST /v2/runtime/scheduler:tick`` exposes over the wire, and what a
:class:`~repro.scheduler.SchedulerDaemon` calls in a wall-clock deployment.

Run with::

    python examples/scheduled_operations.py
"""

from repro.actions import ActionImplementation, ActionType
from repro.clock import SimulatedClock
from repro.errors import ActionInvocationError
from repro.model import LifecycleBuilder
from repro.scheduler import SchedulerConfig
from repro.service import GeleeService

FLAKY_NOTIFY = "urn:example:flaky-notify"


def build_models():
    """Two lifecycles: one notifies on timeout, one auto-advances."""
    notify = LifecycleBuilder("Reviewed deliverable (notify on delay)")
    notify.phase("Draft")
    notify.phase("Review")
    notify.terminal("Done")
    notify.flow("Draft", "Review", "Done")
    notify.deadline("Review", days=7, escalation="notify",
                    description="review within a week")
    notify.action("Review", FLAKY_NOTIFY, "Notify the consortium")

    auto = LifecycleBuilder("Reviewed deliverable (auto-timeout)")
    auto.phase("Draft")
    auto.phase("Review")
    auto.phase("Escalated review")
    auto.terminal("Done")
    auto.flow("Draft", "Review", "Done")
    auto.transition("Escalated review", "Done")
    auto.timeout_flow("Review", "Escalated review", days=7,
                      description="stalled reviews go to the board")
    return notify.build(), auto.build()


def register_flaky_notify(service, fail_times=2):
    state = {"calls": 0}

    def flaky(context):
        state["calls"] += 1
        if state["calls"] <= fail_times:
            raise ActionInvocationError("notification gateway timeout")
        return {"notified": True, "attempt": state["calls"]}

    service.environment.registry.register_type(
        ActionType(uri=FLAKY_NOTIFY, name="Flaky notify"))
    service.environment.registry.register_implementation(
        ActionImplementation(FLAKY_NOTIFY, "Google Doc", flaky))
    return state


def main() -> None:
    clock = SimulatedClock()
    service = GeleeService(
        clock=clock,
        scheduler=SchedulerConfig(
            retry_initial_delay_seconds=3600,      # first retry after an hour
            retry_backoff_factor=2.0,
            retry_max_attempts=5,
            log_compact_interval_seconds=7 * 86400,
            log_compact_max_entries=500,
        ))
    flaky_state = register_flaky_notify(service)

    notify_model, auto_model = build_models()
    service.manager.publish_model(notify_model, actor="coordinator")
    service.manager.publish_model(auto_model, actor="coordinator")

    adapter = service.environment.adapter("Google Doc")
    instance_ids = []
    for index in range(10):
        model = notify_model if index % 2 == 0 else auto_model
        doc = adapter.create_resource("D2.{} design note".format(index + 1),
                                      owner="alice")
        created = service.create_instance(model.uri, doc.to_dict(), owner="alice")
        service.start_instance(created["instance_id"], actor="alice")
        service.advance_instance(created["instance_id"], actor="alice",
                                 to_phase_id="review")
        instance_ids.append(created["instance_id"])

    print("Portfolio: {} deliverables in review, {} deadline timers armed".format(
        len(instance_ids),
        len(service.scheduler.timers.pending(kind="deadline"))))
    retry_timers = len(service.scheduler.timers.pending(kind="retry"))
    print("Flaky notification: {} invocation(s), {} failed; "
          "retry timers armed: {}".format(flaky_state["calls"], retry_timers,
                                          retry_timers))

    # --- three simulated weeks, ticked daily -------------------------------
    for day in range(1, 22):
        clock.advance(days=1)
        fired = service.scheduler_tick()
        if fired["fired"]:
            print("day {:>2}: {} timer(s) fired".format(day, fired["fired"]))

    status = service.scheduler_status()
    rollup = service.monitoring_deadlines()
    print()
    print("Escalations fired: {} ({} instances annotated)".format(
        status["escalations"], rollup["escalated"]))
    auto_escalated = service.manager.instances(model_uri=auto_model.uri,
                                               phase_id="escalated-review")
    print("Auto-advanced along the timeout transition: {}".format(
        len(auto_escalated)))
    print("Flaky notification: {} total attempts, retries dispatched: {}, "
          "pending retries: {}".format(
              flaky_state["calls"], status["retries_dispatched"],
              status["retry_states"]))
    print("Maintenance: log compaction ran {} time(s), log size now {}".format(
        status["maintenance"]["log-compact"]["runs"],
        len(service.execution_log)))
    print()
    print("The coordinator polled nothing; the clock did the chasing.")


if __name__ == "__main__":
    main()
