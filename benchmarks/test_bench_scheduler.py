"""E15 — temporal automation: timer fire throughput and drift under load.

The acceptance scenario of the scheduler subsystem: a 10k-instance
deployment where every active phase carries a deadline, escalated entirely
by the scheduler — no cockpit polling.  Four measurements:

* **arming throughput** — creating + starting 10k instances on the
  runtime while the scheduler arms one deadline timer per instance off the
  event stream (the overhead the subsystem adds to the hot path);
* **fire throughput** — all 10k deadlines expire, one tick escalates every
  instance along its timeout transition (timer pop + policy + token move);
* **drift under load** — 10k staggered timers fired by coarse periodic
  ticks: mean/max lateness relative to each timer's due instant, i.e. what
  tick granularity costs;
* **pure timer-service rate** — schedule/fire cycles of the bare
  ``TimerService`` heap without any lifecycle work attached.

Results are printed and appended to ``BENCH_scheduler.json``.  Size via
``BENCH_SCHEDULER_INSTANCES`` (default 10000) so CI can smoke-run a tiny
configuration.
"""

import os
import time

from repro.clock import SimulatedClock
from repro.events import EventBus
from repro.model import LifecycleBuilder
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager
from repro.scheduler import LifecycleScheduler, TimerService
from repro.storage import ExecutionLog

from .conftest import report

INSTANCES = int(os.environ.get("BENCH_SCHEDULER_INSTANCES", "10000"))
DEADLINE_DAYS = 2.0


def _deadline_model():
    builder = LifecycleBuilder("Scheduler bench lifecycle")
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.timeout_flow("Work", "Review", days=DEADLINE_DAYS)
    return builder.build()


def _build_runtime():
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    bus = EventBus()
    log = ExecutionLog(bus=bus, max_entries=200_000)
    manager = LifecycleManager(environment, clock=clock, bus=bus)
    scheduler = LifecycleScheduler(manager, bus=bus)
    return clock, environment, bus, log, manager, scheduler


def test_scheduler_throughput_and_drift():
    clock, environment, bus, log, manager, scheduler = _build_runtime()
    model = _deadline_model()
    manager.publish_model(model, actor="coordinator")
    adapter = environment.adapter("Google Doc")

    # --- arming: 10k instances started, one deadline timer armed each ------
    requests = [
        {"model_uri": model.uri,
         "resource": adapter.create_resource("doc {}".format(index), owner="alice"),
         "owner": "alice"}
        for index in range(INSTANCES)
    ]
    started = time.perf_counter()
    ids = [instance.instance_id for instance in manager.batch_instantiate(requests)]
    manager.map_instances(ids, lambda kernel, iid: kernel.start(iid, actor="alice"))
    arm_elapsed = time.perf_counter() - started
    armed = scheduler.timers.pending_count
    assert armed == INSTANCES

    # --- fire: every deadline expires, one tick escalates everything -------
    clock.advance(days=DEADLINE_DAYS, hours=1)
    started = time.perf_counter()
    firings = scheduler.tick()
    fire_elapsed = time.perf_counter() - started
    assert len(firings) == INSTANCES
    assert all(firing.handled for firing in firings)
    escalated = sum(1 for iid in ids
                    if manager.instance(iid).current_phase_id == "review")
    assert escalated == INSTANCES
    assert scheduler.status()["escalations"] == INSTANCES

    # --- drift: staggered timers fired by coarse periodic ticks ------------
    drift_timers = TimerService(clock=clock)
    for index in range(INSTANCES):
        drift_timers.schedule("drift:{}".format(index),
                              delay_seconds=float(index % 3600))
    tick_period = 60.0
    fired_total = 0
    started = time.perf_counter()
    for _ in range(int(3600 / tick_period) + 1):
        clock.advance(seconds=tick_period)
        fired_total += len(drift_timers.fire_due())
    drift_elapsed = time.perf_counter() - started
    assert fired_total == INSTANCES
    drift_stats = drift_timers.stats()

    # --- pure timer-service schedule/fire rate ------------------------------
    raw_timers = TimerService(clock=clock)
    count = INSTANCES
    started = time.perf_counter()
    for index in range(count):
        raw_timers.schedule("raw:{}".format(index), delay_seconds=1.0)
    clock.advance(seconds=2)
    raw_fired = len(raw_timers.fire_due())
    raw_elapsed = time.perf_counter() - started
    assert raw_fired == count

    arm_rate = INSTANCES / arm_elapsed
    fire_rate = INSTANCES / fire_elapsed
    raw_rate = (2 * count) / raw_elapsed
    report(
        "E15 — scheduler: {} instances".format(INSTANCES),
        [
            "arming (create+start+timer): {:.2f}s  ({:,.0f} inst/s)".format(
                arm_elapsed, arm_rate),
            "escalation tick (fire+advance): {:.2f}s  ({:,.0f} timers/s)".format(
                fire_elapsed, fire_rate),
            "drift @60s ticks: mean {:.1f}s, max {:.1f}s (sim-time lateness)".format(
                drift_stats["mean_drift_seconds"], drift_stats["max_drift_seconds"]),
            "bare TimerService schedule+fire: {:,.0f} ops/s".format(raw_rate),
        ],
        slug="scheduler",
        data={
            "instances": INSTANCES,
            "arm_seconds": round(arm_elapsed, 3),
            "arm_rate_per_s": round(arm_rate, 1),
            "fire_seconds": round(fire_elapsed, 3),
            "fire_rate_per_s": round(fire_rate, 1),
            "escalated": escalated,
            "tick_period_seconds": tick_period,
            "mean_drift_seconds": drift_stats["mean_drift_seconds"],
            "max_drift_seconds": drift_stats["max_drift_seconds"],
            "raw_timer_ops_per_s": round(raw_rate, 1),
        },
    )
