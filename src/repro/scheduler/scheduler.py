"""The lifecycle scheduler: turning the clock into a driver of the runtime.

:class:`LifecycleScheduler` binds a :class:`~repro.scheduler.timers.TimerService`
to a lifecycle manager and automates three families of
clock-driven behaviour:

1. **Deadline enforcement.**  Whenever the token enters a phase carrying a
   :class:`~repro.model.deadline.Deadline`, the scheduler arms the named
   timer ``deadline:<instance_id>``; leaving the phase (or completing) moves
   or disarms it.  When the timer fires and the instance is still sitting on
   the phase, the deadline's escalation policy runs:

   * ``"notify"`` — publish ``deadline.escalated`` and annotate the
     instance (kind ``"escalation"``), so the cockpit and the execution log
     see it without polling;
   * ``"advance"`` — additionally move the token along the model's
     designated timeout transition (``Deadline.timeout_to``);
   * ``"invoke"`` — additionally dispatch one of the phase's bound action
     calls (``Deadline.escalate_call_id``, defaulting to the first call)
     through :meth:`~repro.runtime.manager.LifecycleManager.invoke_action`.

   Escalation is once per phase visit: firing consumes the timer, and only
   a new phase entry re-arms it.

2. **Retry with backoff.**  A failed :class:`ActionInvocation` schedules
   ``retry:<instance_id>:<call_id>`` with exponential backoff
   (``initial_delay * factor**(attempt-1)``); firing re-invokes the action
   if the token is still on the phase.  A subsequent failure schedules the
   next attempt, success (or leaving the phase) clears the state, and after
   ``retry_max_attempts`` failures ``action.retries_exhausted`` is
   published.  The attempt counter travels inside the timer payload, so
   recovery rebuilds the backoff position exactly.

3. **Recurring maintenance.**  :meth:`register_job` wires a named callable
   to a recurring ``maintenance:<name>`` timer.  The service tier uses this
   for periodic persistence checkpoints, journal rotation and execution-log
   compaction — see :class:`SchedulerConfig`.

The scheduler never runs on its own thread: the host calls :meth:`tick`
(deterministically with a :class:`~repro.clock.SimulatedClock`, or from
:class:`SchedulerDaemon` / ``POST /v2/runtime/scheduler:tick`` under
wall-clock).  All timer mutations flow through the event bus, so a durable
deployment journals them and rebuilds the pending set on recovery.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Dict, List, Optional

from ..clock import Clock
from ..errors import GeleeError, SchedulerError
from ..events import Event, EventBus
from ..model.deadline import ESCALATION_POLICIES
from ..telemetry import (DEFAULT_FAST_BUCKETS, ensure_trace, get_registry,
                         span_scope)
from .timers import Timer, TimerFiring, TimerService

#: Timer-id prefixes; also the timer ``kind`` routing keys.
DEADLINE_KIND = "deadline"
RETRY_KIND = "retry"
MAINTENANCE_KIND = "maintenance"


def deadline_timer_id(instance_id: str) -> str:
    return "{}:{}".format(DEADLINE_KIND, instance_id)


def retry_timer_id(instance_id: str, call_id: str) -> str:
    return "{}:{}:{}".format(RETRY_KIND, instance_id, call_id)


def maintenance_timer_id(job_name: str) -> str:
    return "{}:{}".format(MAINTENANCE_KIND, job_name)


@dataclass
class SchedulerConfig:
    """Behaviour knobs of the lifecycle scheduler.

    Attributes:
        enabled: master switch; a disabled scheduler subscribes to nothing
            and :meth:`LifecycleScheduler.tick` is a no-op.
        deadline_timers: arm deadline timers on phase entry.
        retry_failed_actions: schedule retry timers for failed invocations.
        retry_max_attempts: retries per (instance, call) before giving up.
        retry_initial_delay_seconds: backoff base delay.
        retry_backoff_factor: multiplier applied per attempt.
        checkpoint_interval_seconds: when set (and the deployment is
            durable), register the periodic persistence-checkpoint job.
        journal_rotate_interval_seconds: when set, seal the write-ahead
            journal's open segment on this period.
        log_compact_interval_seconds: when set, compact the execution log
            on this period (to ``log_compact_max_entries``, or the log's
            own retention bound).
        log_compact_max_entries: target size for the periodic compaction.
        slo_interval_seconds: when set, evaluate the service's SLO rules
            (:mod:`repro.telemetry.slo`) on this period — threshold edges
            publish ``alert.fired`` / ``alert.resolved`` bus events.
        history_interval_seconds: when set, capture one sample of every
            registry series into the node's telemetry history rings
            (:mod:`repro.telemetry.history`) on this period — what
            ``GET /v2/runtime/telemetry/history`` serves.
        actor: the actor recorded on scheduler-driven operations
            (escalation moves, retries, annotations).
    """

    enabled: bool = True
    deadline_timers: bool = True
    retry_failed_actions: bool = True
    retry_max_attempts: int = 3
    retry_initial_delay_seconds: float = 300.0
    retry_backoff_factor: float = 2.0
    checkpoint_interval_seconds: Optional[float] = None
    journal_rotate_interval_seconds: Optional[float] = None
    log_compact_interval_seconds: Optional[float] = None
    log_compact_max_entries: Optional[int] = None
    slo_interval_seconds: Optional[float] = None
    history_interval_seconds: Optional[float] = None
    actor: str = "scheduler"

    def __post_init__(self):
        if self.retry_max_attempts < 0:
            raise SchedulerError("retry_max_attempts must not be negative")
        if self.retry_initial_delay_seconds < 0:
            raise SchedulerError("retry_initial_delay_seconds must not be negative")
        if self.retry_backoff_factor < 1.0:
            raise SchedulerError("retry_backoff_factor must be at least 1.0")


class LifecycleScheduler:
    """Deadline enforcement, retries and maintenance over one runtime."""

    def __init__(self, manager, bus: EventBus = None, clock: Clock = None,
                 timers: TimerService = None, config: SchedulerConfig = None):
        self._manager = manager
        self._bus = bus if bus is not None else manager.bus
        self._clock = clock or manager.clock
        self._config = config or SchedulerConfig()
        self.timers = timers or TimerService(clock=self._clock, bus=self._bus)
        #: (instance_id, call_id) -> failed attempts so far.
        self._retry_attempts: Dict[Any, int] = {}
        self._jobs: Dict[str, Callable[[], Any]] = {}
        self._job_runs: Dict[str, int] = {}
        self._job_last_result: Dict[str, Any] = {}
        self._lock = threading.RLock()
        self._escalations = 0
        self._escalation_failures = 0
        self._retries_dispatched = 0
        self._retries_exhausted = 0
        self._ticks = 0
        #: Read-replica mode: timers replicate in (via the recovery hooks)
        #: but never *fire* — enforcement is the primary's job.  Promotion
        #: clears this and the standby's timer set becomes live.
        self.dormant = False
        registry = get_registry()
        self._metric_tick = registry.histogram(
            "gelee_scheduler_tick_seconds",
            "Wall-clock time of one scheduler tick (flush + fire due timers).",
            buckets=DEFAULT_FAST_BUCKETS)
        self._metric_escalations = registry.counter(
            "gelee_scheduler_escalations_total",
            "Deadline escalations by outcome.",
            labelnames=("outcome",))
        self._unsubscribes: List[Callable[[], None]] = []
        self.timers.on(DEADLINE_KIND, self._on_deadline_timer)
        self.timers.on(RETRY_KIND, self._on_retry_timer)
        self.timers.on(MAINTENANCE_KIND, self._on_maintenance_timer)
        if self._config.enabled:
            self._subscribe()

    # ------------------------------------------------------------------ plumbing
    @property
    def config(self) -> SchedulerConfig:
        return self._config

    @property
    def clock(self) -> Clock:
        return self._clock

    def close(self) -> None:
        """Detach from the bus; pending timers stay (they are durable state)."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes = []

    def _subscribe(self) -> None:
        subscribe = self._bus.subscribe
        self._unsubscribes = [
            subscribe("instance.phase_entered", self._on_instance_event),
            subscribe("instance.completed", self._on_instance_event),
            # Model swaps (owner change / accepted propagation) can move the
            # token or change the phase's deadline without a phase entry.
            subscribe("instance.model_changed", self._on_instance_event),
            subscribe("propagation.accepted", self._on_instance_event),
            subscribe("action.failed", self._on_action_failed),
            subscribe("action.completed", self._on_action_completed),
        ]

    # ---------------------------------------------------------------------- tick
    def tick(self, now: datetime = None, limit: int = None) -> List[TimerFiring]:
        """Fire every due timer; the host's single entry point for time.

        A *dormant* scheduler (read replica, not yet promoted) never fires:
        its pending set mirrors the primary's, which is the one enforcing
        them.
        """
        if not self._config.enabled or self.dormant:
            return []
        started = time.perf_counter()
        # Background entry point: give scheduler-driven events an origin id
        # of their own (``tick-…``) unless the tick runs inside a request.
        with ensure_trace("tick"):
            with span_scope("scheduler.tick") as span:
                with self._lock:
                    self._ticks += 1
                firings = self.timers.fire_due(now=now, limit=limit)
                if span is not None:
                    span.attrs["fired"] = len(firings)
        self._metric_tick.observe(time.perf_counter() - started)
        return firings

    # ------------------------------------------------------------- bus handlers
    def _on_instance_event(self, event: Event) -> None:
        if self._config.deadline_timers:
            self._sync_deadline_timer(event.subject_id)

    def _sync_deadline_timer(self, instance_id: str) -> None:
        """Make the instance's deadline timer match its live state.

        Reconciles instead of reacting to the event payload: every event
        kind that can move the token or change a phase's deadline lands
        here, and re-deriving from current state makes each of them
        converge on the right timer (a repeat delivery is a no-op).  Uses
        the lock-free ``peek_instance`` because the kernel publishes while
        holding its lock, so this handler already runs inside it.
        """
        timer_id = deadline_timer_id(instance_id)
        instance = self._manager.peek_instance(instance_id)
        if instance is None:
            self.timers.cancel(timer_id)
            return
        visit = instance.current_visit()
        phase = instance.current_phase()
        deadline = phase.deadline if phase is not None else None
        if instance.is_completed or visit is None or deadline is None:
            self.timers.cancel(timer_id)
            return
        due_at = deadline.due_at(visit.entered_at)
        existing = self.timers.get(timer_id)
        if (existing is not None and existing.fire_at == due_at
                and existing.payload.get("phase_id") == phase.phase_id):
            return  # already armed correctly; avoid journal churn
        self.timers.schedule(
            timer_id, fire_at=due_at, kind=DEADLINE_KIND, subject_id=instance_id,
            payload={"phase_id": phase.phase_id,
                     "entered_at": visit.entered_at.isoformat()})

    def _on_action_failed(self, event: Event) -> None:
        if not self._config.retry_failed_actions:
            return
        call_id = event.payload.get("call_id")
        if not call_id:
            return
        instance_id = event.subject_id
        key = (instance_id, call_id)
        with self._lock:
            attempt = self._retry_attempts.get(key, 0)
            if attempt >= self._config.retry_max_attempts:
                self._retry_attempts.pop(key, None)
                self._retries_exhausted += 1
                exhausted = True
            else:
                self._retry_attempts[key] = attempt + 1
                exhausted = False
        if exhausted:
            self.timers.cancel(retry_timer_id(instance_id, call_id))
            self._publish("action.retries_exhausted", instance_id,
                          call_id=call_id, attempts=attempt,
                          phase_id=event.payload.get("phase_id"))
            return
        delay = (self._config.retry_initial_delay_seconds
                 * (self._config.retry_backoff_factor ** attempt))
        self.timers.schedule(
            retry_timer_id(instance_id, call_id), delay_seconds=delay,
            kind=RETRY_KIND, subject_id=instance_id,
            payload={"call_id": call_id, "attempt": attempt + 1,
                     "phase_id": event.payload.get("phase_id")})

    def _on_action_completed(self, event: Event) -> None:
        call_id = event.payload.get("call_id")
        if not call_id:
            return
        key = (event.subject_id, call_id)
        with self._lock:
            cleared = self._retry_attempts.pop(key, None) is not None
        if cleared:
            self.timers.cancel(retry_timer_id(event.subject_id, call_id))

    # ------------------------------------------------------------ timer handlers
    def _on_deadline_timer(self, timer: Timer, now: datetime) -> None:
        instance_id = timer.subject_id
        instance = self._manager.peek_instance(instance_id)
        if instance is None or instance.is_completed:
            return
        phase = instance.current_phase()
        visit = instance.current_visit()
        if (phase is None or visit is None or phase.deadline is None
                or phase.phase_id != timer.payload.get("phase_id")):
            return  # the token moved on between arming and firing
        deadline = phase.deadline
        policy = deadline.escalation if deadline.escalation in ESCALATION_POLICIES \
            else "notify"
        overdue_seconds = max(0.0, (now - deadline.due_at(visit.entered_at))
                              .total_seconds())
        actor = self._config.actor
        # Policy action first, bookkeeping after: a failed advance/invoke
        # must not leave the instance *marked* escalated.  On failure the
        # timer (already consumed by the pop) is re-armed a backoff step
        # away, so one transient error does not abandon the deadline.
        try:
            if policy == "advance":
                target = deadline.timeout_to
                if not target:
                    raise SchedulerError(
                        "deadline on phase {!r} escalates with 'advance' but "
                        "designates no timeout_to phase".format(phase.phase_id))
                self._manager.move_to(instance_id, actor, target)
            elif policy == "invoke":
                call_id = deadline.escalate_call_id
                if not call_id:
                    if not phase.actions:
                        raise SchedulerError(
                            "deadline on phase {!r} escalates with 'invoke' but "
                            "the phase has no action calls".format(phase.phase_id))
                    call_id = phase.actions[0].call_id
                self._invoke_action(instance_id, actor, call_id)
            self._manager.annotate(
                instance_id, actor,
                "deadline on phase {!r} expired ({})".format(phase.phase_id, policy),
                phase_id=phase.phase_id, kind="escalation")
        except GeleeError:
            with self._lock:
                self._escalation_failures += 1
            self._metric_escalations.inc(outcome="failed")
            self.timers.schedule(
                timer.timer_id,
                delay_seconds=max(1.0, self._config.retry_initial_delay_seconds),
                kind=DEADLINE_KIND, subject_id=instance_id,
                payload=dict(timer.payload))
            raise
        with self._lock:
            self._escalations += 1
        self._metric_escalations.inc(outcome="escalated")
        self._publish("deadline.escalated", instance_id,
                      phase_id=phase.phase_id, policy=policy,
                      overdue_seconds=round(overdue_seconds, 6),
                      timeout_to=deadline.timeout_to)

    def _on_retry_timer(self, timer: Timer, now: datetime) -> None:
        instance_id = timer.subject_id
        call_id = timer.payload.get("call_id", "")
        instance = self._manager.peek_instance(instance_id)
        key = (instance_id, call_id)
        if (instance is None or instance.is_completed
                or instance.current_phase_id != timer.payload.get("phase_id")):
            with self._lock:
                self._retry_attempts.pop(key, None)
            return  # the token moved on; the failed action is moot
        with self._lock:
            self._retries_dispatched += 1
        # A failure inside re-publishes action.failed, which schedules the
        # next backoff step (or exhausts); success publishes action.completed,
        # which clears the attempt counter.
        self._invoke_action(instance_id, self._config.actor, call_id)

    def _invoke_action(self, instance_id: str, actor: str, call_id: str) -> None:
        """Fire an action ride-the-completion-callback style.

        Retries and escalations do not need the synchronous outcome — they
        are driven entirely by the ``action.completed`` / ``action.failed``
        events the completion publishes — so they take the submit-only
        path: a slow web service then costs the tick nothing.
        """
        self._manager.invoke_action_async(instance_id, actor, call_id)

    def _on_maintenance_timer(self, timer: Timer, now: datetime) -> None:
        name = timer.subject_id
        job = self._jobs.get(name)
        if job is None:
            # An orphan that slipped past pruning: self-cancel the
            # (already reinstalled) recurrence instead of failing forever.
            self.timers.cancel(timer.timer_id)
            raise SchedulerError("no maintenance job named {!r} is registered".format(name))
        result = job()
        with self._lock:
            self._job_runs[name] = self._job_runs.get(name, 0) + 1
            self._job_last_result[name] = result

    # -------------------------------------------------------------- maintenance
    def register_job(self, name: str, job: Callable[[], Any],
                     interval_seconds: float,
                     start_delay_seconds: float = None) -> Timer:
        """Register a recurring maintenance job and arm its timer.

        When the named timer already exists — restored by crash recovery —
        and its interval still matches, the surviving schedule is kept and
        only the callable is (re)bound, so restarts do not reset job phase.
        A *changed* interval wins over the restored timer: the job is
        re-armed on the new period (config is the source of truth).
        """
        if interval_seconds is None or interval_seconds <= 0:
            raise SchedulerError("a maintenance job needs a positive interval")
        with self._lock:
            self._jobs[name] = job
        timer_id = maintenance_timer_id(name)
        existing = self.timers.get(timer_id)
        if existing is not None and existing.interval_seconds == interval_seconds:
            return existing
        return self.timers.schedule(
            timer_id, delay_seconds=start_delay_seconds, kind=MAINTENANCE_KIND,
            subject_id=name, interval_seconds=interval_seconds)

    def cancel_job(self, name: str) -> bool:
        with self._lock:
            self._jobs.pop(name, None)
        return self.timers.cancel(maintenance_timer_id(name))

    def prune_orphan_jobs(self) -> List[str]:
        """Cancel recovered maintenance timers whose job is no longer
        configured — otherwise they would fire (and fail) forever.  The
        service tier calls this after registering the configured jobs."""
        with self._lock:
            known = set(self._jobs)
        orphans = [timer.subject_id
                   for timer in self.timers.pending(kind=MAINTENANCE_KIND)
                   if timer.subject_id not in known]
        for name in orphans:
            self.timers.cancel(maintenance_timer_id(name))
        return orphans

    # ----------------------------------------------------------------- recovery
    def resync_after_recovery(self) -> int:
        """Rebuild in-memory retry counters from the recovered timer set.

        Pending ``retry:*`` timers carry their attempt number in the
        payload; re-seeding the counter map from them makes the backoff
        sequence continue exactly where the crashed process left it.
        Returns how many retry states were rebuilt.
        """
        rebuilt = 0
        with self._lock:
            for timer in self.timers.pending(kind=RETRY_KIND):
                call_id = timer.payload.get("call_id")
                if not call_id:
                    continue
                self._retry_attempts[(timer.subject_id, call_id)] = int(
                    timer.payload.get("attempt", 1))
                rebuilt += 1
        return rebuilt

    # ------------------------------------------------------------------- status
    def status(self) -> Dict[str, Any]:
        next_fire = self.timers.next_fire_at()
        with self._lock:
            maintenance = {
                name: {"runs": self._job_runs.get(name, 0),
                       "last_result": self._job_last_result.get(name)}
                for name in self._jobs
            }
            return {
                "enabled": self._config.enabled,
                "dormant": self.dormant,
                "ticks": self._ticks,
                "timers": self.timers.stats(),
                "next_fire_at": next_fire.isoformat() if next_fire else None,
                "escalations": self._escalations,
                "escalation_failures": self._escalation_failures,
                "retries_dispatched": self._retries_dispatched,
                "retries_exhausted": self._retries_exhausted,
                "retry_states": len(self._retry_attempts),
                "maintenance": maintenance,
            }

    # ------------------------------------------------------------------ internal
    def _publish(self, kind: str, subject_id: str, **payload: Any) -> None:
        self._bus.publish(Event(kind=kind, timestamp=self._clock.now(),
                                subject_id=subject_id, actor=self._config.actor,
                                payload=payload))


class SchedulerDaemon:
    """Background ticker for wall-clock deployments — election-aware.

    Deterministic hosts (tests, benchmarks, the simulated scenarios) call
    :meth:`LifecycleScheduler.tick` themselves; a hosted server under a
    :class:`~repro.clock.SystemClock` starts this daemon instead, which
    ticks on a fixed wall-clock period until stopped.

    With an ``elector`` — anything exposing ``heartbeat() -> bool``, i.e. a
    :class:`~repro.coordination.LeaderElector` or the service's
    :class:`~repro.coordination.Coordinator` — each round first runs one
    election heartbeat (renew while leading, campaign otherwise) and only
    ticks while this node leads.  Every contender in the cluster runs the
    same daemon; the lease store guarantees at most one of them ticks per
    epoch — the **single-ticker** property deadline enforcement needs
    (two tickers would double-fire escalations and retries).

    Shutdown is prompt, idempotent and thread-safe: ``stop()`` wakes the
    event-based sleep immediately (a supervised demotion never waits out a
    full poll period), tolerates concurrent and repeated calls, and is safe
    to call from the daemon thread itself (a tick that decides to shut its
    own host down must not self-join).
    """

    def __init__(self, scheduler: LifecycleScheduler, poll_seconds: float = 1.0,
                 elector=None):
        if poll_seconds <= 0:
            raise SchedulerError("poll_seconds must be positive")
        self._scheduler = scheduler
        self._poll = poll_seconds
        self._elector = elector
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lifecycle_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ticks = 0
        self._skipped_not_leader = 0
        self._tick_errors = 0

    @property
    def is_running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "SchedulerDaemon":
        with self._lifecycle_lock:
            if self.is_running:
                return self
            self._stop.clear()
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="gelee-scheduler")
            self._thread.start()
            return self

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the loop and wait for it to exit.

        Idempotent (a second call is a no-op), safe under concurrency (only
        one caller joins the thread) and safe from the daemon thread itself
        (the self-join is skipped; the loop exits right after the handler
        returns because the event is already set).
        """
        self._stop.set()  # wakes a sleeping wait(poll) immediately
        with self._lifecycle_lock:
            thread, self._thread = self._thread, None
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=timeout)

    def run_once(self) -> bool:
        """One daemon round: election heartbeat, then tick while leading.

        Returns whether this round ticked.  Public so deterministic tests
        drive the exact loop body the thread runs.
        """
        leading = True
        if self._elector is not None:
            leading = bool(self._elector.heartbeat())
        if not leading:
            with self._state_lock:
                self._skipped_not_leader += 1
            return False
        try:
            self._scheduler.tick()
        except Exception:  # noqa: BLE001 - the daemon must survive bad ticks
            with self._state_lock:
                self._tick_errors += 1
            return False
        with self._state_lock:
            self._ticks += 1
        return True

    def stats(self) -> Dict[str, Any]:
        with self._state_lock:
            return {
                "running": self.is_running,
                "poll_seconds": self._poll,
                "election_aware": self._elector is not None,
                "ticks": self._ticks,
                "skipped_not_leader": self._skipped_not_leader,
                "tick_errors": self._tick_errors,
            }

    def __enter__(self) -> "SchedulerDaemon":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.run_once()
            except Exception:  # noqa: BLE001 - heartbeat errors must not kill the loop
                with self._state_lock:
                    self._tick_errors += 1
            self._stop.wait(self._poll)
