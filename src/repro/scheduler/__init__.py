"""Temporal automation: durable timers, deadline enforcement, maintenance.

The paper models "deadlines and time constraints" (§IV.A) and asks the
monitoring side for "particular attention to delays" (§II.B-4).  This
package is the *active* half of that story — where the cockpit only
reported time, the scheduler acts on it:

* :mod:`~repro.scheduler.timers` — :class:`TimerService`, a priority-queue
  registry of named, idempotent, cancellable timers driven by the injected
  :class:`~repro.clock.Clock` and journaled through the kernel event bus;
* :mod:`~repro.scheduler.scheduler` — :class:`LifecycleScheduler`, which
  arms deadline timers on phase entry and escalates when they expire
  (notify / auto-advance along a timeout transition / invoke a bound
  action), retries failed action invocations with exponential backoff, and
  runs recurring maintenance jobs (periodic persistence checkpoints,
  journal rotation, execution-log compaction); plus
  :class:`SchedulerDaemon`, the wall-clock ticker for hosted deployments.

Pending timers are durable: their mutations are journaled like any kernel
event, snapshots embed the pending set, and crash recovery rebuilds both
timers and retry state (see :mod:`repro.persistence.recovery`).

The service tier wires everything from one knob::

    service = GeleeService(persistence=PersistenceConfig(directory),
                           scheduler=SchedulerConfig(
                               checkpoint_interval_seconds=300))
    service.scheduler_tick()          # or POST /v2/runtime/scheduler:tick
"""

from .scheduler import (
    DEADLINE_KIND,
    MAINTENANCE_KIND,
    RETRY_KIND,
    LifecycleScheduler,
    SchedulerConfig,
    SchedulerDaemon,
    deadline_timer_id,
    maintenance_timer_id,
    retry_timer_id,
)
from .timers import Timer, TimerFiring, TimerService

__all__ = [
    "DEADLINE_KIND",
    "MAINTENANCE_KIND",
    "RETRY_KIND",
    "LifecycleScheduler",
    "SchedulerConfig",
    "SchedulerDaemon",
    "Timer",
    "TimerFiring",
    "TimerService",
    "deadline_timer_id",
    "maintenance_timer_id",
    "retry_timer_id",
]
