"""The monitoring cockpit.

Builds the project-manager views: one row per lifecycle instance (phase,
owner, time in phase, deadline state), portfolio roll-ups by phase and by
owner, delay reports and per-phase duration statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Dict, List, Optional

from ..clock import Clock
from ..runtime.instance import InstanceStatus, LifecycleInstance
from ..runtime.manager import LifecycleManager


@dataclass
class InstanceStatusRow:
    """One line of the cockpit's status table."""

    instance_id: str
    resource_name: str
    resource_uri: str
    owner: str
    model_name: str
    status: str
    phase_id: Optional[str]
    phase_name: Optional[str]
    days_in_phase: float
    overdue_days: float
    deviations: int
    failed_actions: int
    annotations: int

    @property
    def is_late(self) -> bool:
        return self.overdue_days > 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "instance_id": self.instance_id,
            "resource_name": self.resource_name,
            "resource_uri": self.resource_uri,
            "owner": self.owner,
            "model_name": self.model_name,
            "status": self.status,
            "phase_id": self.phase_id,
            "phase_name": self.phase_name,
            "days_in_phase": round(self.days_in_phase, 2),
            "overdue_days": round(self.overdue_days, 2),
            "deviations": self.deviations,
            "failed_actions": self.failed_actions,
            "annotations": self.annotations,
        }


@dataclass
class PortfolioSummary:
    """Roll-up of a set of instances (typically one project's deliverables)."""

    total: int = 0
    active: int = 0
    completed: int = 0
    not_started: int = 0
    late: int = 0
    with_deviations: int = 0
    with_failed_actions: int = 0
    #: Instances the scheduler escalated at least once (annotation kind
    #: ``"escalation"`` — durable, so the count survives restarts).
    escalated: int = 0
    by_phase: Dict[str, int] = field(default_factory=dict)
    by_owner: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "active": self.active,
            "completed": self.completed,
            "not_started": self.not_started,
            "late": self.late,
            "with_deviations": self.with_deviations,
            "with_failed_actions": self.with_failed_actions,
            "escalated": self.escalated,
            "by_phase": dict(self.by_phase),
            "by_owner": dict(self.by_owner),
        }


class MonitoringCockpit:
    """Project-manager monitoring over a lifecycle manager's instances."""

    def __init__(self, manager: LifecycleManager, clock: Clock = None):
        self._manager = manager
        self._clock = clock or manager.clock

    # --------------------------------------------------------------- status rows
    def status_row(self, instance: LifecycleInstance, now: datetime = None) -> InstanceStatusRow:
        """Compute the cockpit row for one instance."""
        now = now or self._clock.now()
        visit = instance.current_visit()
        days_in_phase = visit.duration_days(now) if visit is not None else 0.0
        overdue = 0.0
        phase = instance.current_phase()
        if phase is not None and phase.deadline is not None and visit is not None and visit.is_open:
            delta = phase.deadline.overdue_by(visit.entered_at, now)
            overdue = max(0.0, delta.total_seconds() / 86400.0)
        return InstanceStatusRow(
            instance_id=instance.instance_id,
            resource_name=instance.resource.display_name,
            resource_uri=instance.resource.uri,
            owner=instance.owner,
            model_name=instance.model.name,
            status=instance.status.value,
            phase_id=instance.current_phase_id,
            phase_name=phase.name if phase else None,
            days_in_phase=days_in_phase,
            overdue_days=overdue,
            deviations=len(instance.deviations()),
            failed_actions=len(instance.failed_invocations()),
            annotations=len(instance.annotations),
        )

    def status_table(self, model_uri: str = None, owner: str = None,
                     now: datetime = None) -> List[InstanceStatusRow]:
        """The "status at a glance" table, optionally filtered."""
        now = now or self._clock.now()
        instances = self._manager.instances(model_uri=model_uri, owner=owner)
        rows = [self.status_row(instance, now) for instance in instances]
        rows.sort(key=lambda row: (-row.overdue_days, row.resource_name))
        return rows

    # ------------------------------------------------------------------ roll-ups
    def phase_counts(self, model_uri: str = None) -> Dict[str, int]:
        """Instances per current phase id, answered from the runtime index."""
        counts = self._manager.phase_distribution(model_uri=model_uri)
        return {(phase_id or "(not started)"): count for phase_id, count in counts.items()}

    def owner_counts(self) -> Dict[str, int]:
        """Instances per owner, answered from the runtime index."""
        return self._manager.owner_distribution()

    def status_counts(self) -> Dict[str, int]:
        """Instances per status, answered from the runtime index."""
        return {status.value: count
                for status, count in self._manager.status_distribution().items()}

    def portfolio_summary(self, model_uri: str = None, now: datetime = None) -> PortfolioSummary:
        """Roll-up over the (index-selected) instances of one model or all.

        Selection comes from the runtime index (only instances of
        ``model_uri`` are visited); the per-instance work is reduced to the
        deadline check — no full status rows are materialised.
        """
        now = now or self._clock.now()
        summary = PortfolioSummary()
        for instance in self._manager.instances(model_uri=model_uri):
            summary.total += 1
            if instance.status is InstanceStatus.COMPLETED:
                summary.completed += 1
            elif instance.status is InstanceStatus.ACTIVE:
                summary.active += 1
            else:
                summary.not_started += 1
            if self._is_late(instance, now):
                summary.late += 1
            if instance.deviations():
                summary.with_deviations += 1
            if instance.failed_invocations():
                summary.with_failed_actions += 1
            if any(a.kind == "escalation" for a in instance.annotations):
                summary.escalated += 1
            phase = instance.current_phase()
            phase_name = phase.name if phase is not None else "(not started)"
            summary.by_phase[phase_name] = summary.by_phase.get(phase_name, 0) + 1
            summary.by_owner[instance.owner] = summary.by_owner.get(instance.owner, 0) + 1
        return summary

    def _is_late(self, instance: LifecycleInstance, now: datetime) -> bool:
        phase = instance.current_phase()
        if phase is None or phase.deadline is None:
            return False
        visit = instance.current_visit()
        if visit is None or not visit.is_open:
            return False
        return phase.deadline.overdue_by(visit.entered_at, now).total_seconds() > 0

    def late_instances(self, model_uri: str = None, now: datetime = None) -> List[InstanceStatusRow]:
        """Instances whose current phase deadline has passed, most late first."""
        return [row for row in self.status_table(model_uri=model_uri, now=now) if row.is_late]

    def deadline_rollup(self, model_uri: str = None, now: datetime = None,
                        scheduler=None) -> Dict[str, object]:
        """One-look deadline health: armed, due-soon, overdue, escalated.

        The passive view (deadline arithmetic over the instances) plus —
        when the deployment's :class:`~repro.scheduler.LifecycleScheduler`
        is passed — the active view: how many deadline timers are pending
        and how many escalations have already fired.  ``escalated`` counts
        instances carrying at least one durable ``"escalation"`` annotation,
        so it needs no scheduler at all.
        """
        now = now or self._clock.now()
        with_deadline = 0
        overdue = 0
        due_soon = 0
        escalated = 0
        overdue_ids: List[str] = []
        for instance in self._manager.instances(model_uri=model_uri):
            if any(a.kind == "escalation" for a in instance.annotations):
                escalated += 1
            phase = instance.current_phase()
            visit = instance.current_visit()
            if phase is None or phase.deadline is None or visit is None or not visit.is_open:
                continue
            with_deadline += 1
            # One source of truth for boundary semantics: Deadline itself.
            if phase.deadline.is_overdue(visit.entered_at, now):
                overdue += 1
                overdue_ids.append(instance.instance_id)
            elif phase.deadline.is_expired(visit.entered_at,
                                           now + timedelta(days=1)):
                due_soon += 1
        rollup: Dict[str, object] = {
            "with_deadline": with_deadline,
            "overdue": overdue,
            "due_within_24h": due_soon,
            "escalated": escalated,
            "overdue_instance_ids": overdue_ids,
        }
        if scheduler is not None:
            status = scheduler.status()
            rollup["pending_deadline_timers"] = scheduler.timers.count(
                kind="deadline")
            rollup["escalations_fired"] = status["escalations"]
            rollup["next_fire_at"] = status["next_fire_at"]
        return rollup

    def deviating_instances(self, model_uri: str = None) -> List[LifecycleInstance]:
        """Instances that left the modelled flow at least once."""
        return [instance for instance in self._manager.instances(model_uri=model_uri)
                if instance.deviations()]

    def instances_in_phase(self, phase_id: str,
                           model_uri: str = None) -> List[LifecycleInstance]:
        """The instances whose token currently sits on ``phase_id`` (indexed)."""
        return self._manager.instances(model_uri=model_uri, phase_id=phase_id)

    # ----------------------------------------------------------------- statistics
    def phase_duration_statistics(self, model_uri: str = None,
                                  now: datetime = None) -> Dict[str, Dict[str, float]]:
        """Per-phase stay duration statistics (count, mean, max) in days."""
        now = now or self._clock.now()
        durations: Dict[str, List[float]] = {}
        for instance in self._manager.instances(model_uri=model_uri):
            for visit in instance.visits:
                durations.setdefault(visit.phase_name, []).append(visit.duration_days(now))
        statistics = {}
        for phase_name, values in durations.items():
            statistics[phase_name] = {
                "count": float(len(values)),
                "mean_days": sum(values) / len(values),
                "max_days": max(values),
            }
        return statistics

    def completion_rate(self, model_uri: str = None) -> float:
        """Fraction of instances that reached an end phase (index counts)."""
        if model_uri is None:
            counts = self._manager.status_distribution()
            total = sum(counts.values())
            if not total:
                return 0.0
            return counts.get(InstanceStatus.COMPLETED, 0) / total
        instances = self._manager.instances(model_uri=model_uri)
        if not instances:
            return 0.0
        completed = sum(1 for instance in instances if instance.is_completed)
        return completed / len(instances)

    # --------------------------------------------------------------------- text
    def render_text(self, model_uri: str = None, now: datetime = None) -> str:
        """Plain-text cockpit view (also used by the examples' console output)."""
        now = now or self._clock.now()
        rows = self.status_table(model_uri=model_uri, now=now)
        summary = self.portfolio_summary(model_uri=model_uri, now=now)
        lines = [
            "Portfolio: {} artifacts — {} active, {} completed, {} not started, {} late".format(
                summary.total, summary.active, summary.completed, summary.not_started,
                summary.late),
            "-" * 78,
        ]
        for row in rows:
            marker = "LATE" if row.is_late else ("DONE" if row.status == "completed" else "    ")
            lines.append(
                "{:4s} {:<32s} {:<18s} {:>6.1f}d in phase  owner={}".format(
                    marker, row.resource_name[:32], (row.phase_name or "-")[:18],
                    row.days_in_phase, row.owner)
            )
        return "\n".join(lines)
