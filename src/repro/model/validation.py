"""Lifecycle model validation.

Requirement 6 of the paper ("Flexibility and robustness. … Ideally it should
be possible for the lifecycle to be partially specified and still be usable")
means validation must distinguish *errors* that make a model unusable from
*warnings* that merely flag incompleteness.  :func:`lifecycle_problems`
returns both; :func:`validate_lifecycle` raises only on errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..errors import ValidationError
from .lifecycle import LifecycleModel
from .transition import BEGIN, END


@dataclass
class ValidationReport:
    """Outcome of validating a lifecycle model."""

    errors: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def all_problems(self) -> List[str]:
        return list(self.errors) + list(self.warnings)


def lifecycle_problems(model: LifecycleModel) -> ValidationReport:
    """Inspect ``model`` and return errors and warnings without raising."""
    report = ValidationReport()

    if not isinstance(model.name, str) or not model.name.strip():
        report.errors.append("the lifecycle needs a non-empty name")
    if len(model) == 0:
        report.errors.append("the lifecycle has no phases")
        return report

    phase_ids = set(model.phase_ids)

    # Transition endpoints must exist (add_transition already enforces this,
    # but models built via from_dict / XML may carry dangling references).
    for transition in model.transitions:
        if transition.source not in phase_ids and transition.source != BEGIN:
            report.errors.append(
                "transition source {!r} is not a phase".format(transition.source)
            )
        if transition.target not in phase_ids and transition.target != END:
            report.errors.append(
                "transition target {!r} is not a phase".format(transition.target)
            )

    # Initial phase: the model is usable without one (we fall back to the
    # first phase) but the designer should know.
    has_begin = any(t.source == BEGIN for t in model.transitions)
    if not has_begin:
        report.warnings.append(
            "no BEGIN transition; the first phase will be treated as initial"
        )

    # Terminal phases: a lifecycle without end phases never completes, which
    # is legal (purely descriptive monitoring) but worth flagging.
    if not model.terminal_phases():
        report.warnings.append("the lifecycle has no end phase; instances never complete")

    # End phases must not have outgoing transitions to look "final" in the
    # designer; this is only a warning because owners can move tokens anywhere.
    for phase in model.terminal_phases():
        outgoing = [t for t in model.transitions if t.source == phase.phase_id and t.target != END]
        if outgoing:
            report.warnings.append(
                "end phase {!r} has outgoing transitions".format(phase.phase_id)
            )

    # Unreachable phases are allowed (owners can jump) but flagged.
    reachable = model.reachable_phases()
    for phase_id in phase_ids:
        if phase_id not in reachable:
            report.warnings.append(
                "phase {!r} is not reachable from the initial phases".format(phase_id)
            )

    # Deadline escalation targets must exist so the scheduler's auto-advance
    # cannot strand the token, and an "invoke" escalation naming a call must
    # point at one of the phase's own calls.
    for phase in model.phases:
        deadline = phase.deadline
        if deadline is None:
            continue
        if deadline.timeout_to is not None and deadline.timeout_to not in phase_ids:
            report.errors.append(
                "deadline on phase {!r} designates unknown timeout phase {!r}".format(
                    phase.phase_id, deadline.timeout_to))
        elif deadline.timeout_to is not None and not any(
                t.source == phase.phase_id and t.target == deadline.timeout_to
                for t in model.transitions):
            report.warnings.append(
                "deadline on phase {!r} times out to {!r} but no such transition "
                "is modelled; the escalation move will count as a deviation".format(
                    phase.phase_id, deadline.timeout_to))
        if deadline.escalate_call_id is not None and deadline.escalate_call_id not in [
                call.call_id for call in phase.actions]:
            report.errors.append(
                "deadline on phase {!r} escalates by invoking unknown call "
                "{!r}".format(phase.phase_id, deadline.escalate_call_id))

    # Action calls need at least an action URI.
    for phase_id, call in model.action_calls():
        if not call.action_uri or not call.action_uri.strip():
            report.errors.append(
                "an action call in phase {!r} has no action URI".format(phase_id)
            )

    # Self-loops in the suggestion graph are almost always modelling mistakes.
    for transition in model.transitions:
        if transition.source == transition.target:
            report.warnings.append(
                "phase {!r} has a self-transition".format(transition.source)
            )

    return report


def validate_lifecycle(model: LifecycleModel) -> ValidationReport:
    """Validate ``model``; raise :class:`ValidationError` when it has errors."""
    report = lifecycle_problems(model)
    if not report.ok:
        raise ValidationError(report.errors)
    return report
