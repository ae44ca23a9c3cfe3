"""Lifecycle instances.

"A lifecycle instance is a particular execution of a lifecycle on a given
resource." (§IV.B)  The models are lightly coupled: "Owners can change the
life of a resource without changing the model, and designers can change the
model without affecting running instances if they so desire."  An instance
starts on the published model version itself — frozen, and shared by every
instance of that version, since republishing adds a version rather than
editing one — and only gets its *own copy* when its owner changes its model
(:meth:`LifecycleInstance.replace_model`).

An instance records where the token is, the full visit history with entry and
exit timestamps (feeding the monitoring cockpit), the action invocations
triggered by each visit, the annotations explaining deviations, and the
parameters bound at instantiation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ..errors import LifecycleNotFoundError, RuntimeStateError, UnknownPhaseError
from ..identifiers import new_id
from ..model.annotation import Annotation
from ..model.lifecycle import LifecycleModel
from ..resources.descriptor import ResourceDescriptor
from ..actions.invocation import ActionInvocation, ActionStatus


class InstanceStatus(str, Enum):
    """Coarse state of a lifecycle instance."""

    CREATED = "created"      # instantiated, token not yet placed
    ACTIVE = "active"        # token on a non-terminal phase
    COMPLETED = "completed"  # token reached an end phase


@dataclass
class PhaseVisit:
    """One stay of the token in a phase."""

    phase_id: str
    phase_name: str
    entered_at: datetime
    entered_by: str
    followed_model: bool = True
    left_at: Optional[datetime] = None
    invocations: List[ActionInvocation] = field(default_factory=list)
    visit_id: str = field(default_factory=lambda: new_id("visit"))

    @property
    def is_open(self) -> bool:
        return self.left_at is None

    def duration_days(self, now: datetime = None) -> float:
        """Length of the stay in days; for open visits measured up to ``now``."""
        end = self.left_at or now
        if end is None:
            return 0.0
        return max(0.0, (end - self.entered_at).total_seconds() / 86400.0)

    def failed_invocations(self) -> List[ActionInvocation]:
        return [inv for inv in self.invocations if inv.status is ActionStatus.FAILED]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "visit_id": self.visit_id,
            "phase_id": self.phase_id,
            "phase_name": self.phase_name,
            "entered_at": self.entered_at.isoformat(),
            "entered_by": self.entered_by,
            "followed_model": self.followed_model,
            "left_at": self.left_at.isoformat() if self.left_at else None,
            "invocations": [invocation.to_dict() for invocation in self.invocations],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PhaseVisit":
        """Rebuild a visit from :meth:`to_dict` (snapshot recovery)."""
        left_at = data.get("left_at")
        return cls(
            phase_id=data["phase_id"],
            phase_name=data.get("phase_name", data["phase_id"]),
            entered_at=datetime.fromisoformat(data["entered_at"]),
            entered_by=data.get("entered_by", ""),
            followed_model=data.get("followed_model", True),
            left_at=datetime.fromisoformat(left_at) if left_at else None,
            invocations=[ActionInvocation.from_dict(item)
                         for item in data.get("invocations") or []],
            visit_id=data.get("visit_id") or new_id("visit"),
        )


@dataclass
class LifecycleInstance:
    """A running (or completed) lifecycle on one resource."""

    model: LifecycleModel
    resource: ResourceDescriptor
    owner: str
    created_at: datetime
    instance_id: str = field(default_factory=lambda: new_id("inst"))
    status: InstanceStatus = InstanceStatus.CREATED
    current_phase_id: Optional[str] = None
    visits: List[PhaseVisit] = field(default_factory=list)
    annotations: List[Annotation] = field(default_factory=list)
    #: Parameters bound at instantiation time, keyed by action call id.
    instantiation_parameters: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Users allowed to move the token (the "token owner" role of §IV.D).
    token_owners: List[str] = field(default_factory=list)
    model_version: str = ""
    completed_at: Optional[datetime] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.model_version:
            self.model_version = self.model.version.version_number
        if self.owner and self.owner not in self.token_owners:
            self.token_owners.append(self.owner)

    # ------------------------------------------------------------------ queries
    @property
    def is_active(self) -> bool:
        return self.status is InstanceStatus.ACTIVE

    @property
    def is_completed(self) -> bool:
        return self.status is InstanceStatus.COMPLETED

    def current_phase(self):
        """The phase object the token sits on, or None before start."""
        if self.current_phase_id is None:
            return None
        return self.model.phase(self.current_phase_id)

    def current_visit(self) -> Optional[PhaseVisit]:
        for visit in reversed(self.visits):
            if visit.is_open:
                return visit
        return None

    def visit_count(self, phase_id: str) -> int:
        return sum(1 for visit in self.visits if visit.phase_id == phase_id)

    def visited_phase_ids(self) -> List[str]:
        return [visit.phase_id for visit in self.visits]

    def deviations(self) -> List[PhaseVisit]:
        """Visits entered through moves not present in the model."""
        return [visit for visit in self.visits if not visit.followed_model]

    def suggested_next_phases(self):
        """The phases the model suggests from the current position."""
        if self.current_phase_id is None:
            return self.model.initial_phases()
        return self.model.successors(self.current_phase_id)

    def all_invocations(self) -> List[ActionInvocation]:
        invocations = []
        for visit in self.visits:
            invocations.extend(visit.invocations)
        return invocations

    def failed_invocations(self) -> List[ActionInvocation]:
        return [inv for inv in self.all_invocations() if inv.status is ActionStatus.FAILED]

    def elapsed_days(self, now: datetime) -> float:
        end = self.completed_at or now
        return max(0.0, (end - self.created_at).total_seconds() / 86400.0)

    # ------------------------------------------------------------- state change
    def record_entry(self, phase_id: str, entered_at: datetime, entered_by: str,
                     followed_model: bool) -> PhaseVisit:
        """Move the token onto ``phase_id``, closing the previous visit."""
        phase = self.model.phase(phase_id)  # raises UnknownPhaseError
        open_visit = self.current_visit()
        if open_visit is not None:
            open_visit.left_at = entered_at
        visit = PhaseVisit(
            phase_id=phase.phase_id,
            phase_name=phase.name,
            entered_at=entered_at,
            entered_by=entered_by,
            followed_model=followed_model,
        )
        self.visits.append(visit)
        self.current_phase_id = phase.phase_id
        if phase.terminal:
            self.status = InstanceStatus.COMPLETED
            self.completed_at = entered_at
            visit.left_at = entered_at
        else:
            self.status = InstanceStatus.ACTIVE
            self.completed_at = None
        return visit

    def reopen(self) -> None:
        """Clear completion when an owner moves the token out of an end phase."""
        if self.status is InstanceStatus.COMPLETED:
            self.status = InstanceStatus.ACTIVE
            self.completed_at = None

    def annotate(self, annotation: Annotation) -> Annotation:
        self.annotations.append(annotation)
        return annotation

    def bind_instantiation_parameters(self, call_id: str, parameters: Dict[str, Any]) -> None:
        """Record instantiation-time parameter values for an action call."""
        existing = self.instantiation_parameters.setdefault(call_id, {})
        existing.update(parameters)

    def grant_token_ownership(self, user: str) -> None:
        if user not in self.token_owners:
            self.token_owners.append(user)

    def replace_model(self, model: LifecycleModel, target_phase_id: Optional[str]) -> None:
        """Swap the instance's model (owner change or accepted propagation).

        Callers pass a copy, never a catalog object, so the instance may
        diverge from every published version.

        The owner "can state in which phase the lifecycle instance should end
        up in the modified model" — instance migration reduced to state
        migration (§IV.B).  The visit history is preserved untouched.
        """
        if target_phase_id is not None and not model.has_phase(target_phase_id):
            raise UnknownPhaseError(
                "target phase {!r} does not exist in the new model version".format(target_phase_id)
            )
        self.model = model
        self.model_version = model.version.version_number
        if target_phase_id is not None:
            self.current_phase_id = target_phase_id
            phase = model.phase(target_phase_id)
            if phase.terminal and self.status is not InstanceStatus.COMPLETED:
                self.status = InstanceStatus.COMPLETED
            elif not phase.terminal and self.status is InstanceStatus.COMPLETED:
                self.reopen()
        elif self.current_phase_id is not None and not model.has_phase(self.current_phase_id):
            raise RuntimeStateError(
                "the new model version has no phase {!r}; a target phase is required".format(
                    self.current_phase_id
                )
            )

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "instance_id": self.instance_id,
            "model_uri": self.model.uri,
            "model_name": self.model.name,
            "model_version": self.model_version,
            "resource": self.resource.to_dict(),
            "owner": self.owner,
            "token_owners": list(self.token_owners),
            "status": self.status.value,
            "current_phase_id": self.current_phase_id,
            "created_at": self.created_at.isoformat(),
            "completed_at": self.completed_at.isoformat() if self.completed_at else None,
            "visits": [visit.to_dict() for visit in self.visits],
            "annotations": [annotation.to_dict() for annotation in self.annotations],
            "metadata": dict(self.metadata),
        }

    def to_state_dict(self) -> Dict[str, Any]:
        """The *complete* durable state of the instance.

        Unlike :meth:`to_dict` (the API view), this includes the model, the
        instantiation-time parameter bindings and the resource credentials,
        so :meth:`from_state_dict` rebuilds an exact replica after a process
        restart.  A frozen model is a catalog version and is written as a
        reference, ``{"reference": true, "uri", "version_number"}``; only a
        model the instance diverged to (unfrozen) is inlined in full.
        """
        state = self.to_dict()
        if self.model.frozen:
            state["model"] = {"reference": True, "uri": self.model.uri,
                              "version_number": self.model.version.version_number}
        else:
            state["model"] = self.model.to_dict()
        state["resource"] = self.resource.to_dict(include_credentials=True)
        state["instantiation_parameters"] = {
            call_id: dict(values)
            for call_id, values in self.instantiation_parameters.items()
        }
        return state

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any],
                        catalog: Callable[[str, str], LifecycleModel]
                        ) -> "LifecycleInstance":
        """Rebuild an instance from :meth:`to_state_dict` (crash recovery).

        ``catalog(uri, version)`` returns an installed model version (a
        manager's :meth:`~repro.runtime.manager.LifecycleManager.model`).  A
        model reference resolves through it, and a missing version raises
        its :class:`~repro.errors.LifecycleNotFoundError` rather than
        substituting another.  An inlined model equal to the installed
        version of the same uri and number is replaced by that shared
        object, so documents written before references existed converge.
        """
        completed_at = state.get("completed_at")
        document = state["model"]
        if document.get("reference"):
            model = catalog(document["uri"], document["version_number"])
        else:
            model = LifecycleModel.from_dict(document)
            try:
                installed = catalog(model.uri, model.version.version_number)
            except LifecycleNotFoundError:
                installed = None
            if installed == model:
                model = installed
        instance = cls(
            model=model,
            resource=ResourceDescriptor.from_dict(state["resource"]),
            owner=state["owner"],
            created_at=datetime.fromisoformat(state["created_at"]),
            instance_id=state["instance_id"],
            status=InstanceStatus(state.get("status", InstanceStatus.CREATED.value)),
            current_phase_id=state.get("current_phase_id"),
            visits=[PhaseVisit.from_dict(item) for item in state.get("visits") or []],
            annotations=[Annotation.from_dict(item)
                         for item in state.get("annotations") or []],
            instantiation_parameters={
                call_id: dict(values)
                for call_id, values in (state.get("instantiation_parameters") or {}).items()
            },
            token_owners=list(state.get("token_owners") or []),
            model_version=state.get("model_version", ""),
            completed_at=datetime.fromisoformat(completed_at) if completed_at else None,
            metadata=dict(state.get("metadata") or {}),
        )
        return instance

    def summary(self) -> Dict[str, Any]:
        """A compact snapshot for listings and the monitoring cockpit."""
        return {
            "instance_id": self.instance_id,
            "model_name": self.model.name,
            "resource_uri": self.resource.uri,
            "resource_type": self.resource.resource_type,
            "owner": self.owner,
            "status": self.status.value,
            "current_phase_id": self.current_phase_id,
            "current_phase_name": self.current_phase().name if self.current_phase() else None,
            "visits": len(self.visits),
            "deviations": len(self.deviations()),
            "failed_actions": len(self.failed_invocations()),
        }
