"""Change propagation between lifecycle models and running instances.

"If designers change a lifecycle model, they can request to propagate the
change to running lifecycles.  Upon receiving the request, lifecycle owners
can accept or reject the change, and if they accept, they can state in which
phase the lifecycle instance should end up in the modified model." (§IV.B)

:class:`PropagationService` manages the proposals: the designer opens one per
affected instance, owners later decide, and accepted decisions apply the new
model copy to the instance via state migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Dict, List, Optional

from ..clock import Clock, SystemClock
from ..errors import PropagationError
from ..events import Event, EventBus
from ..identifiers import new_id
from ..model.lifecycle import LifecycleModel
from .instance import LifecycleInstance
from .migration import MigrationPlan, suggest_target_phase


class PropagationDecision(str, Enum):
    """Owner's answer to a change-propagation request."""

    PENDING = "pending"
    ACCEPTED = "accepted"
    REJECTED = "rejected"


@dataclass
class ChangeProposal:
    """A pending request to move one instance onto a new model version."""

    instance_id: str
    model_uri: str
    from_version: str
    to_version: str
    requested_by: str
    requested_at: datetime
    suggested_target_phase: Optional[str]
    decision: PropagationDecision = PropagationDecision.PENDING
    decided_by: str = ""
    decided_at: Optional[datetime] = None
    target_phase_id: Optional[str] = None
    proposal_id: str = field(default_factory=lambda: new_id("prop"))

    @property
    def is_pending(self) -> bool:
        return self.decision is PropagationDecision.PENDING

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {
            "proposal_id": self.proposal_id,
            "instance_id": self.instance_id,
            "model_uri": self.model_uri,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "requested_by": self.requested_by,
            "requested_at": self.requested_at.isoformat(),
            "suggested_target_phase": self.suggested_target_phase,
            "decision": self.decision.value,
            "decided_by": self.decided_by,
            "decided_at": self.decided_at.isoformat() if self.decided_at else None,
            "target_phase_id": self.target_phase_id,
        }


class PropagationService:
    """Creates, tracks and resolves change proposals."""

    def __init__(self, clock: Clock = None, bus: EventBus = None):
        self._clock = clock or SystemClock()
        self._bus = bus
        self._proposals: Dict[str, ChangeProposal] = {}
        self._new_models: Dict[str, LifecycleModel] = {}

    # ------------------------------------------------------------------ creation
    def propose(self, instance: LifecycleInstance, new_model: LifecycleModel,
                requested_by: str) -> ChangeProposal:
        """Open a proposal asking ``instance``'s owner to adopt ``new_model``."""
        if new_model.uri != instance.model.uri:
            raise PropagationError(
                "the new model has URI {!r}; the instance follows {!r}".format(
                    new_model.uri, instance.model.uri
                )
            )
        if new_model.version.version_number == instance.model_version:
            raise PropagationError("the proposed model has the same version as the instance")
        proposal = ChangeProposal(
            instance_id=instance.instance_id,
            model_uri=new_model.uri,
            from_version=instance.model_version,
            to_version=new_model.version.version_number,
            requested_by=requested_by,
            requested_at=self._clock.now(),
            suggested_target_phase=suggest_target_phase(
                instance.model, new_model, instance.current_phase_id
            ),
        )
        self._proposals[proposal.proposal_id] = proposal
        self._new_models[proposal.proposal_id] = new_model
        self._publish("propagation.requested", proposal, requested_by)
        return proposal

    # ------------------------------------------------------------------ queries
    def proposal(self, proposal_id: str) -> ChangeProposal:
        try:
            return self._proposals[proposal_id]
        except KeyError:
            raise PropagationError("unknown change proposal {!r}".format(proposal_id)) from None

    def pending_for_instance(self, instance_id: str) -> List[ChangeProposal]:
        return [
            proposal
            for proposal in self._proposals.values()
            if proposal.instance_id == instance_id and proposal.is_pending
        ]

    def all_proposals(self) -> List[ChangeProposal]:
        return list(self._proposals.values())

    def proposed_model(self, proposal_id: str) -> LifecycleModel:
        return self._new_models[self.proposal(proposal_id).proposal_id]

    # ----------------------------------------------------------------- decisions
    def accept(self, proposal_id: str, instance: LifecycleInstance, decided_by: str,
               target_phase_id: Optional[str] = None) -> MigrationPlan:
        """Accept the proposal and migrate the instance's state.

        ``target_phase_id`` defaults to the suggestion computed when the
        proposal was opened; the owner can override it.
        """
        proposal = self.proposal(proposal_id)
        self._require_pending(proposal)
        if proposal.instance_id != instance.instance_id:
            raise PropagationError("the proposal does not concern this instance")
        new_model = self._new_models[proposal_id]
        chosen_phase = target_phase_id or proposal.suggested_target_phase
        instance.replace_model(new_model.copy(), chosen_phase)
        proposal.decision = PropagationDecision.ACCEPTED
        proposal.decided_by = decided_by
        proposal.decided_at = self._clock.now()
        proposal.target_phase_id = chosen_phase
        self._publish("propagation.accepted", proposal, decided_by)
        return MigrationPlan(
            instance_id=instance.instance_id,
            from_version=proposal.from_version,
            to_version=proposal.to_version,
            source_phase_id=proposal.suggested_target_phase,
            target_phase_id=chosen_phase,
            automatic=target_phase_id is None,
        )

    def reject(self, proposal_id: str, decided_by: str, reason: str = "") -> ChangeProposal:
        """Reject the proposal; the instance keeps following its current model."""
        proposal = self.proposal(proposal_id)
        self._require_pending(proposal)
        proposal.decision = PropagationDecision.REJECTED
        proposal.decided_by = decided_by
        proposal.decided_at = self._clock.now()
        self._publish("propagation.rejected", proposal, decided_by, reason=reason)
        return proposal

    # ------------------------------------------------------------------ internal
    @staticmethod
    def _require_pending(proposal: ChangeProposal) -> None:
        if not proposal.is_pending:
            raise PropagationError(
                "proposal {!r} was already {}".format(proposal.proposal_id, proposal.decision.value)
            )

    def _publish(self, kind: str, proposal: ChangeProposal, actor: str, **extra) -> None:
        if self._bus is None:
            return
        payload = proposal.to_dict()
        payload.update(extra)
        self._bus.publish(Event(kind=kind, timestamp=self._clock.now(),
                                subject_id=proposal.instance_id, actor=actor, payload=payload))
