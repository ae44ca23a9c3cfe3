"""Phases: the states of a resource lifecycle.

"The phase describes the stage in life in which the resource is" (§IV.A).
A phase may carry actions executed on entry, a deadline, and free-form
metadata.  End phases are "phases with no associated actions, and their
purpose is only to denote that the lifecycle instance is complete in a
certain final state" (§IV.B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import ModelError
from ..identifiers import slugify
from .actions import ActionCall
from .deadline import Deadline


class Freezable:
    """Mixin for model objects a published model version shares.

    Once :meth:`_freeze` ran, attribute assignment and every mutator that
    calls :meth:`_require_mutable` raise :class:`ModelError`: many instances
    follow the same published object, so editing it in place would change
    all of them at once.  ``copy()`` returns an unfrozen duplicate to edit.
    """

    _frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def _freeze(self) -> None:
        object.__setattr__(self, "_frozen", True)

    def _require_mutable(self) -> None:
        if self._frozen:
            raise ModelError(
                "{} belongs to a published model version and cannot change; "
                "edit a copy()".format(self._label()))

    def _label(self) -> str:
        raise NotImplementedError

    def __setattr__(self, name, value):
        self._require_mutable()
        object.__setattr__(self, name, value)


@dataclass
class Phase(Freezable):
    """A single phase (state) of a lifecycle model.

    Attributes:
        phase_id: identifier unique within the lifecycle (Table I ``id``).
        name: display name ("Internal review").
        actions: action calls executed, in parallel, upon entering the phase.
        terminal: True when the phase is an end phase.
        description: optional documentation shown in the designer/cockpit.
        deadline: optional relative deadline for leaving the phase.
        metadata: free-form annotations (not interpreted by the kernel).
    """

    phase_id: str
    name: str = ""
    actions: List[ActionCall] = field(default_factory=list)
    terminal: bool = False
    description: str = ""
    deadline: Optional[Deadline] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.phase_id:
            raise ModelError("a phase needs a non-empty id")
        if not self.name:
            self.name = self.phase_id
        if self.terminal and self.actions:
            raise ModelError(
                "end phase {!r} must not have actions (paper §IV.B)".format(self.phase_id)
            )

    @classmethod
    def named(cls, name: str, **kwargs) -> "Phase":
        """Create a phase whose id is derived from its display name."""
        return cls(phase_id=slugify(name), name=name, **kwargs)

    @property
    def is_empty(self) -> bool:
        """True when the phase has no actions (useful for pure monitoring phases)."""
        return not self.actions

    def add_action(self, call: ActionCall) -> "Phase":
        """Attach an action call; rejected on terminal phases."""
        self._require_mutable()
        if self.terminal:
            raise ModelError(
                "cannot add actions to end phase {!r} (paper §IV.B)".format(self.phase_id)
            )
        self.actions.append(call)
        return self

    def _label(self) -> str:
        return "phase {!r}".format(self.phase_id)

    def action_uris(self) -> List[str]:
        return [call.action_uri for call in self.actions]

    def copy(self) -> "Phase":
        return Phase(
            phase_id=self.phase_id,
            name=self.name,
            actions=[call.copy() for call in self.actions],
            terminal=self.terminal,
            description=self.description,
            deadline=self.deadline.copy() if self.deadline else None,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "phase_id": self.phase_id,
            "name": self.name,
            "actions": [call.to_dict() for call in self.actions],
            "terminal": self.terminal,
            "description": self.description,
            "deadline": self.deadline.to_dict() if self.deadline else None,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Phase":
        deadline_data = data.get("deadline")
        return cls(
            phase_id=data["phase_id"],
            name=data.get("name", data["phase_id"]),
            actions=[ActionCall.from_dict(item) for item in data.get("actions", [])],
            terminal=bool(data.get("terminal", False)),
            description=data.get("description", ""),
            deadline=Deadline.from_dict(deadline_data) if deadline_data else None,
            metadata=dict(data.get("metadata", {})),
        )
