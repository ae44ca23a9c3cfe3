"""The lifecycle model itself.

"In essence, a resource lifecycle is a set of phases and phase transitions,
similar to state machines and state charts" (§IV.A).  A
:class:`LifecycleModel` bundles the phases, the suggested transitions, the
version info and the *suggested* resource types the model targets (Table I's
``resource`` block).  It knows nothing about the concrete resource other than
that it will be identified by a URI and a type string.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from ..errors import DuplicatePhaseError, ModelError, UnknownPhaseError
from ..identifiers import new_id
from .actions import ActionCall
from .phase import Freezable, Phase
from .transition import BEGIN, END, Transition
from .versioning import VersionInfo


@dataclass
class LifecycleModel(Freezable):
    """A reusable lifecycle definition (the ``<process>`` of Table I).

    Publishing freezes a version (:meth:`freeze`): every instance started
    from it shares the one object, so the phase/transition mutators and
    attribute assignment then raise :class:`ModelError`.  :meth:`copy` and
    :meth:`new_version` return unfrozen models to edit.

    Attributes:
        name: display name, e.g. "EU Project deliverable lifecycle".
        uri: identifier of the model; generated when omitted.
        version: the ``version_info`` block.
        suggested_resource_types: resource types the composer had in mind;
            purely advisory (the model stays applicable to any resource for
            which the referenced actions resolve).
        description: free documentation.
        metadata: free-form data (not interpreted by the kernel).
    """

    name: str
    uri: str = field(default_factory=lambda: new_id("lifecycle"))
    version: VersionInfo = field(default_factory=VersionInfo)
    suggested_resource_types: List[str] = field(default_factory=list)
    description: str = ""
    metadata: Dict[str, Any] = field(default_factory=dict)
    _phases: Dict[str, Phase] = field(default_factory=dict)
    _transitions: List[Transition] = field(default_factory=list)

    # ------------------------------------------------------------------ phases
    @property
    def phases(self) -> List[Phase]:
        """Phases in insertion order."""
        return list(self._phases.values())

    @property
    def phase_ids(self) -> List[str]:
        return list(self._phases.keys())

    def phase(self, phase_id: str) -> Phase:
        """Return the phase with ``phase_id`` or raise :class:`UnknownPhaseError`."""
        try:
            return self._phases[phase_id]
        except (KeyError, TypeError):  # TypeError: an unhashable id off the wire
            raise UnknownPhaseError(
                "lifecycle {!r} has no phase {!r}".format(self.name, phase_id)
            ) from None

    def has_phase(self, phase_id: str) -> bool:
        return phase_id in self._phases

    def add_phase(self, phase: Phase) -> Phase:
        """Add a phase; ids must be unique within the lifecycle."""
        self._require_mutable()
        if phase.phase_id in self._phases:
            raise DuplicatePhaseError(
                "phase id {!r} already exists in lifecycle {!r}".format(phase.phase_id, self.name)
            )
        self._phases[phase.phase_id] = phase
        return phase

    def remove_phase(self, phase_id: str) -> Phase:
        """Remove a phase and every transition touching it."""
        self._require_mutable()
        phase = self.phase(phase_id)
        del self._phases[phase_id]
        self._transitions = [
            t for t in self._transitions if t.source != phase_id and t.target != phase_id
        ]
        return phase

    def rename_phase(self, phase_id: str, new_name: str) -> Phase:
        self._require_mutable()
        phase = self.phase(phase_id)
        phase.name = new_name
        return phase

    def terminal_phases(self) -> List[Phase]:
        """End phases: no actions, flagged terminal (paper §IV.B)."""
        return [phase for phase in self._phases.values() if phase.terminal]

    # -------------------------------------------------------------- transitions
    @property
    def transitions(self) -> List[Transition]:
        return list(self._transitions)

    def add_transition(self, source: str, target: str, label: str = "") -> Transition:
        """Add a suggested transition between two phases (or BEGIN/END markers)."""
        self._require_mutable()
        if source != BEGIN and source not in self._phases:
            raise UnknownPhaseError("transition source {!r} is not a phase".format(source))
        if target != END and target not in self._phases:
            raise UnknownPhaseError("transition target {!r} is not a phase".format(target))
        if source == BEGIN and target == END:
            raise ModelError("a transition cannot go directly from BEGIN to END")
        transition = Transition(source=source, target=target, label=label)
        if transition not in self._transitions:
            self._transitions.append(transition)
        return transition

    def remove_transition(self, source: str, target: str) -> None:
        self._require_mutable()
        self._transitions = [
            t for t in self._transitions if not (t.source == source and t.target == target)
        ]

    def initial_phases(self) -> List[Phase]:
        """Phases reachable from BEGIN; falls back to the first phase if unset."""
        initial = [t.target for t in self._transitions if t.source == BEGIN and t.target != END]
        if initial:
            return [self._phases[phase_id] for phase_id in initial if phase_id in self._phases]
        if self._phases:
            return [next(iter(self._phases.values()))]
        return []

    def successors(self, phase_id: str) -> List[Phase]:
        """Phases suggested as next steps from ``phase_id``."""
        self.phase(phase_id)
        targets = [t.target for t in self._transitions if t.source == phase_id and t.target != END]
        return [self._phases[target] for target in targets if target in self._phases]

    def predecessors(self, phase_id: str) -> List[Phase]:
        self.phase(phase_id)
        sources = [t.source for t in self._transitions if t.target == phase_id and t.source != BEGIN]
        return [self._phases[source] for source in sources if source in self._phases]

    def is_modeled_move(self, source_id: Optional[str], target_id: str) -> bool:
        """True when moving the token source -> target follows a modelled transition.

        A ``None`` source means the instance is being started, so the move is
        modelled when the target is an initial phase.
        """
        if source_id is None:
            return any(phase.phase_id == target_id for phase in self.initial_phases())
        return any(
            t.source == source_id and t.target == target_id for t in self._transitions
        )

    # ------------------------------------------------------------------ queries
    def action_calls(self) -> List[Tuple[str, ActionCall]]:
        """All (phase_id, action_call) pairs in the model."""
        pairs = []
        for phase in self._phases.values():
            for call in phase.actions:
                pairs.append((phase.phase_id, call))
        return pairs

    def referenced_action_uris(self) -> Set[str]:
        return {call.action_uri for _, call in self.action_calls()}

    def reachable_phases(self) -> Set[str]:
        """Phase ids reachable from the initial phases following transitions."""
        frontier = [phase.phase_id for phase in self.initial_phases()]
        seen: Set[str] = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for successor in self.successors(current):
                if successor.phase_id not in seen:
                    frontier.append(successor.phase_id)
        return seen

    def element_count(self) -> int:
        """Number of model elements (phases + transitions + action calls).

        Used by the "simplicity" experiment (E10) to compare definition sizes
        against the baseline workflow engine.
        """
        return len(self._phases) + len(self._transitions) + len(self.action_calls())

    # ------------------------------------------------------------ copies/freeze
    def freeze(self) -> "LifecycleModel":
        """Make this version immutable, phases included; returns ``self``.

        The catalog calls this when it stores a version (publish, replay,
        snapshot restore), so a frozen model is always a catalog version.
        """
        for phase in self._phases.values():
            phase._freeze()
        self._freeze()
        return self

    def _label(self) -> str:
        return "model {!r} version {}".format(self.uri, self.version.version_number)

    def copy(self, new_uri: bool = False) -> "LifecycleModel":
        """Deep, unfrozen copy of the model; optionally mint a fresh URI."""
        duplicate = LifecycleModel(
            name=self.name,
            uri=new_id("lifecycle") if new_uri else self.uri,
            version=self.version,
            suggested_resource_types=list(self.suggested_resource_types),
            description=self.description,
            metadata=dict(self.metadata),
        )
        for phase in self._phases.values():
            duplicate.add_phase(phase.copy())
        for transition in self._transitions:
            duplicate._transitions.append(transition)
        return duplicate

    def new_version(self, created_by: str = "") -> "LifecycleModel":
        """Copy the model and bump its version (used by change propagation)."""
        duplicate = self.copy(new_uri=False)
        duplicate.version = self.version.bump(created_by=created_by)
        return duplicate

    # ------------------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "uri": self.uri,
            "version": self.version.to_dict(),
            "suggested_resource_types": list(self.suggested_resource_types),
            "description": self.description,
            "metadata": dict(self.metadata),
            "phases": [phase.to_dict() for phase in self._phases.values()],
            "transitions": [transition.to_dict() for transition in self._transitions],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LifecycleModel":
        model = cls(
            name=data["name"],
            uri=data.get("uri") or new_id("lifecycle"),
            version=VersionInfo.from_dict(data.get("version", {})),
            suggested_resource_types=list(data.get("suggested_resource_types", [])),
            description=data.get("description", ""),
            metadata=dict(data.get("metadata", {})),
        )
        for phase_data in data.get("phases", []):
            model.add_phase(Phase.from_dict(phase_data))
        for transition_data in data.get("transitions", []):
            model._transitions.append(Transition.from_dict(transition_data))
        return model

    def __contains__(self, phase_id: str) -> bool:
        return phase_id in self._phases

    def __len__(self) -> int:
        return len(self._phases)
