"""Lifecycle execution runtime (paper §IV.B, §IV.C and the Fig. 2 kernel).

There is no workflow engine: "The engine is the human, who executes the
lifecycle instances (i.e., moves the tokens from phase to phase) and, while
doing so, initiates the execution of actions."  The runtime therefore exposes
operations that *humans* (instance owners, token owners) call — instantiate,
start, move — and takes care of everything mechanical: resolving and
dispatching actions, recording history, handling callbacks, propagating model
changes, and reducing instance migration to state migration.
"""

from ..workers import TaskHandle, WorkerPool
from .instance import InstanceStatus, LifecycleInstance, PhaseVisit
from .manager import InstanceIndex, LifecycleManager
from .propagation import ChangeProposal, PropagationDecision, PropagationService
from .migration import MigrationPlan, suggest_phase_mapping

__all__ = [
    "TaskHandle",
    "WorkerPool",
    "InstanceStatus",
    "InstanceIndex",
    "LifecycleInstance",
    "PhaseVisit",
    "LifecycleManager",
    "ChangeProposal",
    "PropagationDecision",
    "PropagationService",
    "MigrationPlan",
    "suggest_phase_mapping",
]
