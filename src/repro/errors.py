"""Exception hierarchy for the Gelee reproduction.

Every error raised by the library derives from :class:`GeleeError` so that
callers can catch library failures with a single ``except`` clause while the
more specific subclasses keep error handling precise inside the kernel.
"""

from __future__ import annotations


class GeleeError(Exception):
    """Base class for all errors raised by this library."""


class ModelError(GeleeError):
    """The lifecycle model is malformed or an operation on it is invalid."""


class ValidationError(ModelError):
    """A lifecycle or action definition failed validation.

    Carries the full list of problems so callers can report them all at once
    instead of fixing one issue per attempt.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        message = "; ".join(self.problems) if self.problems else "validation failed"
        super().__init__(message)


class UnknownPhaseError(ModelError):
    """A phase id was referenced that does not exist in the lifecycle."""


class DuplicatePhaseError(ModelError):
    """Two phases with the same id were added to a lifecycle."""


class SerializationError(GeleeError):
    """A definition could not be serialized or parsed (XML/JSON)."""


class ActionError(GeleeError):
    """Base class for action-related failures."""


class UnknownActionTypeError(ActionError):
    """An action type URI is not registered in the action registry."""


class ActionResolutionError(ActionError):
    """No implementation of an action type exists for a resource type."""


class ActionInvocationError(ActionError):
    """An action implementation failed while being invoked."""


class ParameterBindingError(ActionError):
    """An action parameter is missing, unexpected, or bound at the wrong time."""


class ResourceError(GeleeError):
    """Base class for resource-related failures."""


class UnknownResourceTypeError(ResourceError):
    """No plug-in/adapter is registered for the requested resource type."""


class ResourceNotFoundError(ResourceError):
    """A URI does not resolve to a resource in its managing application."""


class ResourceAccessError(ResourceError):
    """The managing application denied access to a resource."""


class RuntimeStateError(GeleeError):
    """An operation is not valid in the current state of a lifecycle instance."""


class InstanceNotFoundError(GeleeError):
    """A lifecycle instance id is unknown to the kernel."""


class LifecycleNotFoundError(GeleeError):
    """A lifecycle model id/URI is unknown to the kernel."""


class PermissionDeniedError(GeleeError):
    """The acting user lacks the role/permission required by the operation."""


class StorageError(GeleeError):
    """A repository failed to store or retrieve an entity."""


class JournalTruncatedError(StorageError):
    """A journal read hit a gap: the requested records were rotated out and
    truncated away (snapshotted segments are deleted by
    ``Journal.truncate_through``).

    This is a *resumable* condition, not corruption: the caller's cursor is
    merely stale.  A streaming follower recovers by re-bootstrapping from
    the newest snapshot and resuming the stream from its ``journal_seq``.
    Carries ``oldest_available`` (the first sequence number still on disk,
    0 when the journal is empty) so the caller can report how far behind
    it fell.
    """

    def __init__(self, message, oldest_available: int = 0):
        super().__init__(message)
        self.oldest_available = oldest_available


class ServiceError(GeleeError):
    """The service layer received a malformed or unroutable request."""


class OperationNotFoundError(GeleeError):
    """An async operation handle is unknown to the service."""


class TemplateError(GeleeError):
    """A lifecycle template is unknown or cannot be instantiated."""


class PropagationError(GeleeError):
    """A model-change propagation request is invalid or already resolved."""


class SchedulerError(GeleeError):
    """A timer/scheduler request is malformed or cannot be honoured."""


class TimerNotFoundError(SchedulerError):
    """The named timer is not pending."""


class ReplicationError(GeleeError):
    """A replication operation is invalid (bad cursor, double promotion,
    promoting a node that is not a replica, ...)."""


class TraceNotFoundError(GeleeError):
    """No retained span trace with the requested correlation id.

    The span store is a bounded ring: a trace that was never sampled (no
    spans recorded under its id) or has aged out of both the ring and the
    slow-trace exemplars answers with this."""


class NodeUnreachableError(GeleeError):
    """A cluster peer could not be reached (or answered with an error).

    ``/v2/runtime/cluster`` never fails the merged view over one dead
    peer: the unreachable node's row carries this error's payload while
    the envelope stays 200 with ``partial=true``.  Carries ``node_id``
    so the row is attributable even when the peer never answered."""

    def __init__(self, message, node_id: str = None):
        super().__init__(message)
        self.node_id = node_id


class CoordinationError(GeleeError):
    """A coordination operation is invalid (resigning a lease this node
    does not hold, misconfigured lease store, ...)."""


class NotLeaderError(CoordinationError):
    """The operation requires holding the leadership lease and this node
    does not (or no longer does)."""


class StaleFencingTokenError(GeleeError):
    """A write carried a fencing token older than the lease store's newest.

    The classic deposed-primary guard: a node that lost (or slept through)
    its leadership lease may still try to append to the journal or mutate
    the runtime; the monotonically increasing fencing token issued with
    every lease acquisition proves the write is stale and it is rejected.

    Deliberately **not** a :class:`StorageError` subclass: the persistence
    coordinator degrades gracefully on storage failures (a broken disk must
    not fail operations), but a fencing rejection means this node must stop
    writing *now* — swallowing it as a journal hiccup would let a deposed
    primary keep acknowledging writes that can never replicate.

    Carries the write's ``token`` and the ``latest`` token observed in the
    lease store (``0`` when unknown).
    """

    def __init__(self, message, token: int = 0, latest: int = 0):
        super().__init__(message)
        self.token = int(token)
        self.latest = int(latest)


class ReadOnlyReplicaError(RuntimeStateError):
    """A mutation was attempted on a read replica.

    Replicas serve reads only; writes must go to the primary.  ``primary``
    optionally carries a hint (URL, host:port, deployment name) telling the
    caller where the primary lives — the v2 error translation surfaces it
    in the error details.
    """

    def __init__(self, message, primary: str = None):
        super().__init__(message)
        self.primary = primary
