"""The lifecycle manager: design-time and runtime modules of the Gelee kernel.

Fig. 2: "The lifecycle manager is the heart of the system, and it has a
design time and a runtime module."  The design-time side stores and versions
lifecycle models; the runtime side receives progression events issued by the
(human) owners, resolves and dispatches phase actions through the resource
plug-ins, receives the action callbacks, and keeps every instance's history.

The manager enforces role-based permissions when an
:class:`~repro.accesscontrol.policy.AccessPolicy` is supplied, and publishes
every state change on the event bus so that the execution log, the monitoring
cockpit and the widgets stay informed.

Concurrency
-----------
Gelee is a hosted service: many owners progress their lifecycles at once
(§IV.C), over the threaded HTTP server, the scheduler and pooled
operations.  The manager therefore owns one reentrant kernel lock.  Every
public mutation and every read that walks the instance store, the
secondary indexes or the model store holds it, so bus subscribers (the
execution log, the journal) observe transitions in one serial order and
:meth:`LifecycleManager.quiesce` is a real barrier for checkpoints.  The
synchronous progression verbs submit under the lock and wait for their
action completions after releasing it; pooled completions re-acquire the
same lock to apply their outcome.
"""

from __future__ import annotations

import functools
import random
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..actions.binding import ActionResolver
from ..actions.completion import CompletionExecutor, PooledCompletionExecutor
from ..actions.invocation import (
    DEFAULT_RNG_SEED,
    ActionInvocation,
    ActionStatus,
    InvocationDispatcher,
    PendingInvocation,
    StatusMessage,
)
from ..clock import Clock, SystemClock
from ..errors import (
    GeleeError,
    InstanceNotFoundError,
    LifecycleNotFoundError,
    PermissionDeniedError,
    ReadOnlyReplicaError,
    RuntimeStateError,
    ValidationError,
)
from ..events import Event, EventBus
from ..identifiers import parse_callback_uri
from ..model.annotation import Annotation
from ..model.lifecycle import LifecycleModel
from ..model.validation import validate_lifecycle
from ..plugins.setup import StandardEnvironment
from ..resources.descriptor import ResourceDescriptor
from ..telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    current_trace_id,
    get_registry,
    span_scope,
)
from ..telemetry.profiling import TimedLock
from ..workers import WorkerPool
from .instance import InstanceStatus, LifecycleInstance
from .propagation import ChangeProposal, PropagationService


def _locked(method):
    """Run ``method`` holding the manager's kernel lock."""

    @functools.wraps(method)
    def locked(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return locked


class InstanceIndex:
    """Secondary indexes over the instances of one manager.

    The monitoring cockpit and the service listings filter instances by
    model, owner, resource, current phase and status; with the original
    single-dict design every such query was a linear scan over all
    instances.  The index keeps one ``key -> {instance_id: instance}``
    mapping per dimension so lookups touch only the matching instances.

    Phase and status are mutable, so the index remembers the position it
    last recorded per instance and :meth:`refresh` moves the entry when the
    manager mutates an instance (token move, model change, migration).
    """

    def __init__(self):
        self.by_model: Dict[str, Dict[str, LifecycleInstance]] = {}
        self.by_owner: Dict[str, Dict[str, LifecycleInstance]] = {}
        self.by_resource: Dict[str, Dict[str, LifecycleInstance]] = {}
        self.by_phase: Dict[Optional[str], Dict[str, LifecycleInstance]] = {}
        self.by_status: Dict[InstanceStatus, Dict[str, LifecycleInstance]] = {}
        #: instance id -> (model_uri, phase_id, status) as last indexed.
        self._positions: Dict[str, Tuple[str, Optional[str], InstanceStatus]] = {}

    def add(self, instance: LifecycleInstance) -> None:
        instance_id = instance.instance_id
        self.by_owner.setdefault(instance.owner, {})[instance_id] = instance
        self.by_resource.setdefault(instance.resource.uri, {})[instance_id] = instance
        self._index_position(instance)

    def refresh(self, instance: LifecycleInstance) -> None:
        """Re-file the instance under its current model/phase/status."""
        recorded = self._positions.get(instance.instance_id)
        current = (instance.model.uri, instance.current_phase_id, instance.status)
        if recorded == current:
            return
        if recorded is not None:
            model_uri, phase_id, status = recorded
            self._discard(self.by_model, model_uri, instance.instance_id)
            self._discard(self.by_phase, phase_id, instance.instance_id)
            self._discard(self.by_status, status, instance.instance_id)
        self._index_position(instance)

    def lookup(self, dimension: Dict[Any, Dict[str, LifecycleInstance]],
               key: Any) -> List[LifecycleInstance]:
        return list(dimension.get(key, {}).values())

    def counts(self, dimension: Dict[Any, Dict[str, LifecycleInstance]]) -> Dict[Any, int]:
        return {key: len(members) for key, members in dimension.items() if members}

    # ------------------------------------------------------------------ internal
    def _index_position(self, instance: LifecycleInstance) -> None:
        instance_id = instance.instance_id
        self.by_model.setdefault(instance.model.uri, {})[instance_id] = instance
        self.by_phase.setdefault(instance.current_phase_id, {})[instance_id] = instance
        self.by_status.setdefault(instance.status, {})[instance_id] = instance
        self._positions[instance_id] = (
            instance.model.uri, instance.current_phase_id, instance.status
        )

    @staticmethod
    def _discard(dimension: Dict[Any, Dict[str, LifecycleInstance]],
                 key: Any, instance_id: str) -> None:
        members = dimension.get(key)
        if members is not None:
            members.pop(instance_id, None)


class LifecycleManager:
    """Design-time and runtime operations over lifecycles and their instances."""

    #: Default time budget (seconds) quiesce spends draining in-flight
    #: actions before proceeding anyway; override per instance.
    quiesce_drain_timeout: float = 30.0

    def __init__(self, environment: StandardEnvironment, clock: Clock = None,
                 bus: EventBus = None, access_policy=None, strict_actions: bool = False,
                 rng: random.Random = None,
                 simulated_action_latency: Tuple[float, float] = (0.0, 0.0),
                 completion_executor: CompletionExecutor = None,
                 completion_workers: int = 0):
        """Create a manager on top of a wired environment.

        Args:
            environment: substrates, adapters, action registry and resource
                manager (see :func:`repro.plugins.setup.build_standard_environment`).
            clock: time source; defaults to the environment clock.
            bus: event bus; a private one is created when omitted.
            access_policy: optional role/permission enforcement
                (:class:`repro.accesscontrol.policy.AccessPolicy`).  When
                ``None`` every operation is allowed — convenient for tests and
                single-user scripts.
            strict_actions: when True, entering a phase fails if any of its
                actions cannot be resolved for the resource type; when False
                (the default, matching the paper's robustness requirement)
                unresolvable actions are skipped and reported as warnings.
            rng: randomness for the non-deterministic action ordering and the
                simulated latencies.  Defaults to a *seeded* RNG
                (``random.Random(DEFAULT_RNG_SEED)``) so that repeated runs —
                in particular benchmark runs — are reproducible; inject an
                unseeded ``random.Random()`` for genuine nondeterminism.
            simulated_action_latency: optional ``(min_s, max_s)`` wall-clock
                sleep per dispatched action, standing in for the web-service
                round-trip of remote action implementations (§IV.C).
            completion_executor: where submitted actions spend their
                round-trip (see :mod:`repro.actions.completion`).  Default
                is the inline executor — fully synchronous dispatch, the
                pre-refactor behaviour.
            completion_workers: when > 0 (and no ``completion_executor`` is
                given) the manager builds a :class:`~repro.workers.WorkerPool`
                of that many workers and dispatches through a
                :class:`~repro.actions.completion.PooledCompletionExecutor`
                on it, so that many action round-trips sleep concurrently
                outside the kernel lock.  :meth:`close` drains and stops it.
        """
        self._environment = environment
        self._clock = clock or environment.clock or SystemClock()
        self.bus = bus or EventBus()
        self._policy = access_policy
        self._strict_actions = strict_actions
        self._resolver = ActionResolver(environment.registry)
        self._rng = rng or random.Random(DEFAULT_RNG_SEED)
        # The kernel lock.  TimedLock samples acquisition waits into the
        # gelee_lock_wait_seconds{site="shard"} histogram; the site keeps
        # the label dashboards already read.
        self._lock = TimedLock(threading.RLock(), site="shard")
        self._worker_pool: Optional[WorkerPool] = None
        if completion_executor is None and completion_workers > 0:
            self._worker_pool = WorkerPool(completion_workers, name="gelee-kernel")
            completion_executor = PooledCompletionExecutor(self._worker_pool)
        self._dispatcher = InvocationDispatcher(
            clock=self._clock, rng=self._rng,
            simulated_latency=simulated_action_latency,
            completion_executor=completion_executor,
        )
        #: invocation id -> instance id of every submitted, not-yet-applied
        #: invocation; guarded by the condition below (never by the kernel
        #: lock, so drains can wait without blocking completions).
        self._in_flight: Dict[str, str] = {}
        self._in_flight_per_instance: Dict[str, int] = {}
        self._in_flight_cv = threading.Condition()
        #: model URI -> list of versions (oldest first); the last one is current.
        self._models: Dict[str, List[LifecycleModel]] = {}
        self._instances: Dict[str, LifecycleInstance] = {}
        self._index = InstanceIndex()
        self._read_only = False
        #: Optional fencing hook (:mod:`repro.coordination`): called with
        #: the operation name before every public mutation; raises to veto.
        self._write_guard = None
        self.propagation = PropagationService(clock=self._clock, bus=self.bus)
        registry = get_registry()
        self._metric_wait = registry.histogram(
            "gelee_dispatch_wait_seconds",
            "Submit-to-start wait of action invocations.",
            buckets=DEFAULT_LATENCY_BUCKETS)
        self._metric_execution = registry.histogram(
            "gelee_dispatch_execution_seconds",
            "Start-to-outcome execution time of action invocations.",
            buckets=DEFAULT_LATENCY_BUCKETS)
        completed_counter = registry.counter(
            "gelee_dispatch_completed_total",
            "Applied action completions by outcome.",
            labelnames=("outcome",))
        # Bound cells: completion is the hot path, so the label key is
        # resolved once here instead of per applied outcome.
        self._metric_completed_ok = completed_counter.bind(outcome="completed")
        self._metric_completed_failed = completed_counter.bind(outcome="failed")

    # ------------------------------------------------------------------ plumbing
    @property
    def read_only(self) -> bool:
        """Whether this runtime rejects mutations (read-replica mode)."""
        return self._read_only

    def set_read_only(self, value: bool) -> None:
        """Flip read-replica mode.

        Read-only gates the *public* mutating operations (publish,
        instantiate, progression, annotation, propagation, action dispatch,
        callbacks); the silent recovery hooks (``install_model`` /
        ``install_instance`` / ``reindex_instance``) stay writable — they
        are exactly how replication applies the primary's stream.
        Promotion flips this back off.

        Flipping *to* read-only also drains in-flight action completions:
        the flip stops new submissions first, then waits for pending ones to
        apply, so no primary-era action lands after the barrier.
        """
        with self._lock:
            self._read_only = bool(value)
        if value:
            self.drain_in_flight(timeout=self.quiesce_drain_timeout)

    @_locked
    def set_write_guard(self, guard) -> None:
        """Install (or with ``None`` remove) the fencing write guard.

        ``guard(operation)`` runs before the read-only check on every
        public mutation; the coordination subsystem uses it to raise
        :class:`~repro.errors.StaleFencingTokenError` once this node's
        leadership epoch has been superseded — the caller gets the precise
        "you were deposed" answer instead of a generic read-only 409.
        Like read-only mode, the silent recovery/replication hooks are not
        guarded.
        """
        self._write_guard = guard

    def _ensure_writable(self, operation: str) -> None:
        if self._write_guard is not None:
            self._write_guard(operation)
        if self._read_only:
            raise ReadOnlyReplicaError(
                "this runtime is a read replica; {} must be sent to the "
                "primary".format(operation))

    @property
    def clock(self) -> Clock:
        return self._clock

    @property
    def rng(self) -> random.Random:
        return self._rng

    @property
    def index(self) -> InstanceIndex:
        """The secondary indexes (model/owner/resource/phase/status)."""
        return self._index

    @property
    def environment(self) -> StandardEnvironment:
        return self._environment

    @property
    def resolver(self) -> ActionResolver:
        return self._resolver

    @property
    def completion_executor(self) -> "CompletionExecutor":
        """Where submitted action round-trips run (inline by default)."""
        return self._dispatcher.completion_executor

    @property
    def worker_pool(self) -> Optional[WorkerPool]:
        """The completion pool built for ``completion_workers`` (None when
        dispatch is inline, the executor was injected, or after close)."""
        return self._worker_pool

    @contextmanager
    def quiesce(self, drain_timeout: float = None):
        """Drain in-flight actions, then hold the kernel lock.

        Used by the persistence coordinator to capture a consistent
        point-in-time checkpoint: while the lock is held no mutation runs
        and no event is published.

        Queued pooled completions also need the lock to apply, so waiting
        for them while holding it would deadlock.  The loop therefore
        drains first, acquires, and — if submissions slipped in between —
        releases and drains again, bounded by ``drain_timeout`` (default
        :attr:`quiesce_drain_timeout`).  On timeout the checkpoint proceeds
        with actions still in flight: they are captured in their RUNNING
        state and deterministically failed on recovery (see
        :func:`repro.persistence.recovery.fail_interrupted_invocations`).
        """
        timeout = self.quiesce_drain_timeout if drain_timeout is None else drain_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            drained = self.drain_in_flight(timeout=remaining)
            self._lock.acquire()
            if not drained or self.in_flight_count() == 0:
                break
            self._lock.release()
        try:
            yield self
        finally:
            self._lock.release()

    def close(self, drain_timeout: float = None) -> None:
        """Drain pending completions and stop the completion pool.

        Idempotent, and a no-op beyond the drain when no pool was built.
        """
        self.drain_in_flight(
            timeout=self.quiesce_drain_timeout if drain_timeout is None
            else drain_timeout)
        pool, self._worker_pool = self._worker_pool, None
        if pool is not None:
            pool.close()

    # -------------------------------------------------------- in-flight registry
    def in_flight_count(self) -> int:
        """Submitted invocations whose completion has not been applied yet."""
        with self._in_flight_cv:
            return len(self._in_flight)

    def in_flight_for(self, instance_id: str) -> int:
        """Pending completions of one instance."""
        with self._in_flight_cv:
            return self._in_flight_per_instance.get(instance_id, 0)

    def drain_in_flight(self, timeout: float = None) -> bool:
        """Wait until no completions are pending; True unless timed out.

        Never call this while holding the kernel lock — pending
        completions need that lock to apply, so the wait could not end.
        """
        return self._await(lambda: not self._in_flight, timeout)

    def wait_for_instance(self, instance_id: str, timeout: float = None) -> bool:
        """Wait until one instance has no pending completions."""
        return self._await(
            lambda: instance_id not in self._in_flight_per_instance, timeout)

    def wait_for_invocation(self, invocation_id: str, timeout: float = None) -> bool:
        """Wait until one specific invocation's completion was applied."""
        return self._await(lambda: invocation_id not in self._in_flight, timeout)

    def _await(self, settled: Callable[[], bool], timeout: float) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._in_flight_cv:
            while not settled():
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._in_flight_cv.wait(remaining)
        return True

    # ================================================================ design time
    @_locked
    def publish_model(self, model: LifecycleModel, actor: str = "") -> LifecycleModel:
        """Validate, freeze and store a lifecycle model (new model or new version).

        The stored version is ``model`` itself, frozen: every instance
        started from it shares it, so it cannot be edited in place
        afterwards (the caller's reference included).  Publish an edited
        :meth:`~repro.model.lifecycle.LifecycleModel.new_version` instead.
        """
        self._ensure_writable("model publication")
        self._check(actor, "model.publish", model.uri)
        validate_lifecycle(model)
        versions = self._models.setdefault(model.uri, [])
        if versions and versions[-1].version.version_number == model.version.version_number:
            raise ValidationError(
                ["version {} of model {!r} is already published".format(
                    model.version.version_number, model.uri)]
            )
        versions.append(model.freeze())
        kind = "model.updated" if len(versions) > 1 else "model.published"
        self._publish(kind, model.uri, actor,
                      name=model.name, version=model.version.version_number)
        return model

    @_locked
    def model(self, model_uri: str, version: str = None) -> LifecycleModel:
        """Return a stored model (latest version unless ``version`` is given)."""
        versions = self._models.get(model_uri)
        if not versions:
            raise LifecycleNotFoundError("no lifecycle model with URI {!r}".format(model_uri))
        if version is None:
            return versions[-1]
        for candidate in versions:
            if candidate.version.version_number == version:
                return candidate
        raise LifecycleNotFoundError(
            "model {!r} has no version {!r}".format(model_uri, version)
        )

    @_locked
    def model_versions(self, model_uri: str) -> List[str]:
        return [m.version.version_number for m in self._models.get(model_uri, [])]

    @_locked
    def models(self) -> List[LifecycleModel]:
        """The latest version of every published model."""
        return [versions[-1] for versions in self._models.values()]

    @_locked
    def applicable_resource_types(self, model_uri: str) -> List[str]:
        """Resource types on which every action of the model resolves."""
        model = self.model(model_uri)
        calls = [call for _, call in model.action_calls()]
        return self._resolver.applicable_resource_types(calls)

    # ============================================================ recovery hooks
    # Used by :mod:`repro.persistence.recovery` (and usable by replication) to
    # rebuild kernel state *without* re-running validation, action dispatch or
    # event publication — recovered state must not be journaled again.

    @_locked
    def install_model(self, model: LifecycleModel) -> bool:
        """Install (and freeze) an already-validated model version silently.

        Returns ``False`` (and leaves the store untouched) when that version
        is already installed, so replaying a journal is idempotent.
        """
        versions = self._models.setdefault(model.uri, [])
        if any(existing.version.version_number == model.version.version_number
               for existing in versions):
            return False
        versions.append(model.freeze())
        return True

    @_locked
    def install_instance(self, instance: LifecycleInstance) -> LifecycleInstance:
        """Insert a rebuilt instance silently (no events, no resource check).

        The instance id must be fresh: recovery creates each instance exactly
        once and applies later journal records to the same object.
        """
        if instance.instance_id in self._instances:
            raise RuntimeStateError(
                "an instance with id {!r} already exists".format(instance.instance_id)
            )
        self._instances[instance.instance_id] = instance
        self._index.add(instance)
        return instance

    @_locked
    def reindex_instance(self, instance_id: str) -> None:
        """Re-file an instance mutated outside the manager (journal replay)."""
        self._index.refresh(self.instance(instance_id))

    # ================================================================== runtime
    @_locked
    def instantiate(self, model_uri: str, resource: ResourceDescriptor, owner: str,
                    actor: str = None, version: str = None,
                    instantiation_parameters: Dict[str, Dict[str, Any]] = None,
                    token_owners: List[str] = None,
                    metadata: Dict[str, Any] = None,
                    instance_id: str = None) -> LifecycleInstance:
        """Create a lifecycle instance on a resource.

        The instance follows the stored, frozen model version itself; it is
        shared with every other instance of that version, not copied.  Light
        coupling still holds: republishing never touches a live instance, and
        :meth:`change_instance_model` gives the instance its own copy.  The
        instance also receives the instantiation-time parameter bindings ("actions can be configured if
        necessary", §IV.B).  The token is not placed yet; call :meth:`start`.

        ``instance_id`` pins the id of the new instance; when omitted a
        fresh unique id is generated.
        """
        self._ensure_writable("instance creation")
        actor = actor or owner
        self._check(actor, "instance.create", model_uri)
        model = self.model(model_uri, version=version)
        self._environment.resource_manager.require(resource)
        if instance_id is not None and instance_id in self._instances:
            raise RuntimeStateError(
                "an instance with id {!r} already exists".format(instance_id)
            )
        extra = {"instance_id": instance_id} if instance_id is not None else {}
        instance = LifecycleInstance(
            model=model,
            resource=resource,
            owner=owner,
            created_at=self._clock.now(),
            metadata=dict(metadata or {}),
            **extra,
        )
        for token_owner in token_owners or []:
            instance.grant_token_ownership(token_owner)
        for call_id, parameters in (instantiation_parameters or {}).items():
            instance.bind_instantiation_parameters(call_id, parameters)
        self._instances[instance.instance_id] = instance
        self._index.add(instance)
        self._publish("instance.created", instance.instance_id, actor,
                      model_uri=model_uri, resource_uri=resource.uri, owner=owner)
        return instance

    def batch_instantiate(self, requests: List[Dict[str, Any]],
                          capture_errors: bool = False) -> List[Any]:
        """Create many instances; one list entry per request, in order.

        Each request is the kwargs of :meth:`instantiate`.  The batch runs as
        one serial drain under the kernel lock (see :meth:`_drain` for the
        error policy).
        """
        return self._drain(requests, capture_errors,
                           lambda request: self.instantiate(**request))

    def map_instances(self, instance_ids: List[str],
                      operation: Callable[["LifecycleManager", str], Any],
                      capture_errors: bool = False) -> List[Any]:
        """Apply ``operation(manager, instance_id)`` to each id, in order.

        The whole batch runs as one serial drain under the kernel lock (see
        :meth:`_drain` for the error policy), so ``operation`` must not wait
        for pooled completions: use the ``*_async`` verbs and drain after.
        """
        return self._drain(instance_ids, capture_errors,
                           lambda instance_id: operation(self, instance_id))

    def _drain(self, items: List[Any], capture_errors: bool,
               apply: Callable[[Any], Any]) -> List[Any]:
        """Apply ``apply`` to every item holding the lock, in a ``shard.drain`` span.

        ``Exception`` is the unit of per-item failure: with
        ``capture_errors`` it takes the item's place in the results and the
        drain continues — the bulk API reports partial failures per item —
        otherwise the first one aborts the drain and is raised.
        ``KeyboardInterrupt``/``SystemExit`` always abort.
        """
        results: List[Any] = []
        with span_scope("shard.drain", items=len(items)), self._lock:
            for item in items:
                try:
                    results.append(apply(item))
                except Exception as exc:  # noqa: BLE001 - captured per item
                    if not capture_errors:
                        raise
                    results.append(exc)
        return results

    @_locked
    def instance(self, instance_id: str) -> LifecycleInstance:
        try:
            return self._instances[instance_id]
        except KeyError:
            raise InstanceNotFoundError(
                "no lifecycle instance with id {!r}".format(instance_id)
            ) from None

    def peek_instance(self, instance_id: str) -> Optional[LifecycleInstance]:
        """Lock-free lookup: the instance, or ``None`` when unknown.

        Exists for bus subscribers (the persistence coordinator).  The
        kernel publishes while holding its lock, so a subscriber already
        runs inside the critical section; re-entering the lock would only
        add a sampled acquire to the lock-wait histogram for every event.
        Safe because an instance is fully constructed before any event
        about it is published.
        """
        return self._instances.get(instance_id)

    @_locked
    def instances(self, model_uri: str = None, owner: str = None,
                  status: InstanceStatus = None,
                  phase_id: str = None) -> List[LifecycleInstance]:
        """List instances, optionally filtered by model, owner, status or phase.

        Filtered queries are answered from the secondary indexes: the most
        selective dimension provides the candidate set and the remaining
        filters are verified per candidate, so a query never scans instances
        that cannot match.
        """
        candidates = self._candidates(model_uri, owner, status, phase_id)
        result = []
        for instance in candidates:
            if model_uri is not None and instance.model.uri != model_uri:
                continue
            if owner is not None and instance.owner != owner:
                continue
            if status is not None and instance.status is not status:
                continue
            if phase_id is not None and instance.current_phase_id != phase_id:
                continue
            result.append(instance)
        return result

    @_locked
    def instance_count(self) -> int:
        return len(self._instances)

    @_locked
    def instances_for_resource(self, resource_uri: str) -> List[LifecycleInstance]:
        """All instances attached to a URI — several may run at once (§IV.B)."""
        return self._index.lookup(self._index.by_resource, resource_uri)

    @_locked
    def phase_distribution(self, model_uri: str = None) -> Dict[Optional[str], int]:
        """Instances per current phase id (``None`` = not started), from the index."""
        if model_uri is None:
            return self._index.counts(self._index.by_phase)
        counts: Dict[Optional[str], int] = {}
        for instance in self._index.lookup(self._index.by_model, model_uri):
            counts[instance.current_phase_id] = counts.get(instance.current_phase_id, 0) + 1
        return counts

    @_locked
    def owner_distribution(self) -> Dict[str, int]:
        """Instances per owner, straight from the index."""
        return self._index.counts(self._index.by_owner)

    @_locked
    def status_distribution(self) -> Dict[InstanceStatus, int]:
        """Instances per status, straight from the index."""
        return self._index.counts(self._index.by_status)

    def _candidates(self, model_uri, owner, status, phase_id) -> List[LifecycleInstance]:
        """Pick the smallest indexed candidate set for an instances() query."""
        pools = []
        if model_uri is not None:
            pools.append(self._index.by_model.get(model_uri, {}))
        if owner is not None:
            pools.append(self._index.by_owner.get(owner, {}))
        if status is not None:
            pools.append(self._index.by_status.get(status, {}))
        if phase_id is not None:
            pools.append(self._index.by_phase.get(phase_id, {}))
        if not pools:
            return list(self._instances.values())
        smallest = min(pools, key=len)
        return list(smallest.values())

    # ------------------------------------------------------------- progression
    # Every token move comes in two flavours: ``*_async`` submits the phase
    # actions under the kernel lock and returns as soon as the token has
    # moved (completions apply later, wherever the completion executor runs
    # them), while the classic synchronous name is a thin wrapper — submit,
    # then wait for the instance's pending completions *after releasing the
    # lock*, since waiting inside it would deadlock against completions
    # re-acquiring it.  With the default inline executor the wait is a no-op.

    def start(self, instance_id: str, actor: str, phase_id: str = None,
              call_parameters: Dict[str, Dict[str, Any]] = None) -> LifecycleInstance:
        """Place the token on an initial phase and run its actions."""
        with span_scope("shard.apply", operation="start_async"):
            instance = self.start_async(instance_id, actor, phase_id=phase_id,
                                        call_parameters=call_parameters)
            self.wait_for_instance(instance_id)
        return instance

    @_locked
    def start_async(self, instance_id: str, actor: str, phase_id: str = None,
                    call_parameters: Dict[str, Dict[str, Any]] = None) -> LifecycleInstance:
        """Place the token on an initial phase and submit its actions."""
        self._ensure_writable("token moves")
        instance = self.instance(instance_id)
        self._check_token_move(actor, instance)
        if instance.current_phase_id is not None:
            raise RuntimeStateError("instance {!r} was already started".format(instance_id))
        initial = instance.model.initial_phases()
        if phase_id is None:
            if not initial:
                raise RuntimeStateError("the model has no phases to start from")
            phase_id = initial[0].phase_id
        followed = instance.model.is_modeled_move(None, phase_id)
        return self._enter_phase(instance, phase_id, actor, followed, call_parameters)

    def advance(self, instance_id: str, actor: str, to_phase_id: str = None,
                call_parameters: Dict[str, Dict[str, Any]] = None,
                annotation: str = None) -> LifecycleInstance:
        """Move the token along a modelled transition.

        With ``to_phase_id`` omitted the single suggested successor is used;
        when the model suggests several, the owner must choose one (that is
        the "human in the driver's seat").
        """
        with span_scope("shard.apply", operation="advance_async"):
            instance = self.advance_async(instance_id, actor, to_phase_id=to_phase_id,
                                          call_parameters=call_parameters,
                                          annotation=annotation)
            self.wait_for_instance(instance_id)
        return instance

    @_locked
    def advance_async(self, instance_id: str, actor: str, to_phase_id: str = None,
                      call_parameters: Dict[str, Dict[str, Any]] = None,
                      annotation: str = None) -> LifecycleInstance:
        """:meth:`advance` without waiting for the submitted actions."""
        self._ensure_writable("token moves")
        instance = self.instance(instance_id)
        self._check_token_move(actor, instance)
        if instance.current_phase_id is None:
            return self.start_async(instance_id, actor, phase_id=to_phase_id,
                                    call_parameters=call_parameters)
        successors = instance.model.successors(instance.current_phase_id)
        if to_phase_id is None:
            if len(successors) != 1:
                raise RuntimeStateError(
                    "phase {!r} suggests {} next phases; specify which one to move to".format(
                        instance.current_phase_id, len(successors)
                    )
                )
            to_phase_id = successors[0].phase_id
        followed = instance.model.is_modeled_move(instance.current_phase_id, to_phase_id)
        result = self._enter_phase(instance, to_phase_id, actor, followed, call_parameters)
        if annotation:
            self.annotate(instance_id, actor, annotation,
                          kind="note" if followed else "deviation")
        return result

    def move_to(self, instance_id: str, actor: str, phase_id: str,
                call_parameters: Dict[str, Dict[str, Any]] = None,
                annotation: str = None) -> LifecycleInstance:
        """Move the token to *any* phase, modelled or not.

        "the lifecycle owner can at any time move the token to any phase"
        (§IV.B).  Off-model moves are recorded as deviations, and the optional
        annotation explains why.
        """
        with span_scope("shard.apply", operation="move_to_async"):
            instance = self.move_to_async(instance_id, actor, phase_id,
                                          call_parameters=call_parameters,
                                          annotation=annotation)
            self.wait_for_instance(instance_id)
        return instance

    @_locked
    def move_to_async(self, instance_id: str, actor: str, phase_id: str,
                      call_parameters: Dict[str, Dict[str, Any]] = None,
                      annotation: str = None) -> LifecycleInstance:
        """:meth:`move_to` without waiting for the submitted actions."""
        self._ensure_writable("token moves")
        instance = self.instance(instance_id)
        self._check_token_move(actor, instance)
        followed = instance.model.is_modeled_move(instance.current_phase_id, phase_id)
        instance.reopen()
        result = self._enter_phase(instance, phase_id, actor, followed, call_parameters)
        if annotation:
            self.annotate(instance_id, actor, annotation,
                          kind="note" if followed else "deviation")
        return result

    def skip_to(self, instance_id: str, actor: str, phase_id: str, reason: str) -> LifecycleInstance:
        """Deviation helper: jump to a phase documenting why (e.g. skipping a review)."""
        return self.move_to(instance_id, actor, phase_id, annotation=reason)

    def skip_to_async(self, instance_id: str, actor: str, phase_id: str,
                      reason: str) -> LifecycleInstance:
        """:meth:`skip_to` without waiting for the submitted actions."""
        return self.move_to_async(instance_id, actor, phase_id, annotation=reason)

    @_locked
    def annotate(self, instance_id: str, actor: str, text: str, phase_id: str = None,
                 kind: str = "note") -> Annotation:
        """Attach a free-text annotation to the instance."""
        self._ensure_writable("annotations")
        instance = self.instance(instance_id)
        self._check(actor, "instance.annotate", instance_id)
        annotation = Annotation(
            text=text,
            author=actor,
            created_at=self._clock.now(),
            phase_id=phase_id if phase_id is not None else instance.current_phase_id,
            kind=kind,
        )
        instance.annotate(annotation)
        self._publish("instance.annotated", instance_id, actor,
                      text=text, kind=kind, phase_id=annotation.phase_id)
        return annotation

    @_locked
    def bind_parameters(self, instance_id: str, actor: str, call_id: str,
                        parameters: Dict[str, Any]) -> None:
        """Bind instantiation-time parameters after creation (late configuration)."""
        self._ensure_writable("parameter binding")
        instance = self.instance(instance_id)
        self._check(actor, "instance.configure", instance_id)
        instance.bind_instantiation_parameters(call_id, parameters)

    # ---------------------------------------------------------- model evolution
    @_locked
    def change_instance_model(self, instance_id: str, actor: str, model: LifecycleModel,
                              target_phase_id: str = None) -> LifecycleInstance:
        """Let the owner give one instance its own copy of another model.

        "owners can change the lifecycle followed by a resource, in other
        words they can change the model associated to a lifecycle instance"
        (§IV.B).  The replacement model does not need to be published.
        """
        self._ensure_writable("model changes")
        instance = self.instance(instance_id)
        self._check(actor, "instance.change_model", instance_id)
        validate_lifecycle(model)
        target = target_phase_id
        if target is None and instance.current_phase_id is not None:
            if model.has_phase(instance.current_phase_id):
                target = instance.current_phase_id
            else:
                initial = model.initial_phases()
                target = initial[0].phase_id if initial else None
        instance.replace_model(model.copy(), target)
        self._index.refresh(instance)
        self._publish("instance.model_changed", instance_id, actor,
                      model_uri=model.uri, version=model.version.version_number,
                      target_phase=target)
        return instance

    @_locked
    def propose_change(self, model: LifecycleModel, actor: str,
                       instance_ids: List[str] = None) -> List[ChangeProposal]:
        """Publish a new model version and open propagation proposals.

        Proposals are opened for the given instances (default: every active
        instance of the model); owners decide later via :meth:`accept_change`
        or :meth:`reject_change`; instances already on the new version are
        skipped.
        """
        self.publish_model(model, actor=actor)
        if instance_ids is None:
            targets = [
                instance
                for instance in self._index.lookup(self._index.by_model, model.uri)
                if not instance.is_completed
            ]
        else:
            targets = [self.instance(instance_id) for instance_id in instance_ids]
        proposals = []
        for instance in targets:
            if instance.model_version == model.version.version_number:
                continue
            proposals.append(self.propagation.propose(instance, model, requested_by=actor))
        return proposals

    @_locked
    def accept_change(self, proposal_id: str, actor: str, target_phase_id: str = None):
        """Owner accepts a propagation proposal (state migration)."""
        self._ensure_writable("change propagation")
        proposal = self.propagation.proposal(proposal_id)
        instance = self.instance(proposal.instance_id)
        self._check(actor, "instance.change_model", instance.instance_id)
        plan = self.propagation.accept(proposal_id, instance, decided_by=actor,
                                       target_phase_id=target_phase_id)
        self._index.refresh(instance)
        return plan

    @_locked
    def reject_change(self, proposal_id: str, actor: str, reason: str = ""):
        """Owner rejects a propagation proposal; the instance keeps its model."""
        self._ensure_writable("change propagation")
        proposal = self.propagation.proposal(proposal_id)
        instance = self.instance(proposal.instance_id)
        self._check(actor, "instance.change_model", instance.instance_id)
        return self.propagation.reject(proposal_id, decided_by=actor, reason=reason)

    # ------------------------------------------------------------- re-dispatch
    def invoke_action(self, instance_id: str, actor: str, call_id: str) -> ActionInvocation:
        """Dispatch one of the current phase's bound action calls on demand.

        Submit + wait: the returned invocation is terminal.  See
        :meth:`invoke_action_async` for the fire-and-observe variant the
        scheduler's retry machinery uses.
        """
        with span_scope("shard.apply", operation="invoke_action_async"):
            invocation = self.invoke_action_async(instance_id, actor, call_id)
            self.wait_for_invocation(invocation.invocation_id)
        return invocation

    @_locked
    def invoke_action_async(self, instance_id: str, actor: str,
                            call_id: str) -> ActionInvocation:
        """Submit one of the current phase's bound action calls on demand.

        The clock-driven hook used by :mod:`repro.scheduler` — deadline
        escalation with policy ``"invoke"`` fires the designated call, and
        retry-with-backoff re-fires a call whose earlier invocation failed.
        The invocation is recorded on the *current open visit* exactly like
        an entry-time dispatch, and the same ``action.dispatched`` /
        ``action.completed`` / ``action.failed`` events are published; the
        terminal one arrives when the completion is applied, which is what
        the scheduler's event subscriptions ride.
        """
        self._ensure_writable("action dispatch")
        instance = self.instance(instance_id)
        # Re-firing a phase action is progression-level privilege: gate it
        # exactly like a token move (a view-only stakeholder must not be
        # able to dispatch side-effectful actions).
        self._check_token_move(actor, instance)
        phase = instance.current_phase()
        visit = instance.current_visit()
        if phase is None or visit is None:
            raise RuntimeStateError(
                "instance {!r} has no open phase visit to invoke actions on".format(
                    instance_id))
        call = next((c for c in phase.actions if c.call_id == call_id), None)
        if call is None:
            raise RuntimeStateError(
                "phase {!r} of instance {!r} has no action call {!r}".format(
                    phase.phase_id, instance_id, call_id))
        resource_type = instance.resource.resource_type
        resolved = self._resolver.resolve(
            call, resource_type,
            instantiation_parameters=instance.instantiation_parameters.get(call_id, {}),
            call_parameters={},
        )
        invocation = self._resolver.build_invocation(
            resolved, instance.resource.uri, resource_type,
            instance.instance_id, phase.phase_id,
        )
        visit.invocations.append(invocation)
        adapter = self._environment.adapter(resource_type)
        context = adapter.context_for(instance.resource.uri, resolved.parameters,
                                      actor=actor)

        def executor(inv: ActionInvocation) -> Dict[str, Any]:
            return resolved.implementation.callable(context)

        self._submit_invocation(instance, phase.phase_id, actor, invocation, executor)
        return invocation

    # -------------------------------------------------------------- callbacks
    @_locked
    def handle_callback(self, callback_uri: str, status: str, detail: str = "",
                        **payload: Any) -> StatusMessage:
        """Receive a status message sent by an action to its callback URI.

        This is the entry point used by the service layer when an external
        action implementation reports progress (§IV.C); statuses are
        informational and never move the token.
        """
        self._ensure_writable("action callbacks")
        instance_id, phase_id, call_id = parse_callback_uri(callback_uri)
        instance = self.instance(instance_id)
        for visit in reversed(instance.visits):
            if visit.phase_id != phase_id:
                continue
            for invocation in visit.invocations:
                if invocation.call_id == call_id:
                    message = StatusMessage(status=status, detail=detail,
                                            timestamp=self._clock.now(), payload=payload)
                    invocation.record(message)
                    self._publish("action.status", instance_id, None,
                                  call_id=call_id, status=status, detail=detail)
                    return message
        raise RuntimeStateError(
            "no invocation matches callback {!r}".format(callback_uri)
        )

    # ------------------------------------------------------------------ internal
    def _enter_phase(self, instance: LifecycleInstance, phase_id: str, actor: str,
                     followed_model: bool,
                     call_parameters: Dict[str, Dict[str, Any]] = None) -> LifecycleInstance:
        previous_phase = instance.current_phase_id
        visit = instance.record_entry(phase_id, self._clock.now(), actor, followed_model)
        self._index.refresh(instance)
        if previous_phase is not None:
            self._publish("instance.phase_left", instance.instance_id, actor,
                          phase_id=previous_phase)
        self._publish("instance.phase_entered", instance.instance_id, actor,
                      phase_id=phase_id, followed_model=followed_model,
                      resource_uri=instance.resource.uri)
        self._execute_phase_actions(instance, phase_id, actor, visit, call_parameters)
        if instance.is_completed:
            self._publish("instance.completed", instance.instance_id, actor,
                          phase_id=phase_id)
        return instance

    def _execute_phase_actions(self, instance: LifecycleInstance, phase_id: str, actor: str,
                               visit, call_parameters: Dict[str, Dict[str, Any]] = None) -> None:
        phase = instance.model.phase(phase_id)
        if not phase.actions:
            return
        resource_type = instance.resource.resource_type
        unresolvable = self._resolver.unresolvable_calls(phase.actions, resource_type)
        if unresolvable and self._strict_actions:
            raise RuntimeStateError(
                "actions {} have no implementation for resource type {!r}".format(
                    [call.name or call.action_uri for call in unresolvable], resource_type
                )
            )
        for call in unresolvable:
            self._publish("action.skipped", instance.instance_id, actor,
                          action_uri=call.action_uri, reason="no implementation for {}".format(
                              resource_type))
        adapter = self._environment.adapter(resource_type)
        invocations: List[ActionInvocation] = []
        failed_bindings: List[ActionInvocation] = []
        contexts = {}
        for call in phase.actions:
            if call in unresolvable:
                continue
            try:
                resolved = self._resolver.resolve(
                    call, resource_type,
                    instantiation_parameters=instance.instantiation_parameters.get(
                        call.call_id, {}),
                    call_parameters=(call_parameters or {}).get(call.call_id, {}),
                )
            except GeleeError as exc:
                if self._strict_actions:
                    raise
                # "Actions are not guaranteed to succeed": a call that cannot be
                # configured is recorded as a failed invocation instead of
                # blocking the (human-driven) token move.
                failed = ActionInvocation(
                    action_uri=call.action_uri,
                    action_name=call.name or call.action_uri,
                    call_id=call.call_id,
                    resource_uri=instance.resource.uri,
                    resource_type=resource_type,
                )
                failed.status = ActionStatus.FAILED
                failed.error = str(exc)
                failed_bindings.append(failed)
                continue
            invocation = self._resolver.build_invocation(
                resolved, instance.resource.uri, resource_type,
                instance.instance_id, phase_id,
            )
            invocations.append(invocation)
            contexts[invocation.invocation_id] = (resolved, adapter.context_for(
                instance.resource.uri, resolved.parameters, actor=actor))
        visit.invocations.extend(failed_bindings)
        for failed in failed_bindings:
            self._publish("action.failed", instance.instance_id, actor,
                          action_uri=failed.action_uri, action_name=failed.action_name,
                          call_id=failed.call_id, phase_id=phase_id, error=failed.error)
        visit.invocations.extend(invocations)

        def executor(invocation: ActionInvocation) -> Dict[str, Any]:
            resolved, context = contexts[invocation.invocation_id]
            return resolved.implementation.callable(context)

        # The paper's non-deterministic order (§IV.A): the one place a
        # phase's actions are shuffled, under the kernel's seeded rng.
        ordered = list(invocations)
        self._rng.shuffle(ordered)
        for invocation in ordered:
            self._submit_invocation(instance, phase_id, actor, invocation, executor)

    def _submit_invocation(self, instance: LifecycleInstance, phase_id: str,
                           actor: str, invocation: ActionInvocation,
                           executor: Callable[[ActionInvocation], Dict[str, Any]],
                           ) -> PendingInvocation:
        """Register, announce and submit one invocation (submit phase).

        Runs under the kernel lock.  The ``action.dispatched`` event is
        published here — at submit time — so the journal records the
        in-flight window; the terminal event is published by the completion
        handler below, which re-acquires the kernel lock only to apply the
        outcome.
        """
        instance_id = instance.instance_id
        self._publish("action.dispatched", instance_id, actor,
                      action_uri=invocation.action_uri,
                      action_name=invocation.action_name,
                      call_id=invocation.call_id, phase_id=phase_id)
        with self._in_flight_cv:
            self._in_flight[invocation.invocation_id] = instance_id
            self._in_flight_per_instance[instance_id] = \
                self._in_flight_per_instance.get(instance_id, 0) + 1

        def on_complete(pending: PendingInvocation,
                        result: Optional[Dict[str, Any]], error: str) -> None:
            # Complete phase: runs on the completion executor's thread, and
            # applies the outcome under the kernel lock like any mutation.
            try:
                with self._lock:
                    self._dispatcher.complete(invocation, result=result, error=error)
                    completed = invocation.status is ActionStatus.COMPLETED
                    kind = "action.completed" if completed else "action.failed"
                    self._publish(kind, instance_id, actor,
                                  action_uri=invocation.action_uri,
                                  action_name=invocation.action_name,
                                  call_id=invocation.call_id, phase_id=phase_id,
                                  error=invocation.error)
                wait = invocation.wait_seconds
                if wait is not None:
                    self._metric_wait.observe(wait)
                execution = invocation.execution_seconds
                if execution is not None:
                    self._metric_execution.observe(execution)
                (self._metric_completed_ok if completed
                 else self._metric_completed_failed).inc()
            finally:
                with self._in_flight_cv:
                    self._in_flight.pop(invocation.invocation_id, None)
                    remaining = self._in_flight_per_instance.get(instance_id, 0) - 1
                    if remaining > 0:
                        self._in_flight_per_instance[instance_id] = remaining
                    else:
                        self._in_flight_per_instance.pop(instance_id, None)
                    self._in_flight_cv.notify_all()

        return self._dispatcher.submit(invocation, executor, on_complete=on_complete)

    def _check_token_move(self, actor: str, instance: LifecycleInstance) -> None:
        if self._policy is None:
            return
        if not self._policy.can_move_token(actor, instance):
            raise PermissionDeniedError(
                "user {!r} may not move the token of instance {!r}".format(
                    actor, instance.instance_id
                )
            )

    def _check(self, actor: str, operation: str, subject_id: str) -> None:
        if self._policy is None or actor is None:
            return
        if not self._policy.allows(actor, operation, subject_id):
            raise PermissionDeniedError(
                "user {!r} may not perform {!r} on {!r}".format(actor, operation, subject_id)
            )

    def _publish(self, event_kind: str, subject_id: str, actor: Optional[str],
                 **payload: Any) -> None:
        # Stamp the gateway's correlation id onto every kernel event: the
        # journal persists the payload verbatim and the replication stream
        # ships the record as-is, so one X-Request-Id is followable from
        # the primary's wire log into every follower's applied copy.
        if "origin_request_id" not in payload:
            trace_id = current_trace_id()
            if trace_id is not None:
                payload["origin_request_id"] = trace_id
        self.bus.publish(Event(kind=event_kind, timestamp=self._clock.now(),
                               subject_id=subject_id, actor=actor, payload=payload))
