"""Sharded, thread-safe lifecycle runtime.

Design
------
The single :class:`~repro.runtime.manager.LifecycleManager` keeps every
instance in one dict and serves one caller at a time — fine for the paper's
prototype, a bottleneck for a hosted deployment where thousands of owners
progress lifecycles concurrently.  :class:`ShardedLifecycleManager` scales
that kernel out *inside one process*:

* **Hash partitioning.** Instances are partitioned across N independent
  ``LifecycleManager`` shards.  The shard of an instance is
  ``crc32(instance_id) % N`` — a *stable* hash (Python's builtin ``hash`` is
  salted per process), so an instance id always routes to the same shard,
  across runs and across processes.  The id is drawn *before* the instance
  is created and handed to the shard, which keeps routing a pure function
  of the id.
* **Per-shard locking.** Every shard is guarded by its own reentrant lock;
  an operation takes only the lock of the shard it touches.  Owners working
  on instances in different shards never contend, while two owners hitting
  the same shard are serialised — the classic lock-striping trade-off.
  Actions dispatched by a shard sleep through their (simulated) web-service
  round-trips while other shards keep progressing.
* **Shared design time.** Lifecycle models are design-time data, read by
  every shard: ``publish_model`` installs the same model object on all
  shards, frozen, so every instance of a version, on any shard, shares it.
* **One event stream.** All shards publish on one bus, so the execution
  log, the monitoring cockpit and the widgets observe a single merged
  stream.  Pass a :class:`~repro.events.BatchingEventBus` to coalesce the
  per-move event flurry into batched dispatches on the hot path.

Cross-shard queries (listings, distributions) take the shard locks one at a
time and merge the per-shard answers; they are read-mostly and far off the
hot path.  The class mirrors the ``LifecycleManager`` surface, so the
monitoring cockpit, the widgets and the service facade run unchanged on top
of either.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..actions.completion import CompletionExecutor, PooledCompletionExecutor
from ..clock import Clock
from ..errors import PropagationError
from ..events import EventBus
from ..identifiers import new_id, parse_callback_uri
from ..model.lifecycle import LifecycleModel
from ..plugins.setup import StandardEnvironment
from ..resources.descriptor import ResourceDescriptor
from ..telemetry import span_scope
from ..telemetry.profiling import TimedLock
from ..workers import WorkerPool
from .instance import InstanceStatus, LifecycleInstance
from .manager import LifecycleManager


def shard_index_for(instance_id: str, shard_count: int) -> int:
    """Stable shard routing: ``crc32`` of the id modulo the shard count."""
    return zlib.crc32(instance_id.encode("utf-8")) % shard_count


class ShardedLifecycleManager:
    """N lifecycle-manager shards behind the single-manager interface.

    See the module docstring for the partitioning and locking design.  The
    constructor mirrors :class:`LifecycleManager`; ``shard_count`` picks the
    number of partitions (and therefore the degree of write concurrency).
    """

    #: Default time budget (seconds) quiesce spends draining in-flight
    #: actions before proceeding anyway; override per instance.
    quiesce_drain_timeout: float = 30.0

    def __init__(self, environment: StandardEnvironment, shard_count: int = 4,
                 clock: Clock = None, bus: EventBus = None, access_policy=None,
                 strict_actions: bool = False, rng_seed: int = 0,
                 simulated_action_latency: Tuple[float, float] = (0.0, 0.0),
                 completion_executor: CompletionExecutor = None,
                 completion_workers: int = 0,
                 worker_pool: WorkerPool = None):
        """``completion_workers`` is the convenience knob for asynchronous
        dispatch: when > 0 (and no explicit ``completion_executor`` is
        given) one shared :class:`WorkerPool` is created, sized
        ``shard_count + completion_workers`` so the bulk fan-out always has
        a worker per shard *and* that many in-flight actions can sleep
        through their round-trips concurrently; a
        :class:`PooledCompletionExecutor` on that pool is handed to every
        shard.  With the default (0) dispatch stays inline/synchronous.
        """
        if shard_count < 1:
            raise ValueError("shard_count must be at least 1")
        self.bus = bus or EventBus()
        self._clock = clock or environment.clock
        # Shard locks are wrapped in TimedLock so acquisition waits feed
        # the gelee_lock_wait_seconds{site="shard"} histogram (sampled —
        # this is the dispatch hot path).  The wrapper is a drop-in
        # context manager with acquire/release, so handing one to a shard
        # as its completion_lock works unchanged.
        self._locks = [TimedLock(threading.RLock(), site="shard")
                       for _ in range(shard_count)]
        self._worker_pool = worker_pool
        self._pool_lock = threading.Lock()
        if completion_executor is None and completion_workers > 0:
            if self._worker_pool is None:
                self._worker_pool = WorkerPool(shard_count + completion_workers,
                                               name="gelee-shard")
            completion_executor = PooledCompletionExecutor(self._worker_pool)
        self._completion_executor = completion_executor
        self._shards: List[LifecycleManager] = [
            LifecycleManager(
                environment, clock=self._clock, bus=self.bus,
                access_policy=access_policy, strict_actions=strict_actions,
                # One RNG per shard, derived from the seed, so a run is
                # reproducible for any fixed shard count.
                rng=random.Random(rng_seed * 1000003 + index),
                simulated_action_latency=simulated_action_latency,
                completion_executor=completion_executor,
                # Completions re-acquire the owning shard's lock to apply
                # their outcome — the heart of the submit/complete protocol.
                completion_lock=self._locks[index],
            )
            for index in range(shard_count)
        ]
        #: proposal id -> shard index, so owner decisions route without scanning.
        self._proposal_shards: Dict[str, int] = {}
        self._proposal_lock = threading.Lock()

    # ------------------------------------------------------------------ plumbing
    @property
    def clock(self) -> Clock:
        return self._shards[0].clock

    @property
    def environment(self) -> StandardEnvironment:
        return self._shards[0].environment

    @property
    def resolver(self):
        return self._shards[0].resolver

    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def shards(self) -> List[LifecycleManager]:
        """The underlying shard managers (read-only use: stats, tests)."""
        return list(self._shards)

    def shard_index(self, instance_id: str) -> int:
        return shard_index_for(instance_id, len(self._shards))

    def shard_sizes(self) -> List[int]:
        """Instances per shard — how even the hash partitioning is."""
        return [shard.instance_count() for shard in self._shards]

    @property
    def read_only(self) -> bool:
        """Whether this runtime rejects mutations (read-replica mode)."""
        return self._shards[0].read_only

    def set_read_only(self, value: bool) -> None:
        """Flip read-replica mode on every shard (see the single manager).

        Flipping *to* read-only also drains in-flight action completions:
        the flip stops new submissions first, then waits for pending ones to
        apply, so no primary-era action lands after the barrier.
        """
        for index in range(len(self._shards)):
            with self._locks[index]:
                self._shards[index].set_read_only(value)
        if value:
            self.drain_in_flight(timeout=self.quiesce_drain_timeout)

    def set_write_guard(self, guard) -> None:
        """Install the fencing write guard on every shard (see the single
        manager's :meth:`~repro.runtime.manager.LifecycleManager.set_write_guard`)."""
        for index in range(len(self._shards)):
            with self._locks[index]:
                self._shards[index].set_write_guard(guard)

    @property
    def completion_executor(self) -> Optional[CompletionExecutor]:
        """The executor shared by all shards (None = inline default)."""
        return self._completion_executor

    @property
    def worker_pool(self) -> Optional[WorkerPool]:
        """The shared fan-out/completion pool, if one exists yet."""
        return self._worker_pool

    # -------------------------------------------------------- in-flight registry
    def in_flight_count(self) -> int:
        """Submitted invocations not yet applied, across all shards."""
        return sum(shard.in_flight_count() for shard in self._shards)

    def drain_in_flight(self, timeout: float = None) -> bool:
        """Wait until no shard has pending completions; True unless timed out.

        Must not be called while holding any shard lock — pending
        completions need their shard's lock to apply.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for shard in self._shards:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            if not shard.drain_in_flight(timeout=remaining):
                return False
        return True

    @contextmanager
    def quiesce(self, drain_timeout: float = None):
        """Drain in-flight actions, then hold every shard lock.

        Used by the persistence coordinator to capture a consistent
        point-in-time checkpoint across all shards.  Locks are taken in shard
        order (the only place more than one shard lock is ever held), so the
        acquisition order cannot deadlock against single-shard operations.

        With a pooled completion executor there is a second hazard: queued
        completions *also* need a shard lock to apply, so waiting for them
        while holding all locks would deadlock.  The loop below therefore
        drains first, acquires, and — if submissions slipped in between —
        releases and drains again, bounded by ``drain_timeout`` (default
        :attr:`quiesce_drain_timeout`).  On timeout the checkpoint proceeds
        with actions still in flight: they are captured in their RUNNING
        state and deterministically failed on recovery (see
        :func:`repro.persistence.recovery.fail_interrupted_invocations`).
        """
        timeout = self.quiesce_drain_timeout if drain_timeout is None else drain_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        acquired: List[Any] = []

        def acquire_all() -> None:
            for lock in self._locks:
                lock.acquire()
                acquired.append(lock)

        def release_all() -> None:
            while acquired:
                acquired.pop().release()

        while True:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            drained = self.drain_in_flight(timeout=remaining)
            acquire_all()
            if self.in_flight_count() == 0:
                break
            if not drained and (deadline is not None
                                and time.monotonic() >= deadline):
                break
            release_all()
        try:
            yield self
        finally:
            release_all()

    def close(self, drain_timeout: float = None) -> None:
        """Drain pending completions and stop the shared worker pool.

        Safe to call on runtimes that never created a pool (inline
        dispatch, no fan-out yet) and idempotent otherwise.
        """
        self.drain_in_flight(
            timeout=self.quiesce_drain_timeout if drain_timeout is None
            else drain_timeout)
        with self._pool_lock:
            pool, self._worker_pool = self._worker_pool, None
        if pool is not None and not pool.closed:
            pool.close()

    # ============================================================ recovery hooks
    def install_model(self, model: LifecycleModel) -> bool:
        """Silently install a model version on every shard (journal replay)."""
        installed = False
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                installed = shard.install_model(model) or installed
        return installed

    def install_instance(self, instance: LifecycleInstance) -> LifecycleInstance:
        """Silently insert a rebuilt instance on the shard its id hashes to."""
        index = self.shard_index(instance.instance_id)
        with self._locks[index]:
            return self._shards[index].install_instance(instance)

    def reindex_instance(self, instance_id: str) -> None:
        return self._on_shard(instance_id, "reindex_instance")

    # ================================================================ design time
    def publish_model(self, model: LifecycleModel, actor: str = "") -> LifecycleModel:
        """Validate once, install on every shard (shared design-time data)."""
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                shard.publish_model(model, actor=actor)
        return model

    def model(self, model_uri: str, version: str = None) -> LifecycleModel:
        return self._shards[0].model(model_uri, version=version)

    def model_versions(self, model_uri: str) -> List[str]:
        return self._shards[0].model_versions(model_uri)

    def models(self) -> List[LifecycleModel]:
        return self._shards[0].models()

    def applicable_resource_types(self, model_uri: str) -> List[str]:
        return self._shards[0].applicable_resource_types(model_uri)

    # ================================================================== runtime
    def instantiate(self, model_uri: str, resource: ResourceDescriptor, owner: str,
                    actor: str = None, version: str = None,
                    instantiation_parameters: Dict[str, Dict[str, Any]] = None,
                    token_owners: List[str] = None,
                    metadata: Dict[str, Any] = None,
                    instance_id: str = None) -> LifecycleInstance:
        """Create an instance on the shard its (pre-drawn) id hashes to."""
        instance_id = instance_id or new_id("inst")
        index = self.shard_index(instance_id)
        with self._locks[index]:
            return self._shards[index].instantiate(
                model_uri, resource, owner, actor=actor, version=version,
                instantiation_parameters=instantiation_parameters,
                token_owners=token_owners, metadata=metadata,
                instance_id=instance_id,
            )

    def instance(self, instance_id: str) -> LifecycleInstance:
        index = self.shard_index(instance_id)
        with self._locks[index]:
            return self._shards[index].instance(instance_id)

    def peek_instance(self, instance_id: str) -> Optional[LifecycleInstance]:
        """Lock-free lookup for bus subscribers (see the single-manager doc).

        Event handlers can run on a shard worker that holds its own shard
        lock while flushing a batch containing *other* shards' events; going
        through :meth:`instance` there would try to take a second shard lock
        and deadlock against that shard's owner waiting on the flush lock.
        """
        return self._shards[self.shard_index(instance_id)].peek_instance(instance_id)

    def instances(self, model_uri: str = None, owner: str = None,
                  status: InstanceStatus = None,
                  phase_id: str = None) -> List[LifecycleInstance]:
        """Cross-shard listing: merge every shard's (indexed) answer."""
        result: List[LifecycleInstance] = []
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                result.extend(shard.instances(model_uri=model_uri, owner=owner,
                                              status=status, phase_id=phase_id))
        return result

    def instance_count(self) -> int:
        return sum(self.shard_sizes())

    def instances_for_resource(self, resource_uri: str) -> List[LifecycleInstance]:
        result: List[LifecycleInstance] = []
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                result.extend(shard.instances_for_resource(resource_uri))
        return result

    def phase_distribution(self, model_uri: str = None) -> Dict[Optional[str], int]:
        return self._merge_counts(
            lambda shard: shard.phase_distribution(model_uri=model_uri))

    def owner_distribution(self) -> Dict[str, int]:
        return self._merge_counts(lambda shard: shard.owner_distribution())

    def status_distribution(self) -> Dict[InstanceStatus, int]:
        return self._merge_counts(lambda shard: shard.status_distribution())

    # ------------------------------------------------------------- progression
    # The synchronous verbs submit under the shard lock, then wait for the
    # instance's completions *after releasing it* — waiting inside the lock
    # would deadlock against the completions trying to re-acquire it.  The
    # ``*_async`` variants return as soon as the token has moved.

    def start(self, instance_id: str, actor: str, phase_id: str = None,
              call_parameters: Dict[str, Dict[str, Any]] = None) -> LifecycleInstance:
        return self._on_shard_then_wait(instance_id, "start_async", actor,
                                        phase_id=phase_id,
                                        call_parameters=call_parameters)

    def start_async(self, instance_id: str, actor: str, phase_id: str = None,
                    call_parameters: Dict[str, Dict[str, Any]] = None) -> LifecycleInstance:
        return self._on_shard(instance_id, "start_async", actor, phase_id=phase_id,
                              call_parameters=call_parameters)

    def advance(self, instance_id: str, actor: str, to_phase_id: str = None,
                call_parameters: Dict[str, Dict[str, Any]] = None,
                annotation: str = None) -> LifecycleInstance:
        return self._on_shard_then_wait(instance_id, "advance_async", actor,
                                        to_phase_id=to_phase_id,
                                        call_parameters=call_parameters,
                                        annotation=annotation)

    def advance_async(self, instance_id: str, actor: str, to_phase_id: str = None,
                      call_parameters: Dict[str, Dict[str, Any]] = None,
                      annotation: str = None) -> LifecycleInstance:
        return self._on_shard(instance_id, "advance_async", actor,
                              to_phase_id=to_phase_id,
                              call_parameters=call_parameters, annotation=annotation)

    def move_to(self, instance_id: str, actor: str, phase_id: str,
                call_parameters: Dict[str, Dict[str, Any]] = None,
                annotation: str = None) -> LifecycleInstance:
        return self._on_shard_then_wait(instance_id, "move_to_async", actor, phase_id,
                                        call_parameters=call_parameters,
                                        annotation=annotation)

    def move_to_async(self, instance_id: str, actor: str, phase_id: str,
                      call_parameters: Dict[str, Dict[str, Any]] = None,
                      annotation: str = None) -> LifecycleInstance:
        return self._on_shard(instance_id, "move_to_async", actor, phase_id,
                              call_parameters=call_parameters, annotation=annotation)

    def skip_to(self, instance_id: str, actor: str, phase_id: str, reason: str):
        return self._on_shard_then_wait(instance_id, "skip_to_async", actor,
                                        phase_id, reason)

    def skip_to_async(self, instance_id: str, actor: str, phase_id: str, reason: str):
        return self._on_shard(instance_id, "skip_to_async", actor, phase_id, reason)

    def annotate(self, instance_id: str, actor: str, text: str, phase_id: str = None,
                 kind: str = "note"):
        return self._on_shard(instance_id, "annotate", actor, text,
                              phase_id=phase_id, kind=kind)

    def bind_parameters(self, instance_id: str, actor: str, call_id: str,
                        parameters: Dict[str, Any]) -> None:
        return self._on_shard(instance_id, "bind_parameters", actor, call_id, parameters)

    # ---------------------------------------------------------- model evolution
    def change_instance_model(self, instance_id: str, actor: str, model: LifecycleModel,
                              target_phase_id: str = None) -> LifecycleInstance:
        return self._on_shard(instance_id, "change_instance_model", actor, model,
                              target_phase_id=target_phase_id)

    def propose_change(self, model: LifecycleModel, actor: str,
                       instance_ids: List[str] = None) -> List:
        """Publish the new version everywhere, then propose shard by shard."""
        self.publish_model(model, actor=actor)
        targets: Dict[int, Optional[List[str]]] = {}
        if instance_ids is None:
            # Each shard proposes for its own active instances of the model.
            targets = {index: None for index in range(len(self._shards))}
        else:
            for instance_id in instance_ids:
                targets.setdefault(self.shard_index(instance_id), []).append(instance_id)
        proposals = []
        for index, ids in targets.items():
            with self._locks[index]:
                opened = self._shards[index].open_proposals(model, actor, instance_ids=ids)
            with self._proposal_lock:
                for proposal in opened:
                    self._proposal_shards[proposal.proposal_id] = index
            proposals.extend(opened)
        return proposals

    def accept_change(self, proposal_id: str, actor: str, target_phase_id: str = None):
        index = self._shard_of_proposal(proposal_id)
        with self._locks[index]:
            return self._shards[index].accept_change(
                proposal_id, actor, target_phase_id=target_phase_id)

    def reject_change(self, proposal_id: str, actor: str, reason: str = ""):
        index = self._shard_of_proposal(proposal_id)
        with self._locks[index]:
            return self._shards[index].reject_change(proposal_id, actor, reason=reason)

    # ------------------------------------------------------------- re-dispatch
    def invoke_action(self, instance_id: str, actor: str, call_id: str):
        """Dispatch a bound action and wait for its outcome (terminal on return)."""
        index = self.shard_index(instance_id)
        with self._locks[index]:
            invocation = self._shards[index].invoke_action_async(
                instance_id, actor, call_id)
        self._shards[index].wait_for_invocation(invocation.invocation_id)
        return invocation

    def invoke_action_async(self, instance_id: str, actor: str, call_id: str):
        """Submit a bound action of the instance's current phase (scheduler
        escalation / retry), on the shard the instance lives on; the outcome
        arrives through the ``action.completed`` / ``action.failed`` events."""
        return self._on_shard(instance_id, "invoke_action_async", actor, call_id)

    # -------------------------------------------------------------- callbacks
    def handle_callback(self, callback_uri: str, status: str, detail: str = "",
                        **payload: Any):
        """Route the callback by the instance id embedded in its URI."""
        instance_id, _, _ = parse_callback_uri(callback_uri)
        index = self.shard_index(instance_id)
        with self._locks[index]:
            return self._shards[index].handle_callback(
                callback_uri, status, detail=detail, **payload)

    # ------------------------------------------------------------- concurrency
    def map_instances(self, instance_ids: List[str],
                      operation: Callable[[LifecycleManager, str], Any],
                      capture_errors: bool = False) -> List[Any]:
        """Apply ``operation(shard, instance_id)`` concurrently, one thread per shard.

        The ids are grouped by shard; each worker thread drains one group
        while holding that shard's lock, so shards progress in parallel and
        no shard is ever entered by two threads at once.  Results come back
        in the order of ``instance_ids``.

        With ``capture_errors`` a failing item stores its exception at the
        item's position and the shard keeps draining — the bulk API reports
        partial failures per item.  Without it the first error aborts the
        whole map (after every worker finished) and is re-raised.
        """
        by_shard: Dict[int, List[Tuple[int, str]]] = {}
        for position, instance_id in enumerate(instance_ids):
            by_shard.setdefault(self.shard_index(instance_id), []).append(
                (position, instance_id))
        return self._fan_out(
            by_shard, len(instance_ids), capture_errors,
            lambda shard, instance_id: operation(shard, instance_id))

    def batch_instantiate(self, requests: List[Dict[str, Any]],
                          capture_errors: bool = False) -> List[Any]:
        """Create many instances, fanning out across shards.

        Each request is the kwargs of :meth:`instantiate`.  The instance id
        is drawn *here* (unless the request pins one) so the shard of every
        item is known up front; items are then grouped by shard and created
        concurrently, one worker per shard, exactly like
        :meth:`map_instances`.
        """
        by_shard: Dict[int, List[Tuple[int, Dict[str, Any]]]] = {}
        for position, request in enumerate(requests):
            request = dict(request)
            request.setdefault("instance_id", new_id("inst"))
            by_shard.setdefault(self.shard_index(request["instance_id"]), []).append(
                (position, request))
        return self._fan_out(
            by_shard, len(requests), capture_errors,
            lambda shard, request: shard.instantiate(**request))

    def _fan_out(self, by_shard: Dict[int, List[Tuple[int, Any]]], size: int,
                 capture_errors: bool,
                 apply: Callable[[LifecycleManager, Any], Any]) -> List[Any]:
        """Drain per-shard work lists concurrently on the shared worker pool.

        One drain task per touched shard; each holds its shard's lock while
        it works.  Drain tasks never wait on other pool tasks, so sharing
        the pool with the completion executor cannot deadlock — queued
        completions only need shard locks, which every drain releases.

        Error policy: ``Exception`` is the unit of per-item failure —
        captured into the results with ``capture_errors``, or collected and
        re-raised otherwise.  ``KeyboardInterrupt``/``SystemExit`` and
        friends are *never* captured as item results; they abort the shard's
        drain and re-raise after the fan-out.  When several shards fail, the
        first error is raised and carries the rest as
        ``exc.concurrent_errors``.
        """
        results: List[Any] = [None] * size
        errors: List[BaseException] = []
        errors_lock = threading.Lock()

        def drain(index: int, work: List[Tuple[int, Any]]) -> None:
            shard = self._shards[index]
            with span_scope("shard.drain", shard=index,
                            items=len(work)), self._locks[index]:
                for position, item in work:
                    try:
                        results[position] = apply(shard, item)
                    except Exception as exc:  # noqa: BLE001 - reported below
                        if capture_errors:
                            results[position] = exc
                            continue
                        with errors_lock:
                            errors.append(exc)
                        return
                    except BaseException as exc:
                        # Interrupts abort the batch even in capture mode.
                        with errors_lock:
                            errors.append(exc)
                        return

        pool = self._ensure_pool()
        handles = [pool.submit(drain, index, work)
                   for index, work in by_shard.items()]
        for handle in handles:
            handle.wait()
        if errors:
            primary = errors[0]
            if len(errors) > 1:
                primary.concurrent_errors = tuple(errors[1:])
            raise primary
        return results

    # ------------------------------------------------------------------ internal
    def _ensure_pool(self) -> WorkerPool:
        """The shared worker pool, created on first bulk use when absent."""
        with self._pool_lock:
            if self._worker_pool is None or self._worker_pool.closed:
                self._worker_pool = WorkerPool(len(self._shards),
                                               name="gelee-shard")
            return self._worker_pool

    def _on_shard(self, instance_id: str, operation: str, *args, **kwargs):
        index = self.shard_index(instance_id)
        with self._locks[index]:
            return getattr(self._shards[index], operation)(instance_id, *args, **kwargs)

    def _on_shard_then_wait(self, instance_id: str, operation: str, *args, **kwargs):
        """Submit under the shard lock, wait for completions after releasing it."""
        index = self.shard_index(instance_id)
        with span_scope("shard.apply", shard=index, operation=operation):
            with self._locks[index]:
                result = getattr(self._shards[index], operation)(
                    instance_id, *args, **kwargs)
            self._shards[index].wait_for_instance(instance_id)
        return result

    def _shard_of_proposal(self, proposal_id: str) -> int:
        with self._proposal_lock:
            index = self._proposal_shards.get(proposal_id)
        if index is not None:
            return index
        for index, shard in enumerate(self._shards):
            try:
                shard.propagation.proposal(proposal_id)
            except PropagationError:
                continue
            return index
        raise PropagationError("unknown change proposal {!r}".format(proposal_id))

    def _merge_counts(self, per_shard: Callable[[LifecycleManager], Dict[Any, int]]):
        merged: Dict[Any, int] = {}
        for index, shard in enumerate(self._shards):
            with self._locks[index]:
                for key, count in per_shard(shard).items():
                    merged[key] = merged.get(key, 0) + count
        return merged
