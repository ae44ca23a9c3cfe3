"""Async operation handles for long-running v2 calls.

A bulk progression over thousands of instances dispatches thousands of
(simulated) web-service actions; holding the HTTP connection open for the
whole fan-out would serialise clients on their slowest call.  The v2 gateway
instead answers ``202 Accepted`` with an *operation handle* and runs the work
on a persistent :class:`~repro.workers.WorkerPool`; clients poll
``GET /v2/operations/{id}`` (or use ``GeleeClient.wait_operation``) until
the handle reports a terminal state.

The store's pool is its own, deliberately **not** shared with the runtime's
fan-out/completion pool: operation bodies call ``map_instances`` and
``drain_in_flight``, i.e. they *wait on* work running in the runtime pool —
sharing one pool would let queued operations starve the very workers they
are waiting for.

The store keeps a bounded history of finished operations (oldest evicted
first) so a long-lived deployment does not leak one record per bulk call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from ...clock import Clock, SystemClock
from ...errors import OperationNotFoundError
from ...identifiers import new_id
from ...telemetry import span_scope
from ...workers import WorkerPool
from .envelope import ErrorInfo, error_info_for


class OperationStatus(Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (OperationStatus.SUCCEEDED, OperationStatus.FAILED)


@dataclass
class Operation:
    """One long-running server-side operation."""

    operation_id: str
    kind: str
    created_at: datetime
    status: OperationStatus = OperationStatus.PENDING
    started_at: Optional[datetime] = None
    finished_at: Optional[datetime] = None
    result: Any = None
    error: Optional[ErrorInfo] = None
    #: Internal completion signal for in-process waiters.
    done: threading.Event = field(default_factory=threading.Event, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "operation_id": self.operation_id,
            "kind": self.kind,
            "status": self.status.value,
            "created_at": self.created_at.isoformat(),
            "started_at": self.started_at.isoformat() if self.started_at else None,
            "finished_at": self.finished_at.isoformat() if self.finished_at else None,
            "result": self.result,
            "error": self.error.to_dict() if self.error else None,
        }


class OperationStore:
    """Submits work to a persistent worker pool and tracks the handles."""

    #: Pool size when the store creates its own: enough to overlap a few
    #: bulk calls without letting an unbounded thread count sneak back in
    #: through the 202 surface.
    DEFAULT_WORKERS = 4

    def __init__(self, clock: Clock = None, capacity: int = 1000,
                 pool: WorkerPool = None, workers: int = None):
        self._clock = clock or SystemClock()
        self._capacity = capacity
        self._operations: Dict[str, Operation] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._pool = pool
        self._owns_pool = pool is None
        self._workers = workers or self.DEFAULT_WORKERS

    # ------------------------------------------------------------------ submit
    def submit(self, kind: str, work: Callable[[], Any]) -> Operation:
        """Queue ``work`` on the pool; return the handle immediately.

        Replaces the old thread-per-operation spawn: a burst of bulk calls
        used to start one OS thread each, now they share the store's
        fixed-size pool (created lazily, so deployments that never use the
        202 surface pay nothing).
        """
        operation = Operation(operation_id=new_id("op"), kind=kind,
                              created_at=self._clock.now())
        with self._lock:
            self._operations[operation.operation_id] = operation
            self._order.append(operation.operation_id)
            self._evict_locked()
        self._ensure_pool().submit(self._run, operation, work)
        return operation

    def _ensure_pool(self) -> WorkerPool:
        with self._lock:
            if self._pool is None or self._pool.closed:
                self._pool = WorkerPool(self._workers, name="gelee-ops")
                self._owns_pool = True
            return self._pool

    def pool_stats(self) -> Optional[Dict[str, int]]:
        """The pool's counters, or ``None`` while no pool exists yet."""
        with self._lock:
            pool = self._pool
        return pool.stats() if pool is not None and not pool.closed else None

    def close(self, wait: bool = True, timeout: float = 5.0) -> None:
        """Stop the store's own pool (injected pools belong to the caller)."""
        with self._lock:
            pool, owned = self._pool, self._owns_pool
            self._pool = None
        if pool is not None and owned and not pool.closed:
            pool.close(wait=wait, timeout=timeout)

    def _run(self, operation: Operation, work: Callable[[], Any]) -> None:
        operation.started_at = self._clock.now()
        operation.status = OperationStatus.RUNNING
        with span_scope("operation.run", kind=operation.kind,
                        operation_id=operation.operation_id) as span:
            try:
                operation.result = work()
                operation.status = OperationStatus.SUCCEEDED
            except Exception as exc:  # noqa: BLE001 - reported on the handle
                operation.error = error_info_for(exc)
                operation.status = OperationStatus.FAILED
                if span is not None:
                    span.attrs["operation_error"] = operation.error.code
            finally:
                operation.finished_at = self._clock.now()
                operation.done.set()

    # ------------------------------------------------------------------- query
    def get(self, operation_id: str) -> Operation:
        with self._lock:
            operation = self._operations.get(operation_id)
        if operation is None:
            raise OperationNotFoundError(
                "no operation with id {!r}".format(operation_id))
        return operation

    def list(self) -> List[Operation]:
        with self._lock:
            return [self._operations[op_id] for op_id in self._order]

    def wait(self, operation_id: str, timeout: float = 30.0) -> Operation:
        """Block until the operation reaches a terminal state (in-process)."""
        operation = self.get(operation_id)
        operation.done.wait(timeout)
        return operation

    # ------------------------------------------------------------------ intern
    def _evict_locked(self) -> None:
        while len(self._order) > self._capacity:
            # Evict the oldest *finished* operation; never drop a live handle.
            for position, op_id in enumerate(self._order):
                if self._operations[op_id].status.is_terminal:
                    del self._operations[op_id]
                    del self._order[position]
                    break
            else:
                return
