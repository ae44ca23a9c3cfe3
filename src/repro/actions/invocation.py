"""Action invocations, status messages and the dispatcher.

"At execution time, the action is invoked by calling an URI that identifies a
web service (either REST or SOAP), passing as parameters a link to the object
and a callback URI.  Upon completion, or periodically during execution, the
action can then call the callback URI and update on its status.  The status
messages are arbitrary except two defined by the model, corresponding to
failure and successful completion.  The status messages have only information
purposes." (§IV.C)

The model also fixes the concurrency semantics: "All actions associated to a
phase are executed in parallel and anyway in a non-deterministic order …
Actions are not guaranteed to succeed and there is no transactional semantic."
(§IV.A).  :class:`InvocationDispatcher` honours that: it runs every
action independently and isolates failures, recording each outcome as a
status message on its invocation; the kernel shuffles a phase's actions
before submitting them.  Progress an action reports through its callback
URI arrives at :meth:`~repro.runtime.manager.LifecycleManager.handle_callback`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..clock import Clock, SystemClock
from ..errors import ActionInvocationError
from ..identifiers import new_id
from ..telemetry import span_scope
from .completion import CompletionExecutor, InlineCompletionExecutor

#: Default RNG seed: the dispatcher must be reproducible out of the box so
#: benchmark runs are comparable; pass an explicitly unseeded ``random.Random()``
#: to opt back into nondeterministic ordering.
DEFAULT_RNG_SEED = 0


class ActionStatus(str, Enum):
    """Lifecycle of a single action invocation.

    Only ``COMPLETED`` and ``FAILED`` are defined by the paper's model; the
    others are bookkeeping states of the dispatcher, and arbitrary progress
    messages can be attached to a running invocation.
    """

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"

    @property
    def is_terminal(self) -> bool:
        return self in (ActionStatus.COMPLETED, ActionStatus.FAILED)


@dataclass
class StatusMessage:
    """A status update reported through the callback URI."""

    status: str
    detail: str = ""
    timestamp: Optional[datetime] = None
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_model_defined(self) -> bool:
        """True for the two statuses the model defines (completed / failed)."""
        return self.status in (ActionStatus.COMPLETED.value, ActionStatus.FAILED.value)


@dataclass
class ActionInvocation:
    """One asynchronous execution of an action implementation.

    Attributes:
        invocation_id: unique id, also embedded in the callback URI.
        action_uri: action type being executed.
        action_name: display name of the action.
        call_id: id of the :class:`~repro.model.actions.ActionCall` that
            produced this invocation.
        resource_uri: "link to the object" passed to the action.
        resource_type: the resolved resource type.
        parameters: the resolved parameter values.
        callback_uri: where status messages are delivered.
        status: current dispatcher status.
        messages: every status message received so far (informational only).
        result: the dictionary returned by the implementation on success.
        error: error text when the invocation failed.
        submitted_at: when the dispatcher accepted the invocation (the
            instant it went RUNNING, before any network wait).
        started_at: when the implementation actually began executing, i.e.
            *after* the (simulated) round-trip wait — the gap to
            ``submitted_at`` is queue/network time, not execution time.
        finished_at: when the terminal status was applied.
    """

    action_uri: str
    action_name: str
    call_id: str
    resource_uri: str
    resource_type: str
    parameters: Dict[str, Any] = field(default_factory=dict)
    callback_uri: str = ""
    invocation_id: str = field(default_factory=lambda: new_id("inv"))
    status: ActionStatus = ActionStatus.PENDING
    messages: List[StatusMessage] = field(default_factory=list)
    result: Optional[Dict[str, Any]] = None
    error: str = ""
    submitted_at: Optional[datetime] = None
    started_at: Optional[datetime] = None
    finished_at: Optional[datetime] = None

    @property
    def wait_seconds(self) -> Optional[float]:
        """Queue/network time: submission until execution began."""
        if self.submitted_at is None or self.started_at is None:
            return None
        return (self.started_at - self.submitted_at).total_seconds()

    @property
    def execution_seconds(self) -> Optional[float]:
        """Pure execution time, excluding the round-trip wait."""
        if self.started_at is None or self.finished_at is None:
            return None
        return (self.finished_at - self.started_at).total_seconds()

    def record(self, message: StatusMessage) -> None:
        """Attach a status message; terminal messages update the status."""
        self.messages.append(message)
        if message.status == ActionStatus.COMPLETED.value:
            self.status = ActionStatus.COMPLETED
        elif message.status == ActionStatus.FAILED.value:
            self.status = ActionStatus.FAILED

    def to_dict(self) -> Dict[str, Any]:
        return {
            "invocation_id": self.invocation_id,
            "action_uri": self.action_uri,
            "action_name": self.action_name,
            "call_id": self.call_id,
            "resource_uri": self.resource_uri,
            "resource_type": self.resource_type,
            "parameters": dict(self.parameters),
            "callback_uri": self.callback_uri,
            "status": self.status.value,
            "messages": [
                {
                    "status": m.status,
                    "detail": m.detail,
                    "timestamp": m.timestamp.isoformat() if m.timestamp else None,
                    "payload": dict(m.payload),
                }
                for m in self.messages
            ],
            "result": self.result,
            "error": self.error,
            "submitted_at": self.submitted_at.isoformat() if self.submitted_at else None,
            "started_at": self.started_at.isoformat() if self.started_at else None,
            "finished_at": self.finished_at.isoformat() if self.finished_at else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ActionInvocation":
        """Rebuild an invocation from :meth:`to_dict` (snapshot recovery)."""
        invocation = cls(
            action_uri=data["action_uri"],
            action_name=data.get("action_name", data["action_uri"]),
            call_id=data.get("call_id", ""),
            resource_uri=data.get("resource_uri", ""),
            resource_type=data.get("resource_type", ""),
            parameters=dict(data.get("parameters") or {}),
            callback_uri=data.get("callback_uri", ""),
            invocation_id=data.get("invocation_id") or new_id("inv"),
            status=ActionStatus(data.get("status", ActionStatus.PENDING.value)),
            result=data.get("result"),
            error=data.get("error", ""),
        )
        for stamp in ("submitted_at", "started_at", "finished_at"):
            value = data.get(stamp)
            if value:
                setattr(invocation, stamp, datetime.fromisoformat(value))
        for message in data.get("messages") or []:
            timestamp = message.get("timestamp")
            invocation.messages.append(StatusMessage(
                status=message.get("status", ""),
                detail=message.get("detail", ""),
                timestamp=datetime.fromisoformat(timestamp) if timestamp else None,
                payload=dict(message.get("payload") or {}),
            ))
        return invocation


# Completion contract: callable(pending, result, error) -> None.  The
# receiver is responsible for calling ``dispatcher.complete`` (under
# whatever lock owns the invocation's instance) and must not raise.
CompletionHandler = Callable[["PendingInvocation", Optional[Dict[str, Any]], str], None]


class PendingInvocation:
    """Handle for one submitted-but-not-yet-completed invocation.

    Returned by :meth:`InvocationDispatcher.submit`; ``wait`` blocks until
    the completion callback has run (with the inline executor that has
    already happened by the time the handle is returned).
    """

    __slots__ = ("invocation", "latency", "_done")

    def __init__(self, invocation: ActionInvocation, latency: float = 0.0):
        self.invocation = invocation
        #: The latency sampled at submit time (seconds).  Sampling happens
        #: under the submitter's lock so the latency *sequence* stays
        #: reproducible; the sleep itself runs in the completion executor.
        self.latency = latency
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float = None) -> bool:
        """Block until the outcome was applied; True unless timed out."""
        return self._done.wait(timeout)


class InvocationDispatcher:
    """Executes resolved actions with the paper's semantics.

    * every action is invoked independently (no sequencing guarantees),
    * a failing action does not prevent the others from running
      (no transactional semantics),
    * each outcome is recorded on its invocation as a status message.

    The ``rng`` argument makes the optional simulated action latency
    reproducible in tests and benchmarks; when omitted a seeded RNG
    (:data:`DEFAULT_RNG_SEED`) is used so two identical runs produce
    identical traces.

    ``simulated_latency`` is a ``(min_seconds, max_seconds)`` range; when
    non-zero, every dispatched action sleeps a uniformly sampled wall-clock
    duration before executing, standing in for the network round-trip of the
    paper's remote (REST/SOAP) action implementations.  The sample comes from
    the injected ``rng``, so the latency *sequence* is reproducible even
    though the sleep itself is real time.

    Dispatch is a two-phase **submit/complete** protocol (see
    :mod:`repro.actions.completion`): :meth:`submit` marks the invocation
    RUNNING, samples its latency and hands a completion task to the
    ``completion_executor``; when the task finishes it delivers the outcome
    through the completion handler, which calls :meth:`complete` under the
    lock that owns the invocation.  ``submit(...).wait()`` is the
    synchronous form.
    """

    def __init__(self, clock: Clock = None, rng: random.Random = None,
                 simulated_latency: Tuple[float, float] = (0.0, 0.0),
                 completion_executor: CompletionExecutor = None):
        self._clock = clock or SystemClock()
        self._rng = rng or random.Random(DEFAULT_RNG_SEED)
        low, high = simulated_latency
        if low < 0 or high < low:
            raise ValueError("simulated_latency must satisfy 0 <= min <= max")
        self._latency = (low, high)
        self._completion_executor = completion_executor or InlineCompletionExecutor()

    @property
    def completion_executor(self) -> CompletionExecutor:
        return self._completion_executor

    # ------------------------------------------------------- two-phase protocol
    def submit(self, invocation: ActionInvocation,
               executor: Callable[[ActionInvocation], Dict[str, Any]],
               on_complete: CompletionHandler = None) -> PendingInvocation:
        """Phase one: mark RUNNING and hand the round-trip to the executor.

        The caller may hold the kernel lock here — submit never sleeps.  The
        completion task (latency wait + implementation call) runs wherever
        the completion executor puts it; its outcome is delivered to
        ``on_complete`` (default: apply directly via :meth:`complete`),
        after which the returned handle unblocks.
        """
        invocation.status = ActionStatus.RUNNING
        invocation.submitted_at = self._clock.now()
        pending = PendingInvocation(invocation, latency=self._sample_latency())
        deliver = on_complete if on_complete is not None else self._complete_pending

        def task() -> None:
            with span_scope("action.dispatch", action=invocation.action_name,
                            invocation_id=invocation.invocation_id):
                with span_scope("dispatch.wait",
                                latency_seconds=pending.latency):
                    if pending.latency > 0.0:
                        # Slept on the executor's thread, *outside* the
                        # kernel lock.
                        time.sleep(pending.latency)
                invocation.started_at = self._clock.now()
                result: Optional[Dict[str, Any]] = None
                error = ""
                with span_scope("dispatch.execute") as span:
                    try:
                        result = executor(invocation) or {}
                    except ActionInvocationError as exc:
                        error = str(exc)
                    except Exception as exc:  # noqa: BLE001 - actions are black boxes
                        error = "{}: {}".format(type(exc).__name__, exc)
                    if error and span is not None:
                        span.attrs["action_error"] = error
                    try:
                        deliver(pending, result, error)
                    finally:
                        pending._done.set()

        self._completion_executor.submit(task)
        return pending

    def complete(self, invocation: ActionInvocation,
                 result: Dict[str, Any] = None, error: str = "") -> ActionInvocation:
        """Phase two: apply the outcome (caller holds the owning lock)."""
        if error:
            self._finish(invocation, ActionStatus.FAILED, error=error)
        else:
            self._finish(invocation, ActionStatus.COMPLETED, result=result or {})
        return invocation

    # ----------------------------------------------------------------- internal
    def _sample_latency(self) -> float:
        """Draw the simulated round-trip for one submission.

        Sampled at submit time — under the submitter's lock — so the
        sequence of draws stays reproducible for a fixed seed regardless of
        which executor later runs (and overlaps) the sleeps.
        """
        low, high = self._latency
        if high <= 0.0:
            return 0.0
        return self._rng.uniform(low, high)

    def _complete_pending(self, pending: PendingInvocation,
                          result: Optional[Dict[str, Any]], error: str) -> None:
        """Default completion handler: apply the outcome with no extra locking."""
        self.complete(pending.invocation, result=result, error=error)

    def _finish(self, invocation: ActionInvocation, status: ActionStatus,
                result: Dict[str, Any] = None, error: str = "") -> None:
        invocation.finished_at = self._clock.now()
        invocation.result = result
        invocation.error = error
        detail = error if error else "action completed"
        message = StatusMessage(status=status.value, detail=detail,
                                timestamp=invocation.finished_at,
                                payload=dict(result or {}))
        invocation.record(message)
