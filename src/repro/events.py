"""The kernel event bus.

Fig. 2 of the paper shows the lifecycle manager receiving "lifecycle instance
events (progression from phase to phase …) sent by the lifecycle execution
widgets, and action execution results, sent by resource plug-ins".  Internally
we model that message flow with an event bus: the runtime publishes events,
and the execution log, the monitoring cockpit and the widgets subscribe.

Events are plain, immutable records.  :class:`EventBus` delivers them
synchronously: every ``publish`` runs the matching subscribers before it
returns, so a subscriber's work (a journal append, a timer arm, a log entry)
is done when the kernel call that published the event returns.  The bus is
thread-safe, so concurrent publishers (the kernel, the scheduler, the
coordination layer) can share it.

The hosted/remote transport is layered on top by :mod:`repro.service`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable, Dict, List, Optional


@dataclass(frozen=True)
class Event:
    """A single kernel event.

    Attributes:
        kind: dotted event name, e.g. ``"instance.phase_entered"``.
        timestamp: when the event happened (kernel clock).
        subject_id: id of the main entity involved (instance id, model id...).
        actor: user id that caused the event, or ``None`` for system events.
        payload: event-specific details (phase ids, action names, statuses...).
    """

    kind: str
    timestamp: datetime
    subject_id: str
    actor: Optional[str] = None
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-compatible form, used by the write-ahead journal and tests."""
        return {
            "kind": self.kind,
            "timestamp": self.timestamp.isoformat(),
            "subject_id": self.subject_id,
            "actor": self.actor,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            kind=data["kind"],
            timestamp=datetime.fromisoformat(data["timestamp"]),
            subject_id=data["subject_id"],
            actor=data.get("actor"),
            payload=dict(data.get("payload") or {}),
        )


class EventBus:
    """Synchronous publish/subscribe dispatcher.

    Subscribers register for an exact event kind, for a prefix (``"instance."``)
    or for everything (``"*"``).  Handlers are called in registration order;
    a failing handler does not prevent the others from running — failures are
    collected and re-raised together only if ``strict`` is set.

    The subscription table is guarded by a lock and handler lists are copied
    before dispatch, so concurrent publishers never observe a half-updated
    table.  Handlers themselves run outside the lock and must be thread-safe
    if the bus is shared by threads.
    """

    def __init__(self, strict: bool = False):
        self._handlers: Dict[str, List[Callable[[Event], None]]] = {}
        self._strict = strict
        self._published = 0
        self._lock = threading.RLock()

    @property
    def published_count(self) -> int:
        """Total number of events published on this bus."""
        return self._published

    def subscribe(self, kind: str, handler: Callable[[Event], None]) -> Callable[[], None]:
        """Register ``handler`` for ``kind`` and return an unsubscribe callable."""
        with self._lock:
            self._handlers.setdefault(kind, []).append(handler)

        def unsubscribe():
            with self._lock:
                handlers = self._handlers.get(kind, [])
                if handler in handlers:
                    handlers.remove(handler)

        return unsubscribe

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to all matching subscribers."""
        with self._lock:
            self._published += 1
            matched = self._matching_handlers(event.kind)
        self._deliver(event, matched)

    # ------------------------------------------------------------------ internal
    def _matching_handlers(self, kind: str) -> List[Callable[[Event], None]]:
        """Snapshot of the handlers interested in ``kind`` (caller holds the lock)."""
        matched: List[Callable[[Event], None]] = []
        for registered_kind, handlers in self._handlers.items():
            if self._matches(registered_kind, kind):
                matched.extend(handlers)
        return matched

    def _deliver(self, event: Event, handlers: List[Callable[[Event], None]]) -> None:
        errors = []
        for handler in handlers:
            try:
                handler(event)
            except Exception as exc:  # noqa: BLE001 - isolate subscribers
                errors.append(exc)
        if errors and self._strict:
            raise errors[0]

    @staticmethod
    def _matches(pattern: str, kind: str) -> bool:
        if pattern == "*":
            return True
        if pattern.endswith("."):
            return kind.startswith(pattern)
        return pattern == kind


class EventRecorder:
    """Subscriber that keeps every event it sees; handy in tests and examples."""

    def __init__(self, bus: EventBus = None, pattern: str = "*"):
        self.events: List[Event] = []
        self._lock = threading.Lock()
        if bus is not None:
            bus.subscribe(pattern, self)

    def __call__(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
