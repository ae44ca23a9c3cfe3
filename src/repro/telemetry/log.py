"""Structured JSON logging, trace-stamped.

One emitter per component (``get_logger("replication")``); every record is
a single JSON object on its own line with a stable field order::

    {"ts": "...", "level": "info", "component": "replication",
     "event": "batch.applied", "trace_id": "req-1f2e...", ...fields}

``trace_id`` is read from the request context (:mod:`repro.telemetry.spans`)
at emit time, so a record written anywhere inside a request's scope —
including in a worker-pool task, which runs in a copy of the submitter's
context — correlates with the gateway's ``X-Request-Id`` without the
call site doing anything.

The sink is injectable (any ``write()``-able or a callable taking the
record dict); the default writes to ``sys.stderr`` so service output and
logs do not interleave on stdout.  Zero dependencies, no global logging
configuration touched.
"""

from __future__ import annotations

import json
import sys
import threading
from typing import Any, Callable, Dict, Optional, TextIO, Union

from ..clock import Clock, SystemClock
from .logring import get_log_ring
from .spans import current_trace_id

Sink = Union[TextIO, Callable[[Dict[str, Any]], None]]

LEVELS = ("debug", "info", "warning", "error")


class JsonLogEmitter:
    """Writes one JSON object per record, stamped with ts/level/trace id."""

    def __init__(self, component: str = "", sink: Sink = None,
                 clock: Clock = None, min_level: str = "debug"):
        if min_level not in LEVELS:
            raise ValueError("unknown log level {!r}".format(min_level))
        self.component = component
        self._sink = sink if sink is not None else sys.stderr
        self._clock = clock or SystemClock()
        self._min_index = LEVELS.index(min_level)
        self._lock = threading.Lock()

    def emit(self, event: str, level: str = "info",
             **fields: Any) -> Optional[Dict[str, Any]]:
        """Build, sink and return the record; ``None`` when filtered out."""
        if level not in LEVELS:
            raise ValueError("unknown log level {!r}".format(level))
        if LEVELS.index(level) < self._min_index:
            return None
        record: Dict[str, Any] = {
            "ts": self._clock.now().isoformat(),
            "level": level,
            "component": self.component,
            "event": event,
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            record["trace_id"] = trace_id
        record.update(fields)
        self._write(record)
        return record

    def debug(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.emit(event, level="debug", **fields)

    def info(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.emit(event, level="info", **fields)

    def warning(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.emit(event, level="warning", **fields)

    def error(self, event: str, **fields: Any) -> Optional[Dict[str, Any]]:
        return self.emit(event, level="error", **fields)

    def child(self, component: str) -> "JsonLogEmitter":
        """A sibling emitter sharing sink/clock under a dotted component name."""
        name = "{}.{}".format(self.component, component) if self.component \
            else component
        return JsonLogEmitter(component=name, sink=self._sink,
                              clock=self._clock,
                              min_level=LEVELS[self._min_index])

    def _write(self, record: Dict[str, Any]) -> None:
        sink = self._sink
        # Callable sinks serialise under the same lock as TextIO ones:
        # a ring sink's appends must not interleave with a concurrent
        # fallback write when the sink is swapped between record builds.
        with self._lock:
            if callable(sink):
                sink(record)
            else:
                line = json.dumps(record, default=str, separators=(",", ":"))
                sink.write(line + "\n")
        # Every record also lands in the process log ring so it stays
        # queryable at /v2/runtime/logs — unless the ring *is* the sink.
        ring = get_log_ring()
        if ring is not None and ring is not sink:
            ring.append(record)


_loggers_lock = threading.Lock()
_loggers: Dict[str, JsonLogEmitter] = {}


def get_logger(component: str) -> JsonLogEmitter:
    """The process-wide emitter for ``component`` (created on first use)."""
    with _loggers_lock:
        logger = _loggers.get(component)
        if logger is None:
            logger = _loggers[component] = JsonLogEmitter(component=component)
        return logger


def reset_loggers() -> None:
    """Drop the process-wide emitter cache.

    Tests that install custom sinks or levels through ``get_logger``
    would otherwise leak them into every later test in the process.
    """
    with _loggers_lock:
        _loggers.clear()
