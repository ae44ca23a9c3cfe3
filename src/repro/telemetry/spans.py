"""Request context and span-tree tracing.

One :class:`contextvars.ContextVar` holds the active ``(trace_id,
span_id)`` pair.  The trace id is the flat correlation id: the gateway's
``RequestIdMiddleware`` activates the request id with
:class:`trace_scope`, ``LifecycleManager._publish`` stamps
:func:`current_trace_id` onto every kernel event as
``origin_request_id``, the journal persists the payload verbatim and the
replication stream ships it as-is, so one ``X-Request-Id`` is greppable
on the primary, in its journal and in every follower's applied copy,
surviving promotion.  The span id upgrades that id into a causal tree:

- :class:`Span` — one timed operation (``trace_id``/``span_id``/
  ``parent_id``/``name``/``start``/``end``/``attrs``/``status``).
- :class:`span_scope` — context manager that opens a child of the active
  span, records it into the ambient :class:`SpanStore` on exit, and
  stamps ``status="error"`` when the block raises.
- :class:`SpanStore` — bounded, thread-safe ring buffer of traces with
  *slow-trace retention*: traces evicted from the ring are kept as
  exemplars when their wall time exceeded a threshold, so "the slowest
  request this hour" is still retrievable after the ring has churned.

:class:`~repro.workers.WorkerPool` runs every task in a copy of the
submitter's context, so pooled completions and 202 operations keep the
request's trace and parent their spans on the submitting span with no
capture at the call site.  A bare
``threading.Thread`` starts with an empty context.

Everything here is allocation-light and no-ops cheaply: with the store
disabled (``SpanStore(enabled=False)``) or no trace id active,
``span_scope`` records nothing, which is what keeps the instrumentation
inside the <3% telemetry budget (``BENCH_telemetry.json``).
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from collections import OrderedDict
from contextvars import ContextVar
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "Span",
    "SpanStore",
    "current_span_id",
    "current_trace_id",
    "ensure_trace",
    "get_span_store",
    "new_span_id",
    "new_trace_id",
    "set_span_store",
    "span_scope",
    "trace_scope",
]

#: The active ``(trace_id, span_id)`` pair; either may be ``None``.
_context: "ContextVar[Tuple[Optional[str], Optional[int]]]" = ContextVar(
    "gelee_trace_context", default=(None, None))


#: Process-wide span-id sequence.  ``next()`` on a ``count`` is atomic
#: under the GIL, and a bare integer is ~30x cheaper than ``uuid4().hex``
#: — span creation sits on the dispatch hot path, inside the <3% budget.
_span_ids = itertools.count(1)

#: Spans are timed with ``perf_counter`` (monotonic, high resolution);
#: an anchor pair maps those readings back to wall-clock epoch seconds
#: for display, so the hot path pays one clock call per edge instead of
#: two.  Each :class:`SpanStore` captures its *own* anchors at
#: construction — in a long-lived process the wall clock (NTP steps,
#: suspend/resume) drifts away from ``perf_counter``, and a store built
#: fresh should report timestamps anchored now, not at import.  This
#: module-level pair only backs :meth:`Span.to_dict` called without a
#: store.
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()


def _to_wall(perf_seconds: Optional[float]) -> Optional[float]:
    if perf_seconds is None:
        return None
    return _ANCHOR_WALL + (perf_seconds - _ANCHOR_PERF)


def new_trace_id(prefix: str = "trc") -> str:
    """A fresh correlation id (``prefix-<12 hex chars>``)."""
    return "{}-{}".format(prefix, uuid.uuid4().hex[:12])


def new_span_id() -> int:
    """A fresh span id (an integer — unique in-process, not globally)."""
    return next(_span_ids)


def current_trace_id() -> Optional[str]:
    """The active trace id, or ``None`` outside any scope."""
    return _context.get()[0]


def current_span_id() -> Optional[int]:
    """The active span id, or ``None`` outside any span."""
    return _context.get()[1]


class trace_scope:
    """Activate ``trace_id`` for a block; restores the previous context on exit.

    Entering a different trace starts it with no active span, since a
    span parents only on spans of its own trace.  ``trace_scope(None)``
    and re-entering the active trace are no-ops, so callers propagating
    an id never need to branch on whether one existed.
    """

    __slots__ = ("_trace_id", "_token")

    def __init__(self, trace_id: Optional[str]):
        self._trace_id = trace_id
        self._token = None

    def __enter__(self) -> Optional[str]:
        trace_id = self._trace_id
        if trace_id is not None and trace_id != _context.get()[0]:
            self._token = _context.set((trace_id, None))
        return trace_id

    def __exit__(self, *exc_info: Any) -> None:
        if self._token is not None:
            _context.reset(self._token)


def ensure_trace(prefix: str = "trc") -> trace_scope:
    """Keep the active trace if there is one, else activate a fresh ``prefix-…`` id.

    Background entry points (scheduler ticks, promotion) use this so
    their downstream events always carry *some* origin id.
    """
    return trace_scope(current_trace_id() or new_trace_id(prefix))


class Span:
    """One timed operation inside a trace.

    ``start``/``end`` are ``perf_counter`` seconds (monotonic, so short
    spans are not quantised away); :meth:`to_dict` re-anchors them to
    wall-clock epoch seconds for display and cross-node alignment.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "attrs", "status", "error")

    def __init__(self, trace_id: str, span_id: int, parent_id: Optional[int],
                 name: str, attrs: Optional[Dict[str, Any]] = None):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs if attrs is not None else {}
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.status = "in_progress"
        self.error: Optional[str] = None

    def finish(self, status: str = "ok", error: Optional[str] = None) -> None:
        self.end = time.perf_counter()
        self.status = status
        self.error = error

    @property
    def duration_seconds(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def to_dict(self, to_wall=None) -> Dict[str, Any]:
        convert = to_wall if to_wall is not None else _to_wall
        document = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": convert(self.start),
            "end": convert(self.end),
            "duration_ms": (None if self.end is None
                            else round((self.end - self.start) * 1000.0, 3)),
            "status": self.status,
            "attrs": dict(self.attrs),
        }
        if self.error is not None:
            document["error"] = self.error
        return document


#: One trace's held spans, its dropped-span count and the parent ids its
#: held spans name.
_TraceEntry = Tuple[List[Span], int, Set[Optional[int]]]


class SpanStore:
    """Bounded ring buffer of finished spans, grouped by trace.

    Eviction is trace-granular: once ``max_traces`` distinct traces are
    held, the oldest trace is dropped — unless its wall time (first span
    start to last span end) exceeded ``slow_threshold_seconds``, in which
    case it moves to a secondary bounded exemplar map so slow outliers
    outlive ring churn.  Per-trace span counts are capped at
    ``max_spans_per_trace``; overflow spans are counted, not stored, so a
    runaway fan-out cannot balloon memory.  Two kinds of span are kept past
    the cap, up to twice it: the trace's root, and any span a held span
    names as its parent — parents finish after their children, and
    dropping them would leave the held children as orphans.
    """

    def __init__(self, max_traces: int = 256, max_spans_per_trace: int = 512,
                 slow_threshold_seconds: float = 1.0, max_slow_traces: int = 32,
                 enabled: bool = True):
        self.enabled = enabled
        self._max_traces = max(1, int(max_traces))
        self._max_spans = max(1, int(max_spans_per_trace))
        self._slow_threshold = float(slow_threshold_seconds)
        self._max_slow = max(0, int(max_slow_traces))
        # trace_id -> (spans, dropped_count, parent ids named by the held
        # spans — ``None`` once a root is held); insertion order = ring order.
        self._traces: "OrderedDict[str, _TraceEntry]" = OrderedDict()
        self._slow: "OrderedDict[str, _TraceEntry]" = OrderedDict()
        self._lock = threading.Lock()
        self._recorded_gone = 0  # spans recorded but since discarded
        self._dropped = 0
        self._evicted = 0
        # Per-store wall-clock anchors: captured at construction, not at
        # import, so a store built into a long-lived process reports
        # timestamps that have not drifted from the wall clock.
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()

    def to_wall(self, perf_seconds: Optional[float]) -> Optional[float]:
        """Map a ``perf_counter`` reading onto this store's wall anchor."""
        if perf_seconds is None:
            return None
        return self._anchor_wall + (perf_seconds - self._anchor_perf)

    def reanchor(self) -> None:
        """Re-capture the wall/perf anchor pair (e.g. after an NTP step)."""
        self._anchor_wall = time.time()
        self._anchor_perf = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def add(self, span: Span) -> None:
        """Record one finished span.

        The common case — the trace already has an entry with room — is
        lock-free: ``dict.get`` and ``list.append`` are atomic under the
        GIL, and this runs on the dispatch hot path for every span, so a
        contended lock here is what the <3% telemetry budget would die
        on.  The races are benign: an append may land on a trace entry
        concurrently evicted to the slow map (same list object — the
        span still arrives) and the per-trace cap may overshoot by a few
        spans under concurrency (it bounds memory, not an exact count).
        Trace creation, eviction and drop-counting stay under the lock.
        """
        if not self.enabled:
            return
        entry = self._traces.get(span.trace_id)
        if entry is not None and len(entry[0]) < self._max_spans:
            entry[0].append(span)
            entry[2].add(span.parent_id)
            return
        with self._lock:
            entry = self._traces.get(span.trace_id)
            if entry is None:
                # Revive a slow exemplar if the trace is still accumulating
                # (e.g. replication applies arriving after ring eviction).
                entry = self._slow.pop(span.trace_id, None)
                if entry is None:
                    entry = ([], 0, set())
                self._traces[span.trace_id] = entry
                while len(self._traces) > self._max_traces:
                    self._evict_oldest_locked()
            spans, dropped, parents = entry
            # A parent finishes after its children, which may have filled
            # the cap already: past the cap a span is still kept if a held
            # span names it as parent, or if it is the trace's first root
            # (replica applies are parentless too, and stay capped).
            if len(spans) >= self._max_spans and (
                    len(spans) >= 2 * self._max_spans
                    or (span.span_id not in parents
                        and (span.parent_id is not None or None in parents))):
                self._traces[span.trace_id] = (spans, dropped + 1, parents)
                self._dropped += 1
                return
            spans.append(span)
            parents.add(span.parent_id)

    def _evict_oldest_locked(self) -> None:
        trace_id, entry = self._traces.popitem(last=False)
        self._evicted += 1
        if self._max_slow and self._trace_wall_seconds(entry[0]) >= self._slow_threshold:
            self._slow[trace_id] = entry
            while len(self._slow) > self._max_slow:
                _, aged = self._slow.popitem(last=False)
                self._recorded_gone += len(aged[0])
        else:
            self._recorded_gone += len(entry[0])

    @staticmethod
    def _trace_wall_seconds(spans: List[Span]) -> float:
        if not spans:
            return 0.0
        first = min(span.start for span in spans)
        last = max(span.end if span.end is not None else span.start
                   for span in spans)
        return last - first

    # -- retrieval ---------------------------------------------------------

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces.keys()) + list(self._slow.keys())

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Newest-first summaries of held traces; slow exemplars flagged."""
        with self._lock:
            rows = [(trace_id, entry, False)
                    for trace_id, entry in self._traces.items()]
            rows.extend((trace_id, entry, True)
                        for trace_id, entry in self._slow.items())
        summaries = []
        for trace_id, (spans, dropped, _parents), retained in rows:
            roots = [span for span in spans if span.parent_id is None]
            summaries.append({
                "trace_id": trace_id,
                "span_count": len(spans),
                "dropped_spans": dropped,
                "root": roots[0].name if roots else (spans[0].name if spans else None),
                "started_at": self.to_wall(min((span.start for span in spans),
                                               default=None)),
                "duration_ms": round(self._trace_wall_seconds(spans) * 1000.0, 3),
                "errors": sum(1 for span in spans if span.status == "error"),
                "retained": "slow" if retained else "ring",
            })
        summaries.sort(key=lambda row: row["started_at"] or 0.0, reverse=True)
        if limit is not None:
            summaries = summaries[:max(0, int(limit))]
        return summaries

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """The full timeline + nested tree for one trace, or ``None``."""
        with self._lock:
            entry = self._traces.get(trace_id)
            retained = "ring"
            if entry is None:
                entry = self._slow.get(trace_id)
                retained = "slow"
            if entry is None:
                return None
            spans = list(entry[0])
            dropped = entry[1]
        spans.sort(key=lambda span: span.start)
        documents = [span.to_dict(to_wall=self.to_wall) for span in spans]
        return {
            "trace_id": trace_id,
            "span_count": len(documents),
            "dropped_spans": dropped,
            "duration_ms": round(self._trace_wall_seconds(spans) * 1000.0, 3),
            "retained": retained,
            "spans": documents,
            "tree": self._build_tree(documents),
        }

    @staticmethod
    def _build_tree(documents: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        """Nest span dicts by parent_id; parentless/orphaned spans are roots."""
        by_id = {}
        for document in documents:
            node = dict(document)
            node["children"] = []
            by_id[node["span_id"]] = node
        roots = []
        for node in by_id.values():
            parent = by_id.get(node["parent_id"]) if node["parent_id"] else None
            if parent is not None and parent is not node:
                parent["children"].append(node)
            else:
                roots.append(node)
        return roots

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            # Recorded = still held + discarded with their trace; counted
            # at query time so the hot recording path stays counter-free.
            held = sum(len(entry[0]) for entry in self._traces.values())
            held += sum(len(entry[0]) for entry in self._slow.values())
            return {
                "enabled": self.enabled,
                "traces": len(self._traces),
                "slow_traces": len(self._slow),
                "spans_recorded": held + self._recorded_gone,
                "spans_dropped": self._dropped,
                "traces_evicted": self._evicted,
                "max_traces": self._max_traces,
                "max_spans_per_trace": self._max_spans,
                "slow_threshold_seconds": self._slow_threshold,
            }

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()
            self._slow.clear()
            self._recorded_gone = self._dropped = self._evicted = 0


class span_scope:
    """Open a span for a block; record it into the store on exit.

    ``with span_scope("journal.append", seq=7):`` opens a child of the
    active span under the active trace id (in a worker-pool task that is
    the span active at submit).  ``with span_scope(...) as span:`` binds
    the live :class:`Span` (or ``None`` when recording is off or no trace
    is active); mutate ``span.attrs`` to annotate after the fact.

    If the block raises, the span finishes with ``status="error"`` and
    the exception type as ``error``; the exception propagates.  A block
    that handles a failure itself may set ``span.status``/``span.error``
    and the exit keeps them.
    """

    __slots__ = ("_name", "_attrs", "_store", "_span", "_token")

    def __init__(self, name: str, store: Optional["SpanStore"] = None,
                 **attrs: Any):
        self._name = name
        self._attrs = attrs
        self._store = store
        self._span: Optional[Span] = None
        self._token = None

    def __enter__(self) -> Optional[Span]:
        # Hot path: one context read, and the store through the module
        # global — every call saved here is paid back on the dispatch path.
        trace_id, parent_id = _context.get()
        store = self._store
        if store is None:
            store = self._store = _default_store
        if not store.enabled or trace_id is None:
            return None
        span = self._span = Span(trace_id, next(_span_ids), parent_id,
                                 self._name, self._attrs or None)
        self._token = _context.set((trace_id, span.span_id))
        return span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        span = self._span
        if span is None:
            return
        _context.reset(self._token)
        span.end = time.perf_counter()
        if exc_type is not None:
            span.status = "error"
            span.error = exc_type.__name__
        elif span.status == "in_progress":
            span.status = "ok"
        self._store.add(span)


#: Process-wide default store; swap with :func:`set_span_store` to isolate
#: (tests) or disable (benchmark baselines) — mirrors ``get_registry()``.
_default_store = SpanStore()


def get_span_store() -> SpanStore:
    return _default_store


def set_span_store(store: SpanStore) -> SpanStore:
    global _default_store
    _default_store = store
    return store
