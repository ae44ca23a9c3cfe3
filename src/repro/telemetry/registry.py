"""A zero-dependency metrics registry with Prometheus text exposition.

Three instrument types, mirroring the Prometheus data model:

* :class:`Counter` — monotonically increasing totals (names end ``_total``).
* :class:`Gauge` — point-in-time values that move both ways.
* :class:`Histogram` — observations bucketed against *fixed* boundaries
  chosen at registration, rendered as cumulative ``_bucket``/``_sum``/
  ``_count`` series.

Instruments are registered get-or-create by name: asking twice for the
same name returns the same object, asking with a conflicting type or
label set raises.  Every update takes the instrument's lock, so the
registry is safe under the completion worker pool; the cost of one update is a
tuple build, a dict lookup and a few adds — small enough that
``BENCH_telemetry.json`` holds the instrumented dispatch path within a
few percent of a disabled registry.

A registry built with ``enabled=False`` hands out the same API but every
``inc``/``set``/``observe`` returns immediately; components fetch their
instruments at construction, so swapping the process default via
:func:`set_registry` before building a service disables the entire layer.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..clock import Clock, SystemClock

#: Sub-millisecond to seconds — journal appends, fsyncs, lease heartbeats.
DEFAULT_FAST_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                        0.05, 0.1, 0.25, 0.5, 1.0, 2.5)
#: Milliseconds to tens of seconds — API requests, action waits, checkpoints.
DEFAULT_LATENCY_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1,
                           0.25, 0.5, 1.0, 2.5, 5.0, 10.0)
#: Record/batch counts — replication batches, fan-out sizes.
DEFAULT_SIZE_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0,
                        250.0, 500.0, 1000.0)


def _format_value(value: float) -> str:
    """Render a sample the way the exposition format expects."""
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: Any) -> str:
    """Escape a label value per the text exposition format.

    Backslash first (or the other escapes would be double-escaped), then
    quote and newline as the format mandates.  Carriage returns get the
    same treatment as newlines — the spec leaves them undefined, but a
    raw ``\\r`` splits the sample line and corrupts the scrape.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r"))


def _escape_help(value: Any) -> str:
    """Escape ``# HELP`` text: only backslash and line breaks (no quotes)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace("\n", "\\n")
            .replace("\r", "\\r"))


def _render_labels(labelnames: Tuple[str, ...], key: Tuple[str, ...],
                   extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    pairs = list(zip(labelnames, key)) + list(extra)
    if not pairs:
        return ""
    return "{" + ",".join('{}="{}"'.format(name, _escape_label(value))
                          for name, value in pairs) + "}"


class _Instrument:
    """Shared plumbing: label resolution, the cell map, the lock."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str,
                 labelnames: Tuple[str, ...], enabled: bool):
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._enabled = enabled
        self._lock = threading.Lock()
        self._cells: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if not labels and not self.labelnames:
            return ()
        if len(labels) != len(self.labelnames):
            raise ValueError(
                "metric {!r} expects labels {!r}, got {!r}".format(
                    self.name, self.labelnames, tuple(sorted(labels))))
        try:
            return tuple(str(labels[name]) for name in self.labelnames)
        except KeyError as exc:
            raise ValueError(
                "metric {!r} expects labels {!r}, got {!r}".format(
                    self.name, self.labelnames, tuple(sorted(labels)))) from exc

    def clear(self) -> None:
        with self._lock:
            self._cells.clear()


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError("counter {!r} cannot decrease".format(self.name))
        key = self._key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def bind(self, **labels: Any) -> "_BoundCounter":
        """Pre-resolve one label set for hot-path increments.

        The returned handle skips the per-call kwargs dict and key build —
        dispatch completion uses one bound cell per outcome.
        """
        return _BoundCounter(self, self._key(labels))

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._cells.get(self._key(labels), 0.0)

    def expose(self) -> List[str]:
        with self._lock:
            cells = sorted(self._cells.items())
        lines = ["# HELP {} {}".format(self.name, _escape_help(self.help)),
                 "# TYPE {} counter".format(self.name)]
        for key, value in cells:
            lines.append("{}{} {}".format(
                self.name, _render_labels(self.labelnames, key),
                _format_value(value)))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            cells = sorted(self._cells.items())
        return {"name": self.name, "type": "counter", "help": self.help,
                "series": [{"labels": dict(zip(self.labelnames, key)),
                            "value": value} for key, value in cells]}


class _BoundCounter:
    """A counter cell with its label key resolved ahead of time."""

    __slots__ = ("_counter", "_cell_key")

    def __init__(self, counter: Counter, cell_key: Tuple[str, ...]):
        self._counter = counter
        self._cell_key = cell_key

    def inc(self, amount: float = 1.0) -> None:
        counter = self._counter
        if not counter._enabled:
            return
        if amount < 0:
            raise ValueError("counter {!r} cannot decrease".format(counter.name))
        with counter._lock:
            counter._cells[self._cell_key] = counter._cells.get(
                self._cell_key, 0.0) + amount


class Gauge(_Instrument):
    """A point-in-time value; settable and incrementable."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._cells[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._cells.get(self._key(labels), 0.0)

    def expose(self) -> List[str]:
        with self._lock:
            cells = sorted(self._cells.items())
        lines = ["# HELP {} {}".format(self.name, _escape_help(self.help)),
                 "# TYPE {} gauge".format(self.name)]
        for key, value in cells:
            lines.append("{}{} {}".format(
                self.name, _render_labels(self.labelnames, key),
                _format_value(value)))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            cells = sorted(self._cells.items())
        return {"name": self.name, "type": "gauge", "help": self.help,
                "series": [{"labels": dict(zip(self.labelnames, key)),
                            "value": value} for key, value in cells]}


class _HistogramCell:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, bucket_count: int):
        self.bucket_counts = [0] * bucket_count
        self.total = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Observations against fixed, registration-time bucket boundaries."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, labelnames: Tuple[str, ...],
                 buckets: Tuple[float, ...], enabled: bool):
        super().__init__(name, help_text, labelnames, enabled)
        cleaned = tuple(sorted(float(bound) for bound in buckets))
        if not cleaned:
            raise ValueError("histogram {!r} needs at least one bucket".format(name))
        self.buckets = cleaned
        self._bucket_count = len(cleaned)

    def observe(self, value: float, **labels: Any) -> None:
        if not self._enabled:
            return
        key = self._key(labels)
        value = float(value)
        # bisect_left finds the first bound with value <= bound; past the
        # last bound the sample lands only in the implicit +Inf (count).
        index = bisect_left(self.buckets, value)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = _HistogramCell(self._bucket_count)
            if index < self._bucket_count:
                cell.bucket_counts[index] += 1
            cell.total += value
            cell.count += 1

    def bind(self, **labels: Any) -> "_BoundHistogram":
        """Pre-resolve one label set for hot-path observations.

        Mirrors :meth:`Counter.bind`: the returned handle skips the
        per-call kwargs dict and key build — lock-wait and queue-depth
        instrumentation observe through one bound cell per site.
        """
        return _BoundHistogram(self, self._key(labels))

    def cell(self, **labels: Any) -> Dict[str, Any]:
        """The raw (non-cumulative) cell for tests and roll-ups."""
        with self._lock:
            cell = self._cells.get(self._key(labels))
            if cell is None:
                return {"count": 0, "sum": 0.0, "buckets": [0] * len(self.buckets)}
            return {"count": cell.count, "sum": cell.total,
                    "buckets": list(cell.bucket_counts)}

    def expose(self) -> List[str]:
        with self._lock:
            cells = sorted((key, cell.count, cell.total, list(cell.bucket_counts))
                           for key, cell in self._cells.items())
        lines = ["# HELP {} {}".format(self.name, _escape_help(self.help)),
                 "# TYPE {} histogram".format(self.name)]
        for key, count, total, bucket_counts in cells:
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, bucket_counts):
                cumulative += bucket_count
                lines.append("{}_bucket{} {}".format(
                    self.name,
                    _render_labels(self.labelnames, key,
                                   (("le", _format_value(bound)),)),
                    cumulative))
            lines.append("{}_bucket{} {}".format(
                self.name,
                _render_labels(self.labelnames, key, (("le", "+Inf"),)), count))
            lines.append("{}_sum{} {}".format(
                self.name, _render_labels(self.labelnames, key),
                _format_value(total)))
            lines.append("{}_count{} {}".format(
                self.name, _render_labels(self.labelnames, key), count))
        return lines

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            cells = sorted((key, cell.count, cell.total, list(cell.bucket_counts))
                           for key, cell in self._cells.items())
        series = []
        for key, count, total, bucket_counts in cells:
            series.append({
                "labels": dict(zip(self.labelnames, key)),
                "count": count,
                "sum": total,
                "mean": (total / count) if count else 0.0,
                "buckets": {_format_value(bound): bucket_count
                            for bound, bucket_count
                            in zip(self.buckets, bucket_counts)},
            })
        return {"name": self.name, "type": "histogram", "help": self.help,
                "series": series}


class _BoundHistogram:
    """A histogram cell with its label key resolved ahead of time."""

    __slots__ = ("_histogram", "_cell_key")

    def __init__(self, histogram: Histogram, cell_key: Tuple[str, ...]):
        self._histogram = histogram
        self._cell_key = cell_key

    def observe(self, value: float) -> None:
        histogram = self._histogram
        if not histogram._enabled:
            return
        value = float(value)
        index = bisect_left(histogram.buckets, value)
        with histogram._lock:
            cell = histogram._cells.get(self._cell_key)
            if cell is None:
                cell = histogram._cells[self._cell_key] = _HistogramCell(
                    histogram._bucket_count)
            if index < histogram._bucket_count:
                cell.bucket_counts[index] += 1
            cell.total += value
            cell.count += 1


class MetricsRegistry:
    """The process-wide instrument catalog.

    ``clock`` stamps JSON snapshots (injected, so simulated-time tests get
    deterministic timestamps); ``enabled=False`` makes every instrument a
    no-op while keeping the full API, which is how the telemetry benchmark
    measures instrumentation overhead without branching at call sites.
    """

    def __init__(self, clock: Clock = None, enabled: bool = True):
        self._clock = clock or SystemClock()
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: Dict[str, _Instrument] = {}

    # -------------------------------------------------------------- registration
    def counter(self, name: str, help_text: str = "",
                labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help_text, tuple(labelnames))

    def gauge(self, name: str, help_text: str = "",
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help_text, tuple(labelnames))

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help_text, tuple(labelnames),
                              buckets=tuple(buckets))

    def _register(self, cls, name: str, help_text: str,
                  labelnames: Tuple[str, ...], **extra: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        "metric {!r} already registered as {} (wanted {})".format(
                            name, existing.kind, cls.kind))
                if existing.labelnames != labelnames:
                    raise ValueError(
                        "metric {!r} already registered with labels {!r} "
                        "(wanted {!r})".format(name, existing.labelnames,
                                               labelnames))
                return existing
            if cls is Histogram:
                instrument = Histogram(name, help_text, labelnames,
                                       extra["buckets"], self.enabled)
            else:
                instrument = cls(name, help_text, labelnames, self.enabled)
            self._instruments[name] = instrument
            return instrument

    # ------------------------------------------------------------------- timing
    def time_histogram(self, histogram: Histogram,
                       **labels: Any) -> "_HistogramTimer":
        """``with registry.time_histogram(h): ...`` observes the elapsed wall time."""
        return _HistogramTimer(histogram, labels)

    # ------------------------------------------------------------------- output
    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return [self._instruments[name]
                    for name in sorted(self._instruments)]

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def render_prometheus(self) -> str:
        """The full registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for instrument in self.instruments():
            lines.extend(instrument.expose())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, Any]:
        """A typed JSON view of every registered series."""
        return {
            "enabled": self.enabled,
            "scraped_at": self._clock.now().isoformat(),
            "metrics": [instrument.snapshot()
                        for instrument in self.instruments()],
        }

    def reset(self) -> None:
        """Drop every recorded sample (instruments stay registered)."""
        for instrument in self.instruments():
            instrument.clear()


class _HistogramTimer:
    """A lightweight context manager timing one block into a histogram."""

    __slots__ = ("_histogram", "_labels", "_start")

    def __init__(self, histogram: Histogram, labels: Dict[str, Any]):
        self._histogram = histogram
        self._labels = labels

    def __enter__(self) -> "_HistogramTimer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._histogram.observe(time.perf_counter() - self._start,
                                **self._labels)


# --------------------------------------------------------------------- default
_default_lock = threading.Lock()
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry (what ``/v2/metrics`` serves)."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process default; returns the previous one.

    Components bind their instruments at construction time, so the swap
    affects services built *after* it — build order is the isolation
    boundary (the telemetry benchmark and tests rely on this).
    """
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
