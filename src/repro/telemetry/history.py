"""Fixed-size time-series history rings over registry snapshots.

``/v2/metrics`` is a point-in-time scrape; this module gives each node a
bounded memory of *how it got here*.  A :class:`MetricHistory` is bound
to a :class:`~repro.telemetry.registry.MetricsRegistry` and, on every
:meth:`MetricHistory.capture` (driven by the ``telemetry-history``
maintenance job), walks the registry snapshot and appends one point per
series to a preallocated ring:

* **counters** record the *delta* since the previous capture (a decrease
  is treated as a process restart: the new cumulative value becomes the
  whole delta, never a negative point);
* **gauges** record the raw value;
* **histograms** fan out into derived series — ``:rate`` (observation
  count this interval), ``:mean`` (interval mean) and one ``:p<q>``
  series per configured quantile, estimated from per-interval bucket
  deltas (the reported value is the upper bound of the bucket containing
  the quantile, ``inf`` when it landed past the last bound).

This module is the package's one windowed-delta engine: the module
functions :func:`counter_delta`, :func:`histogram_reading`,
:func:`histogram_delta` and :func:`bucket_quantile` do the reset
handling, bucket deltas and quantile estimate for both the rings and the
SLO engine's windowed rule kinds (:mod:`repro.telemetry.slo`), which
keep their own per-rule cursor over the same arithmetic.

Every series keeps two tiers: the **raw** ring (one point per capture)
and a **downsampled** ring — every ``downsample_every`` raw points are
promoted into one coarse point carrying ``(ts, mean, min, max, samples)``
so a long window survives in bounded memory after the raw tier has
wrapped.  Zero dependencies, one lock, everything preallocated; query
with series-prefix, window, and step filters via :meth:`query`.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..clock import Clock, SystemClock
from .registry import MetricsRegistry

__all__ = ["MetricHistory", "bucket_quantile", "counter_delta",
           "histogram_delta", "histogram_reading"]

#: One cumulative histogram reading: ``(count, sum, {bound text: count})``;
#: bucket counts are per bucket, and observations past the last bound
#: count toward ``count`` only (the implicit +Inf bucket).
HistogramReading = Tuple[float, float, Dict[str, float]]


def _series_key(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    rendered = ",".join('{}="{}"'.format(key, labels[key])
                        for key in sorted(labels))
    return "{}{{{}}}".format(name, rendered)


def _parse_bound(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def counter_delta(previous: Optional[float], current: float) -> float:
    """A cumulative counter's increase since ``previous``.

    On first sighting (``previous is None``) or after a decrease (the
    process restarted, or the registry was swapped) the whole current
    value is the delta, so a window is never negative.
    """
    if previous is None or current < previous:
        return current
    return current - previous


def histogram_reading(series: Iterable[Dict[str, Any]]) -> HistogramReading:
    """Merge histogram snapshot series (one per label set) into one reading."""
    count, total, buckets = 0, 0.0, {}
    for cell in series:
        count += cell["count"]
        total += cell["sum"]
        for bound, bucket_count in cell["buckets"].items():
            buckets[bound] = buckets.get(bound, 0) + bucket_count
    return count, total, buckets


def histogram_delta(previous: Optional[HistogramReading],
                    current: HistogramReading) -> HistogramReading:
    """The window between two readings: count, sum and bucket deltas.

    A first sighting, a fall in ``count`` (a reset) or a change in the
    bucket bounds (a different instrument) makes the whole current
    reading the window.
    """
    count, total, buckets = current
    if (previous is None or count < previous[0]
            or buckets.keys() != previous[2].keys()):
        return current
    last = previous[2]
    return (count - previous[0], total - previous[1],
            {bound: buckets[bound] - last[bound] for bound in buckets})


def bucket_quantile(buckets: Dict[str, float], count: float,
                    quantile: float) -> float:
    """Upper bound of the bucket holding ``quantile`` of ``count`` samples.

    The standard Prometheus ``histogram_quantile`` upper-bound estimate:
    ``inf`` when the quantile lands past the last bound, ``0.0`` for an
    empty window.
    """
    if count <= 0:
        return 0.0
    rank = quantile * count
    cumulative = 0
    for bound_text in sorted(buckets, key=_parse_bound):
        cumulative += buckets[bound_text]
        if cumulative >= rank:
            return _parse_bound(bound_text)
    return float("inf")  # landed in the implicit +Inf bucket


class _Ring:
    """A preallocated ring of points; append and chronological read-out."""

    __slots__ = ("_slots", "_next", "_size", "appended")

    def __init__(self, capacity: int):
        self._slots: List[Any] = [None] * capacity
        self._next = 0
        self._size = 0
        self.appended = 0

    def append(self, point: Any) -> None:
        self._slots[self._next] = point
        self._next = (self._next + 1) % len(self._slots)
        self._size = min(self._size + 1, len(self._slots))
        self.appended += 1

    def points(self) -> List[Any]:
        if self._size < len(self._slots):
            return self._slots[:self._size]
        return self._slots[self._next:] + self._slots[:self._next]

    def __len__(self) -> int:
        return self._size


class _Series:
    """One named series: raw + downsampled tiers and pending aggregate."""

    __slots__ = ("kind", "raw", "coarse", "_pending", "_every")

    def __init__(self, kind: str, max_points: int, max_downsampled: int,
                 downsample_every: int):
        self.kind = kind
        self.raw = _Ring(max_points)
        self.coarse = _Ring(max_downsampled)
        self._every = downsample_every
        # (count, sum, min, max) accumulated toward the next coarse point.
        self._pending: Optional[Tuple[int, float, float, float]] = None

    def record(self, ts: float, value: float) -> None:
        self.raw.append((ts, value))
        if self._pending is None:
            self._pending = (1, value, value, value)
        else:
            count, total, low, high = self._pending
            self._pending = (count + 1, total + value,
                             min(low, value), max(high, value))
        count, total, low, high = self._pending
        if count >= self._every:
            self.coarse.append((ts, total / count, low, high, count))
            self._pending = None


class MetricHistory:
    """Bounded time-series memory over one registry's instruments.

    ``clock`` stamps points (inject a simulated clock for deterministic
    tests); ``enabled=False`` keeps the API but makes ``capture`` a
    no-op, mirroring the registry/span-store convention.
    """

    def __init__(self, registry: MetricsRegistry, clock: Clock = None,
                 max_points: int = 360, downsample_every: int = 10,
                 max_downsampled: int = 360,
                 quantiles: Iterable[float] = (0.5, 0.99),
                 max_series: int = 1024, enabled: bool = True):
        if max_points < 1 or max_downsampled < 1:
            raise ValueError("history rings need at least one point")
        if downsample_every < 2:
            raise ValueError("downsample_every must be >= 2")
        self.enabled = enabled
        self._registry = registry
        self._clock = clock or SystemClock()
        self._max_points = int(max_points)
        self._every = int(downsample_every)
        self._max_downsampled = int(max_downsampled)
        self._quantiles = tuple(sorted(float(q) for q in quantiles))
        for quantile in self._quantiles:
            if not 0.0 < quantile < 1.0:
                raise ValueError("quantiles must be in (0, 1)")
        self._max_series = int(max_series)
        self._lock = threading.Lock()
        self._series: Dict[str, _Series] = {}
        # Previous cumulative state, keyed by series: counters map to a
        # float, histograms to a reading.
        self._last_counter: Dict[str, float] = {}
        self._last_histogram: Dict[str, HistogramReading] = {}
        self._captures = 0
        self._last_capture_at: Optional[float] = None
        self._dropped_series = 0

    # -- capture -----------------------------------------------------------

    def capture(self) -> int:
        """Sample every registered series once; returns points recorded."""
        if not self.enabled:
            return 0
        now = self._clock.now().timestamp()
        recorded = 0
        with self._lock:
            for instrument in self._registry.instruments():
                snapshot = instrument.snapshot()
                kind = snapshot["type"]
                for series in snapshot["series"]:
                    key = _series_key(snapshot["name"], series["labels"])
                    if kind == "counter":
                        recorded += self._capture_counter(
                            key, now, series["value"])
                    elif kind == "gauge":
                        recorded += self._record(key, "gauge", now,
                                                 series["value"])
                    else:
                        recorded += self._capture_histogram(key, now, series)
            self._captures += 1
            self._last_capture_at = now
        return recorded

    def _capture_counter(self, key: str, ts: float, value: float) -> int:
        delta = counter_delta(self._last_counter.get(key), value)
        self._last_counter[key] = value
        return self._record(key, "counter", ts, delta)

    def _capture_histogram(self, key: str, ts: float,
                           series: Dict[str, Any]) -> int:
        reading = histogram_reading((series,))
        count_delta, sum_delta, bucket_deltas = histogram_delta(
            self._last_histogram.get(key), reading)
        self._last_histogram[key] = reading
        recorded = self._record(key + ":rate", "histogram", ts, count_delta)
        mean = (sum_delta / count_delta) if count_delta > 0 else 0.0
        recorded += self._record(key + ":mean", "histogram", ts, mean)
        for quantile in self._quantiles:
            value = bucket_quantile(bucket_deltas, count_delta, quantile)
            recorded += self._record(
                "{}:p{:g}".format(key, quantile * 100), "histogram", ts, value)
        return recorded

    def _record(self, key: str, kind: str, ts: float, value: float) -> int:
        series = self._series.get(key)
        if series is None:
            if len(self._series) >= self._max_series:
                self._dropped_series += 1
                return 0
            series = self._series[key] = _Series(
                kind, self._max_points, self._max_downsampled, self._every)
        series.record(ts, float(value))
        return 1

    # -- query -------------------------------------------------------------

    def series_names(self) -> List[str]:
        with self._lock:
            return sorted(self._series)

    def query(self, series: Optional[str] = None,
              window_seconds: Optional[float] = None,
              step_seconds: Optional[float] = None,
              tier: str = "raw",
              max_series: int = 50) -> Dict[str, Any]:
        """Matching series with their points, oldest first.

        ``series`` is a comma-separated list of name prefixes (a bare
        metric name matches every label set and derived suffix);
        ``window_seconds`` keeps points no older than now-window;
        ``step_seconds`` decimates to at most one point per step;
        ``tier`` selects ``"raw"`` or ``"downsampled"``.
        """
        if tier not in ("raw", "downsampled"):
            raise ValueError("tier must be 'raw' or 'downsampled'")
        prefixes = None
        if series:
            prefixes = tuple(part.strip() for part in series.split(",")
                             if part.strip())
        now = self._clock.now().timestamp()
        cutoff = None if window_seconds is None else now - float(window_seconds)
        with self._lock:
            names = sorted(self._series)
            if prefixes is not None:
                names = [name for name in names
                         if any(name.startswith(prefix) for prefix in prefixes)]
            matched = len(names)
            names = names[:max(0, int(max_series))]
            rows = []
            for name in names:
                entry = self._series[name]
                ring = entry.raw if tier == "raw" else entry.coarse
                points = ring.points()
                if cutoff is not None:
                    points = [point for point in points if point[0] >= cutoff]
                if step_seconds:
                    step = float(step_seconds)
                    kept, last_ts = [], None
                    for point in points:
                        if last_ts is None or point[0] - last_ts >= step:
                            kept.append(point)
                            last_ts = point[0]
                    points = kept
                rows.append({"name": name, "kind": entry.kind, "tier": tier,
                             "points": [list(point) for point in points]})
            captures = self._captures
            last_at = self._last_capture_at
        return {
            "queried_at": now,
            "captures": captures,
            "last_capture_at": last_at,
            "tier": tier,
            "series_matched": matched,
            "series": rows,
        }

    def recent_deltas(self, prefixes: Iterable[str]) -> Dict[str, float]:
        """Latest raw point per counter series matching any prefix.

        Feeds the cluster view's "key metric deltas" column without
        shipping whole rings across nodes.
        """
        wanted = tuple(prefixes)
        deltas: Dict[str, float] = {}
        with self._lock:
            for name, entry in self._series.items():
                if entry.kind != "counter":
                    continue
                if not any(name.startswith(prefix) for prefix in wanted):
                    continue
                points = entry.raw.points()
                if points:
                    deltas[name] = points[-1][1]
        return deltas

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "captures": self._captures,
                "last_capture_at": self._last_capture_at,
                "series": len(self._series),
                "dropped_series": self._dropped_series,
                "max_points": self._max_points,
                "max_downsampled": self._max_downsampled,
                "downsample_every": self._every,
                "quantiles": list(self._quantiles),
            }

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self._last_counter.clear()
            self._last_histogram.clear()
            self._captures = 0
            self._last_capture_at = None
            self._dropped_series = 0
