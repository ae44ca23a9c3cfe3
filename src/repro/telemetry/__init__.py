"""Process-wide telemetry: metrics, span traces, SLO alerts, JSON logs.

The paper's monitoring chapter reads lifecycle *state*; this package
measures the machine that serves it.  Five small, dependency-free parts:

* :mod:`repro.telemetry.registry` — a thread-safe
  :class:`MetricsRegistry` of counters, gauges and fixed-bucket
  histograms with a Prometheus text exposition and a JSON snapshot.
* :mod:`repro.telemetry.spans` — the request context and a causal span
  tree over it.  One context variable holds the active trace id (the
  gateway's request id) and span id; the worker pool runs each task in a
  copy of the submitter's context, so the id follows pooled
  completions, journal appends and the replication stream across
  primary, follower and promoted node.  :func:`span_scope` opens timed
  child spans and a bounded :class:`SpanStore` keeps recent traces (plus
  slow-trace exemplars) retrievable via
  ``GET /v2/runtime/traces/{trace_id}``.
* :mod:`repro.telemetry.slo` — declarative :class:`SloRule`\\ s evaluated
  against registry snapshots; threshold edges publish ``alert.fired`` /
  ``alert.resolved`` bus events and feed the cockpit's alerts roll-up.
* :mod:`repro.telemetry.log` — a structured JSON log emitter that stamps
  every record with the active trace id.
* :mod:`repro.telemetry.logring` — a bounded in-memory ring every
  emitter fans out into, so recent log lines stay queryable by trace id
  at ``GET /v2/runtime/logs``.
* :mod:`repro.telemetry.history` — fixed-size time-series rings (raw +
  downsampled tiers) over registry snapshots, captured by a recurring
  maintenance job and served at ``GET /v2/runtime/telemetry/history``.
  Its module functions are the one windowed-delta engine (counter and
  histogram deltas with reset handling, the bucket-bound quantile) that
  the SLO rules share.
* :mod:`repro.telemetry.profiling` — contention visibility: a
  :class:`TimedLock` wrapper sampling lock waits, queue-depth capture
  for worker pools, and an optional low-rate stack sampler with a
  bounded flame tree (``GET /v2/runtime/profile``).

Everything hangs off one process-wide default registry
(:func:`get_registry` / :func:`set_registry`) and span store
(:func:`get_span_store` / :func:`set_span_store`); instrumented
components fetch their instruments at construction time, so swapping in
a disabled registry/store before building a service turns the whole
layer into no-ops — which is exactly how ``BENCH_telemetry`` measures
the overhead.
"""

from .history import MetricHistory
from .log import JsonLogEmitter, get_logger, reset_loggers
from .logring import LogRing, get_log_ring, set_log_ring
from .profiling import SamplingProfiler, TimedLock
from .registry import (
    DEFAULT_FAST_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from .slo import AlertState, SloEngine, SloRule, default_slo_rules
from .spans import (
    Span,
    SpanStore,
    current_span_id,
    current_trace_id,
    ensure_trace,
    get_span_store,
    new_span_id,
    new_trace_id,
    set_span_store,
    span_scope,
    trace_scope,
)

__all__ = [
    "AlertState",
    "Counter",
    "DEFAULT_FAST_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonLogEmitter",
    "LogRing",
    "MetricHistory",
    "MetricsRegistry",
    "SamplingProfiler",
    "SloEngine",
    "SloRule",
    "Span",
    "SpanStore",
    "TimedLock",
    "current_span_id",
    "current_trace_id",
    "default_slo_rules",
    "ensure_trace",
    "get_log_ring",
    "get_logger",
    "get_registry",
    "get_span_store",
    "new_span_id",
    "new_trace_id",
    "reset_loggers",
    "set_log_ring",
    "set_registry",
    "set_span_store",
    "span_scope",
    "trace_scope",
]
