"""Per-layer attribution for the traced run.

The benchmark wraps the public entry points of each layer with its own
timing wrappers (nothing inside the program changes).  Spans stay in
memory and are reduced to metrics when the run ends.  A span's self time
is its duration minus the wrapped calls nested inside it on the same
thread; a call into the same layer from inside that layer is folded into
the outer span, so ``kernel.advance`` calling ``kernel.advance_async``
records one kernel operation.

Tracing is switched per request, so one traced run also yields the
untraced latency it is compared with: a request id beginning ``e2e-1-``
is traced and ``e2e-0-`` is not.  The flag applies to the thread serving
the request and, for work the request fans out to pool threads, to the
whole process — the workloads that fan out have a single client.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import median_or_zero as median

#: Route pattern -> the short name of the per-route gateway metric.
ROUTES = {
    "POST /v2/instances": "create",
    "POST /v2/instances/{instance_id}:start": "start",
    "POST /v2/instances/{instance_id}:advance": "advance",
    "GET /v2/instances/{instance_id}": "get",
    "GET /v2/instances/{instance_id}/history": "history",
    "GET /v2/instances": "list",
}
#: The replication long-poll parks inside the gateway until the next write,
#: so its wall time is idle waiting, not gateway or service cost.
STREAM_ROUTE = "GET /v2/runtime/replication/stream"
#: Kernel entry points timed as one operation each.
KERNEL_OPS = ("instantiate", "start", "start_async", "advance", "advance_async")
SERVICE_CALLS = ("create_instance", "start_instance", "advance_instance",
                 "instance_detail", "batch_create_instances",
                 "batch_advance_instances")
#: Service calls that fan their items out to pool threads.
FAN_OUT_CALLS = ("batch_create_instances", "batch_advance_instances")
PAGE_CALLS = ("instances_page", "history_page")


def trace_flag(request_id: Optional[str]) -> Optional[bool]:
    if request_id and request_id.startswith("e2e-1-"):
        return True
    if request_id and request_id.startswith("e2e-0-"):
        return False
    return None


class Span:
    __slots__ = ("layer", "call", "start", "duration", "self_time", "extra")

    def __init__(self, layer, call, start, duration, self_time, extra):
        self.layer = layer
        self.call = call
        self.start = start
        self.duration = duration
        self.self_time = self_time
        self.extra = extra


class Recorder:
    """In-memory span and count collection for the benchmark's wrappers."""

    def __init__(self):
        self.global_on = False
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = defaultdict(float)
        self.counting = False
        self._local = threading.local()

    # -------------------------------------------------------------- switches
    def set_thread(self, on: Optional[bool]) -> None:
        self._local.on = on

    def _on(self) -> bool:
        on = getattr(self._local, "on", None)
        return self.global_on if on is None else on

    # -------------------------------------------------------------- wrappers
    def wrap(self, owner: Any, attribute: str, layer: str,
             extra: Callable[[tuple, Any], Any] = None) -> None:
        """Time ``owner.attribute`` as one span of ``layer``."""
        original = getattr(owner, attribute)
        recorder = self

        def timed(*args, **kwargs):
            local = recorder._local
            stack = local.__dict__.setdefault("stack", [])
            # Calls nested in a recorded span are recorded too, whatever the
            # switch says by now, so a span's self time never swallows an
            # unrecorded child.
            if not stack and not recorder._on():
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            result = None
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - started
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                recorder.spans.append(Span(
                    layer, attribute, started, duration, duration - frame[1],
                    extra(args, result) if extra is not None else None))

        setattr(owner, attribute, timed)

    def count(self, owner: Any, attribute: str, key: str,
              after: Callable[[Any], None] = None) -> None:
        """Count calls to ``owner.attribute`` during the timed phase."""
        original = getattr(owner, attribute)
        recorder = self

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            if recorder.counting:
                recorder.counts[key] += 1
                if after is not None:
                    after(result)
            return result

        setattr(owner, attribute, counted)

    def observe_max(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def of(self, layer: str) -> List[Span]:
        return [span for span in self.spans if span.layer == layer]


# -------------------------------------------------------------- installation
def install(recorder: Recorder, service, router) -> None:
    """Wrap the layers of one service and its v2 router."""
    recorder.wrap(router, "handle", "gateway", extra=lambda args, result: (
        args[0].context.get("route"), args[0].context.get("request_id")))
    timed_handle = router.handle

    def flagged(request):
        flag = trace_flag(request.context.get("request_id"))
        if flag is not None:
            recorder.set_thread(flag)
            recorder.global_on = flag
        return timed_handle(request)

    router.handle = flagged
    for call in SERVICE_CALLS:
        recorder.wrap(service, call, "service",
                      extra=lambda args, result: len(args[0])
                      if args and isinstance(args[0], list) else 1)
    for call in PAGE_CALLS:
        recorder.wrap(service, call, "storage")
    shards = getattr(service.manager, "shards", None) or [service.manager]
    for shard in shards:
        for call in KERNEL_OPS:
            recorder.wrap(shard, call, "kernel")
    recorder.wrap(service.bus, "publish", "bus")
    timers = service.scheduler.timers
    recorder.count(timers, "schedule", "timers")
    recorder.count(timers, "cancel", "timers")
    pool = getattr(service.manager, "worker_pool", None)
    if pool is not None:
        recorder.count(pool, "submit", "pool_submits", after=lambda handle:
                       recorder.observe_max("queue_depth",
                                            pool.stats()["queued"]))
    if service.persistence is not None:
        recorder.wrap(service.persistence.journal, "append_event", "journal",
                      extra=lambda args, record: record)
        recorder.wrap(service.persistence, "checkpoint", "checkpoint",
                      extra=lambda args, report: (report or {}).get(
                          "instances_flushed", 0))


# ------------------------------------------------------------ program counts
def _prometheus(text: str) -> Dict[str, float]:
    """Sum each series name (labels folded, ``le`` kept) of an exposition."""
    values: Dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        key = name.split("{", 1)[0]
        if key.endswith("_bucket"):
            le = name.split('le="', 1)[1].split('"', 1)[0]
            key = "{}|{}".format(key, le)
        try:
            values[key] += float(value)
        except ValueError:
            continue
    return values


def program_counts(service) -> Dict[str, Any]:
    """Counters the program keeps itself, read through its public surface
    (the ``/v2/metrics`` exposition, the bus, the log, the span store)."""
    from repro.telemetry import get_span_store

    metrics = _prometheus(service.metrics_exposition())
    counts = {
        "events": service.bus.published_count,
        "log_entries": len(service.execution_log),
        "spans": get_span_store().stats()["spans_recorded"],
        "fsyncs": metrics.get("gelee_journal_fsync_seconds_count", 0.0),
        "actions": metrics.get("gelee_dispatch_completed_total", 0.0),
        "lock_wait": {key.split("|", 1)[1]: value
                      for key, value in metrics.items()
                      if key.startswith("gelee_lock_wait_seconds_bucket|")},
        "appends": (service.persistence.journal.appended_count
                    if service.persistence is not None else 0),
    }
    return counts


def _lock_wait_p99_ms(before: Dict[str, float], after: Dict[str, float]) -> float:
    deltas = sorted(((float(le), after[le] - before.get(le, 0.0))
                     for le in after if le != "+Inf"))
    total = after.get("+Inf", 0.0) - before.get("+Inf", 0.0)
    if total <= 0:
        return 0.0
    for bound, cumulative in deltas:
        if cumulative >= 0.99 * total:
            return bound * 1000.0
    return deltas[-1][0] * 1000.0 if deltas else 0.0


def completed_waits_ms(manager, since) -> List[float]:
    """Submit-to-start waits stamped on invocations completed since ``since``."""
    waits = []
    for instance in manager.instances():
        for invocation in instance.all_invocations():
            if (invocation.status.value == "completed"
                    and invocation.submitted_at is not None
                    and invocation.submitted_at >= since
                    and invocation.wait_seconds is not None):
                waits.append(invocation.wait_seconds * 1000.0)
    return waits


# --------------------------------------------------------------- reduction
def _service_self(span: Span, kernel: List[Span]) -> float:
    """Self time of a service call; a fan-out call's kernel work runs on
    pool threads, so the covered part of its interval is subtracted."""
    if span.call not in FAN_OUT_CALLS:
        return span.self_time
    end = span.start + span.duration
    covered = 0.0
    reach = span.start
    for child in kernel:
        child_end = child.start + child.duration
        if child_end <= reach or child.start >= end:
            continue
        covered += min(child_end, end) - max(child.start, reach)
        reach = min(child_end, end)
    return max(0.0, span.self_time - covered)


def layer_metrics(recorder: Recorder, before: Dict[str, Any],
                  after: Dict[str, Any], ops: int, traced_ops: int,
                  waits_ms: Sequence[float]) -> Dict[str, float]:
    """Reduce the spans and count deltas of the timed phase."""
    ops = max(1, ops)
    traced_ops = max(1, traced_ops)
    gateway = [span for span in recorder.of("gateway")
               if span.extra and span.extra[0] != STREAM_ROUTE]
    kernel = sorted(recorder.of("kernel"), key=lambda span: span.start)
    service = recorder.of("service")
    journal = recorder.of("journal")
    checkpoints = recorder.of("checkpoint")
    metrics = {
        "gateway.self_us": median([s.self_time for s in gateway]) * 1e6,
        "service.self_us": median([
            _service_self(s, kernel) / max(1, s.extra or 1)
            for s in service]) * 1e6,
        "service.batch_advance_ms": median([
            s.duration for s in service
            if s.call == "batch_advance_instances"]) * 1e3,
        "kernel.op_us": median([s.duration for s in kernel]) * 1e6,
        "kernel.self_us": median([s.self_time for s in kernel]) * 1e6,
        "kernel.lock_wait_ms_p99": _lock_wait_p99_ms(before["lock_wait"],
                                                     after["lock_wait"]),
        "bus.events_per_op": (after["events"] - before["events"]) / ops,
        "bus.publish_us_per_op": sum(
            s.duration for s in recorder.of("bus")) * 1e6 / traced_ops,
        "log.entries_per_op": (after["log_entries"] - before["log_entries"]) / ops,
        "storage.page_ms": median([s.duration
                                    for s in recorder.of("storage")]) * 1e3,
        "dispatch.actions_per_op": (after["actions"] - before["actions"]) / ops,
        "dispatch.wait_ms": median(waits_ms),
        "dispatch.queue_depth_max": recorder.maxima.get("queue_depth", 0.0),
        "journal.appends_per_op": (after["appends"] - before["appends"]) / ops,
        "journal.fsyncs_per_op": (after["fsyncs"] - before["fsyncs"]) / ops,
        "journal.append_us": median([s.duration for s in journal]) * 1e6,
        "checkpoint.s": median([s.duration for s in checkpoints]),
        "checkpoint.instances_flushed": median([s.extra for s in checkpoints]),
        "scheduler.timers_per_op": recorder.counts["timers"] / ops,
        "telemetry.spans_per_op": (after["spans"] - before["spans"]) / ops,
    }
    sizes = [len(json.dumps(s.extra.to_dict(), default=str,
                            separators=(",", ":"))) + 1
             for s in journal if s.extra is not None]
    metrics["journal.bytes_per_op"] = (
        median(sizes) * metrics["journal.appends_per_op"] if sizes else 0.0)
    for route, short in ROUTES.items():
        metrics["gateway.route_p50_ms." + short] = median(
            [s.duration for s in gateway if s.extra[0] == route]) * 1e3
    # Only replicated_writes replicates; elsewhere that layer does no work.
    for name in ("replication.fetch_ms", "replication.read_batch_ms",
                 "replication.requests_per_write",
                 "replication.apply_us_per_record", "replication.lag_p50_ms",
                 "replication.lag_p99_ms"):
        metrics[name] = 0.0
    return metrics


def combine_rounds(reports: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One report from the rounds' reports: each metric's median, every flag."""
    names = reports[0]["metrics"]
    return {"metrics": {name: median([report["metrics"][name]
                                      for report in reports])
                        for name in names},
            "flags": [flag for report in reports for flag in report["flags"]]}


def handle_seconds(recorder: Recorder) -> Dict[str, float]:
    """Gateway handle time per request id (traced requests only)."""
    return {span.extra[1]: span.duration for span in recorder.of("gateway")
            if span.extra and span.extra[1]}


# ------------------------------------------------------- program span view
def _span_times(request_ids: Sequence[str]):
    """(duration, self) seconds of the program's own spans, by span name,
    read back through the span store for the given traces, and the ids of
    the traces the store still held."""
    from repro.telemetry import get_span_store

    store = get_span_store()
    times: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    held = []
    for request_id in request_ids:
        trace = store.trace(request_id)
        if trace is None:
            continue
        held.append(request_id)
        child_ms: Dict[Any, float] = defaultdict(float)
        for span in trace["spans"]:
            if span["parent_id"] is not None and span["duration_ms"] is not None:
                child_ms[span["parent_id"]] += span["duration_ms"]
        for span in trace["spans"]:
            if span["duration_ms"] is None:
                continue
            duration = span["duration_ms"] / 1e3
            own = max(0.0, duration - child_ms[span["span_id"]] / 1e3)
            times[span["name"]].append((duration, own))
    return times, held


#: Program span -> (reported metric, scale, wrapper metric it should match
#: or None, accepted ratio range program/wrapper, difference below which
#: the two agree whatever their ratio, in the metric's unit).
PROGRAM_SPANS = (
    ("gateway.request", "span.gateway_request_ms", 1e3, "gateway_ms",
     (0.75, 1.05), 0.05),
    ("shard", "span.shard_self_us", 1e6, None, None, None),
    ("dispatch.wait", "span.dispatch_wait_ms", 1e3, "dispatch.wait_ms",
     (0.5, 2.0), 0.1),
    ("dispatch.execute", "span.dispatch_execute_us", 1e6, None, None, None),
    ("journal.append", "span.journal_append_us", 1e6, "journal.append_us",
     (0.5, 1.05), 10.0),
    ("replication.apply", "span.replication_apply_us", 1e6,
     "replication.apply_us_per_record", (0.5, 2.0), 10.0),
)


def program_span_metrics(request_ids: Sequence[str], wrapper: Dict[str, float],
                         handles: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """The program's span self times beside the wrapper-derived ones.

    Returns the metrics and a list of flagged disagreements.  A pair is
    compared only when both sides measured something.  The span store keeps
    only its most recent traces, so gateway times are compared over the
    requests it still holds.
    """
    times, held = _span_times(request_ids)
    wrapper = dict(wrapper, gateway_ms=median(
        [handles[rid] for rid in held if rid in handles]) * 1e3)
    metrics: Dict[str, float] = {}
    flags = []
    for name, metric, scale, partner, accepted, slack in PROGRAM_SPANS:
        if name == "shard":
            samples = times.get("shard.apply", []) + times.get("shard.drain", [])
            value = median([own for _, own in samples]) * scale
        elif name == "gateway.request":
            value = median([duration for duration, _ in times.get(name, [])]) * scale
        else:
            value = median([own for _, own in times.get(name, [])]) * scale
        metrics[metric] = value
        other = wrapper.get(partner) if partner else None
        if accepted and value > 0 and other and abs(value - other) > slack:
            ratio = value / other
            if not accepted[0] <= ratio <= accepted[1]:
                flags.append("{} {:.4g} vs {} {:.4g} (ratio {:.2f})".format(
                    metric, value, partner, other, ratio))
    metrics["span.disagreements"] = float(len(flags))
    return metrics, flags
