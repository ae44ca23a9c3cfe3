"""Tests for :mod:`repro.telemetry` and the observability surface.

Covers the metrics registry (instruments, exposition, isolation), trace
propagation from the gateway through dispatch to the journal and the
replication stream (PR 8's correlation story), the ``/v2/metrics`` and
``/v2/runtime/telemetry`` routes on primary and replica, the one node
document and its stable ``dispatch`` schema, and the structured log emitter.

PR 9 adds the span layer and the SLO engine: span-tree construction and
thread-hop parenting, the ``SpanStore`` ring with slow-trace retention,
the end-to-end span chain for one request (gateway → shard → dispatch →
journal, and across replication/promotion), SLO rule evaluation with
firing/clearing edges published as journaled bus events, and the
``/v2/runtime/traces`` / ``/v2/runtime/alerts`` wire surface.
"""

import contextvars
import io
import json
import os
import shutil
import sys
import tempfile
import threading

import pytest

from repro.actions import library
from repro.clock import SimulatedClock
from repro.client import GeleeClient
from repro.model import LifecycleBuilder
from repro.persistence import PersistenceConfig
from repro.persistence.journal import scan_records
from repro.replication import JournalShippingSource, ReadReplica, ReplicationPrimary
from repro.service import GeleeService
from repro.service.rest import RestRouter
from repro.telemetry import (
    JsonLogEmitter,
    LogRing,
    MetricHistory,
    MetricsRegistry,
    SamplingProfiler,
    SloEngine,
    SloRule,
    Span,
    SpanStore,
    TimedLock,
    current_span_id,
    current_trace_id,
    default_slo_rules,
    ensure_trace,
    get_log_ring,
    get_registry,
    get_span_store,
    new_span_id,
    new_trace_id,
    reset_loggers,
    set_log_ring,
    set_registry,
    set_span_store,
    span_scope,
    trace_scope,
)
from repro.telemetry.history import (bucket_quantile, counter_delta,
                                     histogram_delta, histogram_reading)
from repro.telemetry.log import get_logger
from repro.telemetry.registry import DEFAULT_FAST_BUCKETS
from repro.workers import WorkerPool


@pytest.fixture(autouse=True)
def fresh_registry():
    """Each test gets its own process registry (components bind at build)."""
    previous = set_registry(MetricsRegistry())
    yield get_registry()
    set_registry(previous)


@pytest.fixture(autouse=True)
def fresh_span_store():
    """Each test gets its own process span store (instrumented code looks
    it up per-span, so swapping the default is full isolation)."""
    previous = get_span_store()
    store = set_span_store(SpanStore())
    yield store
    set_span_store(previous)


@pytest.fixture(autouse=True)
def fresh_log_ring():
    """Each test gets its own process log ring (emitters fan out into the
    live default, so swapping it isolates the records)."""
    previous = set_log_ring(LogRing())
    yield get_log_ring()
    set_log_ring(previous)


@pytest.fixture
def root():
    directory = tempfile.mkdtemp(prefix="gelee-telemetry-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def simple_model(name="Telemetry lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Draft")
    builder.phase("Review")
    builder.terminal("Done")
    builder.flow("Draft", "Review", "Done")
    return builder.build()


def make_instance(service, model):
    adapter = service.environment.adapter("Google Doc")
    resource = adapter.create_resource("telemetry doc", owner="alice")
    instance = service.manager.instantiate(model.uri, resource, owner="alice")
    return instance.instance_id


# =========================================================== registry basics
class TestRegistry:
    def test_counter_accumulates_per_label_set(self, fresh_registry):
        counter = fresh_registry.counter("demo_total", "Demo.", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 3
        assert counter.value(kind="b") == 1

    def test_counter_rejects_decrease_and_wrong_labels(self, fresh_registry):
        counter = fresh_registry.counter("demo_total", "Demo.", labelnames=("kind",))
        with pytest.raises(ValueError):
            counter.inc(-1, kind="a")
        with pytest.raises(ValueError):
            counter.inc(other="a")

    def test_gauge_set_inc_dec(self, fresh_registry):
        gauge = fresh_registry.gauge("demo_gauge", "Demo.")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value() == 6

    def test_histogram_buckets_and_summary(self, fresh_registry):
        histogram = fresh_registry.histogram(
            "demo_seconds", "Demo.", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            histogram.observe(value)
        cell = histogram.snapshot()["series"][0]
        assert cell["count"] == 4
        assert cell["sum"] == pytest.approx(55.55)

    def test_get_or_create_is_idempotent_but_typed(self, fresh_registry):
        first = fresh_registry.counter("demo_total", "Demo.")
        assert fresh_registry.counter("demo_total", "Demo.") is first
        with pytest.raises(ValueError):
            fresh_registry.gauge("demo_total", "Demo.")
        with pytest.raises(ValueError):
            fresh_registry.counter("demo_total", "Demo.", labelnames=("kind",))

    def test_disabled_registry_is_noop(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("demo_total", "Demo.")
        counter.inc()
        histogram = registry.histogram("demo_seconds", "Demo.",
                                       buckets=DEFAULT_FAST_BUCKETS)
        histogram.observe(1.0)
        assert counter.value() == 0
        assert registry.snapshot()["enabled"] is False

    def test_prometheus_exposition_shape(self, fresh_registry):
        fresh_registry.counter("demo_total", "Demo counter.",
                               labelnames=("kind",)).inc(kind='with "quotes"')
        fresh_registry.gauge("demo_gauge", "Demo gauge.").set(3)
        fresh_registry.histogram("demo_seconds", "Demo histogram.",
                                 buckets=(0.5, 1.0)).observe(0.7)
        text = fresh_registry.render_prometheus()
        assert text.endswith("\n")
        assert "# HELP demo_total Demo counter." in text
        assert "# TYPE demo_total counter" in text
        assert 'demo_total{kind="with \\"quotes\\""} 1' in text
        assert "demo_gauge 3" in text
        # Cumulative buckets plus the +Inf catch-all and _sum/_count.
        assert 'demo_seconds_bucket{le="0.5"} 0' in text
        assert 'demo_seconds_bucket{le="1"} 1' in text
        assert 'demo_seconds_bucket{le="+Inf"} 1' in text
        assert "demo_seconds_count 1" in text

    def test_snapshot_stamps_clock(self):
        clock = SimulatedClock()
        registry = MetricsRegistry(clock=clock)
        snapshot = registry.snapshot()
        assert snapshot["scraped_at"] == clock.now().isoformat()

    def test_timer_context_manager_observes(self, fresh_registry):
        histogram = fresh_registry.histogram("demo_seconds", "Demo.",
                                             buckets=DEFAULT_FAST_BUCKETS)
        with fresh_registry.time_histogram(histogram):
            pass
        assert histogram.snapshot()["series"][0]["count"] == 1

    def test_label_escaping_survives_hostile_values(self, fresh_registry):
        """Backslash, newline and quote in one label value must scrape as
        a single well-formed line (Prometheus text format escaping)."""
        hostile = 'back\\slash\nnew"line'
        fresh_registry.counter("demo_total", "Demo.",
                               labelnames=("path",)).inc(path=hostile)
        text = fresh_registry.render_prometheus()
        lines = [line for line in text.splitlines()
                 if line.startswith("demo_total{")]
        assert len(lines) == 1
        assert lines[0] == 'demo_total{path="back\\\\slash\\nnew\\"line"} 1'

    def test_help_escaping_keeps_exposition_line_based(self, fresh_registry):
        fresh_registry.gauge("demo_gauge", "Line one\nline two \\ done.").set(1)
        text = fresh_registry.render_prometheus()
        assert "# HELP demo_gauge Line one\\nline two \\\\ done." in text


# ================================================================== tracing
class TestTracing:
    def test_scope_nesting_restores_previous(self):
        assert current_trace_id() is None
        with trace_scope("outer"):
            assert current_trace_id() == "outer"
            with trace_scope("inner"):
                assert current_trace_id() == "inner"
            assert current_trace_id() == "outer"
        assert current_trace_id() is None

    def test_none_scope_is_noop(self):
        with trace_scope("outer"):
            with trace_scope(None):
                assert current_trace_id() == "outer"

    def test_ensure_reuses_active_id(self):
        with trace_scope("outer"):
            with ensure_trace("tick"):
                assert current_trace_id() == "outer"
        with ensure_trace("tick"):
            assert current_trace_id().startswith("tick-")

    def test_ids_are_unique(self):
        assert new_trace_id() != new_trace_id()

    def test_scope_is_thread_local(self):
        seen = {}

        def worker():
            seen["in_thread"] = current_trace_id()

        with trace_scope("main-only"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen["in_thread"] is None


# ======================================================= gateway middleware
class TestGatewayObservability:
    def test_request_id_header_echoed_and_fresh(self):
        router = RestRouter()
        first = router.get("/v2/models")
        second = router.get("/v2/models")
        assert first.headers["X-Request-Id"].startswith("req-")
        assert second.headers["X-Request-Id"] != first.headers["X-Request-Id"]
        assert first.body["meta"]["request_id"] == first.headers["X-Request-Id"]

    def test_inbound_request_id_honoured_over_http(self):
        from urllib.request import Request as UrlRequest, urlopen

        from repro.service.http import GeleeHttpServer

        service = GeleeService()
        server = GeleeHttpServer(RestRouter(service)).start()
        try:
            call = UrlRequest(server.base_url + "/v2/models",
                              headers={"X-Request-Id": "req-upstream-7"})
            with urlopen(call) as response:
                envelope = json.loads(response.read().decode("utf-8"))
                assert response.headers["X-Request-Id"] == "req-upstream-7"
            assert envelope["meta"]["request_id"] == "req-upstream-7"
            # A blank header does not suppress minting.
            call = UrlRequest(server.base_url + "/v2/models",
                              headers={"X-Request-Id": "  "})
            with urlopen(call) as response:
                assert response.headers["X-Request-Id"].startswith("req-")
        finally:
            server.stop()
            service.close()

    def test_request_id_in_error_envelope(self):
        router = RestRouter()
        response = router.get("/v2/instances/missing")
        assert response.status == 404
        assert response.body["error"]["code"] == "INSTANCE_NOT_FOUND"
        assert response.body["meta"]["request_id"] == \
            response.headers["X-Request-Id"]

    def test_timing_middleware_records_stats_and_series(self, fresh_registry):
        router = RestRouter()
        router.get("/v2/models")
        router.get("/v2/instances/missing")
        counter = fresh_registry.get("gelee_api_requests_total")
        cells = counter.snapshot()["series"]
        assert sum(cell["value"] for cell in cells) == 2
        assert sum(cell["value"] for cell in cells
                   if int(cell["labels"]["status"]) >= 400) == 1
        assert counter.value(route="GET /v2/models", status="200") == 1
        assert counter.value(route="GET /v2/instances/{instance_id}",
                             status="404") == 1
        latency = fresh_registry.get("gelee_api_request_seconds")
        series = latency.snapshot()["series"]
        assert sum(cell["count"] for cell in series) == 2


# =============================================== request-id → journal → replica
class TestTracePropagation:
    def test_origin_request_id_reaches_journal_and_replica(self, root):
        config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        ReplicationPrimary(service)
        model = simple_model()
        router = RestRouter(service=service)
        response = router.post("/v2/models", body={"model": model.to_dict()},
                               actor="alice")
        assert response.status == 201
        request_id = response.headers["X-Request-Id"]

        records = [record for record in scan_records(config.journal_directory)
                   if record.payload.get("origin_request_id") == request_id]
        assert records, "journal record should carry the gateway request id"

        replica = ReadReplica(JournalShippingSource(config), clock=SimulatedClock())
        replica.sync()
        entries = [entry for entry in replica.service.execution_log.entries()
                   if entry.payload.get("origin_request_id") == request_id]
        assert entries, "replica's applied copy should carry the same id"
        service.close()

    def test_dispatcher_carries_trace_across_worker_pool(self):
        service = GeleeService(clock=SimulatedClock(),
                               completion_workers=2)
        model = simple_model()
        service.manager.publish_model(model, actor="alice")
        instance_id = make_instance(service, model)
        router = RestRouter(service=service)
        response = router.post(
            "/v2/instances/{}:start".format(instance_id), actor="alice")
        assert response.status == 200
        request_id = response.headers["X-Request-Id"]
        service.manager.drain_in_flight(timeout=5.0)
        entries = [entry for entry in service.execution_log.entries()
                   if entry.payload.get("origin_request_id") == request_id]
        assert entries, "pooled completion events should keep the request id"
        service.close()

    def test_scheduler_tick_gets_tick_origin(self, fresh_registry):
        service = GeleeService(clock=SimulatedClock())
        captured = []
        original = service.scheduler.timers.fire_due

        def spy(**kwargs):
            captured.append(current_trace_id())
            return original(**kwargs)

        service.scheduler.timers.fire_due = spy
        service.scheduler.tick()
        assert captured and captured[0].startswith("tick-")
        service.close()


# ============================================================== wire surface
class TestTelemetryRoutes:
    def test_metrics_route_is_plain_text(self, fresh_registry):
        router = RestRouter()
        response = router.get("/v2/metrics")
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        assert isinstance(response.body, str)
        assert "# TYPE gelee_api_requests_total counter" in response.body
        assert "# TYPE gelee_dispatch_wait_seconds histogram" in response.body
        assert "gelee_dispatch_in_flight 0" in response.body

    def test_telemetry_route_returns_envelope_snapshot(self):
        router = RestRouter()
        response = router.get("/v2/runtime/telemetry")
        assert response.status == 200
        data = response.body["data"]
        assert data["enabled"] is True
        assert data["node"]["role"] == "primary"
        names = {metric["name"] for metric in data["metrics"]}
        assert "gelee_api_requests_total" in names

    def test_metrics_on_primary_and_replica(self, root):
        config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        ReplicationPrimary(service)
        model = simple_model()
        primary_router = RestRouter(service=service)
        primary_router.post("/v2/models", body={"model": model.to_dict()},
                            actor="alice")
        replica = ReadReplica(JournalShippingSource(config), clock=SimulatedClock())
        replica.sync()
        primary_text = primary_router.get("/v2/metrics").body
        assert "gelee_journal_last_seq" in primary_text
        replica_text = replica.router().get("/v2/metrics").body
        assert "gelee_replication_lag_records 0" in replica_text
        assert "gelee_replication_records_applied_total" in replica_text
        service.close()

    def test_monitoring_summary_includes_telemetry_section(self):
        router = RestRouter()
        router.get("/v2/models")
        summary = router.get("/v2/monitoring/summary").body["data"]
        rollup = summary["telemetry"]
        assert rollup["enabled"] is True
        assert rollup["api_requests"] >= 1

    def test_client_sdk_metrics_and_telemetry(self):
        client = GeleeClient.in_process(actor="alice")
        text = client.metrics()
        assert isinstance(text, str)
        assert "# TYPE gelee_api_request_seconds histogram" in text
        status = client.telemetry_status()
        assert status["enabled"] is True
        assert any(metric["name"] == "gelee_api_requests_total"
                   for metric in status["metrics"])


# ======================================================== runtime_stats schema
class TestRuntimeStatsSchema:
    """``/v2/runtime/stats``, ``/runtime/stats`` and
    ``/v2/runtime/cluster/self`` serve one document, on every deployment."""

    DISPATCH_KEYS = {"mode", "in_flight", "queue_depth", "worker_pool",
                     "operations_pool", "operations"}
    #: Every deployment's keys; durable, replicated and coordinated nodes
    #: add ``journal_seq``, ``replication`` and ``coordination``.
    NODE_KEYS = {"node_id", "role", "read_only", "primary_hint",
                 "captured_at", "instances", "events_published", "by_status",
                 "pending_timers", "dispatch", "telemetry", "alerts",
                 "observability", "deltas"}

    def test_single_manager_schema(self):
        service = GeleeService(clock=SimulatedClock())
        dispatch = service.node_status()["dispatch"]
        assert set(dispatch) == self.DISPATCH_KEYS
        assert dispatch["mode"] == "inline"
        assert dispatch["worker_pool"] is None
        assert dispatch["queue_depth"] == 0
        service.close()

    def test_sharded_pooled_schema_surfaces_queue_depth(self):
        service = GeleeService(clock=SimulatedClock(), completion_workers=2)
        dispatch = service.node_status()["dispatch"]
        assert set(dispatch) == self.DISPATCH_KEYS
        assert dispatch["mode"] == "pooled"
        assert dispatch["worker_pool"]["workers"] >= 1
        assert dispatch["queue_depth"] == dispatch["worker_pool"]["queued"]
        service.close()

    def test_counts_and_operations_ride_the_document(self):
        service = GeleeService(clock=SimulatedClock())
        model = simple_model()
        service.manager.publish_model(model, actor="alice")
        make_instance(service, model)
        service.operations.wait(
            service.operations.submit("noop", lambda: None).operation_id)
        status = service.node_status()
        assert status["instances"] == 1
        assert status["by_status"] == {"created": 1}
        assert status["events_published"] >= 2
        assert status["dispatch"]["operations"] == 1
        assert status["dispatch"]["operations_pool"]["workers"] >= 1
        service.close()

    def build(self, kind, root):
        """``(router, closers)`` for one deployment shape."""
        clock = SimulatedClock()
        if kind == "inline":
            service = GeleeService(clock=clock)
        elif kind == "pooled":
            service = GeleeService(clock=clock, completion_workers=2)
        elif kind == "durable":
            service = GeleeService(clock=clock, persistence=PersistenceConfig(
                os.path.join(root, "durable"), fsync="never"))
        elif kind == "coordinated":
            from repro.coordination import CoordinationConfig, MemoryLeaseStore

            service = GeleeService(clock=clock, coordination=CoordinationConfig(
                store=MemoryLeaseStore(clock=clock), ttl_seconds=10.0))
        else:
            config = PersistenceConfig(os.path.join(root, "primary"),
                                       fsync="never")
            primary = GeleeService(clock=clock, persistence=config)
            ReplicationPrimary(primary)
            primary.manager.publish_model(simple_model(), actor="alice")
            replica = ReadReplica(JournalShippingSource(config),
                                  clock=SimulatedClock())
            replica.sync()
            return replica.router(), [replica.service, primary]
        return RestRouter(service=service), [service]

    @pytest.mark.parametrize("kind", ["inline", "pooled", "durable",
                                      "replica", "coordinated"])
    def test_three_routes_serve_the_same_document(self, kind, root):
        router, closers = self.build(kind, root)
        try:
            v2 = router.get("/v2/runtime/stats").body["data"]
            v1 = router.get("/runtime/stats").body
            own = router.get("/v2/runtime/cluster/self").body["data"]
            assert set(v2) == set(v1) == set(own) == set(
                router.service.node_status())
            extra = {"durable": {"journal_seq"}, "replica": {"replication"},
                     "coordinated": {"coordination"}}.get(kind, set())
            assert set(v2) == self.NODE_KEYS | extra
            assert set(v2["dispatch"]) == self.DISPATCH_KEYS
            assert v2["read_only"] is (kind == "replica")
            assert v2["role"] == ("replica" if kind == "replica" else "primary")
        finally:
            for service in closers:
                service.close()


# ================================================================ structured log
class TestJsonLog:
    def test_emits_json_lines_with_trace_id(self):
        sink = io.StringIO()
        clock = SimulatedClock()
        log = JsonLogEmitter("test", sink=sink, clock=clock)
        with trace_scope("req-abc"):
            log.info("event.one", answer=42)
        log.warning("event.two")
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert lines[0]["event"] == "event.one"
        assert lines[0]["trace_id"] == "req-abc"
        assert lines[0]["answer"] == 42
        assert lines[0]["component"] == "test"
        assert "trace_id" not in lines[1]
        assert lines[1]["level"] == "warning"

    def test_min_level_filters(self):
        sink = io.StringIO()
        log = JsonLogEmitter("test", sink=sink, min_level="warning")
        log.debug("dropped")
        log.info("dropped")
        log.error("kept")
        lines = sink.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "kept"


# ==================================================================== spans
class TestSpanScope:
    def test_nested_spans_parent_on_the_enclosing_span(self, fresh_span_store):
        with trace_scope("req-1"):
            with span_scope("outer") as outer:
                assert current_span_id() == outer.span_id
                with span_scope("inner") as inner:
                    assert inner.parent_id == outer.span_id
                assert current_span_id() == outer.span_id
        assert current_span_id() is None
        doc = fresh_span_store.trace("req-1")
        assert doc["span_count"] == 2
        (root,) = doc["tree"]
        assert root["name"] == "outer"
        assert [child["name"] for child in root["children"]] == ["inner"]

    def test_no_trace_id_means_no_span(self, fresh_span_store):
        with span_scope("orphan") as span:
            assert span is None
        assert fresh_span_store.stats()["spans_recorded"] == 0

    def test_disabled_store_still_activates_trace_id(self):
        """The flat correlation layer must not regress when span
        recording is off — origin_request_id propagation rides on it."""
        set_span_store(SpanStore(enabled=False))
        with trace_scope("req-flat"):
            context = contextvars.copy_context()
        seen = {}

        def hop():
            with span_scope("hop") as span:
                seen["span"] = span
                seen["trace_id"] = current_trace_id()

        context.run(hop)
        assert seen == {"span": None, "trace_id": "req-flat"}
        assert current_trace_id() is None

    def test_raising_block_marks_error_and_restores_state(self, fresh_span_store):
        """Satellite: nesting/restoration must survive an exception —
        both the trace id and the active span id roll back."""
        with trace_scope("req-err"):
            with pytest.raises(RuntimeError):
                with span_scope("outer"):
                    with span_scope("inner"):
                        raise RuntimeError("boom")
            assert current_span_id() is None
            assert current_trace_id() == "req-err"
        assert current_trace_id() is None
        doc = fresh_span_store.trace("req-err")
        by_name = {span["name"]: span for span in doc["spans"]}
        assert by_name["inner"]["status"] == "error"
        assert by_name["inner"]["error"] == "RuntimeError"
        assert by_name["outer"]["status"] == "error"

    def test_trace_scope_restores_previous_id_when_block_raises(self):
        with trace_scope("outer"):
            with pytest.raises(ValueError):
                with trace_scope("inner"):
                    assert current_trace_id() == "inner"
                    raise ValueError("boom")
            assert current_trace_id() == "outer"
        assert current_trace_id() is None

    def test_context_handoff_parents_across_threads(self, fresh_span_store):
        """A thread run in a copy of the submitter's context parents its
        spans on the submitting span — the hop becomes a tree edge, not a
        new root."""
        captured = {}

        def worker():
            with span_scope("worker.task") as span:
                captured["trace_id"] = current_trace_id()
                captured["span"] = span

        with trace_scope("req-hop"):
            with span_scope("submit") as submit_span:
                context = contextvars.copy_context()
                thread = threading.Thread(target=context.run, args=(worker,))
                thread.start()
                thread.join()
        assert captured["trace_id"] == "req-hop"
        assert captured["span"].parent_id == submit_span.span_id
        (root,) = fresh_span_store.trace("req-hop")["tree"]
        assert root["name"] == "submit"
        assert root["children"][0]["name"] == "worker.task"

    def test_worker_pool_task_parents_on_the_submitting_span(
            self, fresh_span_store):
        """The pool carries the context: a span opened inside a task
        parents on the submitter's span, with nothing captured at the
        call site, and the submitter's context is back on exit."""
        pool = WorkerPool(2, name="test-ctx")
        try:
            def task():
                with span_scope("pool.task") as span:
                    return span, current_trace_id()

            with trace_scope("req-pool"):
                with span_scope("submit") as submit_span:
                    span, trace_id = pool.submit(task).get(timeout=5.0)
                    assert current_span_id() == submit_span.span_id
        finally:
            pool.close()
        assert trace_id == "req-pool"
        assert span.parent_id == submit_span.span_id
        (root,) = fresh_span_store.trace("req-pool")["tree"]
        assert [child["name"] for child in root["children"]] == ["pool.task"]
        # Outside any scope a task sees no trace at all.
        pool = WorkerPool(1, name="test-ctx-empty")
        try:
            assert pool.submit(current_trace_id).get(timeout=5.0) is None
        finally:
            pool.close()

    def test_concurrent_submitters_each_keep_their_own_trace(self):
        """Many threads submitting to one pool under different traces:
        every task sees exactly its submitter's trace id."""
        pool = WorkerPool(4, name="test-ctx-stress")
        seen = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def submitter(index):
                trace_id = "req-{}".format(index)
                with trace_scope(trace_id):
                    handles = [pool.submit(current_trace_id)
                               for _ in range(50)]
                seen[trace_id] = [handle.get(timeout=10.0)
                                  for handle in handles]

            threads = [threading.Thread(target=submitter, args=(index,))
                       for index in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert len(seen) == 8
        for trace_id, observed in seen.items():
            assert observed == [trace_id] * 50

    def test_span_ids_are_unique_and_duration_measured(self):
        assert len({span_scope("x")._name for _ in range(1)}) == 1  # smoke
        from repro.telemetry import new_span_id
        assert new_span_id() != new_span_id()
        with trace_scope("req-t"):
            with span_scope("timed") as span:
                pass
        assert span.end is not None and span.end >= span.start
        assert span.to_dict()["duration_ms"] >= 0


class TestSpanStore:
    def _record(self, store, trace_id, name="op", parent=None):
        with trace_scope(trace_id):
            with span_scope(name, store=store) as span:
                pass
        return span

    def test_ring_evicts_oldest_trace(self):
        store = SpanStore(max_traces=2, slow_threshold_seconds=999)
        for trace_id in ("t1", "t2", "t3"):
            self._record(store, trace_id)
        assert store.trace("t1") is None
        assert store.trace("t2") is not None
        assert store.trace("t3") is not None
        stats = store.stats()
        assert stats["traces"] == 2
        assert stats["traces_evicted"] == 1
        assert stats["slow_traces"] == 0

    def test_slow_traces_survive_ring_churn(self):
        store = SpanStore(max_traces=2, slow_threshold_seconds=0.5)
        slow = self._record(store, "t-slow")
        slow.end = slow.start + 2.0  # forge a 2s trace
        self._record(store, "t2")
        self._record(store, "t3")  # evicts t-slow from the ring
        doc = store.trace("t-slow")
        assert doc is not None
        assert doc["retained"] == "slow"
        summaries = {row["trace_id"]: row for row in store.traces()}
        assert summaries["t-slow"]["retained"] == "slow"
        assert summaries["t3"]["retained"] == "ring"

    def test_per_trace_span_cap_counts_overflow(self):
        store = SpanStore(max_spans_per_trace=3)
        for _ in range(5):
            self._record(store, "t-big")
        doc = store.trace("t-big")
        assert doc["span_count"] == 3
        assert doc["dropped_spans"] == 2
        assert store.stats()["spans_dropped"] == 2

    def test_orphan_parent_becomes_root(self):
        store = SpanStore()
        late = Span("t-orphan", 1, "gone", "late")
        late.finish()
        store.add(late)
        (root,) = store.trace("t-orphan")["tree"]
        assert root["name"] == "late"
        assert root["parent_id"] == "gone"

    def test_root_span_survives_a_full_trace(self):
        """The root finishes last, after its children filled the cap: it
        is still stored, and the listing names it as the root."""
        store = SpanStore(max_spans_per_trace=4)
        with trace_scope("t-full"):
            with span_scope("gateway.request", store=store) as root:
                for _ in range(6):
                    with span_scope("journal.append", store=store):
                        pass
        doc = store.trace("t-full")
        assert doc["span_count"] == 5
        assert doc["dropped_spans"] == 2
        (tree_root,) = doc["tree"]
        assert tree_root["span_id"] == root.span_id
        assert len(tree_root["children"]) == 4
        (row,) = store.traces()
        assert row["root"] == "gateway.request"
        # Only the first root rides past the cap.
        extra = Span("t-full", new_span_id(), None, "replication.apply")
        extra.finish()
        store.add(extra)
        assert store.trace("t-full")["span_count"] == 5

    def test_parent_of_held_spans_survives_a_full_trace(self):
        """More than ``max_spans_per_trace`` children finish before their
        parent: the parent is still stored, so no held child is orphaned."""
        store = SpanStore()
        with trace_scope("t-fanout"):
            with span_scope("gateway.request", store=store) as root:
                with span_scope("shard.drain", store=store) as drain:
                    for _ in range(600):
                        with span_scope("journal.append", store=store):
                            pass
        doc = store.trace("t-fanout")
        assert doc["span_count"] == 514
        assert doc["dropped_spans"] == 88
        held = {span["span_id"] for span in doc["spans"]}
        assert all(span["parent_id"] in held
                   for span in doc["spans"] if span["parent_id"] is not None)
        (tree_root,) = doc["tree"]
        assert tree_root["span_id"] == root.span_id
        (tree_drain,) = tree_root["children"]
        assert tree_drain["span_id"] == drain.span_id
        assert len(tree_drain["children"]) == 512

    def test_spans_kept_past_the_cap_stay_bounded(self):
        """A chain of parents each named by the last kept span stops at
        twice the cap."""
        store = SpanStore(max_spans_per_trace=2)
        spans = [Span("t-chain", new_span_id(), None, "root")]
        for depth in range(9):
            spans.append(Span("t-chain", new_span_id(), spans[-1].span_id,
                              "level {}".format(depth)))
        for span in reversed(spans):  # innermost finishes first
            span.finish()
            store.add(span)
        doc = store.trace("t-chain")
        assert (doc["span_count"], doc["dropped_spans"]) == (4, 6)

    def test_traces_listing_is_newest_first_and_limited(self):
        store = SpanStore()
        for trace_id in ("t1", "t2", "t3"):
            self._record(store, trace_id)
        rows = store.traces(limit=2)
        assert len(rows) == 2
        assert rows[0]["started_at"] >= rows[1]["started_at"]

    def test_reset_clears_everything(self):
        store = SpanStore()
        self._record(store, "t1")
        store.reset()
        assert store.trace("t1") is None
        assert store.stats()["spans_recorded"] == 0


# ============================================= request → span tree, end to end
def action_model(name="Traced lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Work")
    builder.terminal("End")
    builder.flow("Work", "End")
    builder.action("Work", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


class TestSpanPipeline:
    def test_one_request_id_yields_the_full_span_chain(self, root,
                                                       fresh_span_store):
        """The acceptance path: one X-Request-Id retrieves a tree with
        gateway → shard → dispatch wait/execute → journal append spans."""
        config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
        service = GeleeService(persistence=config,
                               completion_workers=2)
        try:
            model = action_model()
            service.manager.install_model(model)
            instance_id = make_instance(service, model)
            router = RestRouter(service=service)
            response = router.post(
                "/v2/instances/{}:start".format(instance_id), actor="alice")
            assert response.status == 200
            request_id = response.headers["X-Request-Id"]
            service.manager.drain_in_flight(timeout=10.0)

            detail = router.get("/v2/runtime/traces/{}".format(request_id))
            assert detail.status == 200
            doc = detail.body["data"]
            names = {span["name"] for span in doc["spans"]}
            assert {"gateway.request", "shard.apply", "action.dispatch",
                    "dispatch.wait", "dispatch.execute",
                    "journal.append"} <= names
            # The tree nests causally: gateway at the root, the journal
            # write under the shard hop, the dispatch wait/execute under
            # the pooled action span (itself parented across the pool).
            (gateway,) = doc["tree"]
            assert gateway["name"] == "gateway.request"
            assert gateway["attrs"]["status"] == 200
            shard = next(child for child in gateway["children"]
                         if child["name"] == "shard.apply")
            child_names = {child["name"] for child in shard["children"]}
            assert "journal.append" in child_names
            assert "action.dispatch" in child_names
            dispatch = next(child for child in shard["children"]
                            if child["name"] == "action.dispatch")
            assert {"dispatch.wait", "dispatch.execute"} <= \
                {child["name"] for child in dispatch["children"]}
        finally:
            service.close()

    def test_traces_listing_route_and_not_found(self, fresh_span_store):
        router = RestRouter()
        response = router.get("/v2/models")
        request_id = response.headers["X-Request-Id"]
        listing = router.get("/v2/runtime/traces", limit=5)
        assert listing.status == 200
        data = listing.body["data"]
        assert data["store"]["enabled"] is True
        assert any(row["trace_id"] == request_id for row in data["traces"])
        missing = router.get("/v2/runtime/traces/req-nope")
        assert missing.status == 404
        assert missing.body["error"]["code"] == "TRACE_NOT_FOUND"

    def test_worker_pool_boundary_keeps_spans_in_the_request_trace(
            self, fresh_span_store):
        """Satellite: spans opened on pooled completion workers land in
        the submitting request's trace, parented across the hop."""
        service = GeleeService(completion_workers=2)
        try:
            model = action_model()
            service.manager.install_model(model)
            instance_id = make_instance(service, model)
            router = RestRouter(service=service)
            response = router.post(
                "/v2/instances/{}:start".format(instance_id), actor="alice")
            request_id = response.headers["X-Request-Id"]
            service.manager.drain_in_flight(timeout=10.0)
            doc = fresh_span_store.trace(request_id)
            dispatch = next(span for span in doc["spans"]
                            if span["name"] == "action.dispatch")
            assert dispatch["trace_id"] == request_id
            assert dispatch["parent_id"] is not None
            parents = {span["span_id"] for span in doc["spans"]}
            assert dispatch["parent_id"] in parents
        finally:
            service.close()

    def test_replication_apply_extends_the_request_trace(self, root,
                                                         fresh_span_store):
        """A request's timeline keeps growing on the follower: applies
        are spanned under the origin request id, and the trace is
        retrievable from the promoted node after failover."""
        config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        ReplicationPrimary(service)
        model = simple_model()
        router = RestRouter(service=service)
        response = router.post("/v2/models", body={"model": model.to_dict()},
                               actor="alice")
        request_id = response.headers["X-Request-Id"]

        replica = ReadReplica(JournalShippingSource(config), clock=SimulatedClock())
        replica.sync()
        doc = fresh_span_store.trace(request_id)
        applies = [span for span in doc["spans"]
                   if span["name"] == "replication.apply"]
        assert applies, "sync should span each apply under the origin id"
        assert all(span["attrs"]["replica_id"] == replica.replica_id
                   for span in applies)

        service.close()
        replica.promote()
        promote_traces = [row for row in fresh_span_store.traces()
                          if row["root"] == "replication.promote"]
        assert promote_traces, "promotion should record its own span"
        after = replica.router().get("/v2/runtime/traces/{}".format(request_id))
        assert after.status == 200
        names = {span["name"] for span in after.body["data"]["spans"]}
        assert "replication.apply" in names
        assert "gateway.request" in names


# ================================================================ SLO engine
class TestSloEngine:
    def _engine(self, rules, clock=None, publish=None):
        return SloEngine(rules=rules, registry=get_registry(),
                         clock=clock or SimulatedClock(), publish=publish)

    def test_error_rate_fires_and_resolves_on_windowed_deltas(self):
        counter = get_registry().counter(
            "gelee_api_requests_total", "Demo.", labelnames=("route", "status"))
        events = []
        engine = self._engine(
            [SloRule("err", "error-rate", threshold=0.5, min_samples=2)],
            publish=lambda kind, rule, payload: events.append((kind, payload)))
        counter.inc(4, route="GET /x", status="500")
        result = engine.evaluate()
        assert [t["kind"] for t in result["transitions"]] == ["alert.fired"]
        assert result["firing"][0]["value"] == 1.0
        # The *window* recovers even though the cumulative ratio cannot.
        counter.inc(10, route="GET /x", status="200")
        result = engine.evaluate()
        assert [t["kind"] for t in result["transitions"]] == ["alert.resolved"]
        assert engine.firing() == []
        assert [kind for kind, _ in events] == ["alert.fired", "alert.resolved"]
        assert events[0][1]["severity"] == "warn"
        assert events[0][1]["value"] == 1.0

    def test_error_rate_holds_below_min_samples(self):
        counter = get_registry().counter(
            "gelee_api_requests_total", "Demo.", labelnames=("route", "status"))
        engine = self._engine(
            [SloRule("err", "error-rate", threshold=0.1, min_samples=10)])
        counter.inc(3, route="GET /x", status="500")
        result = engine.evaluate()
        assert result["transitions"] == []
        assert engine.firing() == []
        # And an idle window later never flaps a firing alert back to ok.
        counter.inc(20, route="GET /x", status="500")
        assert engine.evaluate()["firing"]
        result = engine.evaluate()  # zero new samples: hold, not resolve
        assert result["transitions"] == []
        assert engine.firing()

    def test_error_status_prefixes_are_configurable(self):
        counter = get_registry().counter(
            "gelee_api_requests_total", "Demo.", labelnames=("route", "status"))
        engine = self._engine(
            [SloRule("err4xx", "error-rate", threshold=0.5,
                     error_status_prefixes=("4", "5"))])
        counter.inc(3, route="GET /x", status="404")
        result = engine.evaluate()
        assert result["firing"][0]["value"] == 1.0

    def test_latency_quantile_reports_bucket_bound(self):
        histogram = get_registry().histogram(
            "gelee_api_request_seconds", "Demo.", buckets=(0.1, 1.0, 5.0))
        engine = self._engine(
            [SloRule("p99", "latency-quantile", threshold=2.0,
                     quantile=0.5, min_samples=2)])
        for _ in range(10):
            histogram.observe(0.05)
        result = engine.evaluate()
        assert result["transitions"] == []
        alert = result["firing"] or None
        assert alert is None
        # The next window is dominated by slow requests: median jumps to
        # the 5.0 bucket bound, over the 2.0 threshold.
        for _ in range(10):
            histogram.observe(3.0)
        result = engine.evaluate()
        assert [t["kind"] for t in result["transitions"]] == ["alert.fired"]
        assert result["firing"][0]["value"] == 5.0

    def test_latency_quantile_overflow_breaches_as_inf(self):
        histogram = get_registry().histogram(
            "gelee_api_request_seconds", "Demo.", buckets=(0.1,))
        engine = self._engine(
            [SloRule("p99", "latency-quantile", threshold=10.0,
                     quantile=0.9, min_samples=1)])
        histogram.observe(99.0)  # beyond every bound: implicit +Inf bucket
        result = engine.evaluate()
        assert result["firing"][0]["value"] == float("inf")

    def test_heartbeat_miss_fires_on_stalled_renewals(self):
        histogram = get_registry().histogram(
            "gelee_election_heartbeat_seconds", "Demo.", buckets=(0.1, 1.0))
        events = []
        engine = self._engine(
            [SloRule("hb", "heartbeat-miss", threshold=0)],
            publish=lambda kind, rule, payload: events.append(kind))
        histogram.observe(0.01)
        assert engine.evaluate()["transitions"] == []  # baseline sighting
        assert engine.evaluate()["firing"], "no renewals since last eval"
        histogram.observe(0.01)  # renewals resume
        result = engine.evaluate()
        assert [t["kind"] for t in result["transitions"]] == ["alert.resolved"]
        assert events == ["alert.fired", "alert.resolved"]

    def test_gauge_kind_clears_when_instrument_disappears(self):
        gauge = get_registry().gauge("gelee_replication_lag_records", "Demo.")
        engine = self._engine(
            [SloRule("lag", "replication-lag", threshold=10)])
        gauge.set(50)
        assert engine.evaluate()["firing"]
        # A fresh registry (promotion rebuilds the node) has no lag gauge.
        set_registry(MetricsRegistry())
        engine._registry = get_registry()  # rebind like a rebuilt service
        result = engine.evaluate()
        assert [t["kind"] for t in result["transitions"]] == ["alert.resolved"]

    def test_rule_validation_and_lifecycle(self):
        with pytest.raises(ValueError):
            SloRule("bad", "no-such-kind", threshold=1)
        with pytest.raises(ValueError):
            SloRule("bad", "latency-quantile", threshold=1, quantile=1.5)
        engine = self._engine([])
        rule = engine.add_rule(SloRule("one", "replication-lag", threshold=1))
        with pytest.raises(ValueError):
            engine.add_rule(SloRule("one", "replication-lag", threshold=2))
        assert [r.name for r in engine.rules] == ["one"]
        engine.remove_rule("one")
        assert engine.rules == []
        assert rule.to_dict()["metric"] == "gelee_replication_lag_records"

    def test_default_catalog_covers_every_kind(self):
        rules = default_slo_rules()
        assert {rule.kind for rule in rules} == set(
            ("error-rate", "latency-quantile", "replication-lag",
             "in-flight-saturation", "heartbeat-miss"))
        # The stock thresholds stay quiet on a healthy idle service.
        engine = self._engine(rules)
        assert engine.evaluate()["transitions"] == []

    def test_status_shape(self):
        engine = self._engine(default_slo_rules())
        engine.evaluate()
        status = engine.status()
        assert len(status["rules"]) == len(status["alerts"]) == 5
        assert status["firing"] == 0
        assert status["evaluations"] == 1
        assert status["last_evaluated_at"] is not None


# ============================================================== alert surface
class TestAlertSurface:
    def _breach_rule(self):
        return SloRule("demo-errors", "error-rate", threshold=0.1,
                       error_status_prefixes=("4", "5"), min_samples=1,
                       severity="page", description="Demo breach rule.")

    def test_alert_events_are_published_and_journaled(self, root):
        config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config,
                               slo_rules=[self._breach_rule()])
        try:
            router = RestRouter(service=service)
            router.get("/v2/instances/missing")  # a 404 breaches the rule
            result = router.post("/v2/runtime/alerts:evaluate").body["data"]
            assert [t["kind"] for t in result["transitions"]] == ["alert.fired"]
            router.get("/v2/models")  # healthy window
            result = router.post("/v2/runtime/alerts:evaluate").body["data"]
            assert [t["kind"] for t in result["transitions"]] == \
                ["alert.resolved"]
            kinds = [record.kind for record
                     in scan_records(config.journal_directory)
                     if record.kind.startswith("alert.")]
            assert kinds == ["alert.fired", "alert.resolved"]
            fired = next(record for record
                         in scan_records(config.journal_directory)
                         if record.kind == "alert.fired")
            assert fired.actor == "slo-engine"
            assert fired.subject_id == "demo-errors"
            assert fired.payload["severity"] == "page"
        finally:
            service.close()

    def test_alerts_route_and_cockpit_rollup(self):
        service = GeleeService(clock=SimulatedClock(),
                               slo_rules=[self._breach_rule()])
        try:
            router = RestRouter(service=service)
            router.get("/v2/instances/missing")
            service.evaluate_slos()
            status = router.get("/v2/runtime/alerts").body["data"]
            assert status["firing"] == 1
            (alert,) = [a for a in status["alerts"] if a["state"] == "firing"]
            assert alert["rule"] == "demo-errors"
            assert alert["fired_at"] is not None
            assert "node_id" in status
            summary = router.get("/v2/monitoring/summary").body["data"]
            rollup = summary["alerts"]
            assert rollup["firing"] == 1
            assert rollup["firing_rules"][0]["rule"] == "demo-errors"
            assert rollup["firing_rules"][0]["severity"] == "page"
        finally:
            service.close()

    def test_scheduler_job_evaluates_periodically(self):
        from repro.scheduler import SchedulerConfig

        clock = SimulatedClock()
        service = GeleeService(clock=clock,
                               scheduler=SchedulerConfig(
                                   slo_interval_seconds=30.0),
                               slo_rules=[self._breach_rule()])
        try:
            assert service.scheduler.timers.get(
                "maintenance:slo-evaluate") is not None
            router = RestRouter(service=service)
            router.get("/v2/instances/missing")
            clock.advance(seconds=31.0)
            service.scheduler.tick()
            assert service.slo.firing(), "the recurring job should evaluate"
        finally:
            service.close()

    def test_client_sdk_traces_and_alerts(self, fresh_span_store):
        client = GeleeClient.in_process(actor="alice")
        client.list_models()
        listing = client.traces(limit=3)
        assert listing["store"]["enabled"] is True
        assert listing["traces"]
        trace_id = listing["traces"][0]["trace_id"]
        doc = client.trace(trace_id)
        assert doc["trace_id"] == trace_id
        assert doc["tree"]
        result = client.evaluate_alerts()
        assert result["rules_evaluated"] == 5
        status = client.alerts()
        assert status["firing"] == 0

    def test_telemetry_snapshot_is_stamped(self, root):
        clock = SimulatedClock()
        service = GeleeService(clock=clock)
        try:
            router = RestRouter(service=service)
            data = router.get("/v2/runtime/telemetry").body["data"]
            assert data["captured_at"] == clock.now().isoformat()
            assert "node_id" in data["node"]
        finally:
            service.close()

    def test_telemetry_snapshot_node_id_from_coordination(self, root):
        from repro.coordination import CoordinationConfig

        config = PersistenceConfig(os.path.join(root, "primary"), fsync="never")
        service = GeleeService(
            clock=SimulatedClock(), persistence=config,
            coordination=CoordinationConfig(
                node_id="node-a", directory=os.path.join(root, "coord")))
        try:
            router = RestRouter(service=service)
            data = router.get("/v2/runtime/telemetry").body["data"]
            assert data["node"]["node_id"] == "node-a"
        finally:
            service.close()


# =============================================================== metric history
class _StubCounter:
    """A registry instrument stand-in whose value the test fully controls
    (the real Counter can only go up, so a restart-style reset needs one)."""

    def __init__(self, name, value=0.0):
        self.name = name
        self.value = value

    def snapshot(self):
        return {"name": self.name, "type": "counter",
                "series": [{"labels": {}, "value": self.value}]}


class _StubRegistry:
    def __init__(self, *instruments):
        self._instruments = list(instruments)

    def instruments(self):
        return list(self._instruments)


def _cell(count, total, buckets, **labels):
    """One histogram snapshot series."""
    return {"labels": labels, "count": count, "sum": total, "buckets": buckets}


class TestWindowDeltas:
    """Edge cases of the one windowed-delta engine that the history rings
    and the SLO rules share — one parametrized input per case."""

    @pytest.mark.parametrize("function, args, expected", [
        pytest.param(counter_delta, (None, 5.0), 5.0,
                     id="first-sighting-counter"),
        pytest.param(histogram_delta,
                     (None, (3, 0.3, {"0.1": 2, "1": 1})),
                     (3, 0.3, {"0.1": 2, "1": 1}),
                     id="first-sighting-histogram"),
        pytest.param(counter_delta, (58.0, 66.0), 8.0, id="counter-steady"),
        pytest.param(counter_delta, (58.0, 3.0), 3.0, id="counter-reset"),
        pytest.param(histogram_delta,
                     ((10, 5.0, {"0.1": 4, "1": 6}),
                      (12, 5.5, {"0.1": 4, "1": 8})),
                     (2, 0.5, {"0.1": 0, "1": 2}),
                     id="histogram-steady"),
        pytest.param(histogram_delta,
                     ((10, 5.0, {"0.1": 4, "1": 6}),
                      (2, 0.1, {"0.1": 2, "1": 0})),
                     (2, 0.1, {"0.1": 2, "1": 0}),
                     id="histogram-count-reset"),
        pytest.param(histogram_delta,
                     ((10, 5.0, {"0.1": 4, "1": 6}),
                      (11, 5.0, {"0.5": 11})),
                     (11, 5.0, {"0.5": 11}),
                     id="histogram-bounds-changed"),
        pytest.param(bucket_quantile, ({"0.1": 1, "1": 0}, 3, 0.5),
                     float("inf"), id="inf-overflow"),
        pytest.param(bucket_quantile, ({"0.1": 1, "1": 1}, 2, 0.5), 0.1,
                     id="quantile-on-a-bound"),
        pytest.param(histogram_delta,
                     ((4, 1.0, {"0.1": 4}), (4, 1.0, {"0.1": 4})),
                     (0, 0.0, {"0.1": 0}),
                     id="empty-window-delta"),
        pytest.param(bucket_quantile, ({"0.1": 0}, 0, 0.99), 0.0,
                     id="empty-window-quantile"),
        pytest.param(histogram_reading,
                     ([_cell(2, 0.1, {"0.1": 2, "1": 0}, route="a"),
                       _cell(3, 2.5, {"0.1": 0, "1": 3}, route="b")],),
                     (5, 2.6, {"0.1": 2, "1": 3}),
                     id="series-merged-across-label-sets"),
    ])
    def test_shared_delta_functions(self, function, args, expected):
        assert function(*args) == expected


class TestMetricHistory:
    def make(self, registry=None, **kwargs):
        clock = SimulatedClock()
        history = MetricHistory(registry or get_registry(), clock=clock,
                                **kwargs)
        return history, clock

    def test_counter_points_are_deltas(self, fresh_registry):
        counter = fresh_registry.counter("jobs_total", "jobs")
        history, clock = self.make()
        counter.inc(5)
        history.capture()
        clock.advance(seconds=10)
        counter.inc(3)
        history.capture()
        result = history.query(series="jobs_total")
        assert result["series_matched"] == 1
        points = result["series"][0]["points"]
        assert [value for _, value in points] == [5.0, 3.0]
        assert points[0][0] < points[1][0]

    def test_counter_reset_midwindow_never_goes_negative(self):
        counter = _StubCounter("jobs_total", 50.0)
        history, clock = self.make(registry=_StubRegistry(counter))
        history.capture()
        clock.advance(seconds=10)
        counter.value = 58.0
        history.capture()
        clock.advance(seconds=10)
        counter.value = 3.0  # the process restarted: cumulative fell
        history.capture()
        points = history.query(series="jobs_total")["series"][0]["points"]
        assert [value for _, value in points] == [50.0, 8.0, 3.0]
        assert all(value >= 0 for _, value in points)

    def test_gauge_points_are_raw_values(self, fresh_registry):
        gauge = fresh_registry.gauge("depth", "queue depth")
        history, clock = self.make()
        for value in (4, 9, 2):
            gauge.set(value)
            history.capture()
            clock.advance(seconds=1)
        points = history.query(series="depth")["series"][0]["points"]
        assert [value for _, value in points] == [4.0, 9.0, 2.0]

    def test_histogram_fans_out_derived_series(self, fresh_registry):
        histogram = fresh_registry.histogram(
            "latency_seconds", "latency", buckets=(0.1, 1.0, 10.0))
        history, clock = self.make()
        for value in (0.05, 0.05, 0.5, 20.0):
            histogram.observe(value)
        history.capture()
        result = history.query(series="latency_seconds")
        names = {row["name"] for row in result["series"]}
        assert names == {"latency_seconds:rate", "latency_seconds:mean",
                         "latency_seconds:p50", "latency_seconds:p99"}
        by_name = {row["name"]: row["points"] for row in result["series"]}
        assert by_name["latency_seconds:rate"][0][1] == 4
        assert by_name["latency_seconds:mean"][0][1] == pytest.approx(
            (0.05 + 0.05 + 0.5 + 20.0) / 4)
        # p50: rank 2 of 4 falls in the 0.1 bucket; p99 past the last
        # bound lands in the implicit +Inf bucket.
        assert by_name["latency_seconds:p50"][0][1] == 0.1
        assert by_name["latency_seconds:p99"][0][1] == float("inf")

    def test_histogram_quantiles_use_interval_deltas(self, fresh_registry):
        histogram = fresh_registry.histogram(
            "latency_seconds", "latency", buckets=(0.1, 1.0, 10.0))
        history, clock = self.make()
        for _ in range(100):
            histogram.observe(0.05)
        history.capture()
        clock.advance(seconds=10)
        # This interval is all-slow; a cumulative quantile would still
        # answer 0.1, the interval quantile must say 10.0.
        for _ in range(10):
            histogram.observe(5.0)
        history.capture()
        points = history.query(
            series="latency_seconds:p50")["series"][0]["points"]
        assert [value for _, value in points] == [0.1, 10.0]

    def test_downsample_tier_promotion(self, fresh_registry):
        gauge = fresh_registry.gauge("depth", "queue depth")
        history, clock = self.make(max_points=100, downsample_every=3)
        for value in (1, 2, 3, 4, 5, 6, 7):
            gauge.set(value)
            history.capture()
            clock.advance(seconds=1)
        coarse = history.query(series="depth",
                               tier="downsampled")["series"][0]["points"]
        # 7 raw points promote 2 coarse points (3+3, one pending).
        assert len(coarse) == 2
        ts, mean, low, high, count = coarse[0]
        assert (mean, low, high, count) == (2.0, 1.0, 3.0, 3)
        ts, mean, low, high, count = coarse[1]
        assert (mean, low, high, count) == (5.0, 4.0, 6.0, 3)

    def test_empty_window_query_lists_series_without_points(self, fresh_registry):
        gauge = fresh_registry.gauge("depth", "queue depth")
        history, clock = self.make()
        gauge.set(1)
        history.capture()
        clock.advance(hours=1)
        result = history.query(series="depth", window_seconds=60)
        assert result["series_matched"] == 1
        assert result["series"][0]["points"] == []
        assert history.query(series="no_such_metric")["series_matched"] == 0

    def test_step_decimates_points(self, fresh_registry):
        gauge = fresh_registry.gauge("depth", "queue depth")
        history, clock = self.make()
        for value in range(10):
            gauge.set(value)
            history.capture()
            clock.advance(seconds=1)
        points = history.query(series="depth",
                               step_seconds=3)["series"][0]["points"]
        assert [value for _, value in points] == [0.0, 3.0, 6.0, 9.0]

    def test_raw_ring_wraps_keeping_newest(self, fresh_registry):
        gauge = fresh_registry.gauge("depth", "queue depth")
        history, clock = self.make(max_points=4)
        for value in range(10):
            gauge.set(value)
            history.capture()
            clock.advance(seconds=1)
        points = history.query(series="depth")["series"][0]["points"]
        assert [value for _, value in points] == [6.0, 7.0, 8.0, 9.0]
        timestamps = [ts for ts, _ in points]
        assert timestamps == sorted(timestamps)

    def test_wraparound_under_concurrent_writers(self, fresh_registry):
        gauge = fresh_registry.gauge("depth", "queue depth")
        history, _ = self.make(max_points=8)
        errors = []

        def hammer():
            try:
                for value in range(50):
                    gauge.set(value)
                    history.capture()
                    history.query(series="depth")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        points = history.query(series="depth")["series"][0]["points"]
        assert len(points) == 8
        assert all(point is not None and len(point) == 2 for point in points)
        assert history.stats()["captures"] == 200

    def test_max_series_cap_counts_drops(self, fresh_registry):
        for index in range(4):
            fresh_registry.gauge("g{}".format(index), "gauge").set(index)
        history, _ = self.make(max_series=2)
        history.capture()
        stats = history.stats()
        assert stats["series"] == 2
        assert stats["dropped_series"] == 2

    def test_disabled_history_is_a_noop(self, fresh_registry):
        fresh_registry.gauge("depth", "queue depth").set(1)
        history, _ = self.make(enabled=False)
        assert history.capture() == 0
        assert history.stats()["captures"] == 0

    def test_recent_deltas_latest_counter_point(self, fresh_registry):
        counter = fresh_registry.counter("gelee_api_requests_total", "reqs",
                                         labelnames=("route",))
        history, clock = self.make()
        counter.inc(5, route="GET /v2/instances")
        history.capture()
        clock.advance(seconds=5)
        counter.inc(2, route="GET /v2/instances")
        history.capture()
        deltas = history.recent_deltas(("gelee_api_requests_total",))
        assert deltas == {
            'gelee_api_requests_total{route="GET /v2/instances"}': 2.0}

    def test_validation(self, fresh_registry):
        with pytest.raises(ValueError):
            MetricHistory(fresh_registry, max_points=0)
        with pytest.raises(ValueError):
            MetricHistory(fresh_registry, downsample_every=1)
        with pytest.raises(ValueError):
            MetricHistory(fresh_registry, quantiles=(1.5,))
        history, _ = self.make()
        with pytest.raises(ValueError):
            history.query(tier="weekly")


# ==================================================================== log ring
class TestLogRing:
    def test_append_stamps_sequence_and_copies(self):
        ring = LogRing(capacity=4)
        record = {"ts": "2026-01-01T00:00:00", "level": "info", "event": "a"}
        ring.append(record)
        stored = ring.query()[0]
        assert stored["seq"] == 1
        assert "seq" not in record  # the caller's dict is untouched
        stored["event"] = "mutated"
        assert ring.query()[0]["event"] == "a"  # query hands out copies

    def test_eviction_keeps_newest(self):
        ring = LogRing(capacity=3)
        for index in range(5):
            ring.append({"event": "e{}".format(index)})
        records = ring.query()
        assert [record["event"] for record in records] == ["e2", "e3", "e4"]
        stats = ring.stats()
        assert stats["size"] == 3 and stats["appended"] == 5
        assert stats["dropped"] == 2

    def test_query_filters_and_limit(self):
        ring = LogRing()
        ring.append({"ts": "T1", "level": "debug", "component": "gateway",
                     "trace_id": "req-1", "event": "a"})
        ring.append({"ts": "T2", "level": "warning",
                     "component": "replication.stream", "trace_id": "req-2",
                     "event": "b"})
        ring.append({"ts": "T3", "level": "error", "component": "gateway",
                     "trace_id": "req-1", "event": "c"})
        assert [r["event"] for r in ring.query(trace_id="req-1")] == ["a", "c"]
        assert [r["event"] for r in ring.query(level="warning")] == ["b", "c"]
        assert [r["event"]
                for r in ring.query(component="replication")] == ["b"]
        assert [r["event"] for r in ring.query(since="T2")] == ["b", "c"]
        assert [r["event"] for r in ring.query(limit=1)] == ["c"]
        with pytest.raises(ValueError):
            ring.query(level="loud")

    def test_disabled_ring_drops_appends(self):
        ring = LogRing(capacity=4, enabled=False)
        ring.append({"event": "a"})
        assert ring.query() == []

    def test_emitter_fans_out_into_default_ring(self, fresh_log_ring):
        sink = io.StringIO()
        log = JsonLogEmitter("test", sink=sink)
        with trace_scope("req-ring"):
            log.info("ring.event", answer=42)
        assert json.loads(sink.getvalue())["event"] == "ring.event"
        records = fresh_log_ring.query(trace_id="req-ring")
        assert len(records) == 1
        assert records[0]["answer"] == 42

    def test_ring_as_sink_is_not_double_appended(self, fresh_log_ring):
        log = JsonLogEmitter("test", sink=fresh_log_ring)
        log.info("once")
        assert len(fresh_log_ring.query()) == 1

    def test_callable_sink_is_serialised_under_the_lock(self):
        seen = []
        log = JsonLogEmitter("test", sink=seen.append)
        threads = [threading.Thread(target=log.info, args=("event",))
                   for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(seen) == 8

    def test_reset_loggers_clears_the_cache(self):
        first = get_logger("reset-demo")
        assert get_logger("reset-demo") is first
        reset_loggers()
        assert get_logger("reset-demo") is not first


# ============================================================ contention tools
class TestTimedLock:
    def test_samples_every_acquisition_when_asked(self, fresh_registry):
        lock = TimedLock(site="unit", sample_every=1)
        for _ in range(5):
            with lock:
                pass
        snapshot = fresh_registry.get("gelee_lock_wait_seconds").snapshot()
        series = snapshot["series"]
        assert len(series) == 1
        assert series[0]["labels"] == {"site": "unit"}
        assert series[0]["count"] == 5

    def test_first_acquisition_is_always_sampled(self, fresh_registry):
        lock = TimedLock(site="unit", sample_every=16)
        with lock:
            pass
        snapshot = fresh_registry.get("gelee_lock_wait_seconds").snapshot()
        assert snapshot["series"][0]["count"] == 1

    def test_wraps_reentrant_lock_semantics(self, fresh_registry):
        lock = TimedLock(site="unit")
        with lock:
            with lock:  # re-entrant like the RLock it wraps
                pass
        assert lock.acquire(blocking=False)
        lock.release()

    def test_condition_over_wrapped_lock(self, fresh_registry):
        lock = TimedLock(site="unit")
        condition = threading.Condition(lock.wrapped)
        ready = []

        def waiter():
            with condition:
                ready.append(True)
                condition.wait(timeout=5)
                ready.append("woken")

        thread = threading.Thread(target=waiter)
        thread.start()
        while not ready:
            pass
        with lock:  # the TimedLock and the condition share ownership
            condition.notify_all()
        thread.join(timeout=5)
        assert ready == [True, "woken"]


class TestQueueDepthCapture:
    def test_worker_pool_observes_depth_per_submit(self, fresh_registry):
        gate = threading.Event()
        pool = WorkerPool(1, name="depth-test")
        try:
            handles = [pool.submit(gate.wait, 5) for _ in range(4)]
            gate.set()
            for handle in handles:
                handle.get(timeout=5)
        finally:
            pool.close()
        snapshot = fresh_registry.get("gelee_queue_depth").snapshot()
        series = {tuple(sorted(row["labels"].items())): row
                  for row in snapshot["series"]}
        row = series[(("pool", "depth-test"),)]
        assert row["count"] == 4
        # With one blocked worker, at least one submit saw a backlog.
        assert row["sum"] >= 1


class TestSamplingProfiler:
    def test_sample_once_folds_other_threads(self):
        profiler = SamplingProfiler()
        release = threading.Event()

        def parked():
            release.wait(5)

        thread = threading.Thread(target=parked, name="parked")
        thread.start()
        try:
            folded = profiler.sample_once()
        finally:
            release.set()
            thread.join()
        assert folded >= 1
        status = profiler.status()
        assert status["samples"] == 1
        assert status["flame"]["name"] == "process"
        assert status["flame"]["value"] >= 1
        labels = {child["name"] for child in status["flame"]["children"]}
        assert any("(" in label for label in labels)

    def test_start_stop_and_reset(self):
        profiler = SamplingProfiler(interval_seconds=0.005)
        assert profiler.start() is True
        assert profiler.start() is False  # already running
        assert profiler.running
        assert profiler.stop() is True
        assert profiler.stop() is False
        assert not profiler.running
        profiler.reset()
        status = profiler.status()
        assert status["samples"] == 0 and status["nodes"] == 1

    def test_interval_is_clamped(self):
        profiler = SamplingProfiler(interval_seconds=0.0)
        assert profiler.interval_seconds >= 0.005

    def test_node_budget_truncates(self):
        profiler = SamplingProfiler(max_nodes=16)
        with profiler._lock:
            for index in range(64):
                profiler._fold_locked(
                    ["f{} (mod.py:{})".format(index, index)])
        status = profiler.status()
        assert status["nodes"] <= 16
        assert status["truncated_stacks"] > 0


# ================================================================ cluster view
class TestClusterView:
    def test_single_node_view(self):
        router = RestRouter()
        data = router.get("/v2/runtime/cluster").body["data"]
        assert data["partial"] is False
        assert data["node_count"] == 1
        assert data["unreachable"] == 0
        row = data["nodes"][0]
        assert row["reachable"] is True and row["via"] == "self"
        assert row["role"] == "primary"
        assert data["reported_by"] == row["node_id"]
        assert "history" in row["observability"] and "alerts" in row

    def test_two_nodes_merge_in_process(self):
        router_a = RestRouter()
        router_b = RestRouter()
        router_a.service.cluster_register("node-b", router=router_b)
        data = router_a.get("/v2/runtime/cluster").body["data"]
        assert data["node_count"] == 2
        assert data["partial"] is False
        via = {row["via"] for row in data["nodes"]}
        assert via == {"self", "in-process"}

    def test_unreachable_peer_marks_partial_not_error(self):
        router = RestRouter()
        router.service.cluster_register("dead-node", host="127.0.0.1", port=9)
        response = router.get("/v2/runtime/cluster")
        assert response.status == 200  # fan-out never fails the view
        data = response.body["data"]
        assert data["partial"] is True
        assert data["unreachable"] == 1
        dead = [row for row in data["nodes"]
                if row["node_id"] == "dead-node"][0]
        assert dead["reachable"] is False
        assert dead["error"]["code"] == "NODE_UNREACHABLE"
        assert dead["error"]["details"]["node_id"] == "dead-node"

    def test_register_route_and_validation(self):
        router = RestRouter()
        created = router.post("/v2/runtime/cluster:register",
                              body={"node_id": "peer-1",
                                    "url": "http://127.0.0.1:9"})
        assert created.status == 201
        assert created.body["data"]["transport"] == "http"
        assert created.body["data"]["endpoint"] == "127.0.0.1:9"
        missing = router.post("/v2/runtime/cluster:register",
                              body={"node_id": "peer-2"})
        assert missing.status == 400
        bad_url = router.post("/v2/runtime/cluster:register",
                              body={"node_id": "peer-3", "url": "nonsense"})
        assert bad_url.status == 400

    def test_replacing_a_peer_registration(self):
        router = RestRouter()
        other = RestRouter()
        view = router.service.cluster
        view.register("peer", router=other)
        assert view.peers()[0]["transport"] == "in-process"
        view.register("peer", host="127.0.0.1", port=9)
        assert view.peers()[0]["transport"] == "http"
        assert view.deregister("peer") is True
        assert view.deregister("peer") is False

    def test_discovered_leader_without_transport_is_reported(self, root):
        from repro.coordination import CoordinationConfig, MemoryLeaseStore

        store = MemoryLeaseStore()
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        service = GeleeService(
            clock=SimulatedClock(), persistence=config,
            coordination=CoordinationConfig(store=store, node_id="node-a"))
        try:
            router = RestRouter(service=service)
            # The leader is node-a itself -> deduplicated, not unreachable.
            data = router.get("/v2/runtime/cluster").body["data"]
            assert data["node_count"] == 1 and not data["partial"]
        finally:
            service.close()

    def test_summary_embeds_the_node_document_sections(self, root):
        from repro.coordination import CoordinationConfig, MemoryLeaseStore

        clock = SimulatedClock()
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        primary = GeleeService(
            clock=clock, persistence=config,
            coordination=CoordinationConfig(
                store=MemoryLeaseStore(clock=clock), node_id="node-a"))
        ReplicationPrimary(primary)
        try:
            primary.manager.publish_model(simple_model(), actor="alice")
            replica = ReadReplica(JournalShippingSource(config),
                                  clock=SimulatedClock())
            replica.sync()
            nodes = {}
            for name, router in (("primary", RestRouter(service=primary)),
                                 ("replica", replica.router())):
                summary = router.get("/v2/monitoring/summary").body["data"]
                node = router.get("/v2/runtime/cluster/self").body["data"]
                # The summary request itself lands in the registry and the
                # log ring before the node document is read.
                summary["telemetry"]["api_requests"] += 1
                summary["observability"]["logs"]["size"] += 1
                for section in ("replication", "coordination", "telemetry",
                                "alerts", "observability"):
                    assert summary.get(section) == node.get(section), section
                nodes[name] = node
            coordination = nodes["primary"]["coordination"]
            assert coordination["leader_id"] == "node-a"
            assert coordination["is_leader"] is True
            replication = nodes["replica"]["replication"]
            assert replication["lag_records"] == 0
            assert replication["applied_seq"] == \
                primary.persistence.journal.last_seq > 0
            assert "coordination" not in nodes["replica"]
        finally:
            primary.close()


# ======================================================= observability routes
class TestObservabilityRoutes:
    def test_history_route_capture_and_query(self):
        clock = SimulatedClock()
        service = GeleeService(clock=clock)
        try:
            router = RestRouter(service=service)
            router.get("/v2/models")
            captured = router.post("/v2/runtime/telemetry/history:capture")
            assert captured.status == 200
            assert captured.body["data"]["points_recorded"] > 0
            clock.advance(seconds=30)
            router.get("/v2/models")
            router.post("/v2/runtime/telemetry/history:capture")
            data = router.get("/v2/runtime/telemetry/history",
                              series="gelee_api_requests_total").body["data"]
            assert data["captures"] == 2
            assert data["series_matched"] >= 1
            for row in data["series"]:
                assert row["kind"] == "counter"
                assert row["points"]
            windowed = router.get("/v2/runtime/telemetry/history",
                                  series="gelee_api_requests_total",
                                  window="10").body["data"]
            assert all(len(row["points"]) <= 1 for row in windowed["series"])
            bad = router.get("/v2/runtime/telemetry/history", tier="weekly")
            assert bad.status == 400
            not_a_number = router.get("/v2/runtime/telemetry/history",
                                      window="soon")
            assert not_a_number.status == 400
        finally:
            service.close()

    def test_scheduler_drives_history_captures(self):
        from repro.scheduler import SchedulerConfig

        clock = SimulatedClock()
        service = GeleeService(
            clock=clock,
            scheduler=SchedulerConfig(history_interval_seconds=30))
        try:
            router = RestRouter(service=service)
            router.get("/v2/models")
            clock.advance(seconds=31)
            service.scheduler.tick()
            assert service.history.stats()["captures"] == 1
            clock.advance(seconds=31)
            service.scheduler.tick()
            assert service.history.stats()["captures"] == 2
        finally:
            service.close()

    def test_logs_route_filters_by_trace_id(self, fresh_log_ring):
        router = RestRouter()
        response = router.get("/v2/models")
        request_id = response.headers["X-Request-Id"]
        data = router.get("/v2/runtime/logs",
                          trace_id=request_id).body["data"]
        assert data["records"]
        record = data["records"][-1]
        assert record["trace_id"] == request_id
        assert record["event"] == "request.handled"
        assert record["component"] == "gateway"
        assert record["route"] == "GET /v2/models"
        assert data["stats"]["size"] >= 1
        bad = router.get("/v2/runtime/logs", level="loud")
        assert bad.status == 400

    def test_gateway_client_errors_still_log_at_info(self, fresh_log_ring):
        router = RestRouter()
        router.get("/v2/instances/i-missing")
        records = fresh_log_ring.query(component="gateway")
        assert records[-1]["status"] == 404
        assert records[-1]["level"] == "info"

    def test_profile_routes(self):
        router = RestRouter()
        idle = router.get("/v2/runtime/profile").body["data"]
        assert idle["running"] is False and idle["samples"] == 0
        started = router.post("/v2/runtime/profile:start",
                              body={"interval_seconds": 0.005})
        assert started.status == 200
        assert started.body["data"]["running"] is True
        stopped = router.post("/v2/runtime/profile:stop")
        assert stopped.body["data"]["running"] is False
        final = router.get("/v2/runtime/profile").body["data"]
        assert final["flame"]["name"] == "process"

    def test_replica_serves_observability_posts(self, root):
        config = PersistenceConfig(os.path.join(root, "primary"),
                                   fsync="never")
        service = GeleeService(clock=SimulatedClock(),
                               persistence=config)
        ReplicationPrimary(service)
        replica = ReadReplica(JournalShippingSource(config), clock=SimulatedClock())
        replica.sync()
        router = replica.router()
        assert router.post(
            "/v2/runtime/telemetry/history:capture").status == 200
        assert router.post("/v2/runtime/profile:start").status == 200
        assert router.post("/v2/runtime/profile:stop").status == 200
        # Writes stay guarded.
        denied = router.post("/v2/models", body={"model": {}})
        assert denied.status == 409
        service.close()

    def test_monitoring_summary_observability_section(self):
        router = RestRouter()
        router.post("/v2/runtime/telemetry/history:capture")
        summary = router.get("/v2/monitoring/summary").body["data"]
        rollup = summary["observability"]
        assert rollup["history"]["captures"] == 1
        assert rollup["logs"]["capacity"] >= 1
        assert rollup["profiler"]["running"] is False

    def test_client_sdk_observability_methods(self):
        client = GeleeClient.in_process(actor="alice")
        client.capture_history()
        history = client.telemetry_history(series="gelee_api_requests_total")
        assert history["captures"] == 1
        logs = client.logs(component="gateway")
        assert logs["records"]
        cluster = client.cluster()
        assert cluster["node_count"] == 1
        self_row = client.cluster_self()
        assert self_row["node_id"] == cluster["reported_by"]
        registered = client.register_cluster_node("peer",
                                                  url="http://127.0.0.1:9")
        assert registered["transport"] == "http"
        assert client.cluster()["partial"] is True
        client.profile_start(interval_seconds=0.005)
        assert client.profile()["running"] is True
        assert client.profile_stop()["running"] is False


# ============================================================ span re-anchoring
class TestSpanStoreAnchors:
    def test_to_wall_maps_perf_to_wall_clock(self):
        import time as _time

        store = SpanStore()
        now_wall = _time.time()
        mapped = store.to_wall(_time.perf_counter())
        assert abs(mapped - now_wall) < 1.0

    def test_each_store_carries_its_own_anchor(self):
        store_a = SpanStore()
        store_b = SpanStore()
        store_b.reanchor()
        assert store_a._anchor_perf <= store_b._anchor_perf

    def test_reanchor_refreshes_the_mapping(self):
        import time as _time

        store = SpanStore()
        perf_before = store._anchor_perf
        _time.sleep(0.01)
        store.reanchor()
        # The anchor pair moved forward; the wall mapping stays accurate.
        # (The two clocks are read a hair apart, so the *mapping* of a
        # fixed perf instant may jitter by sub-microsecond either way —
        # only the anchors themselves are strictly monotonic.)
        assert store._anchor_perf > perf_before
        assert abs(store.to_wall(_time.perf_counter()) - _time.time()) < 1.0
