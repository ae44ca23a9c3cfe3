"""The gateway middleware pipeline.

The v0 router wrapped every handler call in one ad-hoc ``try/except`` ladder.
The gateway replaces that with an explicit pipeline — each middleware is a
callable ``(request, call_next) -> Response`` — shared by *both* API
versions, so cross-cutting concerns live in exactly one place:

``RequestIdMiddleware``
    stamps a fresh ``req-…`` id on every request and echoes it in the
    ``X-Request-Id`` response header.
``ActorMiddleware``
    normalises actor extraction (``X-Gelee-Actor`` header → ``Request.actor``
    → ``actor`` query/body parameter) before any handler runs.
``TimingMiddleware``
    measures wall-clock per route (``unmatched`` when no route matched) into
    the registry's ``gelee_api_requests_total`` and
    ``gelee_api_request_seconds`` series (``GET /v2/metrics``) and writes
    one ``request.handled`` access-log record per answer; the HTTP
    transport records the requests it refuses before routing through the
    same :meth:`TimingMiddleware.record`.
``ErrorTranslationMiddleware``
    converts :class:`~repro.errors.GeleeError` into a response: the legacy
    v1 ``{"error": ...}`` body with the historical status mapping, or the v2
    envelope with catalog codes — selected per request path.  Any other
    exception becomes a 500 ``INTERNAL_ERROR`` with a generic message.
"""

from __future__ import annotations

import time
import traceback
from typing import Callable, List

from ...errors import (
    GeleeError,
    InstanceNotFoundError,
    LifecycleNotFoundError,
    OperationNotFoundError,
    PermissionDeniedError,
    ReadOnlyReplicaError,
    SerializationError,
    ServiceError,
    TemplateError,
    ValidationError,
)
from ...telemetry import get_registry, span_scope, trace_scope
from ...telemetry.logring import get_log_ring
from ...telemetry.log import JsonLogEmitter
from ..transport import Request, Response
from .envelope import Envelope, ErrorInfo, error_info_for, new_request_id

#: A middleware takes the request and the next stage, returns a response.
Middleware = Callable[[Request, Callable[[Request], Response]], Response]


def build_pipeline(middlewares: List[Middleware],
                   terminal: Callable[[Request], Response]) -> Callable[[Request], Response]:
    """Compose middlewares around the terminal dispatch, first one outermost."""
    pipeline = terminal
    for middleware in reversed(middlewares):
        def stage(request: Request, _mw=middleware, _next=pipeline) -> Response:
            return _mw(request, _next)
        pipeline = stage
    return pipeline


# ---------------------------------------------------------------- middlewares
class RequestIdMiddleware:
    """Assign a correlation id, activate it as the trace, echo it back.

    The id becomes the active trace (:class:`~repro.telemetry.trace_scope`)
    for the whole downstream pipeline, so every kernel event the request
    causes is stamped ``origin_request_id`` and the journal/replication
    stream carry the same id the client saw in ``X-Request-Id``.

    It is also the trace's root *span* site: the whole downstream pipeline
    runs inside a ``gateway.request`` span, so the span tree served by
    ``GET /v2/runtime/traces/{request_id}`` starts at the gateway and every
    downstream hop (shard drain, dispatch, journal append) parents under
    it.  The matched route is only known after handling, so it is stamped
    onto the span's attrs on the way out.
    """

    def __call__(self, request: Request, call_next) -> Response:
        request.context.setdefault("request_id", new_request_id())
        with trace_scope(request.context["request_id"]):
            with span_scope("gateway.request", method=request.method,
                            path=request.path) as span:
                response = call_next(request)
                if span is not None:
                    span.attrs["status"] = response.status
                    fault = request.context.get("fault")
                    if fault is not None:
                        span.status, span.error = "error", fault
                    route = request.context.get("route")
                    if route is not None:
                        span.attrs["route"] = route
        response.headers.setdefault("X-Request-Id", request.context["request_id"])
        return response


class ActorMiddleware:
    """Fill ``Request.actor`` from the conventional fallbacks once."""

    def __call__(self, request: Request, call_next) -> Response:
        if request.actor is None:
            actor = request.param("actor")
            if isinstance(actor, str) and actor.strip():
                request.actor = actor
        return call_next(request)


class TimingMiddleware:
    """Count, time and log every answered request.

    The registry gets a latency histogram per route and a request counter
    per route/status pair, served at ``GET /v2/metrics``.  Every request
    that enters the pipeline is counted and logged; one refused before a
    route matched (404, 405, the reserved-actor 403, and the transport's
    parser-level refusals) goes under the fixed label :attr:`UNMATCHED`,
    so paths a client makes up cannot grow the label set.
    """

    UNMATCHED = "unmatched"

    def __init__(self, registry=None):
        registry = registry or get_registry()
        self._latency = registry.histogram(
            "gelee_api_request_seconds",
            "Wall-clock latency of API requests by route.",
            labelnames=("route",))
        self._requests = registry.counter(
            "gelee_api_requests_total",
            "API requests by route and response status.",
            labelnames=("route", "status"))
        # The access log writes straight into the process log ring (not
        # stderr — per-request lines would drown real output) so every
        # request leaves a record queryable at /v2/runtime/logs by the
        # same X-Request-Id its span tree is filed under.  Both callers
        # of record() run it inside a trace scope (the pipeline's
        # RequestIdMiddleware, the transport's own), so the emitter
        # stamps the trace id on its own.
        self._log = JsonLogEmitter(component="gateway",
                                   sink=get_log_ring())

    def __call__(self, request: Request, call_next) -> Response:
        started = time.perf_counter()
        response = call_next(request)
        self.record(request.method, request.context.get("route") or self.UNMATCHED,
                    response.status, time.perf_counter() - started)
        return response

    def record(self, method: str, route: str, status: int,
               duration: float) -> None:
        """Count, time and log one answered request."""
        self._latency.observe(duration, route=route)
        self._requests.inc(route=route, status=str(status))
        self._log.emit("request.handled",
                       level="warning" if status >= 500 else "info",
                       method=method, route=route, status=status,
                       duration_ms=round(duration * 1000.0, 3))


class ReadOnlyGuardMiddleware:
    """Reject mutations on a read replica with a typed 409 + primary hint.

    Sits *inside* the error translation, so the raised
    :class:`~repro.errors.ReadOnlyReplicaError` comes back as the catalog's
    ``REPLICA_READ_ONLY`` envelope (v2) or the historical 409 body (v1),
    with the primary's address in the error details.  The runtime enforces
    read-only too (defence in depth for in-process callers); this guard
    exists so *every* wire mutation — including ones that never reach the
    kernel, like timer scheduling or checkpoints — answers consistently.
    Promotion is the one POST a replica must accept; it stays reachable.
    """

    WRITE_METHODS = frozenset(("POST", "PUT", "PATCH", "DELETE"))
    #: Paths a replica serves despite being read-only.  Promotion is the
    #: failover lever itself; :resign must stay reachable on a demoted node
    #: so the admin gets the informative NOT_LEADER instead of a read-only
    #: bounce (resigning mutates the lease table, not this replica's state).
    #: Observability POSTs mutate only node-local telemetry state (history
    #: rings, the peer registry, the profiler thread), never replicated
    #: lifecycle data — a replica must keep serving them or the single
    #: pane of glass goes dark exactly when it matters.
    ALLOWED_PATHS = frozenset(("/v2/runtime/replication:promote",
                               "/v2/runtime/coordination:resign",
                               "/v2/runtime/telemetry/history:capture",
                               "/v2/runtime/cluster:register",
                               "/v2/runtime/profile:start",
                               "/v2/runtime/profile:stop"))

    def __init__(self, service):
        self.service = service

    def __call__(self, request: Request, call_next) -> Response:
        if (self.service.read_only
                and request.method.upper() in self.WRITE_METHODS
                and request.path.rstrip("/") not in self.ALLOWED_PATHS):
            raise ReadOnlyReplicaError(
                "this deployment is a read replica; send writes to the "
                "primary", primary=self.service.primary_hint)
        return call_next(request)


class ErrorTranslationMiddleware:
    """Translate library errors into the version-appropriate wire shape.

    An exception outside the catalog is a server fault, never the caller's:
    it answers 500 ``INTERNAL_ERROR`` (v1: ``{"error": "internal error"}``)
    without echoing the exception text.  The traceback goes to the log
    ring as a ``request.failed`` record, and the exception type is left in
    ``request.context["fault"]`` for the request span.  Sitting inside
    :class:`TimingMiddleware`, the 500 is counted and logged like any
    other response.
    """

    def __init__(self):
        self._log = JsonLogEmitter(component="gateway", sink=get_log_ring())

    def __call__(self, request: Request, call_next) -> Response:
        try:
            return call_next(request)
        except GeleeError as exc:
            if request.is_v2:
                return self.v2_error_response(request, exc)
            return self.v1_error_response(exc)
        except Exception as exc:  # noqa: BLE001 - the transport's last net
            request.context["fault"] = type(exc).__name__
            self._log.error("request.failed", method=request.method,
                            route=request.context.get("route"),
                            exception=type(exc).__name__,
                            traceback=traceback.format_exc())
            if request.is_v2:
                info = ErrorInfo(code="INTERNAL_ERROR", message="internal error",
                                 status=500)
                envelope = Envelope.failure(
                    info, request_id=request.context.get("request_id", ""))
                return Response(500, envelope.to_dict())
            return Response(500, {"error": "internal error"})

    @staticmethod
    def v2_error_response(request: Request, exc: BaseException) -> Response:
        info = error_info_for(exc)
        envelope = Envelope.failure(info, request_id=request.context.get("request_id", ""))
        return Response(info.status, envelope.to_dict())

    @staticmethod
    def v1_error_response(exc: GeleeError) -> Response:
        """The historical v1 status ladder — bodies unchanged since v0."""
        if isinstance(exc, (LifecycleNotFoundError, InstanceNotFoundError,
                            TemplateError, OperationNotFoundError)):
            return Response(404, {"error": str(exc)})
        if isinstance(exc, PermissionDeniedError):
            return Response(403, {"error": str(exc)})
        if isinstance(exc, (ValidationError, SerializationError, ServiceError)):
            return Response(400, {"error": str(exc)})
        return Response(409, {"error": str(exc)})
