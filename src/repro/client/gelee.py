"""The Python client SDK for the Gelee v2 API.

:class:`GeleeClient` is transport-agnostic: the same client object drives the
service **in-process** (straight against a :class:`~repro.service.rest.RestRouter`
— no sockets, ideal for tests and embedded use) or **over HTTP** (against the
:class:`~repro.service.http.GeleeHttpServer` transport).  Both paths speak
the v2 envelope, so the client sees identical behaviour either way::

    client = GeleeClient.in_process(actor="alice")
    # ... or ...
    client = GeleeClient.connect(host, port, actor="alice")

    page = client.list_instances(owner="alice", page_size=100)
    for summary in client.iter_instances(owner="alice"):
        ...
    result = client.batch_advance(ids, actor="alice")
    handle = client.batch_advance(ids, actor="alice", wait=False)
    operation = client.wait_operation(handle.operation_id)

Failed calls raise :class:`GeleeApiError` carrying the machine-readable code
(``INSTANCE_NOT_FOUND``, ``VALIDATION_FAILED``, ...), the HTTP status and the
server-side request id — never a bare string.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import GeleeError
from ..service.transport import Request, Response
from ..service.v2.dto import AdvanceItem, BatchResult, CreateInstanceItem
from ..service.v2.envelope import Envelope, ErrorInfo
from ..service.v2.pagination import PageInfo


class GeleeApiError(GeleeError):
    """A v2 call failed; carries the machine-readable error model."""

    def __init__(self, error: ErrorInfo, request_id: str = ""):
        self.code = error.code
        self.status = error.status
        self.details = dict(error.details)
        self.request_id = request_id
        super().__init__("[{}] {} ({})".format(error.code, error.message,
                                               "HTTP {}".format(error.status)))


# ----------------------------------------------------------------- transports
class InProcessTransport:
    """Drives a :class:`RestRouter` directly — no sockets, no serialisation."""

    def __init__(self, router):
        self.router = router

    def request(self, method: str, path: str, query: Dict[str, str] = None,
                body: Dict[str, Any] = None, actor: str = None) -> Response:
        return self.router.handle(Request(
            method=method, path=path,
            query={key: str(value) for key, value in (query or {}).items()},
            body=body, actor=actor))


class HttpTransport:
    """Drives the service over the localhost HTTP transport."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        from ..service.http import GeleeHttpClient

        self._make_client = lambda actor: GeleeHttpClient(
            host, port, actor=actor, timeout=timeout)

    def request(self, method: str, path: str, query: Dict[str, str] = None,
                body: Dict[str, Any] = None, actor: str = None) -> Response:
        client = self._make_client(actor)
        if method.upper() == "GET":
            return client.get(path, **(query or {}))
        return client.post(path, body=body, **(query or {}))


# ----------------------------------------------------------------------- page
@dataclass
class Page:
    """One page of a collection, plus the cursor for the next one."""

    items: List[Any]
    info: PageInfo
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def next_page_token(self) -> Optional[str]:
        return self.info.next_page_token

    @property
    def total(self) -> Optional[int]:
        return self.info.total

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)


@dataclass
class OperationHandle:
    """A 202 handle to a long-running server-side operation."""

    operation_id: str
    kind: str
    status: str
    result: Any = None
    error: Optional[ErrorInfo] = None

    @property
    def is_terminal(self) -> bool:
        return self.status in ("succeeded", "failed")

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "OperationHandle":
        error = document.get("error")
        return cls(operation_id=document["operation_id"], kind=document.get("kind", ""),
                   status=document.get("status", ""), result=document.get("result"),
                   error=ErrorInfo.from_dict(error) if error else None)


# --------------------------------------------------------------------- client
class GeleeClient:
    """High-level, typed access to the Gelee v2 API.

    With a single transport every call goes to one deployment.  A second,
    optional **read transport** splits the traffic the way a replicated
    deployment wants it: ``GET``\\ s (listings, detail reads, monitoring)
    go to a read replica, mutations go to the primary.  The split is per
    *method*, so the same client code runs unmodified against both
    topologies; ``endpoint="read"``/``"write"`` on :meth:`call` overrides
    the routing for the rare admin calls that must target a specific node
    (promotion is a POST served by the *replica*).
    """

    def __init__(self, transport, actor: str = None, read_transport=None):
        self.transport = transport
        self.read_transport = read_transport
        self.actor = actor

    # -------------------------------------------------------------- factories
    @classmethod
    def in_process(cls, router=None, service=None, actor: str = None,
                   read_router=None) -> "GeleeClient":
        """A client over an in-process router (built here if not given).

        ``read_router`` (e.g. ``ReadReplica(...).router()``) enables the
        read/write split without sockets.
        """
        from ..service.rest import RestRouter

        if router is None:
            router = RestRouter(service=service)
        return cls(InProcessTransport(router), actor=actor,
                   read_transport=InProcessTransport(read_router)
                   if read_router is not None else None)

    @classmethod
    def connect(cls, host: str, port: int, actor: str = None,
                timeout: float = 30.0, read_host: str = None,
                read_port: int = None) -> "GeleeClient":
        """A client over the localhost HTTP transport.

        ``read_host``/``read_port`` point GETs at a read replica; either
        alone inherits the other half from the write endpoint.
        """
        read_transport = None
        if read_host is not None or read_port is not None:
            read_transport = HttpTransport(read_host or host,
                                           read_port if read_port is not None
                                           else port, timeout=timeout)
        return cls(HttpTransport(host, port, timeout=timeout), actor=actor,
                   read_transport=read_transport)

    # ------------------------------------------------------------------ plumbing
    def _select_transport(self, method: str, endpoint: str = None):
        if self.read_transport is None or endpoint == "write":
            return self.transport
        if endpoint == "read":
            return self.read_transport
        return self.read_transport if method.upper() == "GET" else self.transport

    def call(self, method: str, path: str, query: Dict[str, Any] = None,
             body: Dict[str, Any] = None, actor: str = None,
             endpoint: str = None) -> Tuple[Any, Envelope]:
        """Issue one request and unwrap the envelope (raises on error)."""
        transport = self._select_transport(method, endpoint)
        response = transport.request(method, path, query=query, body=body,
                                     actor=actor or self.actor)
        if not isinstance(response.body, dict) or "meta" not in response.body:
            # Not an envelope — a transport-level failure.
            raise GeleeApiError(ErrorInfo(
                code="TRANSPORT_ERROR", status=response.status,
                message=str(response.body)))
        envelope = Envelope.from_dict(response.body)
        if envelope.error is not None:
            raise GeleeApiError(envelope.error, request_id=envelope.meta.request_id)
        return envelope.data, envelope

    def _page(self, path: str, query: Dict[str, Any]) -> Page:
        query = {key: value for key, value in query.items() if value is not None}
        data, envelope = self.call("GET", path, query=query)
        info = PageInfo.from_dict(envelope.meta.pagination or {})
        return Page(items=data or [], info=info, meta=envelope.meta.to_dict())

    def iter_pages(self, fetch, **query) -> Iterator[Any]:
        """Drain every page of a paginated client method.

        ``fetch`` is any method returning a :class:`Page` and accepting a
        ``page_token`` keyword (e.g. ``client.iter_pages(client.monitoring_table,
        owner="alice")``).
        """
        token = None
        while True:
            page = fetch(page_token=token, **query)
            for item in page.items:
                yield item
            token = page.next_page_token
            if token is None:
                return

    # Backwards-friendly internal alias used by the list helpers below.
    _iter = iter_pages

    # --------------------------------------------------------------- design time
    def list_models(self, page_size: int = None, page_token: str = None,
                    sort: str = None) -> Page:
        return self._page("/v2/models", {"page_size": page_size,
                                         "page_token": page_token, "sort": sort})

    def publish_model(self, model: Dict[str, Any] = None, xml: str = None) -> Dict[str, Any]:
        body = {"xml": xml} if xml is not None else {"model": model}
        data, _ = self.call("POST", "/v2/models", body=body)
        return data

    def model_detail(self, uri: str, version: str = None, as_xml: bool = False) -> Dict[str, Any]:
        query = {"uri": uri, "version": version}
        if as_xml:
            query["format"] = "xml"
        data, _ = self.call("GET", "/v2/models/detail", query=query)
        return data

    def list_templates(self, page_size: int = None, page_token: str = None) -> Page:
        return self._page("/v2/templates", {"page_size": page_size,
                                            "page_token": page_token})

    def publish_template(self, template_id: str, name: str = None) -> Dict[str, Any]:
        data, _ = self.call("POST", "/v2/templates/{}:publish".format(template_id),
                            body={"name": name} if name else {})
        return data

    def register_resource(self, resource: Dict[str, Any]) -> Dict[str, Any]:
        data, _ = self.call("POST", "/v2/resources", body=resource)
        return data

    # ------------------------------------------------------------------ instances
    def list_instances(self, model_uri: str = None, owner: str = None,
                       status: str = None, phase_id: str = None,
                       page_size: int = None, page_token: str = None,
                       sort: str = None) -> Page:
        return self._page("/v2/instances", {
            "model_uri": model_uri, "owner": owner, "status": status,
            "phase_id": phase_id, "page_size": page_size,
            "page_token": page_token, "sort": sort})

    def iter_instances(self, **filters) -> Iterator[Dict[str, Any]]:
        """Drain every page of ``list_instances`` transparently."""
        return self._iter(self.list_instances, **filters)

    def create_instance(self, model_uri: str, resource: Dict[str, Any], owner: str,
                        version: str = None, parameters: Dict[str, Any] = None,
                        token_owners: List[str] = None) -> Dict[str, Any]:
        item = CreateInstanceItem(model_uri=model_uri, resource=resource, owner=owner,
                                  version=version, parameters=parameters,
                                  token_owners=token_owners)
        data, _ = self.call("POST", "/v2/instances", body=item.to_dict())
        return data

    def instance(self, instance_id: str) -> Dict[str, Any]:
        data, _ = self.call("GET", "/v2/instances/{}".format(instance_id))
        return data

    def history(self, instance_id: str, page_size: int = None,
                page_token: str = None) -> Page:
        return self._page("/v2/instances/{}/history".format(instance_id),
                          {"page_size": page_size, "page_token": page_token})

    def start(self, instance_id: str, phase_id: str = None,
              call_parameters: Dict[str, Any] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if phase_id:
            body["phase_id"] = phase_id
        if call_parameters:
            body["call_parameters"] = call_parameters
        data, _ = self.call("POST", "/v2/instances/{}:start".format(instance_id),
                            body=body)
        return data

    def advance(self, instance_id: str, to_phase_id: str = None,
                annotation: str = None,
                call_parameters: Dict[str, Any] = None) -> Dict[str, Any]:
        body: Dict[str, Any] = {}
        if to_phase_id:
            body["to_phase_id"] = to_phase_id
        if annotation:
            body["annotation"] = annotation
        if call_parameters:
            body["call_parameters"] = call_parameters
        data, _ = self.call("POST", "/v2/instances/{}:advance".format(instance_id),
                            body=body)
        return data

    def move(self, instance_id: str, phase_id: str,
             annotation: str = None) -> Dict[str, Any]:
        body = {"phase_id": phase_id}
        if annotation:
            body["annotation"] = annotation
        data, _ = self.call("POST", "/v2/instances/{}:move".format(instance_id),
                            body=body)
        return data

    def annotate(self, instance_id: str, text: str, kind: str = "note") -> Dict[str, Any]:
        data, _ = self.call("POST", "/v2/instances/{}:annotate".format(instance_id),
                            body={"text": text, "kind": kind})
        return data

    def widget(self, instance_id: str, viewer: str = None) -> Dict[str, Any]:
        data, _ = self.call("GET", "/v2/instances/{}/widget".format(instance_id),
                            query={"viewer": viewer} if viewer else None)
        return data

    # ----------------------------------------------------------------- bulk/async
    def batch_create(self, items: List[Any], wait: bool = True):
        """Create many instances in one call.

        ``items`` are :class:`CreateInstanceItem` objects or plain dicts.
        With ``wait=False`` the server answers 202 and the method returns an
        :class:`OperationHandle` to poll.
        """
        body = {"items": [item.to_dict() if isinstance(item, CreateInstanceItem)
                          else item for item in items]}
        if not wait:
            body["async"] = True
        data, _ = self.call("POST", "/v2/instances:batchCreate", body=body)
        if not wait:
            return OperationHandle.from_dict(data)
        return BatchResult.from_dict(data)

    def batch_advance(self, items: List[Any], actor: str = None, wait: bool = True):
        """Advance many instances in one call (ids, dicts or AdvanceItems)."""
        body: Dict[str, Any] = {
            "items": [item.to_dict() if isinstance(item, AdvanceItem) else item
                      for item in items]}
        if actor:
            body["actor"] = actor
        if not wait:
            body["async"] = True
        data, _ = self.call("POST", "/v2/instances:batchAdvance", body=body)
        if not wait:
            return OperationHandle.from_dict(data)
        return BatchResult.from_dict(data)

    def operation(self, operation_id: str) -> OperationHandle:
        data, _ = self.call("GET", "/v2/operations/{}".format(operation_id))
        return OperationHandle.from_dict(data)

    def wait_operation(self, operation_id: str, timeout: float = 30.0,
                       poll_interval: float = 0.02) -> OperationHandle:
        """Poll an operation handle until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while True:
            handle = self.operation(operation_id)
            if handle.is_terminal:
                return handle
            if time.monotonic() >= deadline:
                raise GeleeApiError(ErrorInfo(
                    code="OPERATION_TIMEOUT", status=504,
                    message="operation {} still {} after {:.1f}s".format(
                        operation_id, handle.status, timeout)))
            time.sleep(poll_interval)

    # ---------------------------------------------------------------- propagation
    def propose_change(self, xml: str, instance_ids: List[str] = None) -> List[Dict[str, Any]]:
        body: Dict[str, Any] = {"xml": xml}
        if instance_ids is not None:
            body["instance_ids"] = list(instance_ids)
        data, _ = self.call("POST", "/v2/propagations", body=body)
        return data

    def decide_change(self, proposal_id: str, accept: bool,
                      target_phase_id: str = None, reason: str = "") -> Dict[str, Any]:
        data, _ = self.call("POST", "/v2/propagations/{}:decide".format(proposal_id),
                            body={"accept": accept, "target_phase_id": target_phase_id,
                                  "reason": reason})
        return data

    def action_callback(self, instance_id: str, phase_id: str, call_id: str,
                        status: str, detail: str = "") -> Dict[str, Any]:
        data, _ = self.call(
            "POST", "/v2/callbacks/{}/{}/{}".format(instance_id, phase_id, call_id),
            body={"status": status, "detail": detail})
        return data

    # ----------------------------------------------------------------- monitoring
    def monitoring_summary(self, model_uri: str = None) -> Dict[str, Any]:
        data, _ = self.call("GET", "/v2/monitoring/summary",
                            query={"model_uri": model_uri} if model_uri else None)
        return data

    def monitoring_table(self, model_uri: str = None, owner: str = None,
                         page_size: int = None, page_token: str = None,
                         sort: str = None) -> Page:
        return self._page("/v2/monitoring/table", {
            "model_uri": model_uri, "owner": owner, "page_size": page_size,
            "page_token": page_token, "sort": sort})

    def monitoring_alerts(self) -> List[Dict[str, Any]]:
        data, _ = self.call("GET", "/v2/monitoring/alerts")
        return data

    def monitoring_deadlines(self, model_uri: str = None) -> Dict[str, Any]:
        """Deadline health roll-up: overdue, due-soon, escalated, timers."""
        data, _ = self.call("GET", "/v2/monitoring/deadlines",
                            query={"model_uri": model_uri} if model_uri else None)
        return data

    def runtime_stats(self) -> Dict[str, Any]:
        """The node status document, the same one :meth:`cluster_self` reads."""
        data, _ = self.call("GET", "/v2/runtime/stats")
        return data

    # ----------------------------------------------------------------- telemetry
    def metrics(self, endpoint: str = None) -> str:
        """The node's Prometheus text exposition (``GET /v2/metrics``).

        The one v2 route that answers plain text instead of the envelope,
        so this bypasses :meth:`call` and returns the raw exposition
        string.  ``endpoint`` picks the node on a split client (the default
        follows the GET routing to the read replica).
        """
        transport = self._select_transport("GET", endpoint)
        response = transport.request("GET", "/v2/metrics", actor=self.actor)
        if not response.ok:
            raise GeleeApiError(ErrorInfo(
                code="TRANSPORT_ERROR", status=response.status,
                message=str(response.body)))
        return response.body

    def telemetry_status(self, endpoint: str = None) -> Dict[str, Any]:
        """Structured snapshot of every instrument on one node."""
        data, _ = self.call("GET", "/v2/runtime/telemetry", endpoint=endpoint)
        return data

    def traces(self, limit: int = None, endpoint: str = None) -> Dict[str, Any]:
        """Summaries of the span traces one node's store still holds."""
        data, _ = self.call("GET", "/v2/runtime/traces",
                            query={"limit": limit} if limit else None,
                            endpoint=endpoint)
        return data

    def trace(self, trace_id: str, endpoint: str = None) -> Dict[str, Any]:
        """One request's span timeline + tree, by its ``X-Request-Id``.

        Raises the catalog's ``TRACE_NOT_FOUND`` when the id was never
        sampled or has aged out of the node's bounded span store.
        """
        data, _ = self.call("GET", "/v2/runtime/traces/{}".format(trace_id),
                            endpoint=endpoint)
        return data

    def alerts(self, endpoint: str = None) -> Dict[str, Any]:
        """The node's SLO rule catalog and per-rule alert states."""
        data, _ = self.call("GET", "/v2/runtime/alerts", endpoint=endpoint)
        return data

    def evaluate_alerts(self) -> Dict[str, Any]:
        """Force one SLO evaluation pass on the write node."""
        data, _ = self.call("POST", "/v2/runtime/alerts:evaluate")
        return data

    def telemetry_history(self, series: str = None, window_seconds: float = None,
                          step_seconds: float = None, tier: str = None,
                          max_series: int = None,
                          endpoint: str = None) -> Dict[str, Any]:
        """Time-series points from one node's metric history rings.

        ``series`` is a substring filter over ``name{label="v"}`` keys;
        ``tier`` picks ``raw`` (default) or ``downsampled``.
        """
        query = {"series": series, "window": window_seconds,
                 "step": step_seconds, "tier": tier, "max_series": max_series}
        data, _ = self.call("GET", "/v2/runtime/telemetry/history",
                            query={k: v for k, v in query.items()
                                   if v is not None} or None,
                            endpoint=endpoint)
        return data

    def capture_history(self, endpoint: str = None) -> Dict[str, Any]:
        """Force one history capture on a node (any node serves this)."""
        data, _ = self.call("POST", "/v2/runtime/telemetry/history:capture",
                            endpoint=endpoint)
        return data

    def logs(self, trace_id: str = None, level: str = None,
             component: str = None, since: str = None, limit: int = None,
             endpoint: str = None) -> Dict[str, Any]:
        """Recent log records from one node's in-memory ring.

        Filter by ``trace_id`` (an ``X-Request-Id``) to see exactly the
        lines a traced request emitted alongside its span tree.
        """
        query = {"trace_id": trace_id, "level": level,
                 "component": component, "since": since, "limit": limit}
        data, _ = self.call("GET", "/v2/runtime/logs",
                            query={k: v for k, v in query.items()
                                   if v is not None} or None,
                            endpoint=endpoint)
        return data

    def cluster(self, endpoint: str = None) -> Dict[str, Any]:
        """The merged cluster view as one node sees it.

        Always succeeds with HTTP 200; peers that cannot be reached come
        back as ``reachable: false`` rows with a ``NODE_UNREACHABLE``
        error and the envelope is marked ``partial``.
        """
        data, _ = self.call("GET", "/v2/runtime/cluster", endpoint=endpoint)
        return data

    def cluster_self(self, endpoint: str = None) -> Dict[str, Any]:
        """One node's status document, its row in the cluster view."""
        data, _ = self.call("GET", "/v2/runtime/cluster/self",
                            endpoint=endpoint)
        return data

    def register_cluster_node(self, node_id: str, url: str = None,
                              host: str = None, port: int = None,
                              endpoint: str = None) -> Dict[str, Any]:
        """Tell a node about a peer so its cluster view can fan out."""
        body = {"node_id": node_id}
        if url is not None:
            body["url"] = url
        if host is not None:
            body["host"] = host
        if port is not None:
            body["port"] = port
        data, _ = self.call("POST", "/v2/runtime/cluster:register",
                            body=body, endpoint=endpoint)
        return data

    def profile(self, endpoint: str = None) -> Dict[str, Any]:
        """The sampling profiler's status and bounded flame tree."""
        data, _ = self.call("GET", "/v2/runtime/profile", endpoint=endpoint)
        return data

    def profile_start(self, interval_seconds: float = None,
                      endpoint: str = None) -> Dict[str, Any]:
        """Start the low-rate stack sampler on one node."""
        body = ({"interval_seconds": interval_seconds}
                if interval_seconds is not None else None)
        data, _ = self.call("POST", "/v2/runtime/profile:start", body=body,
                            endpoint=endpoint)
        return data

    def profile_stop(self, endpoint: str = None) -> Dict[str, Any]:
        """Stop the stack sampler, keeping the aggregate queryable."""
        data, _ = self.call("POST", "/v2/runtime/profile:stop",
                            endpoint=endpoint)
        return data

    def resource_types(self) -> List[str]:
        data, _ = self.call("GET", "/v2/resource-types")
        return data

    # ---------------------------------------------------------------- scheduler
    def list_timers(self, kind: str = None, subject_id: str = None,
                    page_size: int = None, page_token: str = None,
                    sort: str = None) -> Page:
        """One page of pending timers, soonest first."""
        return self._page("/v2/timers", {
            "kind": kind, "subject_id": subject_id, "page_size": page_size,
            "page_token": page_token, "sort": sort})

    def iter_timers(self, **filters) -> Iterator[Dict[str, Any]]:
        return self._iter(self.list_timers, **filters)

    def schedule_timer(self, timer_id: str, fire_at: str = None,
                       delay_seconds: float = None, kind: str = "user",
                       subject_id: str = "", payload: Dict[str, Any] = None,
                       interval_seconds: float = None) -> Dict[str, Any]:
        """Schedule (or replace) a named timer; ids are the idempotency key."""
        body: Dict[str, Any] = {"timer_id": timer_id, "kind": kind}
        if fire_at is not None:
            body["fire_at"] = fire_at
        if delay_seconds is not None:
            body["delay_seconds"] = delay_seconds
        if subject_id:
            body["subject_id"] = subject_id
        if payload:
            body["payload"] = payload
        if interval_seconds is not None:
            body["interval_seconds"] = interval_seconds
        data, _ = self.call("POST", "/v2/timers", body=body)
        return data

    def cancel_timer(self, timer_id: str) -> Dict[str, Any]:
        data, _ = self.call("POST", "/v2/timers/{}:cancel".format(timer_id))
        return data

    def scheduler_status(self) -> Dict[str, Any]:
        data, _ = self.call("GET", "/v2/runtime/scheduler")
        return data

    def scheduler_tick(self, limit: int = None) -> Dict[str, Any]:
        """Fire every due timer now (ops/testing entry point for time)."""
        body = {"limit": limit} if limit is not None else {}
        data, _ = self.call("POST", "/v2/runtime/scheduler:tick", body=body)
        return data

    # --------------------------------------------------------------- persistence
    def persistence_status(self) -> Dict[str, Any]:
        data, _ = self.call("GET", "/v2/runtime/persistence")
        return data

    def persistence_checkpoint(self) -> Dict[str, Any]:
        """Flush dirty instances and publish a snapshot (admin operation)."""
        data, _ = self.call("POST", "/v2/runtime/persistence:checkpoint")
        return data

    # --------------------------------------------------------------- replication
    def replication_status(self, endpoint: str = None) -> Dict[str, Any]:
        """Stream position / follower lag of one node.

        With a split client the default targets the *read* endpoint (the
        replica's lag is the figure ops watch); ``endpoint="write"`` asks
        the primary for its follower table instead.
        """
        data, _ = self.call("GET", "/v2/runtime/replication", endpoint=endpoint)
        return data

    def promote_replica(self) -> Dict[str, Any]:
        """Promote the read endpoint's replica to primary (failover).

        Deliberately a POST to the **read** endpoint: promotion is the one
        mutation a replica serves, and during failover the write endpoint
        is exactly the node that died.
        """
        data, _ = self.call("POST", "/v2/runtime/replication:promote",
                            endpoint="read")
        return data

    def replication_stream(self, after_seq: int = 0, limit: int = None,
                           wait_timeout: float = None,
                           follower_id: str = None) -> Dict[str, Any]:
        """One journal stream batch from the primary (push over HTTP).

        With ``wait_timeout`` a caught-up follower long-polls: the request
        parks on the primary's journal-append notification and returns as
        soon as records newer than ``after_seq`` exist, so a remote tail
        loop gets push latency without a tight poll.  Targets the write
        endpoint — the stream is the primary's to serve.
        """
        query: Dict[str, Any] = {"after_seq": after_seq}
        if limit is not None:
            query["limit"] = limit
        if wait_timeout is not None:
            query["wait_timeout"] = wait_timeout
        if follower_id is not None:
            query["follower_id"] = follower_id
        data, _ = self.call("GET", "/v2/runtime/replication/stream",
                            query=query, endpoint="write")
        return data

    def replication_bootstrap(self) -> Dict[str, Any]:
        """The bootstrap payload a brand-new off-host follower restores.

        Targets the write endpoint: only the primary holds the snapshots
        and instance store a follower boots from.
        """
        data, _ = self.call("GET", "/v2/runtime/replication/bootstrap",
                            endpoint="write")
        return data

    # -------------------------------------------------------------- coordination
    def coordination_status(self, endpoint: str = None) -> Dict[str, Any]:
        """Leader-election figures of one node: role, lease epoch, fencing.

        ``{"enabled": False}`` (plus the node's role) when that node is not
        enrolled in election.
        """
        data, _ = self.call("GET", "/v2/runtime/coordination",
                            endpoint=endpoint)
        return data

    def coordination_resign(self) -> Dict[str, Any]:
        """Ask the write endpoint's node to release the primary lease now.

        Planned-maintenance failover: the lease transfers to the next
        campaigner immediately instead of after a TTL expiry.
        """
        data, _ = self.call("POST", "/v2/runtime/coordination:resign",
                            endpoint="write")
        return data
