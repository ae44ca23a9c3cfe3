"""REST facade over the Gelee service.

A small, dependency-free router: requests carry a method, a path, a query
dictionary and an optional JSON body; responses carry a status code, headers
and a JSON-compatible body.  The route table mirrors the operations of
:class:`~repro.service.api.GeleeService`, and the HTTP server of
:mod:`repro.service.http` simply adapts real sockets onto these objects.

Two API dialects are mounted on one router:

* the **legacy v1** routes (``/models``, ``/instances``, ...) keep their
  original bodies — only the success status codes were tightened (201 for
  creations, 202 for accepted callbacks) and every response now carries a
  ``Deprecation`` header pointing at the successor version;
* the **v2 gateway** (``/v2/...``, see :mod:`repro.service.v2`) speaks typed
  envelopes with pagination, bulk calls and async operation handles.

Cross-cutting behaviour — request ids, actor extraction, per-route timing,
error translation — runs in the shared middleware pipeline of
:mod:`repro.service.v2.middleware` instead of ad-hoc ``try/except`` blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import PermissionDeniedError, ServiceError
from .api import GeleeService
from .transport import (  # noqa: F401 - re-exported for compatibility
    Handler,
    Request,
    Response,
    parse_bool,
    parse_str_list,
)
from .v2 import (
    ActorMiddleware,
    ErrorTranslationMiddleware,
    ReadOnlyGuardMiddleware,
    RequestIdMiddleware,
    TimingMiddleware,
    build_pipeline,
)
from .v2 import install as install_v2
from .v2.envelope import Envelope, ErrorInfo

#: Headers advertising the v1 deprecation path on every legacy response.
V1_HEADERS = {
    "X-Gelee-Api-Version": "v1",
    "Deprecation": "true",
    "Link": '</v2>; rel="successor-version"',
}


@dataclass
class Route:
    """One entry of the route table."""

    method: str
    pattern: str
    regex: re.Pattern
    handler: Handler
    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return "{} {}".format(self.method, self.pattern)


class RestRouter:
    """Routes REST requests (v1 and v2) to Gelee service operations."""

    def __init__(self, service: GeleeService = None, manager=None,
                 persistence=None, coordination=None):
        """Route over an existing service, or assemble one.

        ``manager`` (a pre-built
        :class:`~repro.runtime.manager.LifecycleManager`), ``persistence``
        (a :class:`~repro.persistence.PersistenceConfig`) and
        ``coordination`` (a :class:`~repro.coordination.CoordinationConfig`)
        are forwarded to :class:`GeleeService` when no pre-built service is
        given, so a durable deployment is one call:
        ``RestRouter(persistence=PersistenceConfig(dir))``.
        """
        if service is None:
            service = GeleeService(manager=manager, persistence=persistence,
                                   coordination=coordination)
        elif (manager is not None or persistence is not None
              or coordination is not None):
            raise ServiceError(
                "pass either a service or manager/persistence/coordination, "
                "not both")
        self.service = service
        #: Counts and logs every answered request; the HTTP transport also
        #: records the requests it refuses before routing through it.
        self.timing = TimingMiddleware()
        self._routes: List[Route] = []
        self._register_routes()
        install_v2(self)
        self._pipeline = build_pipeline(
            [
                RequestIdMiddleware(),
                ActorMiddleware(),
                self.timing,
                ErrorTranslationMiddleware(),
                # Inside the error translation so its typed 409 (with the
                # primary hint) reaches the wire in either dialect.
                ReadOnlyGuardMiddleware(self.service),
            ],
            self._dispatch,
        )

    # ------------------------------------------------------------------ routing
    def add_route(self, method: str, pattern: str, handler: Handler,
                  status: int = 200, headers: Dict[str, str] = None) -> None:
        """Register a route; ``{name}`` segments become named captures.

        ``status`` is the success code used when the handler returns plain
        data (handlers may also return a full :class:`Response`); ``headers``
        are merged into every response of the route.
        """
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern.rstrip("/")) + "$"
        )
        self._routes.append(Route(method=method.upper(), pattern=pattern, regex=regex,
                                  handler=handler, status=status,
                                  headers=dict(headers or {})))

    def handle(self, request: Request) -> Response:
        """Run a request through the middleware pipeline and the route table."""
        return self._pipeline(request)

    def _dispatch(self, request: Request) -> Response:
        """Terminal pipeline stage: match a route and invoke its handler."""
        # The scheduler's system actor holds elevated rights on the access
        # policy (GeleeService sets ``system_actor_reserved`` exactly when
        # that grant was made); actors are client-declared on the wire, so
        # the transport refuses to let a request impersonate it.  Without
        # the grant the name is not special and stays usable.
        reserved = self.service.system_actor_reserved
        if reserved is not None and request.actor == reserved:
            raise PermissionDeniedError(
                "actor {!r} is the scheduler's reserved system identity".format(
                    reserved))
        path = request.path.rstrip("/") or "/"
        method = request.method.upper()
        allowed: set = set()
        for route in self._routes:
            match = route.regex.match(path)
            if match is None:
                continue
            if route.method != method:
                allowed.add(route.method)
                continue
            request.context["route"] = route.name
            # Every route reads its body as a JSON object; anything else
            # (or a body the transport could not decode) is the caller's 400.
            problem = request.context.get("body_error")
            if problem is None and request.body is not None and not isinstance(request.body, dict):
                problem = "request body must be a JSON object"
            if problem is not None:
                raise ServiceError(problem)
            result = route.handler(request, match.groupdict())
            response = result if isinstance(result, Response) else Response(
                route.status, result)
            for name, value in route.headers.items():
                response.headers.setdefault(name, value)
            return response
        if allowed:
            # The path exists; the method does not: 405, advertising what would.
            response = self._no_route_response(
                request, 405, "METHOD_NOT_ALLOWED",
                "method {} not allowed for {} (allowed: {})".format(
                    method, request.path, ", ".join(sorted(allowed))))
            response.headers["Allow"] = ", ".join(sorted(allowed))
            return response
        return self._no_route_response(
            request, 404, "ROUTE_NOT_FOUND",
            "no route for {} {}".format(request.method, request.path))

    @staticmethod
    def _no_route_response(request: Request, status: int, code: str,
                           message: str) -> Response:
        if request.is_v2:
            envelope = Envelope.failure(
                ErrorInfo(code=code, message=message, status=status),
                request_id=request.context.get("request_id", ""))
            return Response(status, envelope.to_dict())
        return Response(status, {"error": message})

    # A convenience for tests and examples.
    def get(self, path: str, actor: str = None, **query: str) -> Response:
        return self.handle(Request("GET", path, query={k: str(v) for k, v in query.items()},
                                   actor=actor))

    def post(self, path: str, body: Dict[str, Any] = None, actor: str = None,
             **query: str) -> Response:
        return self.handle(Request("POST", path, query={k: str(v) for k, v in query.items()},
                                   body=body or {}, actor=actor))

    # ------------------------------------------------------------------- routes
    def _register_routes(self) -> None:
        service = self.service

        def add(method: str, pattern: str, handler: Handler, status: int = 200) -> None:
            self.add_route(method, pattern, handler, status=status, headers=V1_HEADERS)

        # -- design time -----------------------------------------------------
        add("GET", "/models", lambda req, p: service.list_models())
        add("POST", "/models", self._publish_model, status=201)
        add("GET", "/models/detail", lambda req, p: service.model_detail(
            service.require(req.param("uri"), "uri"),
            version=req.param("version"),
            as_xml=str(req.param("format", "")).lower() == "xml",
        ))
        add("GET", "/templates", lambda req, p: service.list_templates())
        add("POST", "/templates/{template_id}/publish", lambda req, p:
            service.publish_template(p["template_id"], actor=req.actor or "",
                                     name=req.param("name")), status=201)
        add("GET", "/resource-types", lambda req, p: service.resource_types())
        add("POST", "/resources", lambda req, p:
            service.register_resource(req.body or {}), status=201)

        # -- runtime ----------------------------------------------------------
        add("POST", "/instances", self._create_instance, status=201)
        add("GET", "/instances", lambda req, p: service.list_instances(
            model_uri=req.param("model_uri"), owner=req.param("owner")))
        add("GET", "/instances/{instance_id}", lambda req, p:
            service.instance_detail(p["instance_id"]))
        add("GET", "/instances/{instance_id}/history", lambda req, p:
            service.instance_history(p["instance_id"]))
        add("POST", "/instances/{instance_id}/start", lambda req, p:
            service.start_instance(p["instance_id"],
                                   self._actor(req),
                                   phase_id=req.param("phase_id"),
                                   call_parameters=req.param("call_parameters")))
        add("POST", "/instances/{instance_id}/advance", lambda req, p:
            service.advance_instance(p["instance_id"],
                                     self._actor(req),
                                     to_phase_id=req.param("to_phase_id"),
                                     annotation=req.param("annotation"),
                                     call_parameters=req.param("call_parameters")))
        add("POST", "/instances/{instance_id}/move", lambda req, p:
            service.move_instance(p["instance_id"],
                                  self._actor(req),
                                  phase_id=self.service.require(
                                      req.param("phase_id"), "phase_id"),
                                  annotation=req.param("annotation")))
        add("POST", "/instances/{instance_id}/annotations", lambda req, p:
            service.annotate_instance(p["instance_id"],
                                      self._actor(req),
                                      text=self.service.require(
                                          req.param("text"), "text"),
                                      kind=req.param("kind", "note")))
        add("GET", "/instances/{instance_id}/widget", lambda req, p:
            service.widget_view(p["instance_id"], viewer=req.param("viewer")))

        # -- model change propagation ------------------------------------------
        add("POST", "/propagations", lambda req, p:
            service.propose_change_xml(
                self.service.require(req.param("xml"), "xml"),
                actor=self._actor(req),
                instance_ids=req.list_param("instance_ids")), status=201)
        add("POST", "/propagations/{proposal_id}/decision", lambda req, p:
            service.decide_change(p["proposal_id"], self._actor(req),
                                  accept=req.bool_param("accept"),
                                  target_phase_id=req.param("target_phase_id"),
                                  reason=req.param("reason", "")))

        # -- action callbacks ----------------------------------------------------
        add("POST", "/callbacks/{instance_id}/{phase_id}/{call_id}", lambda req, p:
            service.action_callback(p["instance_id"], p["phase_id"], p["call_id"],
                                    status=self.service.require(
                                        req.param("status"), "status"),
                                    detail=req.param("detail", "")), status=202)

        # -- monitoring -----------------------------------------------------------
        add("GET", "/monitoring/summary", lambda req, p:
            service.monitoring_summary(model_uri=req.param("model_uri")))
        add("GET", "/monitoring/table", lambda req, p:
            service.monitoring_table(model_uri=req.param("model_uri"),
                                     owner=req.param("owner")))
        add("GET", "/monitoring/alerts", lambda req, p: service.monitoring_alerts())
        add("GET", "/runtime/stats", lambda req, p: service.node_status())

    # ----------------------------------------------------------------- handlers
    def _publish_model(self, request: Request, params: Dict[str, str]) -> Any:
        if request.param("xml"):
            return self.service.publish_model_xml(request.param("xml"),
                                                  actor=request.actor or "")
        body = request.body or {}
        document = body.get("model", body)
        return self.service.publish_model_json(document, actor=request.actor or "")

    def _create_instance(self, request: Request, params: Dict[str, str]) -> Any:
        body = request.body or {}
        return self.service.create_instance(
            model_uri=self.service.require(body.get("model_uri"), "model_uri"),
            resource=self.service.require(body.get("resource"), "resource"),
            owner=self.service.require(body.get("owner"), "owner"),
            actor=request.actor or body.get("owner"),
            version=body.get("version"),
            parameters=body.get("parameters"),
            token_owners=body.get("token_owners"),
        )

    def _actor(self, request: Request) -> str:
        actor = request.actor or request.param("actor")
        return self.service.require(actor, "actor")
