"""Local HTTP transport for the REST facade.

The paper's system is hosted; for the reproduction we provide a small HTTP
server built on :mod:`http.server` that adapts real HTTP requests onto the
transport-independent :class:`~repro.service.rest.RestRouter`, plus a matching
client.  The server runs on a background thread and binds to localhost only —
it exists so the architecture experiment (E4) can exercise a genuine
request/response round trip, not to be an internet-facing deployment.
"""

from __future__ import annotations

import json
import threading
import time
from http import HTTPStatus
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional
from urllib.parse import parse_qsl, urlencode, urlsplit

from ..telemetry import trace_scope
from .rest import Request, Response, RestRouter
from .v2.envelope import Envelope, ErrorInfo, new_request_id


class _RouterRequestHandler(BaseHTTPRequestHandler):
    """Adapts BaseHTTPRequestHandler onto the RestRouter."""

    router: RestRouter = None  # set by the server factory
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted socket.  Headers and body leave as two
    # small writes; with Nagle on, the body waits for the client's delayed
    # ACK (RFC 896 / RFC 1122) and every keep-alive request pays ~40 ms.
    disable_nagle_algorithm = True

    # Silence the default stderr logging.
    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass

    def __getattr__(self, name: str):
        # The stdlib looks up ``do_<METHOD>`` for the request line's method
        # and answers its own 501 page, outside the router, when there is
        # none.  Every method goes to the router instead, which answers
        # 404/405 envelopes and counts, logs and traces the request.
        if name.startswith("do_"):
            return lambda: self._dispatch(self.command)
        raise AttributeError(name)

    def send_error(self, code: int, message: str = None, explain: str = None) -> None:
        """Answer a request the stdlib refused before routing.

        The stdlib calls this for a request line or header block it cannot
        parse (and would answer an HTML page); the answer here is the v2
        error envelope, and the connection closes because the stream cannot
        be re-framed after such a request.  The refusal is counted and
        logged like a routed answer, under the ``unmatched`` route label
        and its own ``X-Request-Id``.
        """
        started = time.perf_counter()
        status = HTTPStatus(code)
        request_id = new_request_id()
        details = {"explain": explain} if explain else {}
        envelope = Envelope.failure(ErrorInfo(
            code=status.name, message=message or status.phrase,
            status=status.value, details=details), request_id=request_id)
        timing = self.router.timing
        with trace_scope(request_id):
            timing.record(self.command, timing.UNMATCHED, status.value,
                          time.perf_counter() - started)
        self.close_connection = True
        # A request line the parser could not split leaves the version at
        # HTTP/0.9, under which the stdlib writes neither status line nor
        # headers; this server speaks HTTP/1.1 only.
        self.request_version = self.protocol_version
        self._send(Response(status.value, envelope.to_dict(),
                            headers={"X-Request-Id": request_id}))

    def _dispatch(self, method: str) -> None:
        parts = urlsplit(self.path)
        query = dict(parse_qsl(parts.query))
        actor = self.headers.get("X-Gelee-Actor") or query.get("actor")
        request = Request(method=method, path=parts.path, query=query, actor=actor)
        # A body the transport cannot decode still runs the pipeline: the
        # router answers it 400 once the route matched, so the failure is
        # counted, logged and traced like any other bad request.
        try:
            request.body = self._read_json_body()
        except ValueError as exc:
            request.context["body_error"] = str(exc)
        # Honour a caller-supplied correlation id: upstream gateways pass
        # their own X-Request-Id so one trace id spans both services.  The
        # RequestIdMiddleware setdefault keeps it; absent or blank, the
        # middleware mints one as usual.
        inbound_id = (self.headers.get("X-Request-Id") or "").strip()
        if inbound_id:
            request.context["request_id"] = inbound_id[:128]
        response = self.router.handle(request)
        self._send(response)

    def _read_json_body(self) -> Any:
        """Read and decode the request body; ``ValueError`` when malformed."""
        declared = self.headers.get("Content-Length", "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            # Without a usable length the next request's first byte cannot
            # be found: answer, then close the connection.
            self.close_connection = True
            raise ValueError("invalid Content-Length header: {!r}".format(declared))
        raw = self.rfile.read(int(declared))
        if not raw:
            return None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError):
            raise ValueError("request body is not valid JSON") from None

    def _send(self, response: Response) -> None:
        # A route that set its own Content-Type (the Prometheus exposition
        # at /v2/metrics) ships its body verbatim; everything else is JSON.
        content_type = response.headers.get("Content-Type")
        if content_type is not None and isinstance(response.body, str):
            payload = response.body.encode("utf-8")
        else:
            payload = json.dumps(response.body, default=str).encode("utf-8")
            content_type = "application/json"
        self.send_response(response.status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        for name, value in response.headers.items():
            if name.lower() != "content-type":
                self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(payload)


class GeleeHttpServer:
    """Threaded localhost HTTP server exposing a RestRouter."""

    def __init__(self, router: RestRouter, host: str = "127.0.0.1", port: int = 0):
        handler = type("BoundHandler", (_RouterRequestHandler,), {"router": router})
        self._server = ThreadingHTTPServer((host, port), handler)
        self._thread: Optional[threading.Thread] = None
        self._router = router

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def base_url(self) -> str:
        return "http://{}:{}".format(self.host, self.port)

    def start(self) -> "GeleeHttpServer":
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self, close_service: bool = False) -> None:
        """Stop serving.

        ``close_service=True`` also closes the underlying
        :class:`~repro.service.api.GeleeService` — on a durable deployment
        that is the final journal flush/fsync, so a server that *owns* its
        service should pass it (the context-manager form does).  Leave it
        off when the service is shared and outlives this server.
        """
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if close_service:
            self._router.service.close()

    def __enter__(self) -> "GeleeHttpServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.stop(close_service=True)


class GeleeHttpClient:
    """Minimal JSON-over-HTTP client for the Gelee REST API."""

    def __init__(self, host: str, port: int, actor: str = None, timeout: float = 10.0):
        self._host = host
        self._port = port
        self._actor = actor
        self._timeout = timeout

    def get(self, path: str, **query: str) -> Response:
        return self._request("GET", self._with_query(path, query))

    def post(self, path: str, body: Dict[str, Any] = None, **query: str) -> Response:
        return self._request("POST", self._with_query(path, query), body=body or {})

    # ------------------------------------------------------------------ internal
    def _with_query(self, path: str, query: Dict[str, str]) -> str:
        if not query:
            return path
        encoded = urlencode({key: str(value) for key, value in query.items()})
        separator = "&" if "?" in path else "?"
        return path + separator + encoded

    def _request(self, method: str, path: str, body: Dict[str, Any] = None) -> Response:
        connection = HTTPConnection(self._host, self._port, timeout=self._timeout)
        try:
            headers = {"Content-Type": "application/json"}
            if self._actor:
                headers["X-Gelee-Actor"] = self._actor
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            connection.request(method, path, body=payload, headers=headers)
            raw = connection.getresponse()
            data = raw.read().decode("utf-8")
            try:
                parsed = json.loads(data) if data else None
            except ValueError:
                # Non-JSON bodies (the /v2/metrics text exposition) come
                # through as the raw string.
                parsed = data
            return Response(raw.status, parsed, headers=dict(raw.getheaders()))
        finally:
            connection.close()
