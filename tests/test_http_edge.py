"""The HTTP edge: keep-alive latency and the transport's error boundary.

Every test here talks to a live :class:`GeleeHttpServer` over a real socket,
because the faults it guards against live in the transport: Nagle's
algorithm delaying the body of every keep-alive response, and malformed
requests that used to close the connection without a byte.
"""

import http.client
import json
import socket
import statistics
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.service import GeleeHttpServer, GeleeService, RestRouter


@pytest.fixture(scope="module")
def live():
    """One server for the module, with a published model and an instance."""
    service = GeleeService()
    router = RestRouter(service)
    published = router.post("/v2/templates/eu-deliverable:publish", actor="pm")
    model_uri = published.body["data"]["uri"]
    resource = service.environment.adapter("Google Doc").create_resource(
        "D1.1", owner="alice")
    created = router.post("/v2/instances", actor="alice", body={
        "model_uri": model_uri, "resource": resource.to_dict(), "owner": "alice"})
    instance_id = created.body["data"]["instance_id"]

    def boom(request, params):
        raise RuntimeError("secret internal detail")

    router.add_route("POST", "/v2/test/boom", boom)
    router.add_route("POST", "/test/boom", boom)
    with GeleeHttpServer(router) as server:
        yield server, model_uri, resource.to_dict(), instance_id


def raw_exchange(server, method, path, body=b"", headers=None):
    """Send one request over a fresh socket; return ``(status, headers, json)``.

    ``body`` goes out verbatim and ``headers`` may carry any Content-Length,
    so requests no well-behaved client would send can be written.  A
    connection closed without a response raises, failing the test.
    """
    lines = ["{} {} HTTP/1.1".format(method, path), "Host: localhost",
             "X-Gelee-Actor: alice"]
    headers = dict(headers or {})
    headers.setdefault("Content-Length", str(len(body)))
    lines.extend("{}: {}".format(name, value) for name, value in headers.items())
    payload = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(payload)
        response = http.client.HTTPResponse(sock, method=method)
        response.begin()
        data = response.read()
    return response.status, dict(response.getheaders()), json.loads(data)


def assert_v2_error(status, headers, body, expected_status, code):
    assert status == expected_status
    assert set(body) == {"data", "meta", "error"}
    assert body["data"] is None
    assert body["error"]["code"] == code
    assert body["error"]["status"] == expected_status
    assert body["meta"]["request_id"] == headers["X-Request-Id"]


class TestKeepAlive:
    def test_sequential_requests_on_one_connection_skip_the_nagle_delay(self, live):
        server = live[0]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
        connection.connect()
        connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        local = connection.sock.getsockname()
        round_trips = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/v2/models")
                response = connection.getresponse()
                response.read()
                round_trips.append(time.perf_counter() - started)
                assert response.status == 200
                # Still the same socket: the server kept the connection alive.
                assert connection.sock.getsockname() == local
        finally:
            connection.close()
        # With Nagle on, the body write waits for the client's delayed ACK
        # and every round trip takes ~40 ms.
        assert statistics.median(round_trips) * 1000.0 < 20.0


class TestTransportBadRequests:
    @pytest.mark.parametrize("declared", ["-5", "abc", "1e3"])
    def test_unusable_content_length_answers_400_and_closes(self, live, declared):
        status, headers, body = raw_exchange(
            live[0], "POST", "/v2/instances", b"{}",
            headers={"Content-Length": declared})
        assert_v2_error(status, headers, body, 400, "BAD_REQUEST")
        assert "Content-Length" in body["error"]["message"]
        # The stream cannot be re-framed after an unusable length.
        assert headers["Connection"] == "close"

    def test_unusable_content_length_on_v1_keeps_the_v1_shape(self, live):
        status, headers, body = raw_exchange(
            live[0], "POST", "/instances", b"{}", headers={"Content-Length": "-5"})
        assert status == 400
        assert set(body) == {"error"}
        assert headers["X-Request-Id"]

    # '"actor"' once crashed the actor lookup: ``"actor" in "actor"`` holds.
    @pytest.mark.parametrize("document", [b"[1, 2]", b'"actor"', b"7", b"true"])
    def test_body_that_is_not_an_object_answers_400(self, live, document):
        status, headers, body = raw_exchange(live[0], "POST", "/v2/instances", document)
        assert_v2_error(status, headers, body, 400, "BAD_REQUEST")
        assert body["error"]["message"] == "request body must be a JSON object"

    def test_invalid_json_gets_the_envelope_on_v2(self, live):
        status, headers, body = raw_exchange(live[0], "POST", "/v2/instances", b"{nope")
        assert_v2_error(status, headers, body, 400, "BAD_REQUEST")
        assert body["error"]["message"] == "request body is not valid JSON"
        assert "Connection" not in headers  # the body was read: keep-alive holds

    def test_invalid_json_keeps_the_v1_error_body(self, live):
        status, _headers, body = raw_exchange(live[0], "POST", "/instances", b"{nope")
        assert (status, body) == (400, {"error": "request body is not valid JSON"})

    def test_caller_request_id_is_carried_by_the_400(self, live):
        status, headers, body = raw_exchange(
            live[0], "POST", "/v2/instances", b"[1]",
            headers={"X-Request-Id": "req-caller-42"})
        assert_v2_error(status, headers, body, 400, "BAD_REQUEST")
        assert body["meta"]["request_id"] == "req-caller-42"
        # Routed through the pipeline, the 400 leaves an access-log line.
        _status, _headers, logs = raw_exchange(
            live[0], "GET", "/v2/runtime/logs?trace_id=req-caller-42")
        record = logs["data"]["records"][-1]
        assert (record["event"], record["status"]) == ("request.handled", 400)

    def test_model_document_missing_fields_answers_400(self, live):
        status, headers, body = raw_exchange(live[0], "POST", "/v2/models", b'{"x": 1}')
        assert_v2_error(status, headers, body, 400, "SERIALIZATION_FAILED")

    def test_resource_given_as_a_string_answers_400(self, live):
        server, model_uri = live[0], live[1]
        document = json.dumps({"model_uri": model_uri, "resource": "gdoc://D1.1",
                               "owner": "alice"}).encode("utf-8")
        status, headers, body = raw_exchange(server, "POST", "/v2/instances", document)
        assert_v2_error(status, headers, body, 400, "VALIDATION_FAILED")


class TestRefusedBeforeRouting:
    """Requests the stdlib would answer itself, with an HTML page, outside
    the router: an unrouted method, a malformed request line, a header
    block over its limits."""

    def test_put_on_a_known_path_answers_the_405_envelope(self, live):
        server = live[0]
        status, headers, body = raw_exchange(server, "PUT", "/v2/instances", b"{}",
                                             headers={"X-Request-Id": "req-put-1"})
        assert_v2_error(status, headers, body, 405, "METHOD_NOT_ALLOWED")
        assert headers["Allow"] == "GET, POST"
        # Routed through the pipeline, the request is traced.
        _status, _headers, trace = raw_exchange(
            server, "GET", "/v2/runtime/traces/req-put-1")
        root = trace["data"]["tree"][0]
        assert (root["name"], root["attrs"]["status"]) == ("gateway.request", 405)
        # ...logged under its request id...
        _status, _headers, logs = raw_exchange(
            server, "GET", "/v2/runtime/logs?trace_id=req-put-1")
        handled = [record for record in logs["data"]["records"]
                   if record["event"] == "request.handled"]
        assert [(r["method"], r["route"], r["status"]) for r in handled] == [
            ("PUT", "unmatched", 405)]
        # ...and counted under the fixed route label.
        metrics = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            metrics.request("GET", "/v2/metrics")
            exposition = metrics.getresponse().read().decode("utf-8")
        finally:
            metrics.close()
        assert any(line.startswith("gelee_api_requests_total{")
                   and 'route="unmatched"' in line and 'status="405"' in line
                   for line in exposition.splitlines())

    def test_delete_on_an_unknown_path_answers_the_404_envelope(self, live):
        status, headers, body = raw_exchange(live[0], "DELETE", "/v2/nowhere")
        assert_v2_error(status, headers, body, 404, "ROUTE_NOT_FOUND")

    def test_head_gets_the_status_without_a_body(self, live):
        server = live[0]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            connection.request("HEAD", "/v2/models")
            response = connection.getresponse()
            assert response.status == 405
            assert response.read() == b""
            # Nothing stray on the wire: the connection serves the next request.
            connection.request("GET", "/v2/models")
            assert connection.getresponse().status == 200
        finally:
            connection.close()

    def test_malformed_request_line_answers_a_json_400_and_closes(self, live):
        status, headers, body = raw_exchange(live[0], "GET", "/v2/models extra")
        assert_v2_error(status, headers, body, 400, "BAD_REQUEST")
        assert "Bad request syntax" in body["error"]["message"]
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"

    def test_parser_refusal_is_counted_and_logged(self, live):
        server = live[0]
        with socket.create_connection((server.host, server.port), timeout=5) as sock:
            sock.sendall(b"BOGUS\r\n\r\n")
            response = http.client.HTTPResponse(sock, method="GET")
            response.begin()
            body = json.loads(response.read())
            headers = dict(response.getheaders())
        assert_v2_error(response.status, headers, body, 400, "BAD_REQUEST")
        request_id = headers["X-Request-Id"]
        _status, _headers, logs = raw_exchange(
            server, "GET", "/v2/runtime/logs?trace_id={}".format(request_id))
        handled = [record for record in logs["data"]["records"]
                   if record["event"] == "request.handled"]
        assert [(r["route"], r["status"]) for r in handled] == [("unmatched", 400)]
        metrics = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            metrics.request("GET", "/v2/metrics")
            exposition = metrics.getresponse().read().decode("utf-8")
        finally:
            metrics.close()
        assert any(line.startswith("gelee_api_requests_total{")
                   and 'route="unmatched"' in line and 'status="400"' in line
                   for line in exposition.splitlines())

    def test_too_many_headers_answers_a_json_431_and_closes(self, live):
        headers = {"X-Filler-{}".format(index): "x" for index in range(101)}
        status, response_headers, body = raw_exchange(
            live[0], "GET", "/v2/models", headers=headers)
        assert_v2_error(status, response_headers, body, 431,
                        "REQUEST_HEADER_FIELDS_TOO_LARGE")
        assert response_headers["Connection"] == "close"


class TestUnexpectedFaults:
    def test_handler_fault_is_a_typed_500_counted_logged_and_traced(self, live):
        server = live[0]
        status, headers, body = raw_exchange(server, "POST", "/v2/test/boom", b"{}")
        assert_v2_error(status, headers, body, 500, "INTERNAL_ERROR")
        assert body["error"]["message"] == "internal error"  # no exception text
        request_id = headers["X-Request-Id"]

        metrics = http.client.HTTPConnection(server.host, server.port, timeout=5)
        try:
            metrics.request("GET", "/v2/metrics")
            exposition = metrics.getresponse().read().decode("utf-8")
        finally:
            metrics.close()
        assert any(line.startswith("gelee_api_requests_total{")
                   and 'route="POST /v2/test/boom"' in line and 'status="500"' in line
                   for line in exposition.splitlines())

        _status, _headers, logs = raw_exchange(
            server, "GET", "/v2/runtime/logs?trace_id={}".format(request_id))
        failed, handled = logs["data"]["records"][-2:]
        assert (handled["event"], handled["level"], handled["status"]) == (
            "request.handled", "warning", 500)
        # The traceback the response withholds is kept for the operator.
        assert (failed["event"], failed["level"]) == ("request.failed", "error")
        assert "secret internal detail" in failed["traceback"]

        _status, _headers, trace = raw_exchange(
            server, "GET", "/v2/runtime/traces/{}".format(request_id))
        root = trace["data"]["tree"][0]
        assert root["name"] == "gateway.request"
        assert (root["status"], root["error"]) == ("error", "RuntimeError")
        assert root["attrs"]["status"] == 500

    def test_handler_fault_on_v1_is_a_plain_500(self, live):
        status, headers, body = raw_exchange(live[0], "POST", "/test/boom", b"{}")
        assert (status, body) == (500, {"error": "internal error"})
        assert headers["X-Request-Id"]


# ------------------------------------------------------------------- fuzzing
def _routes(instance_id):
    return [
        "/v2/models", "/v2/resources", "/v2/instances",
        "/v2/instances:batchCreate", "/v2/instances:batchAdvance",
        "/v2/instances/{}:advance".format(instance_id),
        "/v2/instances/{}:move".format(instance_id),
        "/v2/instances/{}:annotate".format(instance_id),
        "/v2/templates/eu-deliverable:publish", "/v2/propagations",
        "/models", "/resources", "/instances",
        "/instances/{}/advance".format(instance_id),
        "/instances/{}/move".format(instance_id),
        "/templates/eu-deliverable/publish",
    ]


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                     st.text(max_size=12))
_values = st.recursive(_scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)
_fields = st.sampled_from(["model_uri", "resource", "owner", "items", "to_phase_id",
                           "phase_id", "text", "xml", "model", "name", "uri",
                           "resource_type", "metadata", "parameters", "instance_ids"])

#: (label, strategy of raw body bytes or None for "fill the route's fields").
_STRUCTURAL_SHAPES = {
    "array": st.lists(_values, max_size=3),
    "string": st.text(max_size=12),
    "number": st.one_of(st.integers(), st.floats(allow_nan=False)),
    "null": st.none(),
}


@st.composite
def requests(draw, routes):
    """A route plus a body of one shape; ``structural`` shapes must answer 400."""
    route = draw(st.sampled_from(routes))
    shape = draw(st.sampled_from(["object", "missing keys", "wrong types", "array",
                                  "string", "number", "null", "invalid JSON",
                                  "bad Content-Length"]))
    headers = {}
    if shape == "object":
        body = json.dumps(draw(st.dictionaries(_fields, _values, max_size=4)))
    elif shape == "missing keys":
        body = json.dumps(draw(st.dictionaries(st.text(max_size=8), _scalars, max_size=3)))
    elif shape == "wrong types":
        body = json.dumps(draw(st.fixed_dictionaries({
            "model_uri": st.one_of(st.integers(), st.lists(st.integers(), max_size=2)),
            "resource": st.one_of(st.text(max_size=8), st.integers(),
                                  st.lists(st.text(max_size=4), max_size=2)),
            "owner": st.one_of(st.none(), st.integers(), st.dictionaries(
                st.text(max_size=4), st.integers(), max_size=2)),
            "to_phase_id": st.one_of(st.integers(), st.lists(st.text(max_size=4),
                                                             max_size=2)),
        })))
    elif shape == "invalid JSON":
        body = draw(st.sampled_from(["{", "{nope", "[1,", "\"unterminated", "{'a': 1}",
                                     "[" * 5000]))
    elif shape == "bad Content-Length":
        body = json.dumps(draw(st.dictionaries(_fields, _scalars, max_size=2)))
        headers["Content-Length"] = draw(st.sampled_from(["-1", "-5", "abc", "", "0x10",
                                                          "1.5", "\u00b2"]))
    else:
        body = json.dumps(draw(_STRUCTURAL_SHAPES[shape]))
    return route, shape, body.encode("utf-8"), headers


class TestEnvelopeFuzz:
    def test_every_route_and_body_shape_gets_an_answer(self, live):
        server, instance_id = live[0], live[3]

        @given(requests(_routes(instance_id)))
        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(case):
            route, shape, body, headers = case
            status, response_headers, document = raw_exchange(
                server, "POST", route, body, headers=headers)
            if shape in ("array", "string", "number", "invalid JSON",
                         "bad Content-Length"):
                assert status == 400
            if route.startswith("/v2/"):
                assert set(document) == {"data", "meta", "error"}
                assert document["meta"]["request_id"] == response_headers["X-Request-Id"]
                assert (document["error"] is None) == (status < 400)
            elif status >= 400:
                assert isinstance(document, dict) and set(document) == {"error"}

        check()
