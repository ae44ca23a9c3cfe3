"""Tests for the v2 API gateway: envelopes, error model, pagination, bulk ops."""

import pytest

import repro.errors as errors_module
from repro.errors import GeleeError, ServiceError
from repro.service import GeleeService, RestRouter, parse_bool, parse_str_list
from repro.service.v2 import (
    ERROR_CATALOG,
    Envelope,
    ErrorInfo,
    OperationStore,
    classify_error,
    decode_cursor,
    encode_cursor,
    error_info_for,
)
from repro.telemetry import get_registry


@pytest.fixture
def service(clock):
    from repro.plugins import build_standard_environment

    return GeleeService(environment=build_standard_environment(clock=clock), clock=clock)


@pytest.fixture
def router(service):
    return RestRouter(service)


@pytest.fixture
def model_uri(router):
    response = router.post("/v2/templates/eu-deliverable:publish", actor="pm")
    assert response.status == 201
    return response.body["data"]["uri"]


def _create(router, service, model_uri, owner="alice", title="D1.1"):
    descriptor = service.environment.adapter("Google Doc").create_resource(title, owner=owner)
    response = router.post("/v2/instances", actor=owner, body={
        "model_uri": model_uri, "resource": descriptor.to_dict(), "owner": owner})
    assert response.status == 201, response.body
    return response.body["data"]["instance_id"]


def _all_gelee_errors():
    """Every concrete GeleeError subclass defined in repro.errors."""
    found = set()
    stack = [GeleeError]
    while stack:
        cls = stack.pop()
        found.add(cls)
        stack.extend(cls.__subclasses__())
    # Restrict to the library's own hierarchy (tests may define others).
    return sorted((cls for cls in found
                   if cls.__module__ == errors_module.__name__),
                  key=lambda cls: cls.__name__)


class TestErrorModel:
    def test_every_error_class_has_status_and_code(self):
        catalogued = {cls for cls, _, _ in ERROR_CATALOG}
        for cls in _all_gelee_errors():
            try:
                exc = cls("boom")
            except TypeError:
                exc = cls(["boom"])
            status, code = classify_error(exc)
            assert 400 <= status < 600, cls.__name__
            assert code and code.upper() == code, cls.__name__
            # Every class is reachable through the catalog, not the fallback.
            assert any(isinstance(exc, catalogued_cls) for catalogued_cls in catalogued)

    def test_error_codes_are_distinct(self):
        codes = [code for _, _, code in ERROR_CATALOG]
        assert len(codes) == len(set(codes))

    def test_error_info_round_trip(self):
        info = error_info_for(errors_module.ValidationError(["p1", "p2"]))
        assert info.status == 400
        assert info.code == "VALIDATION_FAILED"
        assert info.details["problems"] == ["p1", "p2"]
        assert ErrorInfo.from_dict(info.to_dict()) == info

    def test_envelope_round_trip(self):
        envelope = Envelope.success({"x": 1}, request_id="req-1",
                                    pagination={"page_size": 5})
        parsed = Envelope.from_dict(envelope.to_dict())
        assert parsed.ok and parsed.data == {"x": 1}
        assert parsed.meta.request_id == "req-1"
        failed = Envelope.from_dict(Envelope.failure(
            ErrorInfo("BAD_REQUEST", "nope", 400), request_id="req-2").to_dict())
        assert not failed.ok
        assert failed.error.code == "BAD_REQUEST"

    @pytest.mark.parametrize("path,expected_status,expected_code", [
        ("/v2/instances/inst-missing", 404, "INSTANCE_NOT_FOUND"),
        ("/v2/models/detail?uri=urn:missing", None, None),  # handled below
    ])
    def test_wire_error_round_trip(self, router, path, expected_status, expected_code):
        if expected_status is None:
            response = router.get("/v2/models/detail", uri="urn:missing")
            assert response.status == 404
            assert response.body["error"]["code"] == "MODEL_NOT_FOUND"
            return
        response = router.get(path)
        assert response.status == expected_status
        assert response.body["error"]["code"] == expected_code
        assert response.body["data"] is None
        assert response.body["meta"]["request_id"].startswith("req-")

    def test_validation_problems_surface_in_details(self, router):
        response = router.post("/v2/models", actor="pm", body={"model": {"name": ""}})
        assert response.status == 400
        assert response.body["error"]["code"] in ("VALIDATION_FAILED", "SERIALIZATION_FAILED")


class TestEnvelopeAndMiddleware:
    def test_success_envelope_shape(self, router, model_uri):
        response = router.get("/v2/models")
        assert response.status == 200
        assert set(response.body) == {"data", "meta", "error"}
        assert response.body["error"] is None
        assert response.headers["X-Gelee-Api-Version"] == "v2"
        assert response.headers["X-Request-Id"] == response.body["meta"]["request_id"]

    def test_request_ids_are_unique(self, router):
        first = router.get("/v2/models").body["meta"]["request_id"]
        second = router.get("/v2/models").body["meta"]["request_id"]
        assert first != second

    def test_timing_stats_feed_runtime_stats(self, router, model_uri):
        registry = get_registry()
        counter = registry.get("gelee_api_requests_total")
        latency = registry.get("gelee_api_request_seconds")

        def observed():
            return sum(cell["count"] for cell in latency.snapshot()["series"]
                       if cell["labels"]["route"] == "GET /v2/models")

        before = counter.value(route="GET /v2/models", status="200")
        observed_before = observed()
        router.get("/v2/models")
        router.get("/v2/models")
        assert counter.value(route="GET /v2/models", status="200") == before + 2
        assert observed() == observed_before + 2
        stats = router.get("/v2/runtime/stats").body["data"]
        assert stats["telemetry"]["api_requests"] >= 2

    def test_405_for_known_path_wrong_method(self, router):
        response = router.post("/v2/models/detail")
        assert response.status == 405
        assert response.body["error"]["code"] == "METHOD_NOT_ALLOWED"
        assert response.headers["Allow"] == "GET"

    def test_404_for_unknown_path(self, router):
        response = router.get("/v2/nope")
        assert response.status == 404
        assert response.body["error"]["code"] == "ROUTE_NOT_FOUND"

    def test_actor_from_query_reaches_handlers(self, router, service, model_uri):
        from repro.service import Request

        instance_id = _create(router, service, model_uri)
        response = router.handle(Request(
            "POST", "/v2/instances/{}:start".format(instance_id),
            query={"actor": "alice"}))
        assert response.status == 200, response.body


class TestPagination:
    def _populate(self, router, service, model_uri, count, owner="alice"):
        return [_create(router, service, model_uri, owner=owner,
                        title="D{}".format(index)) for index in range(count)]

    def test_page_walk_is_exhaustive_and_disjoint(self, router, service, model_uri):
        ids = set(self._populate(router, service, model_uri, 7))
        seen = []
        token = None
        while True:
            query = {"page_size": 3}
            if token:
                query["page_token"] = token
            page = router.get("/v2/instances", **query)
            assert page.status == 200
            seen.extend(item["instance_id"] for item in page.body["data"])
            pagination = page.body["meta"]["pagination"]
            assert pagination["total"] == 7
            token = pagination["next_page_token"]
            if token is None:
                break
        assert len(seen) == len(set(seen)) == 7
        assert set(seen) == ids

    def test_empty_collection_page(self, router, model_uri):
        page = router.get("/v2/instances", page_size=10)
        assert page.body["data"] == []
        assert page.body["meta"]["pagination"]["next_page_token"] is None
        assert page.body["meta"]["pagination"]["total"] == 0

    def test_past_end_cursor_yields_empty_page(self, router, service, model_uri):
        self._populate(router, service, model_uri, 3)
        token = encode_cursor({"k": "zzzz", "t": "zzzz"})
        page = router.get("/v2/instances", page_token=token)
        assert page.status == 200
        assert page.body["data"] == []
        assert page.body["meta"]["pagination"]["next_page_token"] is None

    def test_malformed_cursor_is_400(self, router, model_uri):
        assert router.get("/v2/instances", page_token="!!not-base64!!").status == 400
        truncated = encode_cursor({"unexpected": 1})
        assert router.get("/v2/instances", page_token=truncated).status == 400

    def test_bad_sort_field_is_400(self, router):
        response = router.get("/v2/instances", sort="nonsense")
        assert response.status == 400
        assert response.body["error"]["code"] == "BAD_REQUEST"

    def test_models_sort_by_version_number(self, router, service, model_uri):
        from repro.templates import eu_deliverable_lifecycle

        # Versions 1.2 vs 1.10: a repr-based or naive string sort gets the
        # order wrong within a model list built from distinct URIs.
        from dataclasses import replace

        for uri, version in (("urn:gelee:m-a", "2.0"), ("urn:gelee:m-b", "10.0")):
            model = eu_deliverable_lifecycle()
            model.uri = uri
            model.version = replace(model.version, version_number=version)
            response = router.post("/models", actor="pm", body={"model": model.to_dict()})
            assert response.ok, response.body
        page = router.get("/v2/models", sort="version")
        assert page.status == 200
        versions = [entry["version"] for entry in page.body["data"]]
        assert versions == sorted(versions)
        # The sort key is the version number, not a dataclass repr.
        assert versions[0] == "1.0"

    def test_type_confused_cursor_is_400(self, router, service, model_uri):
        self._populate(router, service, model_uri, 2)
        forged = encode_cursor({"k": 5, "t": "x"})
        response = router.get("/v2/instances", page_token=forged)
        assert response.status == 400
        assert response.body["error"]["code"] == "BAD_REQUEST"

    def test_sort_descending(self, router, service, model_uri):
        self._populate(router, service, model_uri, 4)
        ascending = [item["instance_id"] for item
                     in router.get("/v2/instances", sort="instance_id").body["data"]]
        descending = [item["instance_id"] for item
                      in router.get("/v2/instances", sort="-instance_id").body["data"]]
        assert descending == list(reversed(ascending))

    def test_stable_ordering_under_concurrent_inserts(self, router, service, model_uri):
        before = set(self._populate(router, service, model_uri, 6))
        first = router.get("/v2/instances", page_size=3)
        first_ids = [item["instance_id"] for item in first.body["data"]]
        token = first.body["meta"]["pagination"]["next_page_token"]
        # New instances land mid-collection while a client is paging.
        inserted = set(self._populate(router, service, model_uri, 4, owner="bob"))
        seen = list(first_ids)
        while token is not None:
            page = router.get("/v2/instances", page_size=3, page_token=token)
            seen.extend(item["instance_id"] for item in page.body["data"])
            token = page.body["meta"]["pagination"]["next_page_token"]
        # No duplicates, and every pre-existing instance is seen exactly once:
        # keyset cursors never re-serve or skip items around an insert.
        assert len(seen) == len(set(seen))
        assert before <= set(seen)
        assert set(seen) <= before | inserted

    def test_filtered_page_served_from_index(self, router, service, model_uri):
        self._populate(router, service, model_uri, 3, owner="alice")
        self._populate(router, service, model_uri, 2, owner="bob")
        page = router.get("/v2/instances", owner="bob")
        assert page.body["meta"]["pagination"]["total"] == 2
        assert all(item["owner"] == "bob" for item in page.body["data"])
        assert router.get("/v2/instances", status="nonsense").status == 400

    def test_history_pagination(self, router, service, model_uri):
        instance_id = _create(router, service, model_uri)
        router.post("/v2/instances/{}:start".format(instance_id), actor="alice")
        router.post("/v2/instances/{}:advance".format(instance_id), actor="alice",
                    body={"to_phase_id": "internalreview"})
        collected = []
        token = None
        total = None
        while True:
            query = {"page_size": 2}
            if token:
                query["page_token"] = token
            page = router.get("/v2/instances/{}/history".format(instance_id), **query)
            assert page.status == 200
            collected.extend(page.body["data"])
            pagination = page.body["meta"]["pagination"]
            total = pagination["total"]
            token = pagination["next_page_token"]
            if token is None:
                break
        assert len(collected) == total > 2
        sequences = [entry["sequence"] for entry in collected]
        assert sequences == sorted(sequences)
        # Past-the-end cursor: empty final page, not an error.
        done = router.get("/v2/instances/{}/history".format(instance_id),
                          page_token=encode_cursor({"seq": 10_000}))
        assert done.status == 200 and done.body["data"] == []
        assert router.get("/v2/instances/inst-missing/history").status == 404

    def test_monitoring_table_pagination(self, router, service, model_uri):
        self._populate(router, service, model_uri, 5)
        page = router.get("/v2/monitoring/table", page_size=2)
        assert page.status == 200
        assert len(page.body["data"]) == 2
        assert page.body["meta"]["pagination"]["total"] == 5
        assert {"instance_id", "owner", "phase_name"} <= set(page.body["data"][0])


class TestBulkOperations:
    def test_batch_create_reports_partial_failure(self, router, service, model_uri):
        good = service.environment.adapter("Google Doc").create_resource(
            "D1", owner="alice").to_dict()
        response = router.post("/v2/instances:batchCreate", actor="alice", body={
            "items": [
                {"model_uri": model_uri, "resource": good, "owner": "alice"},
                {"model_uri": "urn:missing", "resource": good, "owner": "alice"},
            ]})
        assert response.status == 200
        data = response.body["data"]
        assert data["total"] == 2 and data["succeeded"] == 1 and data["failed"] == 1
        assert data["results"][0]["ok"] is True
        assert data["results"][0]["instance_id"].startswith("inst-")
        assert data["results"][1]["ok"] is False
        assert data["results"][1]["error"]["code"] == "MODEL_NOT_FOUND"

    def test_batch_create_validates_items_upfront(self, router):
        response = router.post("/v2/instances:batchCreate", actor="alice",
                               body={"items": [{"owner": "alice"}]})
        assert response.status == 400
        assert "items[0]" in response.body["error"]["message"]
        assert router.post("/v2/instances:batchCreate", actor="a",
                           body={}).status == 400
        assert router.post("/v2/instances:batchCreate", actor="a",
                           body={"items": []}).status == 400

    def test_batch_advance_partial_failure(self, router, service, model_uri):
        ids = [_create(router, service, model_uri, title="D{}".format(i))
               for i in range(3)]
        response = router.post("/v2/instances:batchAdvance", actor="alice", body={
            "items": ids + ["inst-missing"]})
        data = response.body["data"]
        assert data["succeeded"] == 3 and data["failed"] == 1
        failed = data["results"][-1]
        assert failed["instance_id"] == "inst-missing"
        assert failed["error"]["code"] == "INSTANCE_NOT_FOUND"
        # The successful items really moved.
        for result in data["results"][:3]:
            assert result["data"]["current_phase_id"] == "elaboration"

    def test_batch_advance_requires_actor(self, router, service, model_uri):
        instance_id = _create(router, service, model_uri)
        response = router.post("/v2/instances:batchAdvance", body={"items": [instance_id]})
        assert response.status == 400

    def test_batch_advance_per_item_phases(self, router, service, model_uri):
        instance_id = _create(router, service, model_uri)
        router.post("/v2/instances/{}:start".format(instance_id), actor="alice")
        response = router.post("/v2/instances:batchAdvance", actor="alice", body={
            "items": [{"instance_id": instance_id, "to_phase_id": "internalreview",
                       "annotation": "bulk move"}]})
        assert response.body["data"]["succeeded"] == 1
        detail = router.get("/v2/instances/{}".format(instance_id)).body["data"]
        assert detail["current_phase_id"] == "internalreview"


class TestAsyncOperations:
    def test_async_batch_returns_202_and_completes(self, router, service, model_uri):
        ids = [_create(router, service, model_uri, title="D{}".format(i))
               for i in range(3)]
        accepted = router.post("/v2/instances:batchAdvance", actor="alice",
                               body={"items": ids, "async": True})
        assert accepted.status == 202
        operation_id = accepted.body["data"]["operation_id"]
        operation = service.operations.wait(operation_id, timeout=10)
        view = router.get("/v2/operations/{}".format(operation_id)).body["data"]
        assert view["status"] == "succeeded"
        assert view["result"]["succeeded"] == 3
        assert operation.finished_at is not None

    def test_operation_listing_paginated(self, router, service, model_uri):
        instance_id = _create(router, service, model_uri)
        for _ in range(2):
            accepted = router.post("/v2/instances:batchAdvance", actor="alice",
                                   body={"items": [instance_id], "async": True})
            service.operations.wait(accepted.body["data"]["operation_id"], timeout=10)
        page = router.get("/v2/operations", page_size=1)
        assert page.status == 200
        assert len(page.body["data"]) == 1
        assert page.body["meta"]["pagination"]["total"] == 2

    def test_unknown_operation_is_404(self, router):
        response = router.get("/v2/operations/op-missing")
        assert response.status == 404
        assert response.body["error"]["code"] == "OPERATION_NOT_FOUND"

    def test_failed_work_is_reported_on_the_handle(self, clock):
        store = OperationStore(clock=clock)

        def explode():
            raise ServiceError("boom")

        operation = store.submit("test.explode", explode)
        store.wait(operation.operation_id, timeout=10)
        assert operation.status.value == "failed"
        assert operation.error.code == "BAD_REQUEST"
        assert operation.to_dict()["error"]["message"] == "boom"


class TestParamParsing:
    def test_parse_bool(self):
        assert parse_bool(True) is True
        assert parse_bool(None, default=True) is True
        for text in ("true", "True", "1", "yes", "on"):
            assert parse_bool(text) is True
        for text in ("false", "0", "no", "off", ""):
            assert parse_bool(text) is False
        with pytest.raises(ServiceError):
            parse_bool("maybe", "accept")
        with pytest.raises(ServiceError):
            parse_bool(3, "accept")

    def test_parse_str_list(self):
        assert parse_str_list(None) is None
        assert parse_str_list("a,b , c") == ["a", "b", "c"]
        assert parse_str_list(["a", "b"]) == ["a", "b"]
        for malformed in ("", "a,,b", ",", ["a", 3], [""], 42, {"a": 1}):
            with pytest.raises(ServiceError):
                parse_str_list(malformed, "instance_ids")

    def test_cursor_round_trip(self):
        token = encode_cursor({"k": "v", "t": "id-1"})
        assert decode_cursor(token) == {"k": "v", "t": "id-1"}
        with pytest.raises(ServiceError):
            decode_cursor("garbage!!")


class TestV1Satellites:
    """The v1 dialect fixes that ride along with the v2 gateway."""

    @pytest.fixture
    def published(self, router):
        response = router.post("/templates/eu-deliverable/publish", actor="pm")
        assert response.status == 201
        return response.body["uri"]

    def _v1_create(self, router, service, model_uri, title="D1.1"):
        descriptor = service.environment.adapter("Google Doc").create_resource(
            title, owner="alice")
        response = router.post("/instances", actor="alice", body={
            "model_uri": model_uri, "resource": descriptor.to_dict(), "owner": "alice"})
        assert response.status == 201
        return response.body["instance_id"]

    def test_creation_statuses_are_201(self, router, service, published):
        self._v1_create(router, service, published)
        from repro.templates import eu_deliverable_lifecycle
        model = eu_deliverable_lifecycle()
        model.uri = "urn:gelee:another"
        assert router.post("/models", actor="pm",
                           body={"model": model.to_dict()}).status == 201

    def test_callback_accept_is_202(self, router, service, published):
        instance_id = self._v1_create(router, service, published)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        router.post("/instances/{}/advance".format(instance_id), actor="alice",
                    body={"to_phase_id": "internalreview"})
        detail = router.get("/instances/{}".format(instance_id)).body
        visit = detail["visits"][-1]
        response = router.post(
            "/callbacks/{}/{}/{}".format(instance_id, visit["phase_id"],
                                         visit["invocations"][0]["call_id"]),
            body={"status": "in progress"})
        assert response.status == 202

    def test_v1_gets_are_still_200_with_unchanged_bodies(self, router, published):
        response = router.get("/models")
        assert response.status == 200
        assert isinstance(response.body, list)  # raw body, no envelope
        assert any(entry["uri"] == published for entry in response.body)

    def test_v1_deprecation_headers(self, router):
        response = router.get("/templates")
        assert response.headers["Deprecation"] == "true"
        assert response.headers["X-Gelee-Api-Version"] == "v1"
        assert "successor-version" in response.headers["Link"]

    def test_accept_false_string_rejects_change(self, router, service, published):
        from repro.serialization import lifecycle_to_xml

        instance_id = self._v1_create(router, service, published)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        revised = service.manager.model(published).new_version(created_by="pm")
        proposals = router.post("/propagations", actor="pm",
                                body={"xml": lifecycle_to_xml(revised)})
        assert proposals.status == 201
        proposal_id = proposals.body[0]["proposal_id"]
        # The v0 bug: bool("false") was True, silently accepting the change.
        decision = router.post("/propagations/{}/decision".format(proposal_id),
                               actor="alice", **{"accept": "false"})
        assert decision.ok
        assert decision.body["decision"] == "rejected"

    def test_accept_garbage_is_400(self, router, service, published):
        from repro.serialization import lifecycle_to_xml

        instance_id = self._v1_create(router, service, published)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        revised = service.manager.model(published).new_version(created_by="pm")
        proposals = router.post("/propagations", actor="pm",
                                body={"xml": lifecycle_to_xml(revised)})
        proposal_id = proposals.body[0]["proposal_id"]
        decision = router.post("/propagations/{}/decision".format(proposal_id),
                               actor="alice", **{"accept": "maybe"})
        assert decision.status == 400

    def test_propagation_instance_ids_query_string(self, router, service, published):
        from repro.serialization import lifecycle_to_xml

        first = self._v1_create(router, service, published, title="D1")
        second = self._v1_create(router, service, published, title="D2")
        router.post("/instances/{}/start".format(first), actor="alice")
        router.post("/instances/{}/start".format(second), actor="alice")
        revised = service.manager.model(published).new_version(created_by="pm")
        response = router.post(
            "/propagations", actor="pm",
            body={"xml": lifecycle_to_xml(revised)},
            **{"instance_ids": "{},{}".format(first, second)})
        assert response.status == 201
        assert {proposal["instance_id"] for proposal in response.body} == {first, second}

    def test_propagation_malformed_instance_ids_is_400(self, router, service, published):
        from repro.serialization import lifecycle_to_xml

        revised = service.manager.model(published).new_version(created_by="pm")
        response = router.post("/propagations", actor="pm",
                               body={"xml": lifecycle_to_xml(revised),
                                     "instance_ids": "a,,b"})
        assert response.status == 400
        response = router.post("/propagations", actor="pm",
                               body={"xml": lifecycle_to_xml(revised),
                                     "instance_ids": [1, 2]})
        assert response.status == 400

    def test_405_known_path_wrong_method(self, router):
        response = router.get("/propagations")
        assert response.status == 405
        assert "POST" in response.headers["Allow"]
        # Unknown paths are still 404.
        assert router.get("/nope").status == 404
        assert router.post("/instances/x/unknown", actor="a").status == 404


class TestShardedBulk:
    def test_bulk_fans_out_across_shards(self, clock):
        """Bulk create + advance over REST, each one drain of the kernel."""
        router = RestRouter()
        service = router.service
        model_uri = router.post("/v2/templates/eu-deliverable:publish",
                                actor="pm").body["data"]["uri"]
        adapter = service.environment.adapter("Google Doc")
        items = [{"model_uri": model_uri,
                  "resource": adapter.create_resource("D{}".format(i),
                                                      owner="alice").to_dict(),
                  "owner": "alice"} for i in range(20)]
        created = router.post("/v2/instances:batchCreate", actor="alice",
                              body={"items": items})
        assert created.body["data"]["succeeded"] == 20
        ids = [result["instance_id"] for result in created.body["data"]["results"]]
        assert service.manager.instance_count() == 20
        advanced = router.post("/v2/instances:batchAdvance", actor="alice",
                               body={"items": ids})
        assert advanced.body["data"]["succeeded"] == 20
        stats = router.get("/v2/runtime/stats").body["data"]
        assert stats["instances"] == 20
