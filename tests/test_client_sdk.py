"""Tests for the Python client SDK (in-process and over HTTP)."""

import pytest

from repro.client import GeleeApiError, GeleeClient, OperationHandle, Page
from repro.service import GeleeHttpServer, GeleeService, RestRouter
from repro.service.v2 import AdvanceItem, BatchResult, CreateInstanceItem


@pytest.fixture
def service(clock):
    from repro.plugins import build_standard_environment

    return GeleeService(environment=build_standard_environment(clock=clock), clock=clock)


@pytest.fixture
def router(service):
    return RestRouter(service)


@pytest.fixture
def client(router):
    return GeleeClient.in_process(router=router, actor="alice")


@pytest.fixture
def model_uri(client):
    return GeleeClient.in_process(
        router=client.transport.router, actor="pm").publish_template("eu-deliverable")["uri"]


def _resource(service, title="D1.1", owner="alice"):
    return service.environment.adapter("Google Doc").create_resource(
        title, owner=owner).to_dict()


class TestInProcessClient:
    def test_create_start_advance_history(self, client, service, model_uri):
        summary = client.create_instance(model_uri, _resource(service), owner="alice")
        instance_id = summary["instance_id"]
        assert client.start(instance_id)["current_phase_id"] == "elaboration"
        advanced = client.advance(instance_id, to_phase_id="internalreview",
                                  annotation="ready for review")
        assert advanced["current_phase_id"] == "internalreview"
        history = client.history(instance_id, page_size=3)
        assert isinstance(history, Page)
        assert history.total > 3
        kinds = {entry["kind"] for entry in history}
        assert "instance.created" in kinds

    def test_errors_raise_typed_exception(self, client):
        with pytest.raises(GeleeApiError) as excinfo:
            client.instance("inst-missing")
        assert excinfo.value.code == "INSTANCE_NOT_FOUND"
        assert excinfo.value.status == 404
        assert excinfo.value.request_id.startswith("req-")

    def test_iter_instances_drains_every_page(self, client, service, model_uri):
        created = {client.create_instance(model_uri, _resource(service, "D{}".format(i)),
                                          owner="alice")["instance_id"]
                   for i in range(7)}
        seen = [summary["instance_id"]
                for summary in client.iter_instances(owner="alice", page_size=2)]
        assert len(seen) == 7
        assert set(seen) == created

    def test_batch_round_trip_with_dtos(self, client, service, model_uri):
        items = [CreateInstanceItem(model_uri=model_uri,
                                    resource=_resource(service, "D{}".format(i)),
                                    owner="alice")
                 for i in range(3)]
        result = client.batch_create(items)
        assert isinstance(result, BatchResult)
        assert result.succeeded == 3 and result.failed == 0
        ids = [item.instance_id for item in result.results]
        advanced = client.batch_advance(
            [AdvanceItem(instance_id=instance_id) for instance_id in ids])
        assert advanced.succeeded == 3

    def test_async_batch_with_operation_polling(self, client, service, model_uri):
        ids = [client.create_instance(model_uri, _resource(service, "D{}".format(i)),
                                      owner="alice")["instance_id"] for i in range(3)]
        handle = client.batch_advance(ids, wait=False)
        assert isinstance(handle, OperationHandle)
        finished = client.wait_operation(handle.operation_id, timeout=10)
        assert finished.status == "succeeded"
        assert finished.result["succeeded"] == 3

    def test_monitoring_and_stats(self, client, service, model_uri):
        client.create_instance(model_uri, _resource(service), owner="alice")
        assert client.monitoring_summary()["total"] == 1
        table = client.monitoring_table(page_size=10)
        assert len(table) == 1
        stats = client.runtime_stats()
        assert stats["instances"] == 1
        assert stats["telemetry"]["api_requests"] >= 1
        assert "Google Doc" in client.resource_types()

    def test_propagation_flow(self, client, service, model_uri):
        from repro.serialization import lifecycle_to_xml

        instance_id = client.create_instance(model_uri, _resource(service),
                                             owner="alice")["instance_id"]
        client.start(instance_id)
        revised = service.manager.model(model_uri).new_version(created_by="pm")
        pm = GeleeClient.in_process(router=client.transport.router, actor="pm")
        proposals = pm.propose_change(lifecycle_to_xml(revised),
                                      instance_ids=[instance_id])
        assert len(proposals) == 1
        decision = client.decide_change(proposals[0]["proposal_id"], accept=True)
        assert decision["to_version"] == "1.1"

    def test_widget_and_annotate(self, client, service, model_uri):
        instance_id = client.create_instance(model_uri, _resource(service),
                                             owner="alice")["instance_id"]
        client.start(instance_id)
        note = client.annotate(instance_id, "looks good", kind="note")
        assert note["text"] == "looks good"
        widget = client.widget(instance_id, viewer="alice")
        assert widget["current_phase"] == "elaboration"


class TestHttpClient:
    def test_same_behaviour_over_http(self, router, service, model_uri):
        with GeleeHttpServer(router) as server:
            client = GeleeClient.connect(server.host, server.port, actor="alice")
            summary = client.create_instance(model_uri, _resource(service), owner="alice")
            instance_id = summary["instance_id"]
            client.start(instance_id)
            page = client.list_instances(owner="alice", page_size=10)
            assert page.total == 1
            assert page.items[0]["current_phase_id"] == "elaboration"
            result = client.batch_advance(
                [{"instance_id": instance_id, "to_phase_id": "internalreview"}])
            assert result.succeeded == 1
            with pytest.raises(GeleeApiError) as excinfo:
                client.instance("inst-missing")
            assert excinfo.value.code == "INSTANCE_NOT_FOUND"

    def test_pagination_tokens_survive_urls(self, router, service, model_uri):
        with GeleeHttpServer(router) as server:
            client = GeleeClient.connect(server.host, server.port, actor="alice")
            for index in range(5):
                client.create_instance(model_uri,
                                       _resource(service, "D{}".format(index)),
                                       owner="alice")
            seen = list(client.iter_instances(owner="alice", page_size=2))
            assert len(seen) == 5

    def test_async_operation_over_http(self, router, service, model_uri):
        with GeleeHttpServer(router) as server:
            client = GeleeClient.connect(server.host, server.port, actor="alice")
            ids = [client.create_instance(model_uri,
                                          _resource(service, "D{}".format(index)),
                                          owner="alice")["instance_id"]
                   for index in range(2)]
            handle = client.batch_advance(ids, wait=False)
            finished = client.wait_operation(handle.operation_id, timeout=10)
            assert finished.status == "succeeded"
            assert finished.result["succeeded"] == 2
