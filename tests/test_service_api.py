"""Tests for the GeleeService application facade (used by both REST and SOAP)."""

import pytest

from repro.errors import ServiceError
from repro.plugins import build_standard_environment
from repro.service import GeleeService
from repro.templates import eu_deliverable_lifecycle


@pytest.fixture
def service(clock):
    return GeleeService(environment=build_standard_environment(clock=clock), clock=clock)


class TestServiceSetup:
    def test_builtin_templates_loaded(self, service):
        template_ids = {entry["template_id"] for entry in service.list_templates()}
        assert {"eu-deliverable", "document-review", "software-release",
                "photo-story", "simple-publication"} <= template_ids

    def test_builtin_templates_can_be_disabled(self, clock):
        bare = GeleeService(environment=build_standard_environment(clock=clock),
                            clock=clock, with_builtin_templates=False)
        assert bare.list_templates() == []

    def test_resource_types(self, service):
        assert "Google Doc" in service.resource_types()

    def test_require_helper(self, service):
        assert service.require("x", "field") == "x"
        with pytest.raises(ServiceError):
            service.require("  ", "field")
        with pytest.raises(ServiceError):
            service.require(None, "field")


class TestServiceModelOperations:
    def test_publish_template_then_list_models(self, service):
        published = service.publish_template("eu-deliverable", actor="pm",
                                             name="Quality plan for D-series")
        models = service.list_models()
        assert any(entry["uri"] == published["uri"] for entry in models)
        entry = [m for m in models if m["uri"] == published["uri"]][0]
        assert entry["phases"] == 6
        assert "Google Doc" in entry["resource_types"]

    def test_publish_model_json_and_detail(self, service):
        model = eu_deliverable_lifecycle()
        model.uri = "urn:svc:json"
        service.publish_model_json(model.to_dict(), actor="pm")
        detail = service.model_detail("urn:svc:json")
        assert detail["name"] == model.name
        xml_detail = service.model_detail("urn:svc:json", as_xml=True)
        assert xml_detail["xml"].startswith("<process")

    def test_register_resource_persists_descriptor(self, service):
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "Doc", owner="alice")
        stored = service.register_resource(descriptor.to_dict())
        assert stored == descriptor.to_dict()
        assert stored["uri"] == descriptor.uri


class TestServiceInstanceOperations:
    def _instance(self, service):
        published = service.publish_template("eu-deliverable", actor="pm")
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "D1.1", owner="alice")
        summary = service.create_instance(published["uri"], descriptor.to_dict(),
                                          owner="alice")
        return published["uri"], summary["instance_id"]

    def test_full_instance_flow(self, service):
        model_uri, instance_id = self._instance(service)
        assert service.start_instance(instance_id, "alice")["current_phase_id"] == "elaboration"
        advanced = service.advance_instance(instance_id, "alice",
                                            to_phase_id="internalreview")
        assert advanced["current_phase_id"] == "internalreview"
        moved = service.move_instance(instance_id, "alice", "publication",
                                      annotation="fast-tracked")
        assert moved["deviations"] == 1
        note = service.annotate_instance(instance_id, "alice", "note text")
        assert note["text"] == "note text"
        detail = service.instance_detail(instance_id)
        assert detail["current_phase_id"] == "publication"
        history = service.instance_history(instance_id)
        assert any(entry["kind"] == "instance.phase_entered" for entry in history)
        listed = service.list_instances(model_uri=model_uri)
        assert len(listed) == 1

    def test_monitoring_views(self, service):
        self._instance(service)
        summary = service.monitoring_summary()
        assert summary["total"] == 1
        assert len(service.monitoring_table()) == 1
        assert isinstance(service.monitoring_alerts(), list)

    def test_widget_view(self, service):
        _, instance_id = self._instance(service)
        service.start_instance(instance_id, "alice")
        view = service.widget_view(instance_id, viewer="alice")
        assert view["current_phase"] == "elaboration"
        assert view["controls_enabled"] is True

    def test_action_callback(self, service):
        _, instance_id = self._instance(service)
        service.start_instance(instance_id, "alice")
        service.advance_instance(instance_id, "alice", to_phase_id="internalreview")
        detail = service.instance_detail(instance_id)
        visit = detail["visits"][-1]
        result = service.action_callback(instance_id, visit["phase_id"],
                                         visit["invocations"][0]["call_id"],
                                         status="in progress", detail="waiting")
        assert result["status"] == "in progress"

    def test_propagation_via_service(self, service):
        from repro.serialization import lifecycle_to_xml

        model_uri, instance_id = self._instance(service)
        service.start_instance(instance_id, "alice")
        revised = service.manager.model(model_uri).new_version(created_by="pm")
        proposals = service.propose_change_xml(lifecycle_to_xml(revised), actor="pm")
        assert len(proposals) == 1
        outcome = service.decide_change(proposals[0]["proposal_id"], "alice", accept=True)
        assert outcome["to_version"] == "1.1"
