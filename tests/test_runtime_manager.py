"""Tests for the lifecycle manager (design-time and runtime modules)."""

import pytest

from repro.actions import library
from repro.actions.invocation import ActionStatus
from repro.errors import (
    InstanceNotFoundError,
    LifecycleNotFoundError,
    ModelError,
    RuntimeStateError,
    ValidationError,
)
from repro.events import EventRecorder
from repro.model import ActionCall, LifecycleBuilder, Phase
from repro.storage import ExecutionLog
from repro.templates import document_review_lifecycle


class TestDesignTime:
    def test_publish_and_fetch_model(self, manager, eu_model):
        assert manager.model(eu_model.uri).name == eu_model.name
        assert manager.model_versions(eu_model.uri) == ["1.0"]
        assert eu_model in manager.models() or any(
            m.uri == eu_model.uri for m in manager.models())

    def test_publish_invalid_model_rejected(self, manager):
        with pytest.raises(ValidationError):
            manager.publish_model(LifecycleBuilder("Empty").peek(), actor="pm")

    def test_publish_same_version_twice_rejected(self, manager, eu_model):
        with pytest.raises(ValidationError):
            manager.publish_model(eu_model.copy(), actor="pm")

    def test_publish_new_version(self, manager, eu_model):
        manager.publish_model(eu_model.new_version(created_by="pm"), actor="pm")
        assert manager.model_versions(eu_model.uri) == ["1.0", "1.1"]
        assert manager.model(eu_model.uri).version.version_number == "1.1"
        assert manager.model(eu_model.uri, version="1.0").version.version_number == "1.0"

    def test_unknown_model_raises(self, manager):
        with pytest.raises(LifecycleNotFoundError):
            manager.model("urn:nothing")
        with pytest.raises(LifecycleNotFoundError):
            manager.model("urn:nothing", version="1.0")

    def test_applicable_resource_types_for_fig1(self, manager, eu_model):
        applicable = manager.applicable_resource_types(eu_model.uri)
        # Every document platform implements the Fig. 1 actions.
        assert {"Google Doc", "MediaWiki page", "Zoho document"} <= set(applicable)

    def test_applicable_resource_types_excludes_types_missing_actions(self, manager):
        from repro.templates import software_release_lifecycle

        model = software_release_lifecycle()
        manager.publish_model(model, actor="pm")
        applicable = manager.applicable_resource_types(model.uri)
        assert "SVN file" in applicable
        # Photo albums have no "create snapshot" implementation, so the
        # release lifecycle does not apply to them.
        assert "Photo album" not in applicable


class TestInstantiation:
    def test_instances_share_the_frozen_published_version(self, manager, eu_model,
                                                           eu_instance):
        # One object per published version, shared by the instance.
        published = manager.model(eu_model.uri)
        assert eu_instance.model is published is eu_model
        assert published.frozen
        assert eu_instance.status.value == "created"
        phases_before = [phase.to_dict() for phase in eu_instance.model.phases]
        transitions_before = eu_instance.model.transitions

        # The published version cannot be edited, not even through the
        # reference the caller published.
        phase = eu_model.phase("elaboration")
        mutations = [
            lambda: eu_model.add_phase(Phase("extra")),
            lambda: published.remove_phase("eureview"),
            lambda: eu_model.rename_phase("elaboration", "Drafting"),
            lambda: eu_model.add_transition("elaboration", "closed"),
            lambda: eu_model.remove_transition("elaboration", "internalreview"),
            lambda: phase.add_action(ActionCall("urn:gelee:notify")),
            lambda: setattr(eu_model, "name", "Renamed"),
            lambda: setattr(eu_model, "version", eu_model.version.bump()),
            lambda: setattr(phase, "name", "Drafting"),
            lambda: setattr(phase, "deadline", None),
        ]
        for mutate in mutations:
            with pytest.raises(ModelError):
                mutate()
        assert [phase.to_dict() for phase in eu_model.phases] == phases_before

        # Republishing adds version 1.1; the live instance stays on 1.0.
        successor = eu_model.new_version(created_by="pm")
        assert not successor.frozen
        successor.rename_phase("elaboration", "Drafting")
        successor.add_phase(Phase("extra"))
        successor.add_transition("elaboration", "extra")
        successor.add_transition("extra", "internalreview")
        manager.publish_model(successor, actor="pm")
        assert eu_instance.model is manager.model(eu_model.uri, version="1.0")
        assert eu_instance.model_version == "1.0"
        assert [phase.to_dict() for phase in eu_instance.model.phases] == phases_before
        assert eu_instance.model.transitions == transitions_before

        # An owner's model change gives the instance its own, editable copy.
        manager.change_instance_model(eu_instance.instance_id, "alice", successor)
        assert eu_instance.model_version == "1.1"
        assert eu_instance.model.phase("elaboration").name == "Drafting"
        catalog = [manager.model(eu_model.uri, version=version)
                   for version in manager.model_versions(eu_model.uri)]
        assert all(eu_instance.model is not version for version in catalog)
        assert not eu_instance.model.frozen

    def test_instantiate_requires_existing_resource(self, manager, eu_model):
        from repro.resources import ResourceDescriptor

        ghost = ResourceDescriptor(uri="https://docs.google.example/document/ghost",
                                   resource_type="Google Doc")
        with pytest.raises(Exception):
            manager.instantiate(eu_model.uri, ghost, owner="alice")

    def test_unknown_instance_raises(self, manager):
        with pytest.raises(InstanceNotFoundError):
            manager.instance("inst-missing")

    def test_several_instances_on_same_uri(self, manager, eu_model, google_doc):
        first = manager.instantiate(eu_model.uri, google_doc, owner="alice")
        second = manager.instantiate(eu_model.uri, google_doc, owner="bob")
        attached = manager.instances_for_resource(google_doc.uri)
        assert {first.instance_id, second.instance_id} == {i.instance_id for i in attached}

    def test_instance_filters(self, manager, eu_model, google_doc, wiki_page):
        manager.instantiate(eu_model.uri, google_doc, owner="alice")
        manager.instantiate(eu_model.uri, wiki_page, owner="bob")
        assert len(manager.instances(owner="alice")) == 1
        assert len(manager.instances(model_uri=eu_model.uri)) == 2


class TestProgression:
    def test_start_enters_initial_phase(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        assert eu_instance.current_phase_id == "elaboration"
        assert eu_instance.is_active

    def test_start_twice_rejected(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        with pytest.raises(RuntimeStateError):
            manager.start(eu_instance.instance_id, actor="alice")

    def test_advance_follows_single_successor(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice")
        assert eu_instance.current_phase_id == "internalreview"
        assert eu_instance.visits[-1].followed_model

    def test_advance_with_multiple_successors_needs_choice(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="internalreview")
        # internalreview suggests both finalassembly and the rework loop to elaboration
        with pytest.raises(RuntimeStateError):
            manager.advance(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="finalassembly")
        assert eu_instance.current_phase_id == "finalassembly"

    def test_advance_on_unstarted_instance_starts_it(self, manager, eu_instance):
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="elaboration")
        assert eu_instance.current_phase_id == "elaboration"

    def test_move_to_any_phase_is_deviation(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.move_to(eu_instance.instance_id, actor="alice", phase_id="publication",
                        annotation="fast-tracked")
        assert eu_instance.current_phase_id == "publication"
        assert len(eu_instance.deviations()) == 1
        assert eu_instance.annotations[-1].kind == "deviation"

    def test_skip_to_records_reason(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.skip_to(eu_instance.instance_id, "alice", "finalassembly",
                        reason="review skipped, deadline close")
        assert eu_instance.annotations[-1].text == "review skipped, deadline close"

    def test_completion_on_terminal_phase(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        for phase in ("internalreview", "finalassembly", "eureview", "publication", "closed"):
            manager.advance(eu_instance.instance_id, actor="alice", to_phase_id=phase)
        assert eu_instance.is_completed

    def test_move_out_of_terminal_reopens(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.move_to(eu_instance.instance_id, actor="alice", phase_id="closed")
        assert eu_instance.is_completed
        manager.move_to(eu_instance.instance_id, actor="alice", phase_id="elaboration",
                        annotation="work continues as a journal paper")
        assert eu_instance.is_active

    def test_annotate_without_move(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        annotation = manager.annotate(eu_instance.instance_id, "alice", "waiting on partner")
        assert annotation.phase_id == "elaboration"


class TestActionExecution:
    def test_entering_internal_review_runs_actions(self, manager, eu_instance, environment):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="internalreview")
        invocations = eu_instance.visits[-1].invocations
        assert {inv.action_name for inv in invocations} == \
            {"Change access rights", "Notify reviewers"}
        assert all(inv.status is ActionStatus.COMPLETED for inv in invocations)
        # Side effect on the managed application: reviewers were notified.
        app = environment.adapter("Google Doc").application
        assert app.notifications(eu_instance.resource.uri)

    def test_empty_phase_runs_no_actions(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        assert eu_instance.visits[-1].invocations == []

    def test_missing_required_parameter_records_failure(self, manager, eu_model, google_doc):
        # No reviewers bound at instantiation: the notify action fails, the
        # move still happens (actions are not guaranteed to succeed).
        instance = manager.instantiate(eu_model.uri, google_doc, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        manager.advance(instance.instance_id, actor="alice", to_phase_id="internalreview")
        assert instance.current_phase_id == "internalreview"
        failed = instance.failed_invocations()
        assert len(failed) == 1
        assert "reviewers" in failed[0].error

    def test_call_time_parameters_override(self, manager, eu_model, google_doc):
        instance = manager.instantiate(eu_model.uri, google_doc, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        notify_calls = [call for phase_id, call in instance.model.action_calls()
                        if phase_id == "internalreview" and "notify" in call.action_uri]
        manager.advance(instance.instance_id, actor="alice", to_phase_id="internalreview",
                        call_parameters={notify_calls[0].call_id: {"reviewers": ["dave"]}})
        assert not instance.failed_invocations()

    def test_full_run_publishes_on_website(self, manager, eu_instance, environment):
        manager.start(eu_instance.instance_id, actor="alice")
        for phase in ("internalreview", "finalassembly", "eureview", "publication", "closed"):
            manager.advance(eu_instance.instance_id, actor="alice", to_phase_id=phase)
        assert environment.website.is_published(eu_instance.resource.uri)
        doc = environment.adapter("Google Doc").application.artifact(eu_instance.resource.uri)
        assert doc.access.visibility == "public"
        assert doc.exports  # Generate PDF ran during Final Assembly

    def test_callback_updates_invocation(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="internalreview")
        invocation = eu_instance.visits[-1].invocations[0]
        message = manager.handle_callback(invocation.callback_uri, "late update",
                                          detail="reviewer replaced")
        assert message.detail == "reviewer replaced"
        assert invocation.messages[-1].status == "late update"

    def test_callback_for_unknown_invocation_raises(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        with pytest.raises(RuntimeStateError):
            manager.handle_callback("urn:gelee:runtime/callbacks/{}/elaboration/call-x".format(
                eu_instance.instance_id), "completed")


class TestEventsAndLog:
    def test_events_published_for_progression(self, manager, eu_instance):
        recorder = EventRecorder(manager.bus)
        manager.start(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="internalreview")
        kinds = recorder.kinds()
        assert "instance.phase_entered" in kinds
        assert "instance.phase_left" in kinds
        assert "action.dispatched" in kinds
        assert "action.completed" in kinds

    def test_execution_log_records_history(self, manager, eu_instance):
        log = ExecutionLog(bus=manager.bus)
        manager.start(eu_instance.instance_id, actor="alice")
        manager.advance(eu_instance.instance_id, actor="alice", to_phase_id="internalreview")
        history = log.history_of(eu_instance.instance_id)
        assert history
        assert history[0].kind == "instance.phase_entered"

    def test_completed_event(self, manager, eu_instance):
        recorder = EventRecorder(manager.bus, pattern="instance.completed")
        manager.start(eu_instance.instance_id, actor="alice")
        manager.move_to(eu_instance.instance_id, actor="alice", phase_id="closed")
        assert len(recorder.events) == 1


class TestOwnerModelChange:
    def test_owner_changes_instance_model(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        replacement = document_review_lifecycle()
        manager.change_instance_model(eu_instance.instance_id, "alice", replacement)
        assert eu_instance.model.name == "Document review"
        assert eu_instance.current_phase_id == "draft"  # fell back to initial phase

    def test_change_keeps_phase_when_it_exists(self, manager, eu_instance):
        manager.start(eu_instance.instance_id, actor="alice")
        variant = eu_instance.model.copy()
        variant.name = "Custom deliverable plan"
        variant.version = variant.version.bump()
        manager.change_instance_model(eu_instance.instance_id, "alice", variant)
        assert eu_instance.current_phase_id == "elaboration"
        assert eu_instance.model.name == "Custom deliverable plan"
