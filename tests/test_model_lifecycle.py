"""Unit tests for the LifecycleModel graph operations."""

import pytest

from repro.errors import DuplicatePhaseError, ModelError, UnknownPhaseError
from repro.model import ActionCall, LifecycleModel, Phase, BEGIN, END


def build_simple_model():
    model = LifecycleModel(name="Doc lifecycle")
    model.add_phase(Phase(phase_id="draft", name="Draft"))
    model.add_phase(Phase(phase_id="review", name="Review",
                          actions=[ActionCall("urn:notify", "Notify")]))
    model.add_phase(Phase(phase_id="done", name="Done", terminal=True))
    model.add_transition(BEGIN, "draft")
    model.add_transition("draft", "review")
    model.add_transition("review", "done")
    return model


class TestPhaseManagement:
    def test_add_and_get_phase(self):
        model = build_simple_model()
        assert model.phase("draft").name == "Draft"
        assert len(model) == 3
        assert "draft" in model

    def test_duplicate_phase_rejected(self):
        model = build_simple_model()
        with pytest.raises(DuplicatePhaseError):
            model.add_phase(Phase(phase_id="draft"))

    def test_unknown_phase_raises(self):
        with pytest.raises(UnknownPhaseError):
            build_simple_model().phase("missing")

    def test_unhashable_phase_id_is_an_unknown_phase(self):
        # A JSON body can carry a list or object where a phase id belongs.
        with pytest.raises(UnknownPhaseError):
            build_simple_model().phase({"draft": 1})

    def test_remove_phase_drops_transitions(self):
        model = build_simple_model()
        model.remove_phase("review")
        assert not model.has_phase("review")
        assert all("review" not in (t.source, t.target) for t in model.transitions)

    def test_rename_phase(self):
        model = build_simple_model()
        model.rename_phase("draft", "Drafting")
        assert model.phase("draft").name == "Drafting"

    def test_terminal_phases(self):
        model = build_simple_model()
        assert [p.phase_id for p in model.terminal_phases()] == ["done"]


class TestTransitions:
    def test_add_transition_validates_endpoints(self):
        model = build_simple_model()
        with pytest.raises(UnknownPhaseError):
            model.add_transition("draft", "missing")
        with pytest.raises(UnknownPhaseError):
            model.add_transition("missing", "draft")

    def test_begin_to_end_rejected(self):
        model = build_simple_model()
        with pytest.raises(ModelError):
            model.add_transition(BEGIN, END)

    def test_duplicate_transition_not_added_twice(self):
        model = build_simple_model()
        before = len(model.transitions)
        model.add_transition("draft", "review")
        assert len(model.transitions) == before

    def test_remove_transition(self):
        model = build_simple_model()
        model.remove_transition("draft", "review")
        assert model.successors("draft") == []

    def test_initial_phases_from_begin(self):
        model = build_simple_model()
        assert [p.phase_id for p in model.initial_phases()] == ["draft"]

    def test_initial_phase_fallback_without_begin(self):
        model = LifecycleModel(name="x")
        model.add_phase(Phase(phase_id="only"))
        assert [p.phase_id for p in model.initial_phases()] == ["only"]

    def test_successors_and_predecessors(self):
        model = build_simple_model()
        assert [p.phase_id for p in model.successors("draft")] == ["review"]
        assert [p.phase_id for p in model.predecessors("review")] == ["draft"]

    def test_is_modeled_move(self):
        model = build_simple_model()
        assert model.is_modeled_move("draft", "review")
        assert not model.is_modeled_move("draft", "done")
        assert model.is_modeled_move(None, "draft")
        assert not model.is_modeled_move(None, "review")


class TestQueries:
    def test_action_calls_and_uris(self):
        model = build_simple_model()
        pairs = model.action_calls()
        assert len(pairs) == 1
        assert pairs[0][0] == "review"
        assert model.referenced_action_uris() == {"urn:notify"}

    def test_reachable_phases(self):
        model = build_simple_model()
        model.add_phase(Phase(phase_id="orphan"))
        reachable = model.reachable_phases()
        assert "orphan" not in reachable
        assert {"draft", "review", "done"} <= reachable

    def test_element_count(self):
        model = build_simple_model()
        # 3 phases + 3 transitions + 1 action call
        assert model.element_count() == 7


class TestCopyAndVersioning:
    def test_copy_is_independent(self):
        model = build_simple_model()
        duplicate = model.copy()
        duplicate.phase("draft").name = "Changed"
        duplicate.add_phase(Phase(phase_id="extra"))
        assert model.phase("draft").name == "Draft"
        assert not model.has_phase("extra")
        assert duplicate.uri == model.uri

    def test_copy_with_new_uri(self):
        model = build_simple_model()
        assert model.copy(new_uri=True).uri != model.uri

    def test_new_version_bumps(self):
        model = build_simple_model()
        revised = model.new_version(created_by="pm")
        assert revised.version.version_number == "1.1"
        assert revised.version.created_by == "pm"
        assert model.version.version_number == "1.0"

    def test_frozen_model_copies_are_unfrozen_and_equal(self):
        model = build_simple_model()
        assert model.freeze() is model
        assert model.frozen and all(phase.frozen for phase in model.phases)
        for duplicate in (model.copy(), model.new_version(), model.copy(new_uri=True)):
            assert not duplicate.frozen
            assert not any(phase.frozen for phase in duplicate.phases)
            duplicate.phase("draft").name = "Changed"
            duplicate.add_transition("draft", "done")
        assert model.copy() == model
        assert model.phase("draft").name == "Draft"
        with pytest.raises(ModelError):
            model.phase("review").add_action(ActionCall("urn:notify", "Notify"))
        with pytest.raises(ModelError):
            model.description = "changed"

    def test_dict_round_trip(self):
        model = build_simple_model()
        restored = LifecycleModel.from_dict(model.to_dict())
        assert restored.name == model.name
        assert restored.phase_ids == model.phase_ids
        assert len(restored.transitions) == len(model.transitions)
        assert restored.phase("review").actions[0].action_uri == "urn:notify"
