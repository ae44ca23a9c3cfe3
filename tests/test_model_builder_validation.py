"""Unit tests for the lifecycle builder and model validation."""

import pytest

from repro.errors import ModelError, ValidationError
from repro.model import LifecycleBuilder, Phase
from repro.model.validation import lifecycle_problems, validate_lifecycle
from repro.model.versioning import VersionInfo


class TestBuilder:
    def test_flow_builds_chain(self):
        model = (
            LifecycleBuilder("Review")
            .phase("Draft")
            .phase("Review")
            .terminal("Done")
            .flow("Draft", "Review", "Done")
            .build()
        )
        assert model.phase_ids == ["draft", "review", "done"]
        assert [p.phase_id for p in model.initial_phases()] == ["draft"]
        assert [p.phase_id for p in model.successors("draft")] == ["review"]

    def test_action_by_phase_name(self):
        model = (
            LifecycleBuilder("X")
            .phase("Review")
            .terminal("Done")
            .action("Review", "urn:notify", "Notify", reviewers=["a"])
            .flow("Review", "Done")
            .build()
        )
        call = model.phase("review").actions[0]
        assert call.action_uri == "urn:notify"
        assert call.parameters == {"reviewers": ["a"]}

    def test_unknown_phase_in_action_raises(self):
        builder = LifecycleBuilder("X").phase("A")
        with pytest.raises(ModelError):
            builder.action("Missing", "urn:a")

    def test_deadline_helper(self):
        model = (
            LifecycleBuilder("X").phase("A").terminal("B").flow("A", "B")
            .deadline("A", days=5).build()
        )
        assert model.phase("a").deadline.days == 5

    def test_auto_chain(self):
        model = (
            LifecycleBuilder("X").auto_chain()
            .phase("One").phase("Two").terminal("End")
            .build()
        )
        assert model.is_modeled_move(None, "one")
        assert model.is_modeled_move("one", "two")
        assert model.is_modeled_move("two", "end")

    def test_loop_adds_back_edge(self):
        model = (
            LifecycleBuilder("X").phase("A").phase("B").terminal("C")
            .flow("A", "B", "C").loop("B", "A").build()
        )
        assert model.is_modeled_move("b", "a")

    def test_flow_needs_two_phases(self):
        with pytest.raises(ModelError):
            LifecycleBuilder("X").phase("A").flow("A")

    def test_for_resource_types_deduplicates(self):
        model = (
            LifecycleBuilder("X").for_resource_types("Google Doc", "Google Doc")
            .phase("A").terminal("B").flow("A", "B").build()
        )
        assert model.suggested_resource_types == ["Google Doc"]

    def test_metadata_and_describe(self):
        model = (
            LifecycleBuilder("X").describe("docs").metadata(project="LiquidPub")
            .phase("A").terminal("B").flow("A", "B").build()
        )
        assert model.description == "docs"
        assert model.metadata["project"] == "LiquidPub"

    def test_build_validates(self):
        builder = LifecycleBuilder("X")
        with pytest.raises(ValidationError):
            builder.build()

    def test_peek_skips_validation(self):
        assert len(LifecycleBuilder("X").peek()) == 0

    def test_terminal_shortcut(self):
        model = LifecycleBuilder("X").phase("A").terminal("End").flow("A", "End").build()
        assert model.phase("end").terminal


class TestValidation:
    def test_empty_model_is_error(self):
        report = lifecycle_problems(LifecycleBuilder("X").peek())
        assert not report.ok

    def test_missing_name_is_error(self):
        builder = LifecycleBuilder(" ")
        builder.phase("A")
        report = lifecycle_problems(builder.peek())
        assert any("name" in problem for problem in report.errors)

    def test_name_that_is_not_text_is_error(self):
        builder = LifecycleBuilder("X")
        builder.phase("A")
        model = builder.peek()
        model.name = 1
        report = lifecycle_problems(model)
        assert any("name" in problem for problem in report.errors)

    def test_no_begin_is_warning_only(self):
        builder = LifecycleBuilder("X").phase("A").terminal("B")
        builder.transition("A", "B")
        report = lifecycle_problems(builder.peek())
        assert report.ok
        assert any("BEGIN" in warning for warning in report.warnings)

    def test_no_terminal_is_warning(self):
        builder = LifecycleBuilder("X").phase("A").phase("B")
        builder.flow("A", "B")
        report = lifecycle_problems(builder.peek())
        assert report.ok
        assert any("end phase" in warning for warning in report.warnings)

    def test_unreachable_phase_is_warning(self):
        builder = LifecycleBuilder("X").phase("A").phase("Orphan").terminal("B")
        builder.flow("A", "B")
        report = lifecycle_problems(builder.peek())
        assert any("not reachable" in warning for warning in report.warnings)

    def test_self_loop_is_warning(self):
        builder = LifecycleBuilder("X").phase("A").terminal("B")
        builder.flow("A", "B")
        builder.transition("A", "A")
        report = lifecycle_problems(builder.peek())
        assert any("self-transition" in warning for warning in report.warnings)

    def test_blank_action_uri_is_error(self):
        builder = LifecycleBuilder("X").phase("A").terminal("B")
        builder.flow("A", "B")
        builder.peek().phase("a").actions.append(
            __import__("repro.model.actions", fromlist=["ActionCall"]).ActionCall("  ", "bad")
        )
        report = lifecycle_problems(builder.peek())
        assert not report.ok

    def test_validate_lifecycle_raises_with_all_problems(self):
        builder = LifecycleBuilder("")
        with pytest.raises(ValidationError) as excinfo:
            validate_lifecycle(builder.peek())
        assert excinfo.value.problems

    def test_terminal_with_outgoing_is_warning(self):
        builder = LifecycleBuilder("X").phase("A").terminal("B")
        builder.flow("A", "B")
        builder.transition("B", "A")
        report = lifecycle_problems(builder.peek())
        assert any("outgoing" in warning for warning in report.warnings)


class TestVersionInfo:
    def test_bump_minor(self):
        assert VersionInfo("1.0").bump().version_number == "1.1"
        assert VersionInfo("2.9").bump().version_number == "2.10"

    def test_bump_weird_version_appends(self):
        assert VersionInfo("beta").bump().version_number == "beta.1"

    def test_parse_paper_date(self):
        info = VersionInfo.parse_paper_date("1.0", "lpAdmin", "08/07/2008")
        assert info.creation_date.isoformat() == "2008-07-08"

    def test_dict_round_trip(self):
        info = VersionInfo.parse_paper_date("1.0", "lpAdmin", "08/07/2008")
        restored = VersionInfo.from_dict(info.to_dict())
        assert restored == info
