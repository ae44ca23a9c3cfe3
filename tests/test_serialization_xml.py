"""Tests for the Table I (lifecycle) and Table II (action type) XML codecs."""

import pytest

from repro.actions.definitions import ActionType
from repro.errors import SerializationError
from repro.model import LifecycleBuilder
from repro.model.parameters import BindingTime, ParameterDefinition
from repro.serialization import (
    action_type_from_xml,
    action_type_to_xml,
    lifecycle_from_xml,
    lifecycle_to_xml,
)
from repro.templates import eu_deliverable_lifecycle

#: A document following the paper's Table I example structure.
PAPER_TABLE_I = """
<process uri="http://www.liquidpub.org/lifecycles/deliverable">
  <name>EU Project deliverable lifecycle</name>
  <version_info>
    <version_number>1.0</version_number>
    <created_by>lpAdmin</created_by>
    <creation_date>08/07/2008</creation_date>
  </version_info>
  <resource>
    <resource_type>MediaWiki page</resource_type>
  </resource>
  <phases_list>
    <phase id="elaboration">
      <name>Elaboration</name>
    </phase>
    <phase id="internalreview">
      <name>Internal review</name>
      <action_call>
        <action>
          <name>Change access rights</name>
          <uri>http://www.liquidpub.org/a/chr</uri>
          <parameters>
            <param id="visibility">team</param>
          </parameters>
        </action>
      </action_call>
    </phase>
    <phase id="finalassembly">
      <name>Final assembly</name>
    </phase>
  </phases_list>
  <transition_list>
    <transition><from>BEGIN</from><to>elaboration</to></transition>
    <transition><from>elaboration</from><to>internalreview</to></transition>
    <transition><from>internalreview</from><to>finalassembly</to></transition>
  </transition_list>
</process>
"""

#: A document following the paper's Table II example structure.
PAPER_TABLE_II = """
<action_type uri="http://www.liquidpub.org/a/chr">
  <name>Change Access Rights</name>
  <version_info>
    <version_number>1.0</version_number>
    <created_by>lpAdmin</created_by>
    <creation_date>08/07/2008</creation_date>
  </version_info>
  <parameters>
    <param bindingTime="inst" required="yes">
      <name>visibility</name>
      <value></value>
    </param>
    <param bindingTime="any" required="no">
      <name>editors</name>
      <value></value>
    </param>
  </parameters>
</action_type>
"""


class TestLifecycleXmlParsing:
    def test_parses_paper_example(self):
        model = lifecycle_from_xml(PAPER_TABLE_I)
        assert model.name == "EU Project deliverable lifecycle"
        assert model.uri == "http://www.liquidpub.org/lifecycles/deliverable"
        assert model.version.created_by == "lpAdmin"
        assert model.version.creation_date.isoformat() == "2008-07-08"
        assert model.suggested_resource_types == ["MediaWiki page"]
        assert model.phase_ids == ["elaboration", "internalreview", "finalassembly"]
        call = model.phase("internalreview").actions[0]
        assert call.action_uri == "http://www.liquidpub.org/a/chr"
        assert call.parameters == {"visibility": "team"}
        assert model.is_modeled_move(None, "elaboration")

    def test_rejects_malformed_xml(self):
        with pytest.raises(SerializationError):
            lifecycle_from_xml("<process><name>X</name>")

    @pytest.mark.parametrize("document", [1.5, {"name": "X"}, None])
    def test_rejects_a_document_that_is_not_text(self, document):
        with pytest.raises(SerializationError):
            lifecycle_from_xml(document)

    def test_rejects_wrong_root(self):
        with pytest.raises(SerializationError):
            lifecycle_from_xml("<workflow/>")

    def test_rejects_missing_name(self):
        with pytest.raises(SerializationError):
            lifecycle_from_xml("<process uri='u'><phases_list/></process>")

    def test_rejects_phase_without_id(self):
        document = "<process><name>X</name><phases_list><phase><name>A</name></phase></phases_list></process>"
        with pytest.raises(SerializationError):
            lifecycle_from_xml(document)

    def test_rejects_action_without_uri(self):
        document = (
            "<process><name>X</name><phases_list><phase id='a'>"
            "<action_call><action><name>N</name></action></action_call>"
            "</phase></phases_list></process>"
        )
        with pytest.raises(SerializationError):
            lifecycle_from_xml(document)

    def test_rejects_transition_without_endpoints(self):
        document = (
            "<process><name>X</name><phases_list><phase id='a'/></phases_list>"
            "<transition_list><transition><from>a</from></transition></transition_list>"
            "</process>"
        )
        with pytest.raises(SerializationError):
            lifecycle_from_xml(document)


class TestLifecycleXmlRoundTrip:
    def test_fig1_round_trip_preserves_structure(self):
        model = eu_deliverable_lifecycle()
        restored = lifecycle_from_xml(lifecycle_to_xml(model))
        assert restored.name == model.name
        assert restored.phase_ids == model.phase_ids
        assert len(restored.transitions) == len(model.transitions)
        assert restored.version.version_number == model.version.version_number
        assert restored.suggested_resource_types == model.suggested_resource_types
        for phase in model.phases:
            restored_phase = restored.phase(phase.phase_id)
            assert [c.action_uri for c in restored_phase.actions] == \
                [c.action_uri for c in phase.actions]
            assert restored_phase.terminal == phase.terminal

    def test_round_trip_is_stable(self):
        model = eu_deliverable_lifecycle()
        first = lifecycle_to_xml(lifecycle_from_xml(lifecycle_to_xml(model)))
        second = lifecycle_to_xml(lifecycle_from_xml(first))
        assert first == second

    def test_deadline_round_trip(self):
        model = (
            LifecycleBuilder("X").phase("A", deadline_days=5).terminal("B")
            .flow("A", "B").build()
        )
        restored = lifecycle_from_xml(lifecycle_to_xml(model))
        assert restored.phase("a").deadline.days == 5

    def test_terminal_flag_round_trip(self):
        model = LifecycleBuilder("X").phase("A").terminal("B").flow("A", "B").build()
        restored = lifecycle_from_xml(lifecycle_to_xml(model))
        assert restored.phase("b").terminal


class TestActionTypeXml:
    def test_parses_paper_example(self):
        action_type = action_type_from_xml(PAPER_TABLE_II)
        assert action_type.uri == "http://www.liquidpub.org/a/chr"
        assert action_type.name == "Change Access Rights"
        visibility = action_type.parameter("visibility")
        assert visibility.required
        assert visibility.binding_time is BindingTime.INSTANTIATION
        editors = action_type.parameter("editors")
        assert not editors.required
        assert editors.binding_time is BindingTime.ANY

    def test_template_placeholder_binding_treated_as_any(self):
        document = PAPER_TABLE_II.replace('bindingTime="inst"', 'bindingTime="[def|inst|call|any]"')
        action_type = action_type_from_xml(document)
        assert action_type.parameter("visibility").binding_time is BindingTime.ANY

    def test_round_trip(self):
        action_type = ActionType(
            uri="urn:gelee:test",
            name="Test Action",
            category="testing",
            description="does things",
            parameters=[
                ParameterDefinition("who", BindingTime.INSTANTIATION, required=True),
                ParameterDefinition("note", BindingTime.ANY, default="hello"),
            ],
        )
        restored = action_type_from_xml(action_type_to_xml(action_type))
        assert restored.uri == action_type.uri
        assert restored.category == "testing"
        assert restored.parameter("who").required
        assert restored.parameter("note").default == "hello"

    def test_rejects_wrong_root(self):
        with pytest.raises(SerializationError):
            action_type_from_xml("<action/>")

    def test_rejects_missing_uri(self):
        with pytest.raises(SerializationError):
            action_type_from_xml("<action_type><name>X</name></action_type>")

    def test_rejects_param_without_name(self):
        document = (
            "<action_type uri='u'><name>X</name><parameters>"
            "<param bindingTime='any' required='no'><value/></param>"
            "</parameters></action_type>"
        )
        with pytest.raises(SerializationError):
            action_type_from_xml(document)
