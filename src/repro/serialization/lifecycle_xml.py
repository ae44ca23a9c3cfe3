"""XML codec for lifecycle definitions, following the paper's Table I.

The element structure mirrors the example in the paper::

    <process uri="...">
      <name>EU Project deliverable lifecycle</name>
      <version_info>...</version_info>
      <resource><resource_type>MediaWiki page</resource_type></resource>
      <phases_list>
        <phase id="internalreview">
          <name>Internal review</name>
          <action_call>
            <action>
              <name>Change access rights</name>
              <uri>http://www.liquidpub.org/a/chr</uri>
              <parameters><param id="paramID">value</param></parameters>
            </action>
          </action_call>
        </phase>
      </phases_list>
      <transition_list>
        <transition><from>BEGIN</from><to>elaboration</to></transition>
      </transition_list>
    </process>

Extensions the paper does not spell out (terminal flags, deadlines,
descriptions) are encoded as optional elements so that round-tripping a model
through XML loses nothing; a document containing only the paper's elements
still parses.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Optional

from ..errors import SerializationError
from ..model import Deadline, LifecycleModel, Phase, Transition, VersionInfo
from ..model.actions import ActionCall


def lifecycle_to_xml(model: LifecycleModel, pretty: bool = True) -> str:
    """Serialize ``model`` to the Table I XML dialect."""
    process = ET.Element("process", {"uri": model.uri})
    ET.SubElement(process, "name").text = model.name
    if model.description:
        ET.SubElement(process, "description").text = model.description

    version = ET.SubElement(process, "version_info")
    ET.SubElement(version, "version_number").text = model.version.version_number
    ET.SubElement(version, "created_by").text = model.version.created_by
    created = model.version.creation_date
    ET.SubElement(version, "creation_date").text = (
        "{:02d}/{:02d}/{:04d}".format(created.day, created.month, created.year) if created else ""
    )

    resource = ET.SubElement(process, "resource")
    for resource_type in model.suggested_resource_types:
        ET.SubElement(resource, "resource_type").text = resource_type

    phases_list = ET.SubElement(process, "phases_list")
    for phase in model.phases:
        phase_el = ET.SubElement(phases_list, "phase", {"id": phase.phase_id})
        if phase.terminal:
            phase_el.set("terminal", "yes")
        ET.SubElement(phase_el, "name").text = phase.name
        if phase.description:
            ET.SubElement(phase_el, "description").text = phase.description
        if phase.deadline is not None:
            deadline_el = ET.SubElement(phase_el, "deadline")
            if phase.deadline.is_relative:
                deadline_el.set("days", str(phase.deadline.days))
            else:
                deadline_el.set("due", phase.deadline.due.isoformat())
            if phase.deadline.escalation != "notify":
                deadline_el.set("escalation", phase.deadline.escalation)
            if phase.deadline.timeout_to:
                deadline_el.set("timeout_to", phase.deadline.timeout_to)
            if phase.deadline.escalate_call_id:
                deadline_el.set("escalate_call", phase.deadline.escalate_call_id)
            if phase.deadline.description:
                deadline_el.text = phase.deadline.description
        for call in phase.actions:
            call_el = ET.SubElement(phase_el, "action_call")
            action_el = ET.SubElement(call_el, "action")
            ET.SubElement(action_el, "name").text = call.name
            ET.SubElement(action_el, "uri").text = call.action_uri
            params_el = ET.SubElement(action_el, "parameters")
            for param_name in sorted(call.parameters):
                param_el = ET.SubElement(params_el, "param", {"id": param_name})
                param_el.text = _render_value(call.parameters[param_name])

    transition_list = ET.SubElement(process, "transition_list")
    for transition in model.transitions:
        transition_el = ET.SubElement(transition_list, "transition")
        ET.SubElement(transition_el, "from").text = transition.source
        ET.SubElement(transition_el, "to").text = transition.target
        if transition.label:
            ET.SubElement(transition_el, "label").text = transition.label

    if pretty:
        _indent(process)
    return ET.tostring(process, encoding="unicode")


def lifecycle_from_xml(document: str) -> LifecycleModel:
    """Parse a Table I XML document back into a :class:`LifecycleModel`."""
    if not isinstance(document, (str, bytes)):
        raise SerializationError("lifecycle XML must be a string")
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise SerializationError("lifecycle XML is not well formed: {}".format(exc)) from exc
    if root.tag != "process":
        raise SerializationError("expected a <process> root element, got <{}>".format(root.tag))

    name = _text(root, "name")
    if not name:
        raise SerializationError("the lifecycle definition has no <name>")

    model = LifecycleModel(name=name, description=_text(root, "description"))
    uri = root.get("uri", "").strip()
    if uri:
        model.uri = uri

    version_el = root.find("version_info")
    if version_el is not None:
        model.version = VersionInfo.parse_paper_date(
            version_number=_text(version_el, "version_number") or "1.0",
            created_by=_text(version_el, "created_by"),
            paper_date=_text(version_el, "creation_date"),
        )

    resource_el = root.find("resource")
    if resource_el is not None:
        for type_el in resource_el.findall("resource_type"):
            if type_el.text and type_el.text.strip():
                model.suggested_resource_types.append(type_el.text.strip())

    phases_list = root.find("phases_list")
    if phases_list is not None:
        for phase_el in phases_list.findall("phase"):
            model.add_phase(_parse_phase(phase_el))

    transition_list = root.find("transition_list")
    if transition_list is not None:
        for transition_el in transition_list.findall("transition"):
            source = _text(transition_el, "from")
            target = _text(transition_el, "to")
            if not source or not target:
                raise SerializationError("a <transition> needs both <from> and <to>")
            label = _text(transition_el, "label")
            model._transitions.append(Transition(source=source, target=target, label=label))

    return model


# ---------------------------------------------------------------------- private

def _parse_phase(phase_el: ET.Element) -> Phase:
    phase_id = phase_el.get("id", "").strip()
    if not phase_id:
        raise SerializationError("a <phase> element has no id attribute")
    terminal = phase_el.get("terminal", "").strip().lower() in {"yes", "true", "1"}
    actions = []
    for call_el in phase_el.findall("action_call"):
        action_el = call_el.find("action")
        if action_el is None:
            raise SerializationError("an <action_call> in phase {!r} has no <action>".format(phase_id))
        action_uri = _text(action_el, "uri")
        if not action_uri:
            raise SerializationError("an action in phase {!r} has no <uri>".format(phase_id))
        parameters = {}
        params_el = action_el.find("parameters")
        if params_el is not None:
            for param_el in params_el.findall("param"):
                param_name = param_el.get("id", "").strip()
                if not param_name:
                    raise SerializationError(
                        "a <param> in phase {!r} has no id attribute".format(phase_id)
                    )
                parameters[param_name] = (param_el.text or "").strip()
        actions.append(ActionCall(action_uri=action_uri, name=_text(action_el, "name"),
                                  parameters=parameters))

    deadline = None
    deadline_el = phase_el.find("deadline")
    if deadline_el is not None:
        days_raw = deadline_el.get("days")
        due_raw = deadline_el.get("due")
        escalation_attrs = {
            "escalation": deadline_el.get("escalation", "notify"),
            "timeout_to": deadline_el.get("timeout_to"),
            "escalate_call_id": deadline_el.get("escalate_call"),
        }
        # "0" is a real relative deadline (due immediately on entry), so the
        # presence check must not use string truthiness alone.
        if days_raw is not None and days_raw != "":
            deadline = Deadline(days=float(days_raw),
                                description=(deadline_el.text or "").strip(),
                                **escalation_attrs)
        elif due_raw:
            from datetime import datetime

            deadline = Deadline(due=datetime.fromisoformat(due_raw),
                                description=(deadline_el.text or "").strip(),
                                **escalation_attrs)

    return Phase(
        phase_id=phase_id,
        name=_text(phase_el, "name") or phase_id,
        actions=actions,
        terminal=terminal,
        description=_text(phase_el, "description"),
        deadline=deadline,
    )


def _text(parent: ET.Element, tag: str) -> str:
    element = parent.find(tag)
    if element is None or element.text is None:
        return ""
    return element.text.strip()


def _render_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(str(item) for item in value)
    return "" if value is None else str(value)


def _indent(element: ET.Element, level: int = 0) -> None:
    pad = "\n" + "  " * level
    if len(element):
        if not element.text or not element.text.strip():
            element.text = pad + "  "
        for child in element:
            _indent(child, level + 1)
            if not child.tail or not child.tail.strip():
                child.tail = pad + "  "
        if not element[-1].tail or not element[-1].tail.strip():
            element[-1].tail = pad
    elif level and (not element.tail or not element.tail.strip()):
        element.tail = pad
