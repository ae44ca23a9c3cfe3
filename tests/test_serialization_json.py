"""Tests for the JSON codec used by the REST layer."""

import pytest

from repro.errors import SerializationError
from repro.serialization import (
    from_json,
    instance_to_json,
    lifecycle_from_json,
    lifecycle_to_json,
    to_json,
)
from repro.templates import eu_deliverable_lifecycle


class TestGenericJson:
    def test_round_trip(self):
        payload = {"a": [1, 2, 3], "b": {"nested": True}}
        assert from_json(to_json(payload)) == payload

    def test_pretty_output_is_indented(self):
        assert "\n" in to_json({"a": 1}, pretty=True)

    def test_non_serializable_falls_back_to_str(self):
        class Odd:
            def __str__(self):
                return "odd"

        assert "odd" in to_json({"x": Odd()})

    def test_invalid_document_raises(self):
        with pytest.raises(SerializationError):
            from_json("{not json")


class TestLifecycleJson:
    def test_round_trip(self):
        model = eu_deliverable_lifecycle()
        restored = lifecycle_from_json(lifecycle_to_json(model))
        assert restored.name == model.name
        assert restored.phase_ids == model.phase_ids
        assert len(restored.transitions) == len(model.transitions)

    def test_rejects_non_object(self):
        with pytest.raises(SerializationError):
            lifecycle_from_json("[1, 2]")

    def test_rejects_missing_fields(self):
        with pytest.raises(SerializationError):
            lifecycle_from_json("{}")

    @pytest.mark.parametrize("document", [
        '{"name": "x", "phases": [1]}',
        '{"name": "x", "phases": [{"name": "no id"}]}',
        '{"name": "x", "version": "1.0"}',
        '{"name": "x", "metadata": "m"}',
    ])
    def test_rejects_fields_of_the_wrong_shape(self, document):
        with pytest.raises(SerializationError):
            lifecycle_from_json(document)


class TestInstanceJson:
    def test_serializes_any_to_dict_object(self, manager, eu_model, google_doc):
        instance = manager.instantiate(eu_model.uri, google_doc, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        document = from_json(instance_to_json(instance))
        assert document["instance_id"] == instance.instance_id
        assert document["current_phase_id"] == "elaboration"
        assert document["visits"][0]["phase_id"] == "elaboration"
