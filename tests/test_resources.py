"""Tests for resource descriptors and credentials."""

import pytest

from repro.errors import ValidationError
from repro.resources import Credentials, ResourceDescriptor


class TestCredentials:
    def test_repr_hides_secret(self):
        credentials = Credentials("alice", "hunter2")
        assert "hunter2" not in repr(credentials)

    def test_dict_round_trip(self):
        credentials = Credentials("alice", "hunter2")
        assert Credentials.from_dict(credentials.to_dict()) == credentials


class TestResourceDescriptor:
    def test_uri_is_normalized(self):
        descriptor = ResourceDescriptor(uri="HTTP://Docs.Example.org/Doc/",
                                        resource_type="Google Doc")
        assert descriptor.uri == "http://docs.example.org/Doc"

    def test_requires_resource_type(self):
        with pytest.raises(ValidationError):
            ResourceDescriptor(uri="urn:x", resource_type="  ")

    def test_display_name_defaults_to_uri(self):
        descriptor = ResourceDescriptor(uri="urn:doc:1", resource_type="Google Doc")
        assert descriptor.display_name == "urn:doc:1"

    def test_with_credentials_returns_copy(self):
        descriptor = ResourceDescriptor(uri="urn:doc:1", resource_type="Google Doc")
        secured = descriptor.with_credentials("alice", "secret")
        assert secured.credentials.username == "alice"
        assert descriptor.credentials is None

    def test_to_dict_omits_credentials_by_default(self):
        descriptor = ResourceDescriptor(uri="urn:doc:1", resource_type="Google Doc",
                                        credentials=Credentials("alice", "secret"))
        assert "credentials" not in descriptor.to_dict()
        assert descriptor.to_dict(include_credentials=True)["credentials"]["secret"] == "secret"

    def test_dict_round_trip(self):
        descriptor = ResourceDescriptor(uri="urn:doc:1", resource_type="Google Doc",
                                        display_name="D1", owner="alice",
                                        metadata={"wp": "WP2"})
        restored = ResourceDescriptor.from_dict(descriptor.to_dict())
        assert restored.uri == descriptor.uri
        assert restored.metadata == {"wp": "WP2"}

    @pytest.mark.parametrize("document", [
        "gdoc://D1.1", ["urn:doc:1"], {}, {"uri": "urn:doc:1"},
        {"uri": 7, "resource_type": "Google Doc"},
        {"uri": "urn:doc:1", "resource_type": "Google Doc", "metadata": "wp"},
        {"uri": "urn:doc:1", "resource_type": "Google Doc", "credentials": "alice"},
    ])
    def test_malformed_document_raises_validation_error(self, document):
        with pytest.raises(ValidationError):
            ResourceDescriptor.from_dict(document)

    def test_same_uri_different_types_allowed(self):
        # Light-coupling: nothing prevents two descriptors over the same URI.
        first = ResourceDescriptor(uri="urn:doc:1", resource_type="Google Doc")
        second = ResourceDescriptor(uri="urn:doc:1", resource_type="MediaWiki page")
        assert first.uri == second.uri
