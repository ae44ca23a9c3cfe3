"""Resource descriptors and credentials.

A :class:`ResourceDescriptor` is everything the lifecycle layer may know about
a managed artifact: URI, type string (the managing application), optional
credentials, an optional display name and the user who owns the resource (the
"resource owner" role of §IV.D).  The resource itself stays a black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..errors import ValidationError
from ..identifiers import normalize_uri


@dataclass(frozen=True)
class Credentials:
    """Login information for password-protected resources.

    Only a username and an opaque secret are stored; how they are used is up
    to the resource plug-in.  ``repr`` hides the secret so credentials never
    leak into logs.
    """

    username: str
    secret: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Credentials(username={!r}, secret='***')".format(self.username)

    def to_dict(self) -> Dict[str, str]:
        return {"username": self.username, "secret": self.secret}

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "Credentials":
        return cls(username=data.get("username", ""), secret=data.get("secret", ""))


@dataclass
class ResourceDescriptor:
    """What the lifecycle knows about a managed resource."""

    uri: str
    resource_type: str
    display_name: str = ""
    owner: str = ""
    credentials: Optional[Credentials] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if not self.resource_type or not self.resource_type.strip():
            raise ValidationError(["a resource descriptor needs a resource type"])
        self.uri = normalize_uri(self.uri)
        self.resource_type = self.resource_type.strip()
        if not self.display_name:
            self.display_name = self.uri

    def with_credentials(self, username: str, secret: str = "") -> "ResourceDescriptor":
        return ResourceDescriptor(
            uri=self.uri,
            resource_type=self.resource_type,
            display_name=self.display_name,
            owner=self.owner,
            credentials=Credentials(username, secret),
            metadata=dict(self.metadata),
        )

    def to_dict(self, include_credentials: bool = False) -> Dict[str, Any]:
        data = {
            "uri": self.uri,
            "resource_type": self.resource_type,
            "display_name": self.display_name,
            "owner": self.owner,
            "metadata": dict(self.metadata),
        }
        if include_credentials and self.credentials is not None:
            data["credentials"] = self.credentials.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ResourceDescriptor":
        """Decode a descriptor; a malformed document raises ValidationError."""
        if not isinstance(data, dict):
            raise ValidationError(["a resource descriptor must be an object"])
        credentials_data = data.get("credentials")
        try:
            return cls(
                uri=data["uri"],
                resource_type=data["resource_type"],
                display_name=data.get("display_name", ""),
                owner=data.get("owner", ""),
                credentials=Credentials.from_dict(credentials_data) if credentials_data else None,
                metadata=dict(data.get("metadata", {})),
            )
        except KeyError as exc:
            raise ValidationError(
                ["a resource descriptor needs field {}".format(exc)]) from exc
        except (TypeError, AttributeError, ValueError) as exc:
            raise ValidationError(
                ["malformed resource descriptor: {}".format(exc)]) from exc
