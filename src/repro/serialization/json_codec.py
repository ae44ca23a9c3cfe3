"""JSON codec used by the REST service layer, the widgets and the storage tier.

The paper's system exposes SOAP and REST interfaces; our REST facade exchanges
JSON documents.  These helpers keep the JSON representation in one place so
that the service layer, the repositories and the widgets all agree on it.
"""

from __future__ import annotations

import json
from typing import Any

from ..errors import SerializationError
from ..model import LifecycleModel


def to_json(payload: Any, pretty: bool = False) -> str:
    """Serialize an arbitrary JSON-compatible payload."""
    try:
        if pretty:
            return json.dumps(payload, indent=2, sort_keys=True, default=str)
        return json.dumps(payload, sort_keys=True, default=str)
    except (TypeError, ValueError) as exc:
        raise SerializationError("payload is not JSON-serializable: {}".format(exc)) from exc


def from_json(document: str) -> Any:
    """Parse a JSON document, raising :class:`SerializationError` on bad input."""
    try:
        return json.loads(document)
    except (TypeError, ValueError) as exc:
        raise SerializationError("document is not valid JSON: {}".format(exc)) from exc


def lifecycle_to_json(model: LifecycleModel, pretty: bool = False) -> str:
    """Serialize a lifecycle model to JSON."""
    return to_json(model.to_dict(), pretty=pretty)


def lifecycle_from_json(document: str) -> LifecycleModel:
    """Parse a lifecycle model from its JSON form."""
    return lifecycle_from_dict(from_json(document))


def lifecycle_from_dict(data: Any) -> LifecycleModel:
    """Build a lifecycle model from a decoded JSON document.

    A document of the wrong shape — not an object, a missing field, a
    field of the wrong type — raises :class:`SerializationError`.
    """
    if not isinstance(data, dict):
        raise SerializationError("a lifecycle JSON document must be an object")
    try:
        return LifecycleModel.from_dict(data)
    except KeyError as exc:
        raise SerializationError("lifecycle JSON is missing field {}".format(exc)) from exc
    except (TypeError, AttributeError, ValueError) as exc:
        raise SerializationError("lifecycle JSON is malformed: {}".format(exc)) from exc


def instance_to_json(instance, pretty: bool = False) -> str:
    """Serialize a lifecycle instance snapshot to JSON.

    Accepts any object exposing ``to_dict()`` (kept duck-typed to avoid a
    circular import with :mod:`repro.runtime`).
    """
    return to_json(instance.to_dict(), pretty=pretty)
