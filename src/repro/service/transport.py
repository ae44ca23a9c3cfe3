"""Transport-neutral request/response objects and parameter parsing.

Every wire format of the hosted service — the in-process router, the
localhost HTTP server, the client SDK — exchanges the same two objects:
:class:`Request` and :class:`Response`.  They carry no socket state, so the
same route table and middleware pipeline serve all transports, and tests can
drive the full service without opening a port.

The module also centralises query/body parameter parsing.  Query strings
deliver every value as text, so ``bool("false")`` and friends are classic
traps; :func:`parse_bool` and :func:`parse_str_list` convert the common
shapes and raise :class:`~repro.errors.ServiceError` (HTTP 400) on anything
malformed instead of silently misreading it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..errors import ServiceError

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def parse_bool(value: Any, name: str = "value", default: bool = False) -> bool:
    """Parse a boolean out of a JSON body or a query string.

    Accepts real booleans and the usual textual spellings (``true``/``false``,
    ``1``/``0``, ``yes``/``no``, ``on``/``off``, case-insensitive).  ``None``
    yields ``default``; anything else raises :class:`ServiceError` so the
    service answers 400 instead of treating ``"false"`` as truthy.
    """
    if value is None:
        return default
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in _TRUE_WORDS:
            return True
        if lowered in _FALSE_WORDS or lowered == "":
            return False
    raise ServiceError("parameter {!r} is not a boolean: {!r}".format(name, value))


def parse_str_list(value: Any, name: str = "value") -> Optional[list]:
    """Parse a list of strings from a JSON body or a query string.

    A JSON array must contain only non-empty strings; a query string is split
    on commas (``"a,b,c"``).  ``None`` stays ``None`` (meaning "not given").
    Anything else — numbers, nested lists, empty items like ``"a,,b"`` —
    raises :class:`ServiceError`.
    """
    if value is None:
        return None
    if isinstance(value, str):
        items = [item.strip() for item in value.split(",")]
        if not any(items):
            raise ServiceError("parameter {!r} must be a non-empty "
                               "comma-separated list".format(name))
        if not all(items):
            raise ServiceError("parameter {!r} contains empty items: {!r}".format(name, value))
        return items
    if isinstance(value, (list, tuple)):
        items = list(value)
        if not all(isinstance(item, str) and item.strip() for item in items):
            raise ServiceError(
                "parameter {!r} must be a list of non-empty strings".format(name))
        return [item.strip() for item in items]
    raise ServiceError("parameter {!r} is not a string list: {!r}".format(name, value))


def parse_int(value: Any, name: str = "value", default: int = None,
              minimum: int = None, maximum: int = None) -> Optional[int]:
    """Parse a bounded integer from a JSON body or a query string."""
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ServiceError("parameter {!r} is not an integer: {!r}".format(name, value))
    try:
        parsed = int(value)
    except ValueError:
        raise ServiceError(
            "parameter {!r} is not an integer: {!r}".format(name, value)) from None
    if minimum is not None and parsed < minimum:
        raise ServiceError("parameter {!r} must be >= {}".format(name, minimum))
    if maximum is not None:
        parsed = min(parsed, maximum)
    return parsed


@dataclass
class Request:
    """A transport-independent request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    body: Optional[Dict[str, Any]] = None
    actor: Optional[str] = None
    #: Per-request scratch space written by the transport and the
    #: middleware pipeline (request id, matched route, ``body_error`` for
    #: a body the transport could not decode, ``fault`` for a 500).
    context: Dict[str, Any] = field(default_factory=dict)

    def param(self, name: str, default: Any = None) -> Any:
        """Look a parameter up in the body first, then in the query string."""
        if isinstance(self.body, dict) and name in self.body:
            return self.body[name]
        return self.query.get(name, default)

    def bool_param(self, name: str, default: bool = False) -> bool:
        return parse_bool(self.param(name), name, default=default)

    def list_param(self, name: str) -> Optional[list]:
        return parse_str_list(self.param(name), name)

    def int_param(self, name: str, default: int = None, minimum: int = None,
                  maximum: int = None) -> Optional[int]:
        return parse_int(self.param(name), name, default=default,
                         minimum=minimum, maximum=maximum)

    @property
    def request_id(self) -> Optional[str]:
        return self.context.get("request_id")

    @property
    def is_v2(self) -> bool:
        return self.path.startswith("/v2/") or self.path == "/v2"


@dataclass
class Response:
    """A transport-independent response."""

    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


#: Handlers receive the request plus the captured path parameters.
Handler = Callable[[Request, Dict[str, str]], Any]
