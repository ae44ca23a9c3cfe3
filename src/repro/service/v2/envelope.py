"""The v2 response envelope and the machine-readable error model.

Every v2 response — success or failure, any transport — is one JSON object::

    {"data": ..., "meta": {...}, "error": null}          # success
    {"data": null, "meta": {...}, "error": {"code": ..}} # failure

``meta`` always carries the per-request id (also echoed in the
``X-Request-Id`` header) so a client log line can be correlated with a
server trace, and collection responses add a ``pagination`` block.

The error model is a closed catalog: every :class:`~repro.errors.GeleeError`
subclass maps to exactly one HTTP status and one stable machine-readable
code (``INSTANCE_NOT_FOUND``, ``VALIDATION_FAILED``, ...).  Clients branch
on the code, never on the human-readable message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Type

from ... import errors
from ...identifiers import new_id

API_VERSION = "v2"


def new_request_id() -> str:
    return new_id("req")


# --------------------------------------------------------------------- errors
#: The closed error catalog: (exception class, HTTP status, stable code).
#: Order matters — the first ``isinstance`` match wins, so subclasses are
#: listed before their bases and the bare ``GeleeError`` is the final net.
ERROR_CATALOG: List[Tuple[Type[BaseException], int, str]] = [
    (errors.ValidationError, 400, "VALIDATION_FAILED"),
    (errors.UnknownPhaseError, 404, "PHASE_NOT_FOUND"),
    (errors.DuplicatePhaseError, 400, "DUPLICATE_PHASE"),
    (errors.ModelError, 400, "MODEL_INVALID"),
    (errors.SerializationError, 400, "SERIALIZATION_FAILED"),
    (errors.UnknownActionTypeError, 400, "UNKNOWN_ACTION_TYPE"),
    (errors.ActionResolutionError, 409, "ACTION_UNRESOLVABLE"),
    (errors.ActionInvocationError, 502, "ACTION_FAILED"),
    (errors.ParameterBindingError, 400, "PARAMETER_BINDING_FAILED"),
    (errors.ActionError, 409, "ACTION_ERROR"),
    (errors.UnknownResourceTypeError, 400, "UNKNOWN_RESOURCE_TYPE"),
    (errors.ResourceNotFoundError, 404, "RESOURCE_NOT_FOUND"),
    (errors.ResourceAccessError, 403, "RESOURCE_ACCESS_DENIED"),
    (errors.ResourceError, 400, "RESOURCE_ERROR"),
    (errors.ReadOnlyReplicaError, 409, "REPLICA_READ_ONLY"),
    (errors.RuntimeStateError, 409, "INVALID_STATE"),
    (errors.InstanceNotFoundError, 404, "INSTANCE_NOT_FOUND"),
    (errors.LifecycleNotFoundError, 404, "MODEL_NOT_FOUND"),
    (errors.OperationNotFoundError, 404, "OPERATION_NOT_FOUND"),
    (errors.PermissionDeniedError, 403, "PERMISSION_DENIED"),
    (errors.JournalTruncatedError, 409, "JOURNAL_TRUNCATED"),
    (errors.StorageError, 500, "STORAGE_FAILED"),
    (errors.ReplicationError, 409, "REPLICATION_INVALID"),
    (errors.StaleFencingTokenError, 409, "STALE_FENCING_TOKEN"),
    (errors.NotLeaderError, 409, "NOT_LEADER"),
    (errors.CoordinationError, 409, "COORDINATION_INVALID"),
    (errors.ServiceError, 400, "BAD_REQUEST"),
    (errors.TemplateError, 404, "TEMPLATE_NOT_FOUND"),
    (errors.PropagationError, 409, "PROPAGATION_INVALID"),
    (errors.TimerNotFoundError, 404, "TIMER_NOT_FOUND"),
    (errors.SchedulerError, 400, "SCHEDULER_REQUEST_INVALID"),
    (errors.TraceNotFoundError, 404, "TRACE_NOT_FOUND"),
    (errors.NodeUnreachableError, 502, "NODE_UNREACHABLE"),
    (errors.GeleeError, 500, "INTERNAL_ERROR"),
]


@dataclass
class ErrorInfo:
    """Machine-readable error payload of a failed v2 response."""

    code: str
    message: str
    status: int = 500
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"code": self.code, "message": self.message,
                                   "status": self.status}
        if self.details:
            payload["details"] = dict(self.details)
        return payload

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ErrorInfo":
        return cls(
            code=document.get("code", "INTERNAL_ERROR"),
            message=document.get("message", ""),
            status=int(document.get("status", 500)),
            details=dict(document.get("details") or {}),
        )


def classify_error(exc: BaseException) -> Tuple[int, str]:
    """Return the ``(status, code)`` pair for a library exception."""
    for exc_class, status, code in ERROR_CATALOG:
        if isinstance(exc, exc_class):
            return status, code
    return 500, "INTERNAL_ERROR"


def error_info_for(exc: BaseException, **details: Any) -> ErrorInfo:
    status, code = classify_error(exc)
    info = ErrorInfo(code=code, message=str(exc), status=status,
                     details={k: v for k, v in details.items() if v is not None})
    if isinstance(exc, errors.ValidationError) and exc.problems:
        info.details.setdefault("problems", list(exc.problems))
    if isinstance(exc, errors.ReadOnlyReplicaError) and exc.primary:
        # The 409 tells a client *where* to retry the write.
        info.details.setdefault("primary", exc.primary)
    if isinstance(exc, errors.JournalTruncatedError):
        info.details.setdefault("oldest_available_seq", exc.oldest_available)
    if isinstance(exc, errors.NodeUnreachableError) and exc.node_id:
        info.details.setdefault("node_id", exc.node_id)
    if isinstance(exc, errors.StaleFencingTokenError):
        # The deposed writer learns exactly how far behind its epoch is.
        info.details.setdefault("token", exc.token)
        info.details.setdefault("latest_token", exc.latest)
    return info


# ------------------------------------------------------------------- envelope
@dataclass
class ResponseMeta:
    """The ``meta`` block: request correlation, timing and pagination."""

    request_id: str = ""
    api_version: str = API_VERSION
    duration_ms: Optional[float] = None
    pagination: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "request_id": self.request_id,
            "api_version": self.api_version,
        }
        if self.duration_ms is not None:
            payload["duration_ms"] = self.duration_ms
        if self.pagination is not None:
            payload["pagination"] = dict(self.pagination)
        return payload

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "ResponseMeta":
        return cls(
            request_id=document.get("request_id", ""),
            api_version=document.get("api_version", API_VERSION),
            duration_ms=document.get("duration_ms"),
            pagination=document.get("pagination"),
        )


@dataclass
class Envelope:
    """The uniform v2 response body ``{data, meta, error}``."""

    data: Any = None
    meta: ResponseMeta = field(default_factory=ResponseMeta)
    error: Optional[ErrorInfo] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "data": self.data,
            "meta": self.meta.to_dict(),
            "error": self.error.to_dict() if self.error else None,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "Envelope":
        error = document.get("error")
        return cls(
            data=document.get("data"),
            meta=ResponseMeta.from_dict(document.get("meta") or {}),
            error=ErrorInfo.from_dict(error) if error else None,
        )

    @classmethod
    def success(cls, data: Any, request_id: str = "",
                pagination: Dict[str, Any] = None) -> "Envelope":
        return cls(data=data, meta=ResponseMeta(request_id=request_id,
                                                pagination=pagination))

    @classmethod
    def failure(cls, error: ErrorInfo, request_id: str = "") -> "Envelope":
        return cls(data=None, meta=ResponseMeta(request_id=request_id), error=error)
