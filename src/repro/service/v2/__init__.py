"""The versioned v2 API gateway.

A transport-neutral, typed service surface mounted next to the legacy v1
routes:

* :mod:`~repro.service.v2.envelope` — the ``{data, meta, error}`` response
  envelope, per-request ids and the machine-readable error catalog;
* :mod:`~repro.service.v2.pagination` — keyset cursors over the runtime's
  secondary indexes;
* :mod:`~repro.service.v2.dto` — the typed request/response dataclasses
  shared with the client SDK;
* :mod:`~repro.service.v2.operations` — async operation handles
  (``202 Accepted`` + ``GET /v2/operations/{id}``);
* :mod:`~repro.service.v2.middleware` — the request pipeline (request ids,
  actor extraction, request timing, error translation) used by both versions;
* :mod:`~repro.service.v2.routes` — the route table.
"""

from .dto import (
    AdvanceItem,
    BatchItemResult,
    BatchResult,
    CreateInstanceItem,
    parse_batch_items,
)
from .envelope import (
    API_VERSION,
    ERROR_CATALOG,
    Envelope,
    ErrorInfo,
    ResponseMeta,
    classify_error,
    error_info_for,
)
from .middleware import (
    ActorMiddleware,
    ErrorTranslationMiddleware,
    ReadOnlyGuardMiddleware,
    RequestIdMiddleware,
    TimingMiddleware,
    build_pipeline,
)
from .operations import Operation, OperationStatus, OperationStore
from .pagination import PageInfo, PageRequest, decode_cursor, encode_cursor, paginate
from .routes import install

__all__ = [
    "API_VERSION",
    "ERROR_CATALOG",
    "ActorMiddleware",
    "AdvanceItem",
    "BatchItemResult",
    "BatchResult",
    "CreateInstanceItem",
    "Envelope",
    "ErrorInfo",
    "ErrorTranslationMiddleware",
    "Operation",
    "OperationStatus",
    "OperationStore",
    "PageInfo",
    "PageRequest",
    "ReadOnlyGuardMiddleware",
    "RequestIdMiddleware",
    "ResponseMeta",
    "TimingMiddleware",
    "build_pipeline",
    "classify_error",
    "decode_cursor",
    "encode_cursor",
    "error_info_for",
    "install",
    "paginate",
    "parse_batch_items",
]
