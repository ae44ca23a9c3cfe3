"""The Gelee client SDK.

Typed Python access to the v2 API, in-process or over HTTP::

    from repro.client import GeleeClient

    client = GeleeClient.in_process(actor="alice")
    client = GeleeClient.connect("127.0.0.1", 8080, actor="alice")
"""

from .gelee import (
    GeleeApiError,
    GeleeClient,
    HttpTransport,
    InProcessTransport,
    OperationHandle,
    Page,
)

__all__ = [
    "GeleeApiError",
    "GeleeClient",
    "HttpTransport",
    "InProcessTransport",
    "OperationHandle",
    "Page",
]
