"""Keyset pagination for the v2 collection endpoints.

Every v2 collection answers one *page* at a time.  Pages are addressed by an
opaque cursor (base64url-encoded JSON) that records the sort key of the last
item served, so the next page is "items with key greater than the cursor" —
keyset pagination, not offset pagination:

* a cursor stays valid while items are inserted or removed around it
  (ordering is stable under concurrent inserts: an item created after the
  cursor position appears in a later page, never shifts earlier pages);
* a past-the-end cursor yields an empty page with no next token instead of
  an error, so clients can drain a collection with a simple loop.

Candidate sets come from the PR 1 secondary indexes (the service picks the
smallest matching index before this module ever sees the items), so a page
request never scans instances that cannot match the filter.
"""

from __future__ import annotations

import base64
import binascii
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...bisection import bisect_by
from ...errors import ServiceError

DEFAULT_PAGE_SIZE = 50
MAX_PAGE_SIZE = 500


def encode_cursor(payload: Dict[str, Any]) -> str:
    """Encode a cursor payload as opaque base64url text."""
    raw = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return base64.urlsafe_b64encode(raw).decode("ascii").rstrip("=")


def decode_cursor(token: str) -> Dict[str, Any]:
    """Decode a cursor; a malformed token is a 400, not a crash."""
    try:
        padded = token + "=" * (-len(token) % 4)
        raw = base64.urlsafe_b64decode(padded.encode("ascii"))
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, binascii.Error, UnicodeDecodeError):
        raise ServiceError("malformed page token {!r}".format(token)) from None
    if not isinstance(payload, dict):
        raise ServiceError("malformed page token {!r}".format(token))
    return payload


@dataclass
class PageRequest:
    """The pagination parameters of one collection request."""

    page_size: int = DEFAULT_PAGE_SIZE
    page_token: Optional[str] = None
    sort: Optional[str] = None  # "field" ascending, "-field" descending

    @classmethod
    def from_request(cls, request, default_sort: str = None) -> "PageRequest":
        """Extract ``page_size``/``page_token``/``sort`` from a Request."""
        return cls(
            page_size=request.int_param("page_size", default=DEFAULT_PAGE_SIZE,
                                        minimum=1, maximum=MAX_PAGE_SIZE),
            page_token=request.param("page_token") or None,
            sort=request.param("sort") or default_sort,
        )

    def sort_field(self, allowed: Sequence[str], default: str) -> Tuple[str, bool]:
        """Return ``(field, descending)`` after validating against ``allowed``."""
        sort = self.sort or default
        descending = sort.startswith("-")
        field = sort[1:] if descending else sort
        if field not in allowed:
            raise ServiceError("cannot sort by {!r}; allowed: {}".format(
                field, ", ".join(sorted(allowed))))
        return field, descending


@dataclass
class PageInfo:
    """The ``meta.pagination`` block of a collection response."""

    page_size: int
    count: int
    next_page_token: Optional[str] = None
    total: Optional[int] = None
    sort: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"page_size": self.page_size, "count": self.count,
                                   "next_page_token": self.next_page_token}
        if self.total is not None:
            payload["total"] = self.total
        if self.sort is not None:
            payload["sort"] = self.sort
        return payload

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "PageInfo":
        return cls(
            page_size=int(document.get("page_size", 0)),
            count=int(document.get("count", 0)),
            next_page_token=document.get("next_page_token"),
            total=document.get("total"),
            sort=document.get("sort"),
        )


def _normalise_key(value: Any) -> Any:
    """Make a sort value JSON-round-trippable and comparable across items."""
    if value is None:
        return ""
    if hasattr(value, "isoformat"):
        return value.isoformat()
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return str(value)


def paginate(items: List[Any], page: PageRequest, sort_key: Callable[[Any], Any],
             tie_key: Callable[[Any], str], descending: bool = False,
             total: Optional[int] = None, sort_label: str = None) -> Tuple[List[Any], PageInfo]:
    """Slice one keyset page out of ``items``.

    ``items`` is the (already index-filtered) candidate set; it does not need
    to be pre-sorted.  Items are ordered by ``(sort_key, tie_key)`` — the tie
    key must be unique (an instance id, a log sequence) so the order is total
    and a cursor identifies an exact position, located by binary search on
    the sorted keys (never by scanning past served items).
    """
    keyed = sorted(
        ((_normalise_key(sort_key(item)), str(tie_key(item))), item) for item in items
    )
    after = None
    if page.page_token:
        payload = decode_cursor(page.page_token)
        try:
            after = (payload["k"], str(payload["t"]))
        except KeyError:
            raise ServiceError(
                "malformed page token {!r}".format(page.page_token)) from None
    key_of = lambda pair: pair[0]  # noqa: E731 - bisect key accessor
    try:
        if descending:
            # The list is ascending; a descending page is the slice just
            # before the cursor position, served in reverse.
            end = bisect_by(keyed, after, key_of) if after is not None else len(keyed)
            selected = keyed[max(0, end - page.page_size):end][::-1]
            has_more = end > page.page_size
        else:
            start = bisect_by(keyed, after, key_of, right=True) if after is not None else 0
            selected = keyed[start:start + page.page_size]
            has_more = start + len(selected) < len(keyed)
    except TypeError:
        # A forged/stale cursor whose key type does not match this sort.
        raise ServiceError(
            "malformed page token {!r}".format(page.page_token)) from None
    next_token = None
    if has_more and selected:
        last_key = selected[-1][0]
        next_token = encode_cursor({"k": last_key[0], "t": last_key[1]})
    info = PageInfo(page_size=page.page_size, count=len(selected),
                    next_page_token=next_token,
                    total=total if total is not None else len(items),
                    sort=sort_label)
    return [item for _, item in selected], info
