"""Binary search on a key, for Python 3.9.

``bisect.bisect_left``/``bisect_right`` accept ``key=`` only from Python
3.10 on; :func:`bisect_by` is the same search for a list sorted by
``key(item)``.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence


def bisect_by(items: Sequence[Any], value: Any, key: Callable[[Any], Any],
              right: bool = False) -> int:
    """The insertion point of ``value`` in ``items``, sorted by ``key``.

    Left of any equal keys by default (``bisect_left``), right of them with
    ``right=True`` (``bisect_right``).  Comparing keys of different types
    raises :class:`TypeError`, as ``bisect`` does.
    """
    low, high = 0, len(items)
    while low < high:
        middle = (low + high) // 2
        probe = key(items[middle])
        if (value < probe) if right else not (probe < value):
            high = middle
        else:
            low = middle + 1
    return low
