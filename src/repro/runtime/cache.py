"""A small bounded LRU mapping for per-``(model, batch)`` memo caches.

The serving stack memoizes pure derivations keyed by batch size —
``CompiledModel.invoke_seconds``, device breakdown dicts, the server's
service estimates.  Plain dicts are correct but unbounded: a
long-running server fed adversarial batch sizes (every request count
distinct) grows them without limit.  These caches hold *recomputable*
values, so eviction can never change a result — only cost a
recomputation — which makes a tiny LRU the right container.
:class:`LruCache` is that container: dict-like ``get`` / ``put`` with
move-to-front on hit and eviction of the least recently used entry past
``maxsize``.

This module is a leaf (stdlib only) so the :mod:`repro.edgetpu` layer
can import it without touching the rest of :mod:`repro.runtime`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator

__all__ = ["LruCache"]


class LruCache:
    """Bounded mapping with least-recently-used eviction.

    Args:
        maxsize: Maximum number of entries kept; must be >= 1.  Both
            ``get`` hits and ``put`` updates refresh an entry's
            recency.
    """

    __slots__ = ("maxsize", "_data")

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key, default=None):
        """Return the cached value (refreshing recency) or ``default``."""
        try:
            self._data.move_to_end(key)
        except KeyError:
            return default
        return self._data[key]

    def put(self, key, value) -> None:
        """Insert/overwrite ``key``, evicting the oldest entry if full."""
        data = self._data
        if key in data:
            data.move_to_end(key)
        data[key] = value
        if len(data) > self.maxsize:
            data.popitem(last=False)

    def get_or_build(self, key, build: Callable[[], object]):
        """Return the cached value, building and caching it on a miss."""
        sentinel = _MISSING
        value = self.get(key, sentinel)
        if value is sentinel:
            value = build()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry."""
        self._data.clear()

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator:
        return iter(self._data)

    def __repr__(self) -> str:  # pragma: no cover — debugging aid
        return (f"LruCache(maxsize={self.maxsize}, "
                f"len={len(self._data)})")


_MISSING = object()
