"""Least-recently-used caches of built tables, bounded by the bytes they hold.

An entry is counted at the nbytes of the numpy arrays among its instance
attributes, so an array that a cached_property builds after the entry is
returned (a character table's zeta_powers) counts once it exists: the
newest entry is re-measured at the start of each call, since that is the
one its caller has been using.  Each cache keeps a running byte total and
evicts oldest-first while the total is above CACHE_BYTES, read at call
time; the newest entry is always kept, even when it alone is above the
budget.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Callable, Hashable, NamedTuple

import numpy as np

CACHE_BYTES = 1 << 28  # per cache


class CacheInfo(NamedTuple):
    hits: int
    misses: int  # builds
    entries: int
    nbytes: int


def _nbytes(value) -> int:
    return sum(a.nbytes for a in vars(value).values() if isinstance(a, np.ndarray))


class ByteLRU:
    """build(key), cached: callable like the function it wraps."""

    def __init__(self, build: Callable[[Hashable], Any]):
        self._build = build
        functools.update_wrapper(self, build)
        self.cache_clear()

    def __call__(self, key: Hashable):
        entries, sizes = self._entries, self._sizes
        if entries:
            newest = next(reversed(entries))
            size = _nbytes(entries[newest])
            self._total += size - sizes[newest]
            sizes[newest] = size
        if key in entries:
            self._hits += 1
            entries.move_to_end(key)
            value = entries[key]
        else:
            self._misses += 1
            value = entries[key] = self._build(key)
            sizes[key] = _nbytes(value)
            self._total += sizes[key]
        while self._total > CACHE_BYTES and len(entries) > 1:
            oldest, _ = entries.popitem(last=False)
            self._total -= sizes.pop(oldest)
        return value

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, len(self._entries), self._total)

    def cache_clear(self) -> None:
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._sizes: dict[Hashable, int] = {}
        self._total = self._hits = self._misses = 0
