"""Least-recently-used caches of built tables, bounded by the bytes they hold.

An entry is counted once, when it is built, at the nbytes of the numpy
arrays among its instance attributes; a cached table holds no lazily
built state, so its size does not change after that.  Each cache keeps a
running byte total and evicts oldest-first while the total is above
CACHE_BYTES, read at call time; the newest entry is always kept, even
when it alone is above the budget.
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
        entries = self._entries
        if key in entries:
            self._hits += 1
            entries.move_to_end(key)
        else:
            self._misses += 1
            value = self._build(key)
            entries[key] = (value, _nbytes(value))
            self._total += entries[key][1]
        while self._total > CACHE_BYTES and len(entries) > 1:
            _, (_, size) = entries.popitem(last=False)
            self._total -= size
        return entries[key][0]

    def cache_info(self) -> CacheInfo:
        return CacheInfo(self._hits, self._misses, len(self._entries), self._total)

    def cache_clear(self) -> None:
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()  # key: (value, nbytes)
        self._total = self._hits = self._misses = 0
