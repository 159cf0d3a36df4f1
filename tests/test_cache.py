import numpy as np

from divprog import cache
from divprog.cache import ByteLRU


class Table:
    def __init__(self, n):
        self.values = np.zeros(n, dtype=np.uint8)  # n bytes


def _counted(built):
    def build(n):
        built.append(n)
        return Table(n)

    return ByteLRU(build)


def test_evicts_oldest_first_above_the_byte_budget(monkeypatch):
    monkeypatch.setattr(cache, "CACHE_BYTES", 250)
    built = []
    tables = _counted(built)
    a, b = tables(100), tables(101)
    assert tables.cache_info() == (0, 2, 2, 201)
    assert tables(100) is a  # a hit makes 100 the newest
    tables(102)  # 303 bytes: the oldest, 101, goes
    assert tables.cache_info().nbytes == 202 and tables.cache_info().entries == 2
    assert tables(100) is a and tables(102) is not None and built == [100, 101, 102]
    assert tables(101) is not b  # rebuilt; 100 is now the oldest and goes
    assert built == [100, 101, 102, 101]
    assert tables(102) is not None and len(built) == 4
    tables(100)
    assert built == [100, 101, 102, 101, 100]
    assert tables.cache_info() == (4, 5, 2, 202)


def test_entry_above_the_budget_is_kept_as_the_newest(monkeypatch):
    monkeypatch.setattr(cache, "CACHE_BYTES", 250)
    built = []
    tables = _counted(built)
    tables(10)
    big = tables(1000)
    assert tables.cache_info() == (0, 2, 1, 1000)
    assert tables(1000) is big and built == [10, 1000]
    tables(20)  # the newest stays; the oversized entry is now the oldest and goes
    assert tables.cache_info() == (1, 3, 1, 20)


def test_cache_clear_resets_entries_and_counts():
    built = []
    tables = _counted(built)
    tables(3), tables(3)
    tables.cache_clear()
    assert tables.cache_info() == (0, 0, 0, 0)
    tables(3)
    assert built == [3, 3] and tables.cache_info().misses == 1


def test_an_entry_is_measured_once_when_built(monkeypatch):
    measured = []

    def nbytes(value):
        measured.append(len(value.values))
        return value.values.nbytes

    monkeypatch.setattr(cache, "_nbytes", nbytes)
    tables = _counted([])
    for n in (7, 7, 8, 7, 8, 8):
        tables(n)
    assert measured == [7, 8] and tables.cache_info() == (4, 2, 2, 15)
