"""Tests for per-file hash lookup tables (resident + ghost entries)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.read_cache.lookup import FileLookupTable
from repro.core.read_cache.slab import CacheItem


def make_item(offset, length, ino=1):
    return CacheItem(ino=ino, offset=offset, length=length, addr=offset, class_index=0)


def test_insert_get_remove():
    table = FileLookupTable(ino=1)
    item = make_item(100, 28)
    table.insert(item)
    assert table.get(100, 28) is item
    assert table.get(100, 29) is None
    table.remove(item)
    assert table.get(100, 28) is None
    assert len(table) == 0


def test_duplicate_insert_rejected():
    table = FileLookupTable(ino=1)
    table.insert(make_item(0, 8))
    with pytest.raises(KeyError):
        table.insert(make_item(0, 8))


def test_remove_missing_rejected():
    with pytest.raises(KeyError):
        FileLookupTable(ino=1).remove(make_item(0, 8))


def test_overlapping_finds_intersections():
    table = FileLookupTable(ino=1)
    a = make_item(0, 100)
    b = make_item(150, 50)
    c = make_item(300, 10)
    for item in (a, b, c):
        table.insert(item)
    assert table.overlapping(90, 100) == [a, b]
    assert table.overlapping(100, 50) == []
    assert table.overlapping(0, 1000) == [a, b, c]
    assert table.overlapping(305, 1) == [c]


def test_overlapping_empty_and_degenerate():
    table = FileLookupTable(ino=1)
    assert table.overlapping(0, 100) == []
    table.insert(make_item(10, 10))
    assert table.overlapping(0, 0) == []


def test_ghost_counting():
    table = FileLookupTable(ino=1)
    assert table.ghost_count(5, 10) == 0
    assert table.ghost_bump(5, 10) == 1
    assert table.ghost_bump(5, 10) == 2
    assert table.ghost_count(5, 10) == 2
    table.ghost_drop(5, 10)
    assert table.ghost_count(5, 10) == 0


def test_ghost_limit_evicts_oldest():
    table = FileLookupTable(ino=1, ghost_limit=3)
    for offset in range(5):
        table.ghost_bump(offset, 8)
    assert table.ghosts == 3
    assert table.ghost_count(0, 8) == 0  # oldest evicted
    assert table.ghost_count(4, 8) == 1


def test_insert_clears_ghost():
    table = FileLookupTable(ino=1)
    table.ghost_bump(100, 28)
    table.insert(make_item(100, 28))
    assert table.ghost_count(100, 28) == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 20_000), st.integers(1, 8192)),
        min_size=1,
        max_size=30,
        unique_by=lambda pair: pair,
    ),
    st.tuples(st.integers(0, 20_000), st.integers(1, 8192)),
)
# An item longer than a page, hidden behind a short one that ends
# before the query (items may be as long as the dispatch threshold).
@example(ranges=[(0, 6000), (500, 100)], query=(5000, 10))
def test_property_overlap_matches_bruteforce(ranges, query):
    """overlapping() agrees with a brute-force interval check."""
    table = FileLookupTable(ino=1)
    inserted = []
    for offset, length in ranges:
        if table.get(offset, length) is None:
            item = make_item(offset, length)
            table.insert(item)
            inserted.append(item)
    q_offset, q_length = query
    expected = {
        item.key
        for item in inserted
        if item.offset < q_offset + q_length and item.offset + item.length > q_offset
    }
    got = {item.key for item in table.overlapping(q_offset, q_length)}
    assert got == expected
