"""Set-associative cache array."""

import pytest

from repro.cache.array import CacheArray
from repro.cache.replacement import make_policy


def test_geometry():
    arr = CacheArray(n_sets=4, associativity=2)
    assert arr.n_frames == 8
    assert arr.set_index(5) == 1
    assert arr.set_index(8) == 0


def test_fill_then_lookup():
    arr = CacheArray(2, 2)
    line = arr.fill(6, version=3)
    assert arr.lookup(6) is line
    assert line.version == 3
    assert not line.modified


def test_lookup_miss_returns_none():
    arr = CacheArray(2, 2)
    assert arr.lookup(0) is None


def test_conflict_eviction_within_set():
    arr = CacheArray(n_sets=1, associativity=2)
    arr.fill(0, 0)
    arr.fill(1, 0)
    arr.fill(2, 0)  # evicts one of 0/1
    resident = arr.resident_blocks()
    assert 2 in resident and len(resident) == 2


def test_lru_eviction_order_via_touch():
    arr = CacheArray(n_sets=1, associativity=2, policy=make_policy("lru"))
    arr.fill(0, 0)
    arr.fill(1, 0)
    arr.touch(arr.lookup(0))  # 0 most recent; 1 becomes LRU
    frame = arr.frame_for(2)
    assert frame.block == 1


def test_frame_for_resident_block_returns_its_line():
    arr = CacheArray(2, 2)
    line = arr.fill(3, 1)
    assert arr.frame_for(3) is line


def test_fill_modified():
    arr = CacheArray(2, 2)
    line = arr.fill(1, version=9, modified=True)
    assert line.modified and line.version == 9


def test_occupancy_and_invalidate_all():
    arr = CacheArray(2, 2)
    arr.fill(0, 0)
    arr.fill(1, 0)
    assert arr.occupancy() == (2, 4)
    assert arr.resident_blocks() == [0, 1]


def test_blocks_map_to_distinct_sets_independently():
    arr = CacheArray(n_sets=2, associativity=1)
    arr.fill(0, 0)  # set 0
    arr.fill(1, 0)  # set 1
    assert sorted(arr.resident_blocks()) == [0, 1]
    arr.fill(2, 0)  # set 0 again: evicts 0 only
    assert sorted(arr.resident_blocks()) == [1, 2]


def test_invalid_geometry_rejected():
    with pytest.raises(ValueError):
        CacheArray(0, 1)
    with pytest.raises(ValueError):
        CacheArray(1, 0)


def test_fifo_fill_stamping():
    arr = CacheArray(n_sets=1, associativity=2, policy=make_policy("fifo"))
    arr.fill(0, 0)
    arr.fill(1, 0)
    arr.touch(arr.lookup(0))  # FIFO must ignore the hit
    frame = arr.frame_for(2)
    assert frame.block == 0
