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


def test_frames_are_made_on_first_fill():
    arr = CacheArray(n_sets=4, associativity=2)
    assert list(arr.lines()) == []
    assert not arr.frame_for(5).valid
    assert list(arr.lines()) == []  # asking for a victim makes nothing
    arr.fill(5, 1)
    arr.fill(1, 1)
    assert len(list(arr.lines())) == 2
    assert arr.occupancy() == (2, 8)


class DenseArray:
    """Every frame built up front: the reference the lazy array matches."""

    def __init__(self, n_sets, associativity, policy):
        from repro.cache.line import CacheLine

        self.sets = [[CacheLine() for _ in range(associativity)]
                     for _ in range(n_sets)]
        self.policy = policy
        self.clock = 0

    def find(self, block):
        for line in self.sets[block % len(self.sets)]:
            if line.valid and line.block == block:
                return line
        return None

    def frame_for(self, block):
        resident = self.find(block)
        if resident is not None:
            return resident
        lines = self.sets[block % len(self.sets)]
        return lines[self.policy.victim(lines, self.clock)]

    def fill(self, block, version):
        line = self.frame_for(block)
        line.fill(block, version)
        self.clock += 1
        if hasattr(self.policy, "stamp_fill"):
            self.policy.stamp_fill(line, self.clock)
        else:
            self.policy.touch(line, self.clock)


@pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
def test_victims_match_a_fully_built_array(policy):
    import random

    rng = random.Random(policy)
    lazy = CacheArray(4, 3, policy=make_policy(policy, seed=3))
    dense = DenseArray(4, 3, make_policy(policy, seed=3))
    for step in range(2000):
        block = rng.randrange(40)
        action = rng.random()
        if action < 0.6:
            assert (lazy.frame_for(block).block
                    == dense.frame_for(block).block), step
            lazy.fill(block, step)
            dense.fill(block, step)
        elif action < 0.8:
            for arr in (lazy, dense):
                line = arr.lookup(block) if arr is lazy else arr.find(block)
                if line is not None:
                    line.reset()
        else:
            line = lazy.lookup(block)
            if line is not None:
                lazy.touch(line)
                dense.clock += 1
                dense.policy.touch(dense.find(block), dense.clock)
        resident = sorted(
            line.block for s in dense.sets for line in s if line.valid
        )
        assert lazy.resident_blocks() == resident, step
