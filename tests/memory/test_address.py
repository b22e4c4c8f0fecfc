"""Block-to-module address mapping."""

import pytest

from repro.memory.address import AddressMap


def test_low_order_interleaving():
    amap = AddressMap(n_modules=4, n_blocks=16)
    assert [amap.home(b) for b in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_blocks_of_partitions_address_space():
    amap = AddressMap(3, 11)
    seen = []
    for module in range(3):
        seen.extend(amap.blocks_of(module))
    assert sorted(seen) == list(range(11))


def test_blocks_of_matches_home():
    amap = AddressMap(4, 32)
    for module in range(4):
        for block in amap.blocks_of(module):
            assert amap.home(block) == module


def test_out_of_range_block_rejected():
    amap = AddressMap(2, 8)
    with pytest.raises(ValueError):
        amap.home(8)
    with pytest.raises(ValueError):
        amap.home(-1)


def test_out_of_range_module_rejected():
    amap = AddressMap(2, 8)
    with pytest.raises(ValueError):
        amap.blocks_of(2)


def test_degenerate_configs_rejected():
    with pytest.raises(ValueError):
        AddressMap(0, 8)
    with pytest.raises(ValueError):
        AddressMap(2, 0)
