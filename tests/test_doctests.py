"""Run the library's docstring examples (keeps the docs honest)."""

import doctest

import pytest

import repro.cache.array
import repro.memory.address
import repro.options
import repro.sim.kernel
import repro.stats.tables

MODULES = [
    repro.sim.kernel,
    repro.cache.array,
    repro.memory.address,
    repro.options,
    repro.stats.tables,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0, f"{module.__name__} lost its doctests"
