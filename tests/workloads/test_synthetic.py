"""Synthetic workload generators."""

import pytest

from repro.workloads.reference import Op
from repro.workloads.synthetic import (
    DuboisBriggsWorkload,
    ScriptedWorkload,
    UniformWorkload,
    hot_cold_scripts,
)


def test_streams_are_deterministic_per_seed():
    a = DuboisBriggsWorkload(n_processors=2, seed=5).take(0, 100)
    b = DuboisBriggsWorkload(n_processors=2, seed=5).take(0, 100)
    assert a == b


def test_streams_differ_across_pids_and_seeds():
    wl = DuboisBriggsWorkload(n_processors=2, seed=5)
    assert wl.take(0, 50) != wl.take(1, 50)
    other = DuboisBriggsWorkload(n_processors=2, seed=6)
    assert wl.take(0, 50) != other.take(0, 50)


def test_address_space_layout_disjoint():
    wl = DuboisBriggsWorkload(
        n_processors=3, n_shared_blocks=4, private_blocks_per_proc=8
    )
    pools = [set(wl.shared_blocks)] + [
        set(wl.private_blocks(pid)) for pid in range(3)
    ]
    union = set()
    for pool in pools:
        assert not (union & pool)
        union |= pool
    assert max(union) + 1 == wl.n_blocks


def test_shared_fraction_approximates_q():
    wl = DuboisBriggsWorkload(n_processors=1, q=0.2, seed=3)
    refs = wl.take(0, 6000)
    frac = sum(r.shared for r in refs) / len(refs)
    assert 0.17 < frac < 0.23


def test_shared_write_fraction_approximates_w():
    wl = DuboisBriggsWorkload(n_processors=1, q=0.5, w=0.3, seed=3)
    refs = [r for r in wl.take(0, 8000) if r.shared]
    frac = sum(r.is_write for r in refs) / len(refs)
    assert 0.26 < frac < 0.34


def test_shared_refs_stay_in_shared_pool():
    wl = DuboisBriggsWorkload(n_processors=2, q=0.3, seed=1)
    for ref in wl.take(1, 2000):
        if ref.shared:
            assert wl.is_shared_block(ref.block)
        else:
            assert ref.block in wl.private_blocks(1)


def test_private_stream_has_locality():
    wl = DuboisBriggsWorkload(
        n_processors=1, q=0.0, locality=0.9, private_blocks_per_proc=256, seed=2
    )
    refs = wl.take(0, 4000)
    distinct = len({r.block for r in refs})
    # Strong locality: far fewer distinct blocks than references.
    assert distinct < len(refs) / 4


def test_parameter_validation():
    with pytest.raises(ValueError):
        DuboisBriggsWorkload(1, q=1.5)
    with pytest.raises(ValueError):
        DuboisBriggsWorkload(1, locality=1.0)
    with pytest.raises(ValueError):
        DuboisBriggsWorkload(1, n_shared_blocks=0)
    wl = DuboisBriggsWorkload(2)
    with pytest.raises(ValueError):
        wl.stream(2)


#: Write fractions outside [0, 1], NaN included.
BAD_FRACTIONS = (-0.1, 1.5, 2.0, float("nan"))


@pytest.mark.parametrize("frac", BAD_FRACTIONS)
def test_write_fractions_must_be_probabilities(frac):
    with pytest.raises(ValueError, match="private_write_frac"):
        DuboisBriggsWorkload(1, private_write_frac=frac)
    with pytest.raises(ValueError, match="write_frac"):
        UniformWorkload(1, n_blocks=4, write_frac=frac)


@pytest.mark.parametrize("frac", (0.0, 1.0))
def test_write_fraction_bounds_are_accepted(frac):
    wl = DuboisBriggsWorkload(1, q=0.0, private_write_frac=frac)
    assert {r.is_write for r in wl.take(0, 50)} == {bool(frac)}
    uniform = UniformWorkload(1, n_blocks=4, write_frac=frac)
    assert {r.is_write for r in uniform.take(0, 50)} == {bool(frac)}


def test_uniform_workload_covers_pool():
    wl = UniformWorkload(n_processors=1, n_blocks=8, seed=0)
    blocks = {r.block for r in wl.take(0, 500)}
    assert blocks == set(range(8))


def test_uniform_workload_all_shared():
    wl = UniformWorkload(1, 4)
    assert all(r.shared for r in wl.take(0, 50))


def test_scripted_workload_finite():
    from repro.workloads.reference import MemRef

    scripts = [[MemRef(0, Op.READ, 1)], []]
    wl = ScriptedWorkload(scripts)
    assert wl.take(0, 1)[0].block == 1
    assert list(wl.stream(1)) == []
    assert wl.n_blocks == 2


def test_hot_cold_scripts_shape():
    wl = hot_cold_scripts(n_processors=2, hot_block=5, refs_per_proc=8, write_every=4)
    refs = wl.take(0, 8)
    assert all(r.block == 5 for r in refs)
    assert sum(r.is_write for r in refs) == 2
