"""The Dubois–Briggs generator draws exactly like the straight-line model.

:class:`DuboisBriggsWorkload` inlines its geometric stack-distance draw
and splits it in two: a ``for`` over the first 63 steps, which never
take the long-tail shortcut, and the original ``while`` from depth 63
on.  The stream is part of the determinism contract (every golden and
every paper table is a function of it), so this file keeps the
straight-line generator, with its separate ``_stack_depth``, as the
reference and compares whole streams over pool sizes on both sides of
the depth-64 shortcut boundary.
"""

from __future__ import annotations

import pickle
import random
from typing import Iterator, List

import pytest

from repro.workloads.reference import MemRef, Op
from repro.workloads.synthetic import DuboisBriggsWorkload

N_REFS = 4000
N_PROCESSORS = 2
POOLS = (1, 2, 3, 63, 64, 65, 66, 128, 256)
LOCALITIES = (0.3, 0.95, 0.999)
QS = (0.0, 0.1)


def _stack_depth(rng: random.Random, locality: float, limit: int) -> int:
    """Geometric stack distance, truncated to the pool size."""
    rand = rng.random
    top = limit - 1
    depth = 0
    while depth < top and rand() < locality:
        depth += 1
        if depth >= 64 and rand() < 0.5:
            # Long tail shortcut: jump uniformly into the cold region.
            return rng.randrange(depth, limit)
    return depth


def reference_stream(wl: DuboisBriggsWorkload, pid: int) -> Iterator[MemRef]:
    """The straight-line generator, one helper call per private draw."""
    rng = random.Random(f"{wl.seed}-{pid}")
    stack: List[int] = list(wl.private_blocks(pid))
    rng.shuffle(stack)
    shared = list(wl.shared_blocks)
    while True:
        if rng.random() < wl.q:
            block = shared[rng.randrange(len(shared))]
            op = Op.WRITE if rng.random() < wl.w else Op.READ
            yield MemRef(pid, op, block, shared=True)
        else:
            depth = _stack_depth(rng, wl.locality, len(stack))
            block = stack.pop(depth)
            stack.insert(0, block)
            op = Op.WRITE if rng.random() < wl.private_write_frac else Op.READ
            yield MemRef(pid, op, block, shared=False)


def _reference(wl: DuboisBriggsWorkload, pid: int, count: int) -> List[MemRef]:
    it = reference_stream(wl, pid)
    return [next(it) for _ in range(count)]


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("locality", LOCALITIES)
@pytest.mark.parametrize("pool", POOLS)
def test_stream_equals_straight_line_reference(pool, locality, q):
    wl = DuboisBriggsWorkload(
        n_processors=N_PROCESSORS,
        q=q,
        w=0.4,
        private_blocks_per_proc=pool,
        locality=locality,
        seed=1984 + pool,
    )
    for pid in range(N_PROCESSORS):
        assert wl.take(pid, N_REFS) == _reference(wl, pid, N_REFS)


def test_deep_pools_reach_the_long_tail():
    """The deep cases really draw past depth 64 and take the shortcut,
    so the comparison above covers the ``while`` half of the draw."""
    wl = DuboisBriggsWorkload(
        n_processors=1, q=0.0, private_blocks_per_proc=256,
        locality=0.999, seed=3,
    )
    refs = wl.take(0, N_REFS)
    stack = list(wl.private_blocks(0))
    random.Random(f"{wl.seed}-0").shuffle(stack)
    depths = []
    for ref in refs:
        depth = stack.index(ref.block)
        depths.append(depth)
        stack.insert(0, stack.pop(depth))
    assert max(depths) > 128
    assert sum(64 <= d < 255 for d in depths) > N_REFS // 4


def test_restored_stream_continues_the_reference():
    """A stream pickled mid-way resumes on the same draw sequence."""
    wl = DuboisBriggsWorkload(
        n_processors=2, q=0.1, private_blocks_per_proc=65,
        locality=0.999, seed=7,
    )
    stream = wl.stream(1)
    head = [next(stream) for _ in range(1500)]
    restored = pickle.loads(pickle.dumps(stream))
    tail = [next(restored) for _ in range(1500)]
    assert head + tail == _reference(wl, 1, 3000)
