"""Synthetic workload generators.

The central generator is :class:`DuboisBriggsWorkload`, the two-stream
reference model the paper's evaluation is built on (§4.2, after [3]):
each reference is, with probability ``q``, to a writeable-shared block
(uniform over a pool of ``n_shared_blocks``, matching Table 4-2's "the
probability that a shared block reference is to a particular shared block
is 1/16"); otherwise it is to the processor's private pool.  A reference
to a shared block is a write with probability ``w``.

Private streams use an LRU-stack-distance locality model: depth is
geometric with parameter ``locality``, so the private hit ratio in a cache
of capacity C approaches ``1 - locality**C`` and can be dialed to the
paper's regime (h between 0.80 and 0.95).
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from repro.workloads.reference import MemRef, Op, ref_table

class ReplayableStream:
    """Picklable iterator over a workload's pure ``(seed, pid)`` stream.

    Processors hold their reference streams for the lifetime of a run,
    and checkpointing deep-pickles the whole machine — but generators
    don't pickle.  This wrapper counts the references it has yielded;
    pickling stores only ``(workload, pid, position)`` and restoring
    re-derives the underlying stream and fast-forwards to the recorded
    position (streams are pure functions of their workload's seed, so
    the resumed sequence is identical).
    """

    __slots__ = ("workload", "pid", "position", "_it")

    def __init__(self, workload: "Workload", pid: int) -> None:
        self.workload = workload
        self.pid = pid
        self.position = 0
        self._it = workload._raw_stream(pid)

    def __iter__(self) -> "ReplayableStream":
        return self

    def __next__(self) -> MemRef:
        it = self._it
        if it is None:
            it = self._restore()
        ref = next(it)
        self.position += 1
        return ref

    def _restore(self) -> Iterator[MemRef]:
        it = self._it = self.workload._resume_stream(self.pid, self.position)
        return it

    def __getstate__(self):
        return (self.workload, self.pid, self.position)

    def __setstate__(self, state) -> None:
        self.workload, self.pid, self.position = state
        self._it = None
        self.workload._will_resume(self.pid, self.position)


class Workload(ABC):
    """A per-processor infinite reference stream factory."""

    n_processors: int

    def stream(self, pid: int) -> Iterator[MemRef]:
        """Position-tracking (and hence checkpointable) iterator of
        references for processor ``pid``."""
        if not 0 <= pid < self.n_processors:
            raise ValueError(f"pid {pid} out of range")
        return ReplayableStream(self, pid)

    @abstractmethod
    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        """The underlying reference iterator (may be a generator)."""

    def _will_resume(self, pid: int, position: int) -> None:
        """A restored stream of ``pid`` will resume at ``position``.

        Called as each stream unpickles, so a workload learns every
        restored stream before any of them draws.
        """

    def _resume_stream(self, pid: int, position: int) -> Iterator[MemRef]:
        """``pid``'s raw stream past its first ``position`` references."""
        it = self._raw_stream(pid)
        for _ in range(position):
            next(it)
        return it

    def take(self, pid: int, count: int) -> List[MemRef]:
        """First ``count`` references of processor ``pid``'s stream."""
        it = self.stream(pid)
        return [next(it) for _ in range(count)]


@dataclass(frozen=True)
class SharingLevel:
    """A named (q, w) sharing regime, as in the paper's §4.3 cases."""

    name: str
    q: float
    w: float


#: The paper's three sharing cases (§4.3).  ``w`` is swept separately in
#: the tables; the value here is a representative midpoint.
LOW_SHARING = SharingLevel("low", q=0.01, w=0.2)
MODERATE_SHARING = SharingLevel("moderate", q=0.05, w=0.2)
HIGH_SHARING = SharingLevel("high", q=0.10, w=0.2)


class DuboisBriggsWorkload(Workload):
    """Two-stream (private + writeable-shared) reference model.

    Args:
        n_processors: number of processor-cache pairs.
        q: probability a reference is to the shared pool.
        w: probability a shared reference is a write.
        n_shared_blocks: size of the globally shared pool (paper: 16).
        private_blocks_per_proc: size of each processor's private pool.
        locality: geometric stack-distance parameter for private refs;
            larger means deeper (worse locality).
        private_write_frac: fraction of private references that are writes
            (exercises write-backs without coherence traffic).
        seed: master seed; per-processor streams derive their own RNGs.
    """

    def __init__(
        self,
        n_processors: int,
        q: float = 0.05,
        w: float = 0.2,
        n_shared_blocks: int = 16,
        private_blocks_per_proc: int = 256,
        locality: float = 0.95,
        private_write_frac: float = 0.3,
        seed: int = 1984,
    ) -> None:
        if not 0.0 <= q <= 1.0 or not 0.0 <= w <= 1.0:
            raise ValueError("q and w must be probabilities")
        if not 0.0 <= private_write_frac <= 1.0:
            raise ValueError("private_write_frac must be a probability")
        if n_shared_blocks < 1 or private_blocks_per_proc < 1:
            raise ValueError("pools must be non-empty")
        if not 0.0 < locality < 1.0:
            raise ValueError("locality must be in (0, 1)")
        self.n_processors = n_processors
        self.q = q
        self.w = w
        self.n_shared_blocks = n_shared_blocks
        self.private_blocks_per_proc = private_blocks_per_proc
        self.locality = locality
        self.private_write_frac = private_write_frac
        self.seed = seed

    # ------------------------------------------------------------------
    # Address-space layout
    # ------------------------------------------------------------------
    @property
    def shared_blocks(self) -> range:
        return range(self.n_shared_blocks)

    def private_blocks(self, pid: int) -> range:
        start = self.n_shared_blocks + pid * self.private_blocks_per_proc
        return range(start, start + self.private_blocks_per_proc)

    @property
    def n_blocks(self) -> int:
        """Total address-space size covering every pool."""
        return self.n_shared_blocks + self.n_processors * self.private_blocks_per_proc

    def is_shared_block(self, block: int) -> bool:
        return block in self.shared_blocks

    # ------------------------------------------------------------------
    # Stream generation
    # ------------------------------------------------------------------
    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        return self._generate(pid)

    def __repr__(self) -> str:
        # Streams are a pure function of these parameters, so this repr
        # is a stable content identity (sweep cache keys embed it).
        return (
            f"DuboisBriggsWorkload(n_processors={self.n_processors}, "
            f"q={self.q}, w={self.w}, "
            f"n_shared_blocks={self.n_shared_blocks}, "
            f"private_blocks_per_proc={self.private_blocks_per_proc}, "
            f"locality={self.locality}, "
            f"private_write_frac={self.private_write_frac}, "
            f"seed={self.seed})"
        )

    def _generate(self, pid: int) -> Iterator[MemRef]:
        """Infinite iterator of references for processor ``pid``.

        Hot loop: every simulated reference passes through here, so the
        per-draw lookups are hoisted into locals and the stack-distance
        draw is inlined.  The RNG draw sequence is part of the
        determinism contract and must not change:
        ``tests/workloads/test_stream_equivalence.py`` checks it against
        the straight-line reference generator.
        """
        rng = random.Random(f"{self.seed}-{pid}")
        rand = rng.random
        randrange = rng.randrange
        # LRU stack over the private pool; front = most recent.
        stack: List[int] = list(self.private_blocks(pid))
        rng.shuffle(stack)
        pop, insert = stack.pop, stack.insert
        shared = list(self.shared_blocks)
        n_shared = len(shared)
        q, w, pw = self.q, self.w, self.private_write_frac
        locality = self.locality
        # Stack depth is geometric in ``locality``, truncated to the
        # pool.  A step to a depth below 64 is one draw (the ``for``);
        # a step to depth 64 or deeper also draws the long-tail
        # shortcut, a uniform jump into the cold region (the ``while``,
        # entered only once the ``for`` reached depth 63).
        pool = len(stack)
        top = pool - 1
        head = min(top, 63)
        head_steps = range(head)
        shared_reads = ref_table(pid, Op.READ, True)
        shared_writes = ref_table(pid, Op.WRITE, True)
        private_reads = ref_table(pid, Op.READ, False)
        private_writes = ref_table(pid, Op.WRITE, False)
        while True:
            if rand() < q:
                block = shared[randrange(n_shared)]
                yield (shared_writes if rand() < w else shared_reads)[block]
                continue
            for depth in head_steps:
                if rand() >= locality:
                    break
            else:
                depth = head
                while depth < top and rand() < locality:
                    depth += 1
                    if rand() < 0.5:
                        depth = randrange(depth, pool)
                        break
            block = pop(depth)
            insert(0, block)
            yield (private_writes if rand() < pw else private_reads)[block]


class UniformWorkload(Workload):
    """Uniform random references over one flat pool (stress testing)."""

    def __init__(
        self,
        n_processors: int,
        n_blocks: int = 256,
        write_frac: float = 0.3,
        seed: int = 7,
    ) -> None:
        if n_blocks < 1:
            raise ValueError("need at least one block")
        if not 0.0 <= write_frac <= 1.0:
            raise ValueError("write_frac must be a probability")
        self.n_processors = n_processors
        self.n_blocks = n_blocks
        self.write_frac = write_frac
        self.seed = seed

    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        rng = random.Random(f"{self.seed}-{pid}")
        reads = ref_table(pid, Op.READ, True)
        writes = ref_table(pid, Op.WRITE, True)
        while True:
            block = rng.randrange(self.n_blocks)
            yield (writes if rng.random() < self.write_frac else reads)[block]

    def __repr__(self) -> str:
        return (
            f"UniformWorkload(n_processors={self.n_processors}, "
            f"n_blocks={self.n_blocks}, write_frac={self.write_frac}, "
            f"seed={self.seed})"
        )


class ScriptedWorkload(Workload):
    """Fixed per-processor reference lists (deterministic tests).

    Streams are finite: iteration stops when a processor's script is
    exhausted.
    """

    def __init__(self, scripts: Sequence[Sequence[MemRef]]) -> None:
        self.n_processors = len(scripts)
        self._scripts = [list(s) for s in scripts]

    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        return iter(self._scripts[pid])

    @property
    def n_blocks(self) -> int:
        blocks = [
            r.block for script in self._scripts for r in script
        ]
        return (max(blocks) + 1) if blocks else 1

    def __repr__(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for script in self._scripts:
            for ref in script:
                h.update(str(ref).encode("ascii"))
                h.update(b"\n")
            h.update(b"|")
        refs = sum(len(s) for s in self._scripts)
        return (
            f"ScriptedWorkload(n_processors={self.n_processors}, "
            f"refs={refs}, digest={h.hexdigest()[:16]!r})"
        )


def hot_cold_scripts(
    n_processors: int,
    hot_block: int = 0,
    refs_per_proc: int = 64,
    write_every: int = 4,
) -> ScriptedWorkload:
    """All processors hammer one hot block, writing every ``write_every``
    references — the worst case for the two-bit scheme (heavy sharing)."""
    scripts = []
    for pid in range(n_processors):
        script = []
        for i in range(refs_per_proc):
            op = Op.WRITE if (i + pid) % write_every == 0 else Op.READ
            script.append(MemRef(pid=pid, op=op, block=hot_block, shared=True))
        scripts.append(script)
    return ScriptedWorkload(scripts)
