"""Process-migration workload.

§2.2 notes the software scheme "is not sufficient by itself if we allow
process migration", and §4.2 excludes migration from the model but says
its effects "could be accounted for by adjusting the level of sharing".
This workload makes that concrete: each logical *process* owns a private
block pool, but processes periodically migrate between processors.
After a migration the private pool behaves exactly like shared data —
the old processor's cache holds (possibly dirty) copies the new
processor must pull — so migration converts private traffic into
coherence traffic, inflating the effective sharing level.

The generator keeps the paper's two-stream structure: a truly-shared
pool accessed with probability ``q`` plus the (migrating) private
stream.  Private references are tagged ``shared=True`` because after
migration they genuinely are potentially-shared — which also keeps the
static scheme honest (it must not cache them).
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.reference import MemRef, Op, ref_table
from repro.workloads.synthetic import Workload


class MigratingWorkload(Workload):
    """Two-stream model with processes that migrate between processors.

    Args:
        n_processors: processor-cache pairs; one process per processor
            slot at any instant (processes rotate).
        migration_interval: references a process executes on one
            processor before moving on (0 disables migration).
        q, w, n_shared_blocks: as in
            :class:`~repro.workloads.synthetic.DuboisBriggsWorkload`.
        process_blocks: size of each process's private pool.
        private_write_frac: write probability in the private stream.
        seed: master seed.
    """

    def __init__(
        self,
        n_processors: int,
        migration_interval: int = 200,
        q: float = 0.05,
        w: float = 0.2,
        n_shared_blocks: int = 16,
        process_blocks: int = 64,
        private_write_frac: float = 0.3,
        seed: int = 1984,
    ) -> None:
        if migration_interval < 0:
            raise ValueError("migration_interval must be >= 0")
        if not 0.0 <= q <= 1.0 or not 0.0 <= w <= 1.0:
            raise ValueError("q and w must be probabilities")
        if process_blocks < 1 or n_shared_blocks < 1:
            raise ValueError("pools must be non-empty")
        self.n_processors = n_processors
        self.migration_interval = migration_interval
        self.q = q
        self.w = w
        self.n_shared_blocks = n_shared_blocks
        self.process_blocks = process_blocks
        self.private_write_frac = private_write_frac
        self.seed = seed

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def shared_blocks(self) -> range:
        return range(self.n_shared_blocks)

    def process_pool(self, process: int) -> range:
        start = self.n_shared_blocks + process * self.process_blocks
        return range(start, start + self.process_blocks)

    @property
    def n_blocks(self) -> int:
        return self.n_shared_blocks + self.n_processors * self.process_blocks

    def process_on(self, pid: int, epoch: int) -> int:
        """Which process runs on processor ``pid`` during ``epoch``.

        Processes rotate cyclically, so each migration hands a process's
        working set to the next processor — the worst case for private
        data, and the scenario §2.2 says the static scheme cannot handle
        without flushes.
        """
        return (pid + epoch) % self.n_processors

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        return self._generate(pid)

    def __repr__(self) -> str:
        return (
            f"MigratingWorkload(n_processors={self.n_processors}, "
            f"migration_interval={self.migration_interval}, "
            f"q={self.q}, w={self.w}, "
            f"n_shared_blocks={self.n_shared_blocks}, "
            f"process_blocks={self.process_blocks}, "
            f"private_write_frac={self.private_write_frac}, "
            f"seed={self.seed})"
        )

    def _generate(self, pid: int) -> Iterator[MemRef]:
        rng = random.Random(f"{self.seed}-mig-{pid}")
        shared: List[int] = list(self.shared_blocks)
        # Tag everything shared: after a migration the "private" pool
        # really is visible from two caches.
        reads = ref_table(pid, Op.READ, True)
        writes = ref_table(pid, Op.WRITE, True)
        issued = 0
        while True:
            epoch = (
                issued // self.migration_interval
                if self.migration_interval
                else 0
            )
            process = self.process_on(pid, epoch)
            pool = self.process_pool(process)
            if rng.random() < self.q:
                block = shared[rng.randrange(len(shared))]
                write = rng.random() < self.w
            else:
                block = pool[rng.randrange(len(pool))]
                write = rng.random() < self.private_write_frac
            yield (writes if write else reads)[block]
            issued += 1
