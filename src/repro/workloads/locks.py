"""Lock-contention workload (§2.2's "semaphores and system tables").

The paper motivates limited sharing with synchronization objects; this
generator produces the canonical structure of such traffic: each
processor repeatedly

1. reads a lock block (the test of test-and-set),
2. writes the same block (the set — a *write hit on a previously
   unmodified block*, §3.2.4's MREQUEST path, hit as hard as real
   semaphores hit it),
3. touches a few blocks of the data the lock protects,
4. writes the lock again (the release).

The stream is structural rather than value-reactive (the generator does
not observe the simulated lock value — pre-generated reference streams
cannot), but it reproduces the access *pattern* that makes semaphores
the worst case for Present*: hot blocks ping-ponging between caches with
a read-then-write on every acquisition.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from repro.workloads.reference import MemRef, Op, ref_table
from repro.workloads.synthetic import Workload


class LockContentionWorkload(Workload):
    """Processors contending on a small set of lock blocks.

    Args:
        n_processors: processor-cache pairs.
        n_locks: number of lock blocks (semaphores).
        protected_blocks_per_lock: data blocks guarded by each lock.
        critical_section_refs: protected-data references per acquisition.
        think_refs: private references between critical sections.
        think_blocks_per_proc: size of each processor's private pool.
        seed: master seed.
    """

    def __init__(
        self,
        n_processors: int,
        n_locks: int = 4,
        protected_blocks_per_lock: int = 4,
        critical_section_refs: int = 3,
        think_refs: int = 10,
        think_blocks_per_proc: int = 32,
        seed: int = 1984,
    ) -> None:
        if n_locks < 1 or protected_blocks_per_lock < 1:
            raise ValueError("locks and protected pools must be non-empty")
        if critical_section_refs < 0 or think_refs < 0:
            raise ValueError("reference counts must be >= 0")
        if think_blocks_per_proc < 1:
            raise ValueError("private pool must be non-empty")
        self.n_processors = n_processors
        self.n_locks = n_locks
        self.protected_blocks_per_lock = protected_blocks_per_lock
        self.critical_section_refs = critical_section_refs
        self.think_refs = think_refs
        self.think_blocks_per_proc = think_blocks_per_proc
        self.seed = seed

    # ------------------------------------------------------------------
    # Layout: [locks][protected pools][private pools]
    # ------------------------------------------------------------------
    def lock_block(self, lock: int) -> int:
        if not 0 <= lock < self.n_locks:
            raise ValueError(f"lock {lock} out of range")
        return lock

    def protected_pool(self, lock: int) -> range:
        start = self.n_locks + lock * self.protected_blocks_per_lock
        return range(start, start + self.protected_blocks_per_lock)

    def private_pool(self, pid: int) -> range:
        start = (
            self.n_locks
            + self.n_locks * self.protected_blocks_per_lock
            + pid * self.think_blocks_per_proc
        )
        return range(start, start + self.think_blocks_per_proc)

    @property
    def n_blocks(self) -> int:
        return (
            self.n_locks
            + self.n_locks * self.protected_blocks_per_lock
            + self.n_processors * self.think_blocks_per_proc
        )

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------
    def _raw_stream(self, pid: int) -> Iterator[MemRef]:
        return self._generate(pid)

    def __repr__(self) -> str:
        return (
            f"LockContentionWorkload(n_processors={self.n_processors}, "
            f"n_locks={self.n_locks}, "
            f"protected_blocks_per_lock={self.protected_blocks_per_lock}, "
            f"critical_section_refs={self.critical_section_refs}, "
            f"think_refs={self.think_refs}, "
            f"think_blocks_per_proc={self.think_blocks_per_proc}, "
            f"seed={self.seed})"
        )

    def _generate(self, pid: int) -> Iterator[MemRef]:
        rng = random.Random(f"{self.seed}-lock-{pid}")
        private: List[int] = list(self.private_pool(pid))
        shared_reads = ref_table(pid, Op.READ, True)
        shared_writes = ref_table(pid, Op.WRITE, True)
        private_reads = ref_table(pid, Op.READ, False)
        private_writes = ref_table(pid, Op.WRITE, False)
        while True:
            lock = rng.randrange(self.n_locks)
            lock_addr = self.lock_block(lock)
            protected = list(self.protected_pool(lock))
            # Acquire: test (read) then set (write) — §3.2.4's path.
            yield shared_reads[lock_addr]
            yield shared_writes[lock_addr]
            # Critical section over the protected data.
            for _ in range(self.critical_section_refs):
                block = protected[rng.randrange(len(protected))]
                table = shared_writes if rng.random() < 0.5 else shared_reads
                yield table[block]
            # Release.
            yield shared_writes[lock_addr]
            # Think time on private data.
            for _ in range(self.think_refs):
                block = private[rng.randrange(len(private))]
                table = private_writes if rng.random() < 0.3 else private_reads
                yield table[block]
