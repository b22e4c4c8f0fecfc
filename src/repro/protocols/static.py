"""Static, software-enforced scheme (§2.2).

Blocks are tagged at compile/link time as private (cacheable) or
writeable-shared (uncacheable).  On a reference to a shared block no
cache load takes place — the access goes straight to memory, which is
therefore always up to date for shared data.  Private blocks use a plain
write-back cache with no coherence machinery at all.

The scheme's correctness *depends on the software tags*: if a workload
lets two processors touch the same block while tagging it private, this
implementation — like the real scheme — becomes incoherent, which the
verification tests demonstrate deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.interconnect.message import Message, MessageKind
from repro.interconnect.network import Network
from repro.memory.module import MemoryModule
from repro.protocols.base import AbstractCacheController, AbstractMemoryController
from repro.sim.kernel import Simulator
from repro.config import MachineConfig
from repro.verification.oracle import CoherenceOracle
from repro.workloads.reference import MemRef


@dataclass
class _Pending:
    ref: MemRef
    issue_time: int
    #: "fill" (private miss) or "mem" (uncached shared access).
    phase: str


class StaticCacheController(AbstractCacheController):
    """Write-back cache that refuses to cache shared-tagged blocks."""

    #: Non-state fields (see :mod:`repro.verification.state`).
    _not_state = {"home_fn": "a pure function of the address map"}

    def __init__(
        self,
        sim: Simulator,
        pid: int,
        config: MachineConfig,
        net: Network,
        home_fn: Callable[[int], str],
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, pid, config, oracle)
        self.net = net
        self.home_fn = home_fn
        self.pending: Optional[_Pending] = None

    # ------------------------------------------------------------------
    # Processor interface
    # ------------------------------------------------------------------
    def _classify(self, ref: MemRef, issue_time: int) -> None:
        if ref.shared:
            # Tagged public: bypass the cache entirely (§2.2).
            self.counters.add("uncached_accesses")
            self.pending = _Pending(ref, issue_time, phase="mem")
            if ref.is_write:
                # The version is drawn by the controller at the commit
                # instant: racing uncached stores must take version
                # numbers in memory serialization order.
                self._send(MessageKind.MEM_WRITE, ref.block)
            else:
                self._send(MessageKind.MEM_READ, ref.block)
            return
        # Private miss (the table step completed every private hit).
        self.counters.add("write_misses" if ref.is_write else "read_misses")
        self._evict_victim(ref.block)
        self.pending = _Pending(ref, issue_time, phase="fill")
        self._send(MessageKind.MEM_READ, ref.block, meta={"fill": True})

    def _evict_victim(self, incoming_block: int) -> None:
        frame = self.array.frame_for(incoming_block)
        if not frame.valid:
            return
        if frame.modified:
            assert frame.block is not None
            self.counters.add("writebacks")
            # Private data: fire-and-forget write-back, nothing can race it.
            self._send(
                MessageKind.PUT,
                frame.block,
                version=frame.version,
                meta={"for": "writeback"},
            )
        frame.reset()

    # ------------------------------------------------------------------
    # Network interface
    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> None:
        pending = self.pending
        if message.kind is not MessageKind.MEM_REPLY:
            raise ValueError(f"{self.name} cannot handle {message!r}")
        if pending is None or pending.ref.block != message.block:
            raise RuntimeError(f"{self.name}: unexpected reply {message!r}")
        self.pending = None
        if pending.phase == "fill":
            done = self._use_array(stolen=False)
            self.sim.post_at(done, self._fill, message, pending)
            return
        # Uncached access completed at memory (a store committed there).
        assert message.version is not None
        if pending.ref.is_write:
            self._complete(pending.ref, pending.issue_time, False,
                           message.version)
        else:
            self._finish_read(pending.ref, pending.issue_time,
                              message.version, hit=False)

    def _fill(self, message: Message, pending: _Pending) -> None:
        assert message.version is not None
        line = self.array.fill(pending.ref.block, message.version, modified=False)
        if pending.ref.is_write:
            self._perform_write(line, pending.ref, pending.issue_time, hit=False)
        else:
            self._finish_read(pending.ref, pending.issue_time,
                              message.version, hit=False)

    def _send(self, kind: MessageKind, block: int, **fields) -> None:
        fields.setdefault("requester", self.pid)
        self.net.send(
            Message(
                kind=kind,
                src=self.name,
                dst=self.home_fn(block),
                block=block,
                **fields,
            )
        )

    def quiescent(self) -> bool:
        return self.pending is None


class StaticMemoryController(AbstractMemoryController):
    """Memory-side agent for the software scheme: plain reads/writes."""

    def __init__(
        self,
        sim: Simulator,
        index: int,
        config: MachineConfig,
        net: Network,
        module: MemoryModule,
        oracle: CoherenceOracle,
    ) -> None:
        super().__init__(sim, index, config)
        self.net = net
        self.module = module
        self.oracle = oracle

    def deliver(self, message: Message) -> None:
        if message.kind is MessageKind.MEM_READ:
            done = self._use_memory()
            self.sim.post_at(done, self._serve_read, message)
        elif message.kind is MessageKind.MEM_WRITE:
            done = self._use_memory()
            self.sim.post_at(done, self._serve_write, message)
        elif message.kind is MessageKind.PUT:
            done = self._use_memory()
            self.sim.post_at(done, self._absorb_writeback, message)
        else:
            raise ValueError(f"{self.name} cannot handle {message!r}")

    def _serve_read(self, message: Message) -> None:
        self.counters.add("reads_served")
        self.net.send(
            Message(
                kind=MessageKind.MEM_REPLY,
                src=self.name,
                dst=message.src,
                block=message.block,
                version=self.module.read(message.block),
                requester=message.requester,
            )
        )

    def _serve_write(self, message: Message) -> None:
        assert message.requester is not None
        version = self._commit_at_memory(message.block, message.requester)
        self.counters.add("writes_served")
        self.net.send(
            Message(
                kind=MessageKind.MEM_REPLY,
                src=self.name,
                dst=message.src,
                block=message.block,
                version=version,
                requester=message.requester,
            )
        )

    def _absorb_writeback(self, message: Message) -> None:
        assert message.version is not None
        self.module.write(message.block, message.version)
        self.counters.add("writebacks_absorbed")

    def quiescent(self) -> bool:
        return True
