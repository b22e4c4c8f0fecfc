"""Quiescent-state audits.

After a machine drains, the audit cross-checks three layers of truth —
cache lines, directory state, memory contents, and the oracle's commit
history — against the invariants every coherent protocol must satisfy,
plus directory-specific invariants for the two-bit and full-map schemes.

Run it after every integration test; any violation is a protocol bug.

Only the blocks some component holds are walked: resident lines,
write-back records, directory and translation-buffer entries, written
memory and the oracle's histories.  Every other block has no copy and
no commit, and its directory entry and memory version are the initial
ones, so every check below holds for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.states import GlobalState


@dataclass
class AuditReport:
    """Violations found by :func:`audit_machine` (empty = clean)."""

    violations: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.violations.append(message)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_failed(self) -> None:
        if self.violations:
            preview = "\n  ".join(self.violations[:20])
            raise AssertionError(
                f"{len(self.violations)} audit violations:\n  {preview}"
            )


class _CopyIndex:
    """Which caches hold which blocks, found in one pass over the arrays.

    Only a bitmask of cache positions is kept per cached block, so the
    index costs a few bytes per block; a pass asking for a block looks
    up just the caches whose bit is set.
    """

    def __init__(self, machine) -> None:
        self.arrays = [
            (cache.pid, cache.array)
            for cache in machine.caches
            if getattr(cache, "array", None) is not None
        ]
        masks: Dict[int, int] = {}
        for bit, (_, array) in enumerate(self.arrays):
            for line in array.valid_lines():
                masks[line.block] = masks.get(line.block, 0) | 1 << bit
        self.masks = masks

    def copies(self, block: int) -> List[tuple]:
        """(pid, line) pairs for every valid cached copy of ``block``."""
        found = []
        mask = self.masks.get(block, 0)
        while mask:
            pid, array = self.arrays[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
            line = array.lookup(block)
            if line is not None:
                found.append((pid, line))
        return found


def _held_blocks(machine, index: _CopyIndex) -> List[int]:
    """Sorted blocks some component holds a record of (module docstring)."""
    held = set(index.masks)
    held.update(machine.oracle.recorded())
    for module in machine.modules:
        held.update(module.recorded())
    for cache in machine.caches:
        wb_buffer = getattr(cache, "wb_buffer", None)
        if wb_buffer is not None:
            held.update(wb_buffer.blocks())
    for ctrl in machine.controllers:
        for part in (getattr(ctrl, "directory", None), getattr(ctrl, "tbuf", None)):
            if part is not None:
                held.update(part.recorded())
    return sorted(b for b in held if 0 <= b < machine.config.n_blocks)


def _by_home(machine, blocks: List[int]):
    """``(controller, its blocks among blocks)`` pairs, in index order."""
    homed: List[List[int]] = [[] for _ in machine.controllers]
    for block in blocks:
        homed[machine.amap.home(block)].append(block)
    return zip(machine.controllers, homed)


def audit_machine(machine) -> AuditReport:
    """Full quiescent audit; see module docstring."""
    report = AuditReport()
    _audit_quiescence(machine, report)
    index = _CopyIndex(machine)
    copies = index.copies
    held = _held_blocks(machine, index)
    for block in held:
        _audit_block_values(machine, block, copies(block), report)
    protocol = machine.config.protocol
    if protocol in ("twobit", "twobit_wt"):
        _audit_twobit_directory(machine, held, copies, report)
    elif protocol in ("fullmap", "fullmap_local"):
        _audit_fullmap_directory(machine, held, copies, report)
    if protocol in ("twobit", "twobit_wt", "classical"):
        cached = [block for block in held if block in index.masks]
        _audit_holder_index(machine, cached, copies, report)
    if machine.oracle.violations:
        for violation in machine.oracle.violations:
            report.fail(f"oracle: {violation}")
    return report


def _audit_quiescence(machine, report: AuditReport) -> None:
    if machine.sim.pending:
        report.fail(f"{machine.sim.pending} events still pending")
    for cache in machine.caches:
        if hasattr(cache, "quiescent") and not cache.quiescent():
            report.fail(f"{cache.name} not quiescent")
    for ctrl in machine.controllers:
        if not ctrl.quiescent():
            report.fail(f"{ctrl.name} not quiescent")


def _audit_block_values(
    machine, block: int, copies: List[tuple], report: AuditReport
) -> None:
    dirty = [(pid, line) for pid, line in copies if line.modified]
    clean = [(pid, line) for pid, line in copies if not line.modified]
    if len(dirty) > 1:
        report.fail(
            f"block {block}: {len(dirty)} modified copies "
            f"(pids {[p for p, _ in dirty]})"
        )
        return
    latest = machine.oracle.latest_version(block)
    module = machine.modules[machine.amap.home(block)]
    mem_version = module.peek(block)
    if dirty:
        pid, line = dirty[0]
        if line.version != latest:
            report.fail(
                f"block {block}: dirty copy at P{pid} has v{line.version}, "
                f"latest committed is v{latest}"
            )
        if clean:
            report.fail(
                f"block {block}: dirty copy coexists with clean copies at "
                f"pids {[p for p, _ in clean]}"
            )
    else:
        if latest and mem_version != latest:
            report.fail(
                f"block {block}: no dirty copy but memory has v{mem_version}, "
                f"latest committed is v{latest}"
            )
        for pid, line in clean:
            if line.version != mem_version:
                report.fail(
                    f"block {block}: clean copy at P{pid} has v{line.version}, "
                    f"memory has v{mem_version}"
                )


def _audit_twobit_directory(machine, held, copies_of, report: AuditReport) -> None:
    for ctrl, blocks in _by_home(machine, held):
        for block in blocks:
            state = ctrl.directory.state(block)
            copies = copies_of(block)
            n_copies = len(copies)
            n_dirty = sum(1 for _, line in copies if line.modified)
            if state is GlobalState.ABSENT and n_copies:
                report.fail(
                    f"block {block}: state Absent but cached at "
                    f"{[p for p, _ in copies]}"
                )
            elif state is GlobalState.PRESENT1:
                if n_copies != 1 or n_dirty:
                    report.fail(
                        f"block {block}: state Present1 but copies={n_copies} "
                        f"dirty={n_dirty}"
                    )
            elif state is GlobalState.PRESENT_STAR and n_dirty:
                report.fail(
                    f"block {block}: state Present* with a dirty copy"
                )
            elif state is GlobalState.PRESENTM and (
                n_copies != 1 or n_dirty != 1
            ):
                report.fail(
                    f"block {block}: state PresentM but copies={n_copies} "
                    f"dirty={n_dirty}"
                )
            _audit_tbuf_entry(ctrl, block, copies, report)


def _audit_tbuf_entry(ctrl, block, copies, report: AuditReport) -> None:
    tbuf = getattr(ctrl, "tbuf", None)
    if tbuf is None:
        return
    owners = tbuf.peek(block)
    if owners is None:
        return
    actual = {pid for pid, _ in copies}
    if owners != actual:
        report.fail(
            f"block {block}: translation buffer says {sorted(owners)}, "
            f"actual holders {sorted(actual)}"
        )


def _audit_holder_index(machine, cached, copies_of, report: AuditReport) -> None:
    """Sparse fan-out soundness: every valid copy is an index member.

    The copy-holder index may carry stale extra members (silent
    evictions self-clean lazily) but must never *miss* a holder — a
    missed holder would be skipped by a sparse invalidation round.
    Skipped on dense machines (the index is only maintained when
    ``sparse_fanout`` is set) and under a fault plan: NAK-driven
    reorderings are outside the sparse envelope and the advisory index
    does not track them.
    """
    if not machine.config.sparse_fanout or machine.faults is not None:
        return
    indexes = [
        holders
        for ctrl in machine.controllers
        if (holders := getattr(ctrl, "holders", None)) is not None
    ]
    if not indexes:
        return
    for block in cached:
        actual = {pid for pid, _ in copies_of(block)}
        if not actual:
            continue
        members = set()
        for holders in indexes:
            members |= holders.holders(block)
        missing = actual - members
        if missing:
            report.fail(
                f"block {block}: holder index {sorted(members)} misses "
                f"cached copies at pids {sorted(missing)}"
            )


def _audit_fullmap_directory(machine, held, copies_of, report: AuditReport) -> None:
    for ctrl, blocks in _by_home(machine, held):
        for block in blocks:
            entry = ctrl.directory.entry(block)
            copies = copies_of(block)
            actual = {pid for pid, _ in copies}
            if entry.owners != actual:
                report.fail(
                    f"block {block}: directory owners {sorted(entry.owners)} "
                    f"!= actual holders {sorted(actual)}"
                )
            n_dirty = sum(1 for _, line in copies if line.modified)
            if entry.modified and n_dirty != 1:
                report.fail(
                    f"block {block}: directory says modified but dirty "
                    f"copies={n_dirty}"
                )
            if not entry.modified and not entry.exclusive and n_dirty:
                report.fail(
                    f"block {block}: directory says clean but a dirty copy "
                    "exists"
                )
