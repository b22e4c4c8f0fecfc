"""Per-block state on demand: a block in its initial state has no entry.

The two-bit and full-map directories and the memory modules store a
record only for a block that differs from its initial state (ABSENT /
no owners / version 0).  These tests pin that canonical form: a built
machine holds nothing, a block returning to its initial state drops
its entry, the statistics answer as the dense map did, and checkpoints
and machine states are unaffected.
"""

import tracemalloc

import pytest

from repro import checkpoint
from repro.api import Experiment
from repro.core.states import GlobalState
from repro.verification.state import machine_state

from tests.conftest import assert_clean_audit, read, scripted_machine, write


def _homes(machine):
    return [ctrl.directory for ctrl in machine.controllers]


def _entries(machine):
    """Every directory and memory entry the machine stores."""
    return [
        *(b for d in _homes(machine) for b in d.recorded()),
        *(b for module in machine.modules for b in module.recorded()),
    ]


@pytest.mark.parametrize("protocol", ["twobit", "fullmap", "twobit_wt"])
def test_built_machine_holds_no_entries(protocol):
    machine = scripted_machine([[], [], []], protocol=protocol, n_modules=2)
    assert _entries(machine) == []
    for directory in _homes(machine):
        assert len(directory) == 4
        for block in directory.blocks:
            assert block in directory
    assert machine.controllers[0].directory.blocks == range(0, 8, 2)


def test_n256_machine_is_built_within_budget():
    """A built n=256 two-bit machine (32,784 blocks) stays under 5 MB of
    Python allocations: per-block records and cache frames are made on
    demand.  The dense build took 19.8 MB."""
    tracemalloc.start()
    try:
        machine, _ = Experiment(protocol="twobit", n_processors=256).build()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert machine.config.n_blocks == 32_784
    assert _entries(machine) == []
    assert size < 5_000_000, f"built n=256 machine holds {size} bytes"


def _evict_block_3(machine, pid):
    # 2 sets x 2 ways: blocks 5 and 7 share block 3's set and evict it.
    read(machine, pid, 5)
    read(machine, pid, 7)


def test_twobit_entry_dropped_when_block_returns_to_absent():
    machine = scripted_machine([[], []])
    directory = machine.controllers[0].directory
    read(machine, 0, 3)
    assert directory.state(3) is GlobalState.PRESENT1
    assert 3 in directory.recorded()
    _evict_block_3(machine, 0)
    assert directory.state(3) is GlobalState.ABSENT
    assert 3 not in directory.recorded()
    assert_clean_audit(machine)


def test_fullmap_entry_dropped_when_owners_empty():
    machine = scripted_machine([[], []], protocol="fullmap")
    directory = machine.controllers[0].directory
    read(machine, 0, 3)
    write(machine, 1, 3)  # P0 invalidated, P1 holds it dirty
    assert directory.entry(3).owners == {1} and directory.entry(3).modified
    _evict_block_3(machine, 1)  # dirty write-back empties the entry
    assert 3 not in directory.recorded()
    assert directory.entry(3).owners == set()
    assert machine.modules[0].peek(3) > 0
    assert_clean_audit(machine)


def test_fullmap_uncommitted_entry_is_not_stored():
    machine = scripted_machine([[], []], protocol="fullmap")
    directory = machine.controllers[0].directory
    directory.entry(3).owners.add(1)
    assert list(directory.recorded()) == []
    with pytest.raises(KeyError):
        directory.entry(8)


@pytest.mark.parametrize("protocol", ["twobit", "fullmap"])
def test_state_is_canonical_across_paths(protocol):
    """A block taken out of its initial state and back leaves the same
    machine state as one never touched."""
    untouched = scripted_machine([[], []], protocol=protocol)
    touched = scripted_machine([[], []], protocol=protocol)
    directory = touched.controllers[0].directory
    if protocol == "twobit":
        directory.set_state(3, GlobalState.PRESENTM)
        directory.set_state(3, GlobalState.ABSENT)
    else:
        entry = directory.entry(3)
        entry.owners.add(1)
        entry.modified = True
        directory.commit(3, entry)
        entry = directory.entry(3)
        entry.owners.clear()
        entry.modified = False
        directory.commit(3, entry)
    touched.modules[0].write(3, 0)
    assert _entries(touched) == []
    assert machine_state(touched) == machine_state(untouched)


class DenseDirectory:
    """The dense bookkeeping of a two-bit directory: every homed block's
    state and time in each state, updated from its transitions."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.state = {b: GlobalState.ABSENT for b in blocks}
        self.reset(0)

    def reset(self, now):
        self.since = {b: now for b in self.blocks}
        self.time_in = {
            b: {s: 0 for s in GlobalState} for b in self.blocks
        }

    def transition(self, block, old, new, now):
        assert self.state[block] is old
        self.time_in[block][old] += now - self.since[block]
        self.since[block] = now
        self.state[block] = new

    def close(self, now):
        for block in self.blocks:
            self.time_in[block][self.state[block]] += now - self.since[block]
            self.since[block] = now

    def occupancy(self, blocks=None):
        chosen = [b for b in (self.blocks if blocks is None else blocks)
                  if b in self.state]
        totals = {s: 0 for s in GlobalState}
        for block in chosen:
            for s, cycles in self.time_in[block].items():
                totals[s] += cycles
        grand = sum(totals.values())
        if grand == 0:
            return {s: 0.0 for s in GlobalState}
        return {s: c / grand for s, c in totals.items()}

    def histogram(self):
        counts = {s: 0 for s in GlobalState}
        for s in self.state.values():
            counts[s] += 1
        return counts


def _dense_state_occupancy(denses, blocks):
    totals = {s: 0.0 for s in GlobalState}
    weight = 0
    for dense in denses:
        local = [b for b in blocks if b in dense.state]
        if not local:
            continue
        for s, frac in dense.occupancy(local).items():
            totals[s] += frac * len(local)
        weight += len(local)
    return {s: v / weight for s, v in totals.items()}


def test_statistics_equal_a_dense_reference():
    machine, _ = Experiment(
        protocol="twobit", n_processors=4, n_modules=2, q=0.3, w=0.4,
        private_blocks_per_proc=16, seed=5,
    ).build()
    denses = []
    for ctrl in machine.controllers:
        dense = DenseDirectory(ctrl.directory.blocks)
        probe = ctrl.directory.observer

        def observe(block, old, new, dense=dense, probe=probe):
            dense.transition(block, old, new, machine.sim.now)
            probe(block, old, new)

        ctrl.directory.observer = observe
        denses.append(dense)
    open_window = machine.reset_measurement

    def reset_measurement():
        open_window()
        for dense in denses:
            dense.reset(machine.sim.now)

    machine.reset_measurement = reset_measurement
    machine.run(refs_per_proc=400, warmup_refs=100)

    for dense in denses:
        dense.close(machine.sim.now)
    shared = list(range(machine.config.n_blocks - 16, machine.config.n_blocks))
    assert machine.state_occupancy(shared) == _dense_state_occupancy(
        denses, shared
    )
    everything = range(machine.config.n_blocks)
    assert machine.state_occupancy() == _dense_state_occupancy(denses, everything)
    for ctrl, dense in zip(machine.controllers, denses):
        directory = ctrl.directory
        assert directory.occupancy() == dense.occupancy()
        subset = [*shared, 10**6]  # foreign blocks are ignored
        assert directory.occupancy(subset) == dense.occupancy(subset)
        assert directory.histogram() == dense.histogram()
        assert directory.storage_bits == 2 * len(dense.blocks)
        assert sorted(directory.recorded()) == sorted(
            b for b, s in dense.state.items() if s is not GlobalState.ABSENT
        )
        assert all(directory.state(b) is s for b, s in dense.state.items())
    assert machine.state_occupancy()[GlobalState.PRESENTM] > 0


def test_sparse_checkpoint_round_trip_is_bit_identical(tmp_path):
    """A sparse machine restores to the same state, still sparse, and
    the resumed run ends bit-identical to the uninterrupted one."""
    experiment = Experiment(
        protocol="twobit", n_processors=4, n_modules=2, q=0.1, w=0.3,
        private_blocks_per_proc=1024, seed=9,
    )
    machine, _ = experiment.build()
    machine.run(refs_per_proc=300, checkpoint_every=400,
                checkpoint_path=str(tmp_path / "ckpt-{cycle}.bin"))
    paths = sorted(tmp_path.glob("ckpt-*.bin"), key=lambda p: int(p.stem[5:]))
    data = paths[len(paths) // 2].read_bytes()
    restored = checkpoint.restore_bytes(data)
    twin = checkpoint.restore_bytes(checkpoint.snapshot_bytes(restored))
    assert machine_state(twin) == machine_state(restored)
    held = set(_entries(restored))
    assert held and len(held) < restored.config.n_blocks // 4
    restored.continue_run()
    assert checkpoint.fingerprint(restored) == checkpoint.fingerprint(machine)
    assert restored.results().to_dict() == machine.results().to_dict()
