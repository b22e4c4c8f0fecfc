"""Checkpoint/restore: golden bit-identical resume for every protocol.

The contract under test (see ``repro.checkpoint``): restoring a
checkpoint and finishing the run produces *bit-identical* results —
the same ``SimulationResults.to_dict()``, final cycle, and event count
— as a run that was never interrupted.  Checked fault-free and under
the canned ``check`` fault plan, including restores from checkpoints
taken mid-transaction (in-flight messages on the wire).
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import checkpoint
from repro.api import Experiment, resume
from repro.faults import FAULT_PROTOCOLS
from repro.obs.attach import machine_metrics
from repro.protocols import registry
from repro.schema import SCHEMA_VERSION, SchemaMismatchError

#: Small but busy enough to span several checkpoint intervals.
N, REFS, WARMUP = 2, 200, 40


def _experiment(protocol, **overrides):
    return Experiment(
        protocol=protocol, n_processors=N, refs_per_proc=REFS,
        warmup_refs=WARMUP, **overrides,
    )


def _golden(experiment):
    outcome = experiment.run()
    machine = outcome.machine
    return (
        outcome.results.to_dict(),
        machine.sim.now,
        machine.sim.events_processed,
    )


def _checkpointed_then_restored(experiment, path, every=97):
    """Run with checkpointing, then restore the last file and finish."""
    machine, _ = experiment.build()
    machine.run(
        refs_per_proc=REFS, warmup_refs=WARMUP,
        checkpoint_every=every, checkpoint_path=str(path),
    )
    direct = machine.results().to_dict()
    restored = checkpoint.load(str(path))
    restored.continue_run()
    return direct, restored


@pytest.mark.parametrize("protocol", registry.protocol_names())
def test_restore_is_bit_identical(protocol, tmp_path):
    experiment = _experiment(protocol)
    golden, golden_now, golden_events = _golden(experiment)
    direct, restored = _checkpointed_then_restored(
        experiment, tmp_path / "m.ckpt"
    )
    # Checkpointing must not perturb the run it observes...
    assert direct == golden
    # ...and the restored continuation must match it exactly.
    assert restored.results().to_dict() == golden
    assert restored.sim.now == golden_now
    assert restored.sim.events_processed == golden_events


@pytest.mark.parametrize("protocol", FAULT_PROTOCOLS)
def test_restore_is_bit_identical_under_faults(protocol, tmp_path):
    experiment = _experiment(protocol, faults="check")
    golden, golden_now, golden_events = _golden(experiment)
    _, restored = _checkpointed_then_restored(
        experiment, tmp_path / "f.ckpt"
    )
    assert restored.results().to_dict() == golden
    assert restored.sim.now == golden_now
    assert restored.sim.events_processed == golden_events


def test_mid_transaction_checkpoint_resumes(tmp_path):
    """A {cycle}-templated path keeps every interval's snapshot; a middle
    one restores with work genuinely in flight and still finishes to the
    golden result."""
    experiment = _experiment("twobit", q=0.3)
    golden, golden_now, _ = _golden(experiment)
    machine, _ = experiment.build()
    machine.run(
        refs_per_proc=REFS, warmup_refs=WARMUP,
        checkpoint_every=61, checkpoint_path=str(tmp_path / "ck-{cycle}.bin"),
    )
    files = sorted(
        tmp_path.glob("ck-*.bin"), key=lambda p: int(p.stem.split("-")[1])
    )
    assert len(files) >= 2, "run too short to take multiple checkpoints"
    middle = files[len(files) // 2]
    restored = checkpoint.load(str(middle))
    assert restored.sim.pending, "checkpoint should hold in-flight work"
    assert restored.sim.now < golden_now
    restored.continue_run()
    assert restored.results().to_dict() == golden
    assert restored.sim.now == golden_now


def test_resume_facade_matches_uninterrupted(tmp_path):
    experiment = _experiment("fullmap")
    golden, _, _ = _golden(experiment)
    path = tmp_path / "r.ckpt"
    machine, _ = experiment.build()
    machine.run(
        refs_per_proc=REFS, warmup_refs=WARMUP,
        checkpoint_every=83, checkpoint_path=str(path),
    )
    outcome = resume(str(path))
    assert outcome.audit.ok
    assert outcome.results.to_dict() == golden


def test_instrumented_restore_keeps_telemetry():
    # Nothing reads the hub's histograms before the snapshot, so the
    # span counts gathered so far travel in the checkpoint unread.
    def instrumented():
        machine, _ = Experiment(
            protocol="twobit", n_processors=4, seed=7
        ).build(instrument=True)
        machine.run(refs_per_proc=500)
        return machine

    def metrics(machine):
        return json.dumps(
            machine_metrics(machine, machine.sim.obs), sort_keys=True
        )

    uninterrupted = instrumented()
    uninterrupted.run(refs_per_proc=1000)
    restored = checkpoint.restore_bytes(
        checkpoint.snapshot_bytes(instrumented())
    )
    restored.run(refs_per_proc=1000)
    assert metrics(restored) == metrics(uninterrupted)


def test_snapshot_roundtrip_preserves_fingerprint():
    experiment = _experiment("twobit")
    machine, _ = experiment.build()
    machine.run(refs_per_proc=REFS, warmup_refs=WARMUP)
    data = checkpoint.snapshot_bytes(machine)
    clone = checkpoint.restore_bytes(data)
    assert checkpoint.fingerprint(clone) == checkpoint.fingerprint(machine)


def _mid_run_checkpoints(tmp_path, name, protocol="twobit",
                         instrument=False, **overrides):
    """The checkpoints one run writes mid-run, transactions in flight."""
    options = {"q": 0.1, "w": 0.3, "seed": 9, **overrides}
    machine, _ = Experiment(protocol=protocol, **options).build(
        instrument=instrument
    )
    machine.run(
        refs_per_proc=300, warmup_refs=50, checkpoint_every=400,
        checkpoint_path=str(tmp_path / f"{name}-{{cycle}}.ckpt"),
    )
    files = sorted(tmp_path.glob(f"{name}-*.ckpt"))
    assert len(files) >= 2
    return files


def test_restore_then_save_reproduces_a_built_machine():
    """A built machine advanced to cycle 1500 (16,315 B at the parent,
    which re-saved to 16,333 B: the restored machine pickled attribute
    names the live one shared through the pickle memo)."""
    machine, _ = Experiment(
        protocol="twobit", n_processors=4, q=0.1, w=0.3, seed=9
    ).build()
    machine.sim.run(until=1500)
    data = checkpoint.snapshot_bytes(machine)
    assert checkpoint.snapshot_bytes(checkpoint.restore_bytes(data)) == data


@pytest.mark.parametrize("instrument", [False, True],
                         ids=["bare", "instrumented"])
def test_restore_then_save_reproduces_mid_run_checkpoints(instrument, tmp_path):
    for path in _mid_run_checkpoints(tmp_path, "run", instrument=instrument):
        data = path.read_bytes()
        again = checkpoint.snapshot_bytes(checkpoint.restore_bytes(data))
        assert again == data, path.name


def test_resave_in_another_process_reproduces_the_bytes(tmp_path):
    """What a checkpoint holds in sets (cache names, line states, owner
    pids) and strings must pickle alike in any process: the re-saving
    interpreters run under other hash seeds."""
    runs = {
        "faulted": {"faults": "check"},
        "illinois": {"protocol": "illinois"},
        "instrumented": {"protocol": "fullmap_local", "instrument": True},
        "shared": {"protocol": "fullmap", "n_processors": 12, "q": 0.4},
    }
    for name, options in runs.items():
        _mid_run_checkpoints(tmp_path, name, **options)
    script = (
        "import pathlib, sys\n"
        "from repro import checkpoint\n"
        "for path in sorted(pathlib.Path(sys.argv[1]).glob('*.ckpt')):\n"
        "    data = path.read_bytes()\n"
        "    again = checkpoint.snapshot_bytes(checkpoint.restore_bytes(data))\n"
        "    print(path.name, 'same' if again == data else 'differs')\n"
    )
    src = str(Path(checkpoint.__file__).parents[1])
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) >= 2 * len(runs)
        assert all(line.endswith(" same") for line in lines), lines


def _corrupt_line_version(machine):
    line = next(iter(machine.caches[0].array.valid_lines()))
    line.version += 1000


def _corrupt_memory_version(machine):
    versions = machine.modules[0]._versions
    versions[next(iter(versions))] += 1000


def _corrupt_two_bit_state(machine):
    from repro.core.states import GlobalState

    states = machine.controllers[0].directory._states
    block = next(iter(states))
    states[block] = (
        GlobalState.ABSENT
        if states[block] is not GlobalState.ABSENT
        else GlobalState.PRESENT_STAR
    )


@pytest.mark.parametrize(
    "corrupt",
    [_corrupt_line_version, _corrupt_memory_version, _corrupt_two_bit_state],
    ids=["line-version", "memory-version", "two-bit-state"],
)
def test_fingerprint_sees_a_corrupted_clone(corrupt):
    """A restore that lost cache, memory or directory contents must not
    fingerprint equal to its original.  The fields are poked directly,
    so no counter moves with them."""
    experiment = _experiment("twobit")
    machine, _ = experiment.build()
    machine.run(refs_per_proc=REFS, warmup_refs=WARMUP)
    clone = checkpoint.restore_bytes(checkpoint.snapshot_bytes(machine))
    corrupt(clone)
    assert checkpoint.fingerprint(clone) != checkpoint.fingerprint(machine)


def test_checkpoint_size_is_flat_in_run_length():
    """The oracle forgets commits no future read can need, so a snapshot
    after 8k refs/proc is barely larger than one after 2k (it grew 1.6x
    when the oracle kept every commit)."""
    sizes = []
    for refs in (2000, 8000):
        machine, _ = Experiment(
            protocol="twobit", n_processors=4, refs_per_proc=refs,
            warmup_refs=0,
        ).build()
        machine.run(refs_per_proc=refs, warmup_refs=0)
        sizes.append(len(checkpoint.snapshot_bytes(machine)))
    assert sizes[1] <= 1.25 * sizes[0], sizes


def _write_checkpoint(tmp_path, name="p.ckpt"):
    experiment = _experiment("twobit")
    machine, _ = experiment.build()
    machine.run(
        refs_per_proc=REFS, warmup_refs=WARMUP,
        checkpoint_every=97, checkpoint_path=str(tmp_path / name),
    )
    return tmp_path / name


def test_peek_reads_header_without_unpickling(tmp_path):
    path = _write_checkpoint(tmp_path)
    header = checkpoint.peek(str(path))
    assert header.schema_version == SCHEMA_VERSION
    assert header.protocol == "twobit"
    assert header.n_processors == N
    assert header.cycle > 0
    assert header.events_processed > 0
    assert header.payload_size > 0
    assert path.stat().st_size == (
        len(checkpoint.MAGIC)
        + len(header.to_json().encode()) + 1
        + header.payload_size
    )


def test_failed_save_leaves_no_temporary_file(tmp_path, monkeypatch):
    import errno
    import os

    machine, _ = _experiment("twobit").build()
    machine.run(refs_per_proc=20, warmup_refs=0)

    def full_disk(fd):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", full_disk)
    with pytest.raises(OSError, match="No space left"):
        checkpoint.save(machine, str(tmp_path / "full.ckpt"))
    assert list(tmp_path.iterdir()) == []


def test_bad_magic_raises(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"this is not a checkpoint\n")
    with pytest.raises(checkpoint.CheckpointError, match="bad magic"):
        checkpoint.load(str(path))


def test_corrupt_payload_raises(tmp_path):
    path = _write_checkpoint(tmp_path)
    data = bytearray(path.read_bytes())
    data[-1] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(checkpoint.CheckpointError, match="digest mismatch"):
        checkpoint.load(str(path))


def _rewrite_header(path, **changes):
    data = path.read_bytes()
    rest = data[len(checkpoint.MAGIC):]
    newline = rest.find(b"\n")
    header = json.loads(rest[:newline].decode())
    header.update(changes)
    path.write_bytes(
        checkpoint.MAGIC
        + json.dumps(header, sort_keys=True).encode()
        + b"\n"
        + rest[newline + 1:]
    )


def test_schema_mismatch_is_loud(tmp_path):
    path = _write_checkpoint(tmp_path)
    _rewrite_header(path, schema_version=SCHEMA_VERSION + 999)
    with pytest.raises(SchemaMismatchError):
        checkpoint.load(str(path))


def test_code_version_mismatch_is_loud_but_overridable(tmp_path):
    path = _write_checkpoint(tmp_path)
    _rewrite_header(path, code_version="0" * 16)
    with pytest.raises(checkpoint.CheckpointError, match="code_version"):
        checkpoint.load(str(path))
    machine = checkpoint.load(str(path), allow_code_mismatch=True)
    machine.continue_run()  # still runs to completion


def test_non_utf8_header_raises_checkpoint_error():
    with pytest.raises(checkpoint.CheckpointError, match="corrupt"):
        checkpoint.restore_bytes(checkpoint.MAGIC + b"\xff\xfe\n")


def test_payload_naming_a_missing_class_raises_checkpoint_error():
    # A checkpoint from a build that had a class this one lacks (protocol
    # 0 pickle: GLOBAL the class, call it with no arguments).
    payload = b"crepro.protocols.compiled\nCompiledProcessor\n(tR."
    header = checkpoint.CheckpointHeader(
        schema_version=SCHEMA_VERSION, code_version="0" * 16,
        protocol="twobit", n_processors=1, cycle=0, events_processed=0,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_size=len(payload),
    )
    data = checkpoint.MAGIC + header.to_json().encode() + b"\n" + payload
    with pytest.raises(
        checkpoint.CheckpointError,
        match="repro.protocols.compiled.CompiledProcessor",
    ):
        checkpoint.restore_bytes(data, allow_code_mismatch=True)


def test_non_string_persistent_id_raises_checkpoint_error():
    # Strings are the only persistent ids a save writes; a payload naming
    # anything else (here a list) is refused, not handed to sys.intern.
    payload = b"\x80\x05]\x94Q."
    header = checkpoint.CheckpointHeader(
        schema_version=SCHEMA_VERSION, code_version="0" * 16,
        protocol="twobit", n_processors=1, cycle=0, events_processed=0,
        payload_sha256=hashlib.sha256(payload).hexdigest(),
        payload_size=len(payload),
    )
    data = checkpoint.MAGIC + header.to_json().encode() + b"\n" + payload
    with pytest.raises(checkpoint.CheckpointError, match="persistent id"):
        checkpoint.restore_bytes(data, allow_code_mismatch=True)


def _parent_layout(sim):
    # The layout before handle-free events: (time, tie, seq, None, fn, args).
    sim._queue = [(t, tie, seq, None, fn, a) for t, tie, seq, fn, a in sim._queue]


def _uncallable_fn(sim):
    t, tie, seq, _fn, args = sim._queue[0]
    sim._queue[0] = (t, tie, seq, 42, args)


def _broken_heap(sim):
    sim._queue = [max(sim._queue)] + sorted(sim._queue)[:-1]


def _stale_seq_counter(sim):
    sim._seq = 0  # the next post would reuse a queued entry's seq


@pytest.mark.parametrize(
    "tamper", [_parent_layout, _uncallable_fn, _broken_heap, _stale_seq_counter],
    ids=["parent-layout", "uncallable-fn", "broken-heap", "stale-seq-counter"],
)
def test_invalid_event_queue_raises_checkpoint_error(tamper, tmp_path):
    # A queue the run loop cannot drain is rejected at restore, not with
    # a TypeError mid-run.
    machine, _ = _experiment("twobit").build()
    machine.run(
        refs_per_proc=REFS, warmup_refs=WARMUP,
        checkpoint_every=61, checkpoint_path=str(tmp_path / "ck-{cycle}.bin"),
    )
    first = min(tmp_path.glob("ck-*.bin"), key=lambda p: int(p.stem[3:]))
    machine = checkpoint.load(str(first))
    assert machine.sim.pending >= 2  # both processors in flight
    tamper(machine.sim)
    data = checkpoint.snapshot_bytes(machine)
    with pytest.raises(checkpoint.CheckpointError, match="event queue"):
        checkpoint.restore_bytes(data)


def test_simulator_without_uid_counter_raises_checkpoint_error():
    # A payload taken before the simulator owned the uid counter.
    machine, _ = _experiment("twobit").build()
    machine.run(refs_per_proc=REFS, warmup_refs=WARMUP)
    del machine.sim._uid
    data = checkpoint.snapshot_bytes(machine)
    with pytest.raises(checkpoint.CheckpointError, match="uid counter"):
        checkpoint.restore_bytes(data)


def _held_uids(machine):
    """Uids the machine's caches hold in pending ops and eject records."""
    held = []
    for cache in machine.caches:
        if cache.pending is not None:
            held.append(cache.pending.uid)
        held.extend(record.uid for record in cache._ejects.values())
    return held


def test_restored_machine_draws_uids_above_held_ones(tmp_path):
    machine, _ = _experiment("twobit", q=0.3, faults="check").build()
    machine.run(
        refs_per_proc=REFS, warmup_refs=WARMUP,
        checkpoint_every=61, checkpoint_path=str(tmp_path / "ck-{cycle}.bin"),
    )
    restored = [checkpoint.load(str(p)) for p in tmp_path.glob("ck-*.bin")]
    busy = [(m, _held_uids(m)) for m in restored if _held_uids(m)]
    assert busy, "no checkpoint caught a transaction in flight"
    for machine, held in busy:
        assert machine.sim.uid() > max(held)


def _uids_drawn(machine):
    """Every uid ``machine`` draws over one short run, in order."""
    drawn = []
    draw = machine.sim.uid

    def record():
        uid = draw()
        drawn.append(uid)
        return uid

    machine.sim.uid = record
    machine.run(refs_per_proc=REFS, warmup_refs=WARMUP)
    assert drawn, "the run drew no uids"
    return drawn


def test_two_builds_draw_equal_uid_sequences():
    experiment = _experiment("twobit", q=0.3)
    first = _uids_drawn(experiment.build()[0])
    assert _uids_drawn(experiment.build()[0]) == first


@pytest.mark.parametrize(
    "floors",
    [{"op": "x"}, [], {"op": 10**30}], ids=["non-int", "list", "huge"],
)
def test_header_uid_floors_are_ignored(floors, tmp_path):
    # Nothing reads the key, so even a malformed one leaves no trace on
    # machines built afterwards.
    experiment = _experiment("twobit", q=0.3)
    before = _uids_drawn(experiment.build()[0])
    path = _write_checkpoint(tmp_path)
    _rewrite_header(path, uid_floors=floors)
    assert checkpoint.peek(str(path)).cycle > 0
    machine = checkpoint.load(str(path))
    machine.continue_run()
    assert _uids_drawn(experiment.build()[0]) == before


def test_header_with_a_retired_uid_floor_still_loads(tmp_path):
    # Headers written by older builds carry uid floors, one of them for
    # the message uids that are gone too.
    path = _write_checkpoint(tmp_path)
    _rewrite_header(path, uid_floors={"op": 5, "eject": 5, "msg": 10**9})
    header = checkpoint.peek(str(path))
    machine = checkpoint.load(str(path))
    assert machine.sim.now == header.cycle


def test_checkpoint_every_requires_path():
    machine, _ = _experiment("twobit").build()
    with pytest.raises(ValueError, match="checkpoint_path"):
        machine.run(refs_per_proc=50, checkpoint_every=10)


def test_resolve_path_templates_cycle():
    assert checkpoint.resolve_path("a/ck-{cycle}.bin", 420) == "a/ck-420.bin"
    assert checkpoint.resolve_path("plain.bin", 420) == "plain.bin"
