"""Process-migration workload."""

import pytest

from repro.workloads.migration import MigratingWorkload


def test_deterministic_per_seed():
    a = MigratingWorkload(n_processors=2, seed=3).take(0, 100)
    b = MigratingWorkload(n_processors=2, seed=3).take(0, 100)
    assert a == b


def test_process_rotation_schedule():
    wl = MigratingWorkload(n_processors=3, migration_interval=10)
    assert wl.process_on(0, epoch=0) == 0
    assert wl.process_on(0, epoch=1) == 1
    assert wl.process_on(2, epoch=2) == 1
    assert wl.process_on(1, epoch=3) == 1


def test_private_pool_changes_after_migration():
    wl = MigratingWorkload(
        n_processors=2, migration_interval=50, q=0.0, process_blocks=8, seed=1
    )
    refs = wl.take(0, 100)
    first_epoch = {r.block for r in refs[:50]}
    second_epoch = {r.block for r in refs[50:]}
    assert first_epoch <= set(wl.process_pool(0))
    assert second_epoch <= set(wl.process_pool(1))


def test_no_migration_when_interval_zero():
    wl = MigratingWorkload(
        n_processors=2, migration_interval=0, q=0.0, process_blocks=8, seed=1
    )
    refs = wl.take(1, 200)
    assert {r.block for r in refs} <= set(wl.process_pool(1))


def test_all_refs_tagged_shared():
    wl = MigratingWorkload(n_processors=2, seed=2)
    assert all(r.shared for r in wl.take(0, 100))


def test_address_space_layout():
    wl = MigratingWorkload(n_processors=3, n_shared_blocks=4, process_blocks=8)
    assert wl.n_blocks == 4 + 3 * 8
    pools = [set(wl.shared_blocks)] + [set(wl.process_pool(i)) for i in range(3)]
    union = set()
    for pool in pools:
        assert not union & pool
        union |= pool


def test_validation():
    with pytest.raises(ValueError):
        MigratingWorkload(2, migration_interval=-1)
    with pytest.raises(ValueError):
        MigratingWorkload(2, q=2.0)
    with pytest.raises(ValueError):
        MigratingWorkload(2, process_blocks=0)
    wl = MigratingWorkload(2)
    with pytest.raises(ValueError):
        wl.stream(5)


def test_migration_inflates_coherence_traffic():
    """§4.2's remark made measurable: migration converts private traffic
    into sharing, inflating the two-bit scheme's broadcast overhead."""
    from repro.config import MachineConfig
    from repro.system.builder import build_machine
    from repro.verification.audit import audit_machine

    def overhead(interval):
        wl = MigratingWorkload(
            n_processors=4,
            migration_interval=interval,
            q=0.02,
            process_blocks=32,
            seed=11,
        )
        config = MachineConfig(
            n_processors=4, n_modules=2, n_blocks=wl.n_blocks, protocol="twobit"
        )
        machine = build_machine(config, wl)
        machine.run(refs_per_proc=1500, warmup_refs=300)
        audit_machine(machine).raise_if_failed()
        return machine.results().extra_commands_per_ref

    static_procs = overhead(interval=0)
    migrating = overhead(interval=150)
    assert migrating > 1.5 * static_procs


@pytest.mark.parametrize("frac", (-0.1, 2.0, float("nan")))
def test_private_write_frac_must_be_a_probability(frac):
    with pytest.raises(ValueError, match="private_write_frac"):
        MigratingWorkload(n_processors=2, private_write_frac=frac)
