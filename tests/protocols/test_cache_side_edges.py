"""Cache-side controller corner cases and defensive paths."""

import pytest

from repro.interconnect.message import Message, MessageKind
from repro.protocols import registry
from repro.workloads.reference import MemRef, Op

from tests.conftest import (
    assert_clean_audit,
    read,
    scripted_machine,
    write,
)


def test_rejects_second_outstanding_reference():
    machine = scripted_machine([[], []])
    cache = machine.caches[0]
    cache.access(MemRef(0, Op.READ, 1, shared=True), lambda r: None)
    with pytest.raises(RuntimeError, match="outstanding"):
        cache.access(MemRef(0, Op.READ, 2, shared=True), lambda r: None)


@pytest.mark.parametrize("protocol", registry.protocol_names())
def test_second_access_before_the_step_is_refused(protocol):
    # One outstanding reference per cache in every family: the second
    # access() arrives before the first one's table step has run.
    machine = scripted_machine(
        [[], []], protocol=protocol,
        network=registry.resolve(protocol).default_network(),
    )
    cache = machine.caches[0]
    cache.access(MemRef(0, Op.WRITE, 1, shared=True), lambda r: None)
    with pytest.raises(RuntimeError, match="outstanding"):
        cache.access(MemRef(0, Op.READ, 2, shared=True), lambda r: None)


def test_rejects_foreign_pid_reference():
    machine = scripted_machine([[], []])
    with pytest.raises(ValueError, match="P1"):
        machine.caches[0].access(
            MemRef(1, Op.READ, 1, shared=True), lambda r: None
        )


def test_unknown_message_kind_rejected():
    machine = scripted_machine([[], []])
    bogus = Message(
        kind=MessageKind.WT_ACK, src="ctrl0", dst="cache0", block=1
    )
    with pytest.raises(ValueError, match="cannot handle"):
        machine.caches[0].deliver(bogus)


def test_unexpected_get_rejected():
    machine = scripted_machine([[], []])
    stray = Message(
        kind=MessageKind.GET, src="ctrl0", dst="cache0", block=1, version=1
    )
    with pytest.raises(RuntimeError, match="unexpected data"):
        machine.caches[0].deliver(stray)


def test_stale_mgranted_dropped():
    machine = scripted_machine([[], []])
    read(machine, 0, 1)
    stray = Message(
        kind=MessageKind.MGRANTED,
        src="ctrl0",
        dst="cache0",
        block=1,
        flag=True,
        meta={"txn": 424242},
    )
    machine.caches[0].deliver(stray)  # no pending MREQUEST: dropped
    assert machine.caches[0].counters["stale_mgranted"] == 1


def test_broadinv_for_own_request_ignored():
    """BROADINV(a, k) carries k so cache k never invalidates its own
    copy (§3.2.4's reason for the parameter)."""
    machine = scripted_machine([[], []])
    read(machine, 0, 1)
    inv = Message(
        kind=MessageKind.BROADINV,
        src="ctrl0",
        dst="cache0",
        block=1,
        requester=0,  # cache0 itself
    )
    machine.caches[0].deliver(inv)
    assert machine.caches[0].holds(1) is not None
    assert machine.caches[0].counters["snoop_commands"] == 0


def test_broadquery_without_copy_is_silent():
    machine = scripted_machine([[], []])
    query = Message(
        kind=MessageKind.BROADQUERY,
        src="ctrl0",
        dst="cache0",
        block=1,
        rw="read",
        requester=1,
    )
    machine.caches[0].deliver(query)
    machine.sim.run()
    cache = machine.caches[0]
    assert cache.counters["snoop_useless"] == 1
    assert cache.counters["query_data_supplied"] == 0


def test_purge_without_copy_answers_nocopy():
    machine = scripted_machine([[], []], protocol="fullmap")
    # Deliver a PURGE for a block cache0 does not hold; it must answer
    # so the (selective) controller cannot hang.
    machine.controllers[0].directory  # built
    responses = []
    orig_send = machine.network.send
    machine.network.send = lambda m: responses.append(m) or orig_send(m)
    purge = Message(
        kind=MessageKind.PURGE,
        src="ctrl0",
        dst="cache0",
        block=1,
        rw="read",
        requester=1,
    )
    machine.caches[0].deliver(purge)
    kinds = [m.kind for m in responses]
    assert MessageKind.QUERY_NOCOPY in kinds


def test_mreq_converted_counter_in_race():
    machine = scripted_machine([[], []])
    read(machine, 0, 1)
    read(machine, 1, 1)
    results = []
    machine.caches[0].access(MemRef(0, Op.WRITE, 1, shared=True), results.append)
    machine.caches[1].access(MemRef(1, Op.WRITE, 1, shared=True), results.append)
    machine.sim.run(max_events=100_000)
    total = sum(c.counters["mreq_converted_to_miss"] for c in machine.caches)
    assert total == 1
    assert_clean_audit(machine)


def test_engine_queue_depth_tracked():
    machine = scripted_machine([[], [], []], n_modules=1)
    for pid in range(3):
        read(machine, pid, 1)
    results = []
    for pid in range(3):
        machine.caches[pid].access(
            MemRef(pid, Op.WRITE, 1, shared=True), results.append
        )
    machine.sim.run(max_events=100_000)
    assert len(results) == 3
    assert machine.controllers[0].max_queue_depth >= 1
    assert_clean_audit(machine)


def test_write_back_buffer_visible_in_holds_check():
    machine = scripted_machine([[], []], cache_sets=1, cache_assoc=1)
    write(machine, 0, 0)
    # Force eviction: the dirty block moves to the wb buffer briefly,
    # then is absorbed; afterwards neither structure holds it.
    read(machine, 0, 1)
    assert machine.caches[0].holds(0) is None
    assert 0 not in machine.caches[0].wb_buffer
    assert_clean_audit(machine)
