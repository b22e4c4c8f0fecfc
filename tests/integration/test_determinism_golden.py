"""Golden-value determinism regression for full machine runs.

The kernel fast path (tuple heap entries, handle-free posts, batched
same-cycle pops) and the table-driven hit step must not
perturb event orderings: for a fixed seed the machine must execute the
exact same schedule.  Any drift in event count, final cycle, or the
measured results means the ordering contract broke.

Three tiers:

* ``GOLDEN`` — the historical twobit goldens (4 processors, three seeds).
* ``PROTOCOL_GOLDEN`` — every registry protocol in four modes: bare,
  instrumented (telemetry attached; the histograms are part of the
  golden), tie-seeded (same-cycle events randomly reordered), and
  faulted (the ``check`` fault plan, for protocols with a recovery
  path).  These pin the processor-side transition tables: every hit,
  upgrade and miss of every protocol runs through them.
* ``DELTA_GOLDEN`` — twobit and fullmap at n=16 on the delta network
  (radix 2 and 4), bare, tie-seeded and faulted.  The link wait and hop
  counters are part of the golden, so these pin the network's routes
  and link reservations.

If an *intentional* semantic change shifts these values, recapture them
with :func:`_protocol_run` and explain the change in the commit: event
count and final cycle must move together.
"""

import hashlib
import json

import pytest

from repro.config import MachineConfig, ProtocolOptions, sparse_options
from repro.faults import FAULT_PROTOCOLS, attach_faults, parse_faults
from repro.protocols import registry
from repro.protocols.base import ProtocolError
from repro.system.builder import build_machine
from repro.verification.audit import audit_machine
from repro.workloads.synthetic import DuboisBriggsWorkload
from tests.conftest import assert_dense_equivalent

#: seed -> (events_processed, final_cycle, extra_commands_per_ref,
#:          commands_per_ref, traffic_per_ref)
GOLDEN = {
    1: (5430, 2937, 0.19416666666666665, 0.34500000000000003,
        1.6766666666666667),
    7: (5427, 2918, 0.22333333333333336, 0.38, 1.7808333333333333),
    1984: (5138, 2728, 0.1575, 0.28500000000000003, 1.45),
}


def _run(seed, instrument=False):
    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.20, w=0.4, private_blocks_per_proc=32, seed=seed
    )
    config = MachineConfig(n_processors=4, n_modules=2, protocol="twobit")
    machine = build_machine(config, workload)
    if instrument:
        from repro.obs import instrument_machine

        instrument_machine(machine)
    machine.run(refs_per_proc=300, warmup_refs=50)
    # The golden runs double as coherence regressions: a drift that keeps
    # the event count but corrupts protocol state must still fail here.
    audit_machine(machine).raise_if_failed()
    results = machine.results()
    return (
        machine.sim.events_processed,
        machine.sim.now,
        results.extra_commands_per_ref,
        results.commands_per_ref,
        results.traffic_per_ref,
    )


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_machine_run_matches_golden(seed):
    assert _run(seed) == GOLDEN[seed]


def test_repeated_runs_are_bit_identical():
    # Same process, fresh machines: no hidden global state leaks between
    # runs.
    assert _run(1984) == _run(1984)


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_instrumented_run_is_bit_identical_to_bare(seed):
    # Full telemetry (spans, samplers, event retention) is observation
    # only: the instrumented machine must execute the exact same event
    # schedule and produce the exact same measurements.
    assert _run(seed, instrument=True) == GOLDEN[seed]


# ----------------------------------------------------------------------
# Every protocol, four modes
# ----------------------------------------------------------------------
MODES = ("bare", "instrumented", "tie_seed", "faulted")

#: (protocol, mode) -> (events_processed, final_cycle, results digest,
#: telemetry digest).  The telemetry digest covers the instrumented
#: run's per-outcome latency and per-phase histograms (None otherwise).
PROTOCOL_GOLDEN = {
    ('classical', 'bare'): (2653, 2699, '5f5992843251d4d8', None),
    ('classical', 'instrumented'): (2653, 2699, '5f5992843251d4d8', 'ebaa93b131c2aef0'),
    ('classical', 'tie_seed'): (2657, 2690, 'ba9efafba92e2de1', None),
    ('fullmap', 'bare'): (2624, 1655, '89279419e59df367', None),
    ('fullmap', 'instrumented'): (2624, 1655, '89279419e59df367', '786dd35e2dbfc281'),
    ('fullmap', 'tie_seed'): (2622, 1643, 'baff5ded904129f9', None),
    ('fullmap', 'faulted'): (2697, 1688, '1438bb0dff9428a9', None),
    ('fullmap_local', 'bare'): (2498, 1530, 'c592f76d808c866b', None),
    ('fullmap_local', 'instrumented'): (2498, 1530, 'c592f76d808c866b', '5b2d9cd5c9baa8f4'),
    ('fullmap_local', 'tie_seed'): (2498, 1507, 'd7da29bea3a7ee33', None),
    ('fullmap_local', 'faulted'): (2563, 1555, 'a4b228524c7aac75', None),
    ('illinois', 'bare'): (2027, 1800, 'a555e0918e15826e', None),
    ('illinois', 'instrumented'): (2027, 1800, 'a555e0918e15826e', '74c9877770f20c0d'),
    ('illinois', 'tie_seed'): (2027, 1790, '8a18e420d4d2f4c2', None),
    ('static', 'bare'): (2118, 1549, 'ece98bf7c4d453e7', None),
    ('static', 'instrumented'): (2118, 1549, 'ece98bf7c4d453e7', '5631adbd30a17558'),
    ('static', 'tie_seed'): (2118, 1587, '9af95dbede48d4d0', None),
    ('twobit', 'bare'): (2763, 1629, 'f06c28b650702bf6', None),
    ('twobit', 'instrumented'): (2763, 1629, 'f06c28b650702bf6', 'fc2c2c33be385cc8'),
    ('twobit', 'tie_seed'): (2763, 1630, '54307b8c96ef6db1', None),
    ('twobit', 'faulted'): (2828, 1758, 'c98441c4b7662a6c', None),
    ('twobit_wt', 'bare'): (2653, 2697, '0c902047b8b9bfdb', None),
    ('twobit_wt', 'instrumented'): (2653, 2697, '0c902047b8b9bfdb', '54ab5d17fa5ca668'),
    ('twobit_wt', 'tie_seed'): (2657, 2691, 'd6a98d0a98fa67dc', None),
    ('write_once', 'bare'): (2199, 2273, '224f726993deaced', None),
    ('write_once', 'instrumented'): (2199, 2273, '224f726993deaced', '82f585f99b6f38ef'),
    ('write_once', 'tie_seed'): (2206, 2274, '51393b6a7f848435', None),
}


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _protocol_run(protocol, mode):
    workload = DuboisBriggsWorkload(
        n_processors=4, q=0.2, w=0.4, private_blocks_per_proc=16, seed=11
    )
    config = MachineConfig(
        n_processors=4, n_modules=2, n_blocks=workload.n_blocks,
        protocol=protocol,
        network=registry.resolve(protocol).default_network(),
        tie_seed=5 if mode == "tie_seed" else None,
    )
    machine = build_machine(config, workload)
    if mode == "faulted":
        attach_faults(machine, parse_faults("check"))
    obs = None
    if mode == "instrumented":
        from repro.obs import instrument_machine

        obs = instrument_machine(machine)
    machine.run(refs_per_proc=150, warmup_refs=30)
    audit_machine(machine).raise_if_failed()
    telemetry = None
    if obs is not None:
        obs.flush(machine.sim.now)
        telemetry = _digest({
            "latency": {k: h.to_dict() for k, h in sorted(obs.latency.items())},
            "phases": {k: h.to_dict() for k, h in sorted(obs.phases.items())},
        })
    return (
        machine.sim.events_processed,
        machine.sim.now,
        _digest(machine.results().to_dict()),
        telemetry,
    )


PROTOCOL_CASES = [
    (protocol, mode)
    for protocol in sorted(registry.protocol_names())
    for mode in MODES
    if mode != "faulted" or protocol in FAULT_PROTOCOLS
]


@pytest.mark.parametrize("protocol,mode", PROTOCOL_CASES)
def test_protocol_run_matches_golden(protocol, mode):
    assert _protocol_run(protocol, mode) == PROTOCOL_GOLDEN[(protocol, mode)]


def test_protocol_goldens_cover_the_registry():
    assert set(PROTOCOL_GOLDEN) == set(PROTOCOL_CASES)


@pytest.mark.parametrize("protocol", sorted(registry.protocol_names()))
def test_instrumented_protocol_run_matches_bare(protocol):
    # Telemetry is observation only, for every protocol's hit step.
    bare = PROTOCOL_GOLDEN[(protocol, "bare")]
    instrumented = PROTOCOL_GOLDEN[(protocol, "instrumented")]
    assert instrumented[:3] == bare[:3]


# ----------------------------------------------------------------------
# Delta network timing
# ----------------------------------------------------------------------
#: (protocol, radix, mode) -> (events_processed, final_cycle,
#: wait_cycles, hop_cycles, outcome).  The outcome is the results
#: digest, or the text of the ProtocolError that ended the run.  These
#: pin every link reservation of the delta network: a route or
#: reservation change moves the wait/hop counters, and any timing shift
#: moves the schedule.
DELTA_GOLDEN = {
    ('fullmap', 2, 'bare'): (4797, 3206, 1267.0, 5812.0, '074c3017e33b2c89'),
    ('fullmap', 2, 'tie_seed'): (4815, 3232, 1337.0, 5920.0, '138b617d8c74e6db'),
    ('fullmap', 2, 'faulted'): (4954, 3390, 1587.0, 6072.0, '99fc60104c233f71'),
    ('fullmap', 4, 'bare'): (4794, 1919, 643.0, 2924.0, 'a0eef014cc5ea6ca'),
    ('fullmap', 4, 'tie_seed'): (4824, 1956, 799.0, 2982.0, '8ce72f86922fc654'),
    ('fullmap', 4, 'faulted'): (
        1184, 487, 94.0, 1536.0,
        'cache10: REQUEST for block 101 NAKed 3 times; giving up',
    ),
    ('twobit', 2, 'bare'): (6804, 3328, 11873.0, 13540.0, '14bbe8fc5813b2e8'),
    ('twobit', 2, 'tie_seed'): (6829, 3374, 12594.0, 13652.0, 'b465338a2bcd61d4'),
    ('twobit', 2, 'faulted'): (7056, 3647, 11815.0, 13676.0, '9e66bc1dc9182057'),
    ('twobit', 4, 'bare'): (6809, 2121, 9064.0, 6770.0, 'd2c9af252ac59dd6'),
    ('twobit', 4, 'tie_seed'): (6811, 2094, 8337.0, 6774.0, '7721dd3c3bb725b6'),
    ('twobit', 4, 'faulted'): (7062, 2195, 8853.0, 6866.0, '03dfb7f7837e0969'),
}

DELTA_MODES = ("bare", "tie_seed", "faulted")
DELTA_CASES = [
    (protocol, radix, mode)
    for protocol in ("fullmap", "twobit")
    for radix in (2, 4)
    for mode in DELTA_MODES
]


def _delta_machine(protocol, radix, mode="bare", sparse=None):
    """n=16 on a delta network; ``sparse`` None keeps default options."""
    workload = DuboisBriggsWorkload(
        n_processors=16, q=0.2, w=0.4, private_blocks_per_proc=8, seed=11
    )
    config = MachineConfig(
        n_processors=16, n_modules=4, n_blocks=workload.n_blocks,
        protocol=protocol, network="delta", delta_radix=radix,
        tie_seed=5 if mode == "tie_seed" else None,
        options=ProtocolOptions() if sparse is None else sparse_options(),
        sparse_fanout=bool(sparse),
    )
    machine = build_machine(config, workload)
    if mode == "faulted":
        attach_faults(machine, parse_faults("check"))
    return machine


def _delta_run(protocol, radix, mode):
    machine = _delta_machine(protocol, radix, mode)
    try:
        machine.run(refs_per_proc=60, warmup_refs=15)
    except ProtocolError as exc:
        # The check plan allows two NAK retries, which a 16-way machine
        # can exhaust; where it gives up is as much a timing pin as a
        # results digest.
        outcome = str(exc)
    else:
        audit_machine(machine).raise_if_failed()
        outcome = _digest(machine.results().to_dict())
    counters = machine.network.counters
    return (
        machine.sim.events_processed,
        machine.sim.now,
        counters.get("wait_cycles"),
        counters.get("hop_cycles"),
        outcome,
    )


@pytest.mark.parametrize("protocol,radix,mode", DELTA_CASES)
def test_delta_run_matches_golden(protocol, radix, mode):
    assert _delta_run(protocol, radix, mode) == DELTA_GOLDEN[
        (protocol, radix, mode)
    ]


def test_delta_goldens_cover_the_cases():
    assert set(DELTA_GOLDEN) == set(DELTA_CASES)


def test_delta_check_give_up_is_the_retry_budget_not_a_livelock():
    # The check plan gives up on the radix-4 full map (DELTA_GOLDEN)
    # because its two-retry budget runs out, not because the machine
    # cannot drain: with eight retries the same machine and fault seed
    # run to completion and audit clean.
    machine = _delta_machine("fullmap", 4)
    attach_faults(machine, parse_faults("check,max_retries=8"))
    machine.run(refs_per_proc=60, warmup_refs=15)
    audit_machine(machine).raise_if_failed()
    assert machine.results().total_refs == 16 * 60


@pytest.mark.parametrize("radix", (2, 4))
def test_delta_sparse_twin_fingerprints_equal_dense(radix):
    # Phantom copies reserve the same links in the same order as real
    # ones, so the sparse machine keeps the dense machine's schedule.
    twins = []
    for sparse in (False, True):
        machine = _delta_machine("twobit", radix, sparse=sparse)
        machine.run(refs_per_proc=60, warmup_refs=15)
        audit_machine(machine).raise_if_failed()
        twins.append(machine)
    dense, sparse = twins
    assert sparse.network.counters.get("sparse_deliveries_suppressed") > 0
    assert_dense_equivalent(dense, sparse, f"delta radix={radix}")
